import math

import pytest

import noncomm.checks as checks
import noncomm.states as states
from noncomm.checks import SUITES, run_checks


# every check in declaration order, with its `default` tolerance as
# `noncomm check` prints it: the registry holds the roster and the bounds
DEFAULT_ROSTER = [
    ("algebra.star_algebra_laws", "1.000e-10"),
    ("algebra.diagonal_commutativity", "1.000e-10"),
    ("algebra.commuting_projection_products", "1.000e-07"),
    ("algebra.spectral_additivity", "1.000e-08"),
    ("algebra.resolution_of_identity", "1.000e-08"),
    ("algebra.diagonal_functional_calculus", "0.000e+00"),
    ("states.state_positivity", "1.000e-08"),
    ("states.conditioning_idempotence", "1.000e-08"),
    ("states.projection_update_functional_identity", "1.000e-08"),
    ("states.diagonal_update_matches_bayes", "1.000e-10"),
    ("states.diagonal_update_matches_dense_lueders", "1.000e-10"),
    ("states.commuting_compatibility", "1.000e-10"),
    ("states.noncommutative_invalidation_witness", "1.000e-10"),
    ("states.fingerprint_uniqueness", "1.000e-08"),
    ("dynamics.heisenberg_automorphism_laws", "1.000e-07"),
    ("dynamics.koopman_automorphism_laws", "1.000e-07"),
    ("dynamics.spectrum_preservation", "1.000e-07"),
    ("dynamics.koopman_multiplicative_exact", "0.000e+00"),
    ("measurement.born_rule_sampling", "1.000e+00"),
    ("measurement.repetition_consistency", "0.000e+00"),
    ("measurement.schedule_duality", "1.000e-08"),
    ("measurement.singlet_local_conditioning", "1.000e-10"),
    ("scenarios.zeno_analytic_agreement", "6.168e-03"),
    ("scenarios.zeno_monotone_freezing", "0.000e+00"),
    ("scenarios.polarization_invalidation", "1.000e-10"),
    ("scenarios.classical_zero_preservation", "0.000e+00"),
    ("scenarios.epr_anticorrelation_every_trial", "0.000e+00"),
]


def _roster(results):
    return [(f"{r.suite}.{r.name}", f"{r.tolerance:.3e}") for r in results]


def test_all_checks_pass_default_profile():
    results = run_checks("all", "default")
    assert len(results) == sum(len(fns) for fns in SUITES.values())
    assert _roster(results) == DEFAULT_ROSTER
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_states_suite_passes_strict_profile():
    results = run_checks("states", "strict")
    assert all(r.passed for r in results)
    # strict really is the stated tolerance, not the relaxed one
    by_name = {r.name: r for r in results}
    assert by_name["diagonal_update_matches_bayes"].tolerance == 1e-12
    assert _roster(results) == [
        ("states.state_positivity", "1.000e-10"),
        ("states.conditioning_idempotence", "1.000e-10"),
        ("states.projection_update_functional_identity", "1.000e-10"),
        ("states.diagonal_update_matches_bayes", "1.000e-12"),
        ("states.diagonal_update_matches_dense_lueders", "1.000e-12"),
        ("states.commuting_compatibility", "1.000e-12"),
        ("states.noncommutative_invalidation_witness", "1.000e-12"),
        ("states.fingerprint_uniqueness", "1.000e-10"),
    ]


def test_unknown_suite_and_profile_rejected():
    with pytest.raises(ValueError):
        run_checks("nosuch")
    with pytest.raises(ValueError):
        run_checks("all", "lenient")


def test_broken_conditioning_is_caught(monkeypatch):
    # a conditioning that ignores the projection must fail the suite:
    # the repeated-experiment certainty check sees omega'(P) != 1
    monkeypatch.setattr(checks, "condition", lambda state, p: state)
    results = run_checks("states", "default")
    assert any(not r.passed for r in results)
    names = {r.name for r in results if not r.passed}
    assert "conditioning_idempotence" in names


def test_diagonal_bayes_check_compares_with_exact_bayes(monkeypatch):
    # `condition` and `classical_condition` share `states.bayes`: a fault in
    # that one helper must show against exact Bayes, not cancel out
    bayes = states.bayes
    monkeypatch.setattr(states, "bayes", lambda mu, s: bayes(mu, s) * (1.0 + 1e-6))
    res = checks._check_diagonal_update_matches_bayes("default")
    assert not res.passed and res.defect > 1e-8


def test_diagonal_commutativity_fails_when_commutes_disagrees(monkeypatch):
    # the commutes() verdict folds into the defect: disagreement reads inf
    monkeypatch.setattr(checks, "commutes", lambda g, h: False)
    res = checks._check_diagonal_commutativity("default")
    assert not res.passed and res.defect == math.inf
    assert res.line().startswith("FAIL algebra.diagonal_commutativity: defect=inf")


def test_check_result_line_format():
    res = run_checks("dynamics", "default")[0]
    line = res.line()
    assert line.startswith(("PASS", "FAIL"))
    assert "defect=" in line and "tolerance=" in line


def test_born_rule_sampling_defect_is_pinned():
    # recorded with one scalar `perform` call per draw: the stacked step must
    # make the same 3 x 10^5 decisions, so the defect matches to the last bit
    res = checks._check_born_rule_sampling("default")
    assert res.passed
    assert res.defect == 0.4690711862583106
