import math

import numpy as np
import pytest
from draws import HypothesisDraw
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import noncomm.algebra as algebra
import noncomm.checks as checks
import noncomm.dynamics as dynamics
import noncomm.measurement as measurement
import noncomm.states as states
from noncomm.checks import SUITES, run_checks

CHECKS = {f"{c.suite}.{c.name}": c for fns in SUITES.values() for c in fns}


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


def _holds_on_hypothesis_draws(check, **options):
    """A hypothesis test of `check`'s law at its strict bound, one case per example."""
    tol = check.tolerance("strict")

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], **options)
    @given(st.data())
    def holds(data):
        assert check.law(HypothesisDraw(data)) <= tol

    return holds


@pytest.mark.parametrize("name", [name for name, c in CHECKS.items() if not c.statistical])
def test_law_holds_on_hypothesis_draws(name):
    # every law that is not statistical, so a law added to SUITES is covered
    # here, at its strict bound: on its fixed draws, then on hypothesis draws;
    # a law that takes no input runs once
    check = CHECKS[name]
    result = check("strict")
    assert result.passed, result.line()
    if check.seed is None:
        assert check.law(None) <= check.tolerance("strict")
    else:
        _holds_on_hypothesis_draws(check, max_examples=20)()


_bayes = states.bayes


def _unchecked(state, rho):  # a conditioned state as `condition` keeps it, renormalized
    return states.State._unchecked(state.context, states.renormalize(rho))


@pytest.mark.parametrize("modules, name, mutant, law", [
    # the repeated question is no longer certain
    pytest.param([checks], "condition", lambda state, p: state, "states.conditioning_idempotence",
                 id="condition-ignores-P"),
    # on a full algebra, renormalize(P rho) in place of renormalize(P rho P)
    pytest.param([checks], "condition", lambda state, p: _unchecked(state, p.matrix @ state.rho),
                 "states.projection_update_functional_identity", id="condition-drops-second-P"),
    # the same fault inside `lueders`, which `condition` and the kernel share
    pytest.param([states, measurement], "lueders", lambda rho, p: states.renormalize(p @ rho),
                 "states.projection_update_functional_identity", id="lueders-drops-second-P"),
    # the automorphism laws hold for either direction of time; duality does not
    pytest.param([checks], "heisenberg_evolve",
                 lambda a, h, t: dynamics.heisenberg_evolve(a, h, -t),
                 "measurement.schedule_duality", id="heisenberg-runs-backwards"),
    # `condition` and `classical_condition` share `bayes`: its fault must show
    # against exact Bayes, not cancel out
    pytest.param([states], "bayes", lambda mu, s: _bayes(mu, s) * (1.0 + 1e-6),
                 "states.diagonal_update_matches_bayes", id="bayes-off-by-1e-6"),
])
def test_mutation_fails_its_law_under_both_draws(monkeypatch, modules, name, mutant, law):
    for module in modules:
        monkeypatch.setattr(module, name, mutant)
    assert not CHECKS[law]("default").passed
    with pytest.raises(AssertionError):
        _holds_on_hypothesis_draws(CHECKS[law], phases=[Phase.generate], database=None,
                                   max_examples=200)()


def test_a_law_that_raises_fails_and_the_run_goes_on(monkeypatch):
    # renormalize(P rho) in place of renormalize(P rho P) on a full algebra:
    # fingerprint_uniqueness then builds a State from a matrix that is not
    # one, which raises; that law fails with an inf defect, and every law
    # still gets its verdict
    condition = checks.condition

    def drops_second_p(state, p):
        if state.context.is_diagonal:
            return condition(state, p)
        return _unchecked(state, p.matrix @ state.rho)

    monkeypatch.setattr(checks, "condition", drops_second_p)
    results = run_checks("all", "strict")
    assert len(results) == len(DEFAULT_ROSTER)
    by_name = {f"{r.suite}.{r.name}": r for r in results}
    assert not by_name["states.projection_update_functional_identity"].passed
    fingerprint = by_name["states.fingerprint_uniqueness"]
    assert not fingerprint.passed and fingerprint.defect == math.inf
    assert fingerprint.line().startswith("FAIL states.fingerprint_uniqueness: defect=inf ")


_cluster = algebra._cluster


@pytest.mark.parametrize("scale", [0.5, 2.0], ids=["splits-below-tol", "merges-above-tol"])
def test_a_grouping_fault_fails_the_resolution_of_identity_law(monkeypatch, scale):
    # the hypothesis draw spaces eigenvalues 0.5-2x CLUSTER_TOL apart, so a
    # cluster cut at another tolerance shows; the fixed draws have no such gaps
    monkeypatch.setattr(algebra, "_cluster", lambda values, tol: _cluster(values, scale * tol))
    with pytest.raises(AssertionError):
        _holds_on_hypothesis_draws(CHECKS["algebra.resolution_of_identity"], phases=[Phase.generate],
                                   database=None, max_examples=200)()


def test_diagonal_commutativity_fails_when_commutes_disagrees(monkeypatch):
    # the commutes() verdict folds into the defect: disagreement reads inf
    monkeypatch.setattr(checks, "commutes", lambda g, h: False)
    res = checks._check_diagonal_commutativity("default")
    assert not res.passed and res.defect == math.inf
    assert res.line().startswith("FAIL algebra.diagonal_commutativity: defect=inf")


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_projection_draw_has_every_rank_on_both_kinds(diagonal, data):
    # both draws build a checked `Projection` of each rank from 0 to n
    n = data.draw(st.integers(1, 6))
    ctx = (algebra.diagonal_context(algebra.PhaseSpace(tuple(f"x{i}" for i in range(n))))
           if diagonal else algebra.full_context(n))
    for draw in (checks.NumpyDraw(np.random.default_rng(n)), HypothesisDraw(data)):
        for rank in range(n + 1):
            p = draw.projection(ctx, rank)
            assert type(p) is algebra.Projection and p.context == ctx
            assert np.linalg.matrix_rank(p.matrix) == rank


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
