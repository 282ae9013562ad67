import pytest

import noncomm.checks as checks
import noncomm.states as states
from noncomm.checks import SUITES, run_checks


def test_all_checks_pass_default_profile():
    results = run_checks("all", "default")
    assert len(results) == sum(len(fns) for fns in SUITES.values())
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_states_suite_passes_strict_profile():
    results = run_checks("states", "strict")
    assert all(r.passed for r in results)
    # strict really is the stated tolerance, not the relaxed one
    by_name = {r.name: r for r in results}
    assert by_name["diagonal_update_matches_bayes"].tolerance == 1e-12


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
