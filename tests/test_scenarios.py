import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncomm import measurement, scenarios
from noncomm.algebra import (
    Observable,
    PhaseSpace,
    Projection,
    SpectralData,
    ValueSet,
    characteristic_projection,
    diagonal_context,
    eigendecompose,
    full_context,
)
from noncomm.cli import main, result_json
from noncomm.dynamics import Flow, Hamiltonian, propagator
from noncomm.measurement import (
    ScheduleEntry,
    YesNoExperiment,
    embed_local,
    entry_dict,
    evolve_schedule,
    perform,
    tensor,
    trial_generator,
    trial_records,
)
from noncomm.scenarios import (
    SCENARIOS,
    ParameterError,
    ScenarioResult,
    UnknownScenarioError,
    memory_limit,
    peak_bytes,
    run_scenario,
    validate_params,
)
from noncomm.states import (State, classical_state, expectation, pure_state, renormalize,
                            yes_probability)

SEED = 20240817


def band(p, n):
    return 4 * math.sqrt(p * (1 - p) / n)


# -------------------------------------------------------------- polarization


def test_polarization_orthogonal_pair_blocks():
    res = run_scenario("polarization_sequence", {"angles": [0, 90]}, trials=200, seed=SEED)
    assert res.summary["analytic_pass_all"] <= 1e-12
    assert res.summary["empirical_pass_all"] == 0.0


def test_polarization_inserted_diagonal_opens_channel():
    res = run_scenario("polarization_sequence", {"angles": [0, 45, 90]},
                       trials=4000, seed=SEED)
    assert abs(res.summary["analytic_pass_all"] - 0.25) <= 1e-12
    assert abs(res.summary["empirical_pass_all"] - 0.25) <= band(0.25, 4000)
    assert res.summary["prob_final_initial"] <= 1e-12
    assert abs(res.summary["prob_final_after_intermediate"] - 0.5) <= 1e-12
    assert res.summary["invalidated"] is True


def test_polarization_repeat_passes_surely():
    res = run_scenario("polarization_sequence", {"angles": [0, 0]}, trials=50, seed=SEED)
    assert res.summary["analytic_pass_all"] == 1.0
    assert res.summary["empirical_pass_all"] == 1.0


def test_polarization_needs_two_angles():
    with pytest.raises(ParameterError):
        run_scenario("polarization_sequence", {"angles": [10.0]}, trials=1, seed=0)


def _one_projection_per_ket(ctx, v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return Projection(ctx, np.outer(v, v.conj()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
@example([0.0, 45.0, 90.0])  # the default polarizers
@example([0.0, 22.5, 45.0, 67.5, 90.0, 112.5, 135.0, 157.5, 180.0, 202.5])
def test_stacked_ket_projectors_are_one_projection_per_ket_bitwise(angles):
    ctx = full_context(2)
    kets = [[math.cos(t), math.sin(t)] for t in np.deg2rad(angles)] + [[1.0, 1.0]]  # Q
    built = scenarios._ket_projectors(ctx, kets)
    assert len(built) == len(kets)
    for v, p in zip(kets, built):
        want = _one_projection_per_ket(ctx, v)
        assert type(p) is Projection and p.context == ctx
        assert p.matrix.tobytes() == want.matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3), min_size=d, max_size=d),
    min_size=1, max_size=5)))
def test_stacked_ket_projectors_of_drawn_complex_kets_are_bitwise(kets):
    ctx = full_context(len(kets[0]))
    for v, p in zip(kets, scenarios._ket_projectors(ctx, kets)):
        assert p.matrix.tobytes() == _one_projection_per_ket(ctx, v).matrix.tobytes()


# -------------------------------------------------------------- zeno precise


def test_zeno_precise_single_measurement_kills_survival():
    res = run_scenario("zeno_precise", {"omega": math.pi, "T": 1.0, "n": 1},
                       trials=100, seed=SEED)
    assert res.summary["analytic"] <= 1e-12
    assert res.summary["empirical"] == 0.0


def test_zeno_precise_hundred_measurements():
    res = run_scenario("zeno_precise", {"omega": math.pi, "T": 1.0, "n": 100},
                       trials=3000, seed=SEED)
    expected = math.cos(math.pi / 200) ** 200
    assert abs(res.summary["analytic"] - expected) <= 1e-15
    assert abs(res.summary["empirical"] - expected) <= band(expected, 3000)


def test_zeno_precise_no_drive_means_certain_survival():
    res = run_scenario("zeno_precise", {"omega": 0.0, "n": 25}, trials=64, seed=SEED)
    assert res.summary["analytic"] == 1.0
    assert res.summary["empirical"] == 1.0


def test_zeno_precise_rejects_zero_measurements():
    with pytest.raises(ParameterError):
        run_scenario("zeno_precise", {"n": 0}, trials=1, seed=0)


# --------------------------------------------------------------- zeno coarse


def test_zeno_coarse_full_window_is_trivial_projection():
    res = run_scenario("zeno_coarse",
                       {"num_levels": 6, "window_width": 6, "drift_rate": 0,
                        "steps": 12, "coupling": 0.3},
                       trials=3, seed=SEED, record_trials=True)
    # identity window: every answer yes with probability one, pure drift
    for rec in res.trial_records:
        assert all(e["answer"] == "yes" and e["probability"] >= 1.0 - 1e-12
                   for e in rec["entries"])
    assert res.summary["freeze_metric"] > 0.5


def test_zeno_coarse_width_one_freezes():
    res = run_scenario("zeno_coarse",
                       {"window_width": 1, "drift_rate": 0, "coupling": 0.05,
                        "steps": 24},
                       trials=150, seed=SEED)
    assert res.summary["freeze_metric"] < 0.3


def test_zeno_coarse_window_moves_with_drift():
    res = run_scenario("zeno_coarse",
                       {"window_width": 3, "drift_rate": 1, "coupling": 0.05,
                        "steps": 24},
                       trials=150, seed=SEED)
    assert res.summary["freeze_metric"] > 0.6
    assert res.summary["net_drift"] > 0.5


def test_zeno_coarse_parameter_validation():
    with pytest.raises(ParameterError):
        run_scenario("zeno_coarse", {"window_width": 9, "num_levels": 8}, trials=1, seed=0)
    with pytest.raises(ParameterError):
        run_scenario("zeno_coarse", {"window_width": 0}, trials=1, seed=0)
    with pytest.raises(ParameterError):
        run_scenario("zeno_coarse", {"initial_level": 99}, trials=1, seed=0)
    with pytest.raises(ParameterError):
        run_scenario("zeno_coarse", {"steps": -1}, trials=1, seed=0)
    res = run_scenario("zeno_coarse", {"steps": 0}, trials=2, seed=0)
    assert res.series["mean_level_trajectory"] == [1.0]


def _coarse_state_vector_oracle(levels, width, drift, steps, coupling, dt,
                                start, trials, seed):
    """Independent re-simulation with bare numpy state vectors."""
    a_vals = np.arange(1, levels + 1, dtype=float)
    ham = np.zeros((levels, levels), dtype=complex)
    for i in range(levels - 1):
        ham[i, i + 1] = ham[i + 1, i] = coupling
    w, v = np.linalg.eigh(ham)
    u_dt = (v * np.exp(-1j * w * dt)) @ v.conj().T
    below = (width - 1) // 2
    trajectories = np.zeros((trials, steps + 1))
    for i in range(trials):
        rng = trial_generator(seed, i)
        psi = np.zeros(levels, dtype=complex)
        psi[start - 1] = 1.0
        center = start
        traj = [float(a_vals @ np.abs(psi) ** 2)]
        for _ in range(steps):
            psi = u_dt @ psi
            mean = float(a_vals @ np.abs(psi) ** 2)
            center += int(np.clip(int(round(mean)) - center, -drift, drift))
            center = int(np.clip(center, 1, levels))
            lo = int(np.clip(center - below, 1, levels - width + 1))
            hi = lo + width - 1
            inside = (a_vals >= lo) & (a_vals <= hi)
            p_yes = float(np.abs(psi[inside]) ** 2 @ np.ones(inside.sum()))
            p_yes = min(max(p_yes, 0.0), 1.0)
            if p_yes <= 1e-12:
                yes = False
            elif p_yes >= 1 - 1e-12:
                yes = True
            else:
                yes = bool(rng.random() < p_yes)
            keep = inside if yes else ~inside
            psi = np.where(keep, psi, 0.0)
            psi = psi / np.linalg.norm(psi)
            traj.append(float(a_vals @ np.abs(psi) ** 2))
        trajectories[i] = traj
    return trajectories.mean(axis=0)


def test_zeno_coarse_matches_state_vector_oracle():
    params = dict(num_levels=5, window_width=3, drift_rate=1, steps=10,
                  coupling=0.25, dt=1.0, initial_level=1)
    res = run_scenario("zeno_coarse", params, trials=20, seed=SEED)
    oracle = _coarse_state_vector_oracle(
        levels=5, width=3, drift=1, steps=10, coupling=0.25, dt=1.0,
        start=1, trials=20, seed=SEED,
    )
    assert np.abs(np.array(res.series["mean_level_trajectory"]) - oracle).max() <= 1e-9


# ----------------------------------------------------------------------- epr


def test_epr_singlet_statistics():
    res = run_scenario("epr", trials=2000, seed=SEED)
    assert res.summary["anticorrelated_every_trial"] is True
    assert res.summary["anticorrelation_rate"] == 1.0
    assert abs(res.summary["a_yes_rate"] - 0.5) <= band(0.5, 2000)
    assert abs(res.summary["b_yes_rate"] - 0.5) <= band(0.5, 2000)
    assert res.summary["b_yes_prob_given_a_yes"] <= 1e-12
    assert res.summary["b_yes_prob_given_a_no"] >= 1.0 - 1e-12
    assert res.summary["marginal_mixed_distance_slot0"] <= 1e-12
    assert res.summary["marginal_mixed_distance_slot1"] <= 1e-12


def test_epr_product_control_correlates():
    res = run_scenario("epr", {"state": "product"}, trials=500, seed=SEED)
    assert res.summary["correlation_rate"] == 1.0
    assert res.summary["anticorrelation_rate"] == 0.0
    assert res.summary["a_yes_rate"] == 1.0


# ------------------------------------------------------------------ two slit


def test_two_slit_reference_example():
    root = 1 / math.sqrt(2)
    res = run_scenario("two_slit",
                       {"amp_l": [root, root], "amp_r": [root, -root]},
                       trials=3000, seed=SEED)
    nwp = res.series["analytic_no_which_path"]
    wp = res.series["analytic_which_path"]
    assert abs(nwp[0] - 1.0) <= 1e-12 and abs(nwp[1]) <= 1e-12
    assert abs(wp[0] - 0.5) <= 1e-12 and abs(wp[1] - 0.5) <= 1e-12
    assert res.series["invalidated_point_indices"] == [1]
    emp_nwp = res.series["empirical_no_which_path"]
    emp_wp = res.series["empirical_which_path"]
    assert emp_nwp[0] == 1.0 and emp_nwp[1] == 0.0
    assert abs(emp_wp[1] - 0.5) <= band(0.5, 3000)
    assert abs(res.summary["left_slit_rate"] - 0.5) <= band(0.5, 3000)


def test_two_slit_single_slit_control():
    res = run_scenario("two_slit", {"amp_l": [0.8, 0.6], "amp_r": [0.0, 0.0]},
                       trials=400, seed=SEED)
    expected = [0.64, 0.36]
    assert np.allclose(res.series["analytic_no_which_path"], expected, atol=1e-12)
    assert np.allclose(res.series["analytic_which_path"], expected, atol=1e-12)
    assert res.summary["left_slit_rate"] == 1.0
    assert res.summary["invalidated_points"] == 0


def test_two_slit_equal_amplitudes_no_relative_structure():
    res = run_scenario("two_slit", {"amp_l": [0.6, 0.8], "amp_r": [0.6, 0.8]},
                       trials=200, seed=SEED)
    assert np.allclose(res.series["analytic_no_which_path"],
                       res.series["analytic_which_path"], atol=1e-12)


def test_two_slit_complex_amplitudes_via_pairs():
    res = run_scenario("two_slit",
                       {"amp_l": [[0.0, 1.0], [1.0, 0.0]], "amp_r": [1.0, 0.0]},
                       trials=50, seed=SEED)
    # |i + 1|^2 = 2, |1 + 0|^2 = 1 -> normalized (2/3, 1/3)
    assert np.allclose(res.series["analytic_no_which_path"], [2 / 3, 1 / 3], atol=1e-12)


def test_two_slit_validation():
    with pytest.raises(ParameterError):
        run_scenario("two_slit", {"amp_l": [1.0], "amp_r": [1.0, 0.0]}, trials=1, seed=0)
    with pytest.raises(ParameterError):
        run_scenario("two_slit", {"amp_l": [0.0, 0.0], "amp_r": [0.0, 0.0]}, trials=1, seed=0)
    with pytest.raises(ParameterError):
        run_scenario("two_slit", {"amp_l": [1.0, 0.0], "amp_r": [-1.0, 0.0]}, trials=1, seed=0)


# ------------------------------------------------------------ three observer


def test_three_observer_mismatch_half():
    res = run_scenario("three_observer", trials=4000, seed=SEED)
    assert res.summary["analytic_mismatch"] == 0.5
    assert abs(res.summary["empirical_mismatch"] - 0.5) <= band(0.5, 4000)
    assert abs(res.summary["q_yes_rate"] - 0.5) <= band(0.5, 4000)


def test_three_observer_without_middle_never_mismatches():
    res = run_scenario("three_observer", {"middle": "none"}, trials=300, seed=SEED)
    assert res.summary["empirical_mismatch"] == 0.0


def test_three_observer_commuting_middle_never_mismatches():
    res = run_scenario("three_observer", {"middle": "repeat"}, trials=300, seed=SEED)
    assert res.summary["empirical_mismatch"] == 0.0


# --------------------------------------------------------- classical control


def test_classical_zeno_never_freezes():
    res = run_scenario("classical_control", {"scenario": "zeno"}, trials=5, seed=SEED)
    assert res.series["position_trajectory"] == [0, 1, 2, 3, 0, 1, 2, 3, 0]
    assert res.summary["advanced_every_step"] is True
    assert res.summary["frozen_steps"] == 0
    assert res.summary["cycles_completed"] == 2
    assert res.summary["all_trials_identical"] is True


def scalar_classical_zeno(n_points, steps, trials, seed):
    """The loop the relabelled point questions replaced: every step evolves
    the point schedule with `evolve_schedule` and asks it with `perform`
    until the first yes.  Returns the whole result dict, records included."""
    space = PhaseSpace(tuple(f"x{i + 1}" for i in range(n_points)))
    ctx = diagonal_context(space)
    cycle = Flow(space, tuple((i + 1) % n_points for i in range(n_points)))
    point_exps = [YesNoExperiment(f"at {space.points[j]}",
                                  characteristic_projection(ctx, space.subset([j])))
                  for j in range(n_points)]
    trajectories, records = [], []
    for i in range(trials):
        rng = trial_generator(seed, i)
        state, positions, entries = classical_state(ctx, np.eye(n_points)[0]), [0], []
        for t in range(1, steps + 1):
            pos = None
            schedule = [ScheduleEntry(float(t), e) for e in point_exps]
            for j, entry in enumerate(evolve_schedule(schedule, cycle)):
                out, state = perform(state, entry.experiment, rng)
                entries.append({"time": t, "label": entry.experiment.label,
                                "answer": out.answer, "probability": out.probability})
                if out.yes:
                    pos = j
                    break
            positions.append(pos)
        trajectories.append(positions)
        records.append({"trial": i, "trajectory": positions, "entries": entries})
    traj = trajectories[0]
    moves = sum(a != b for a, b in zip(traj, traj[1:]))
    echo = {"scenario": "zeno", "num_points": n_points, "steps": steps}
    summary = {"scenario": "zeno", "num_points": n_points, "steps": steps,
               "advanced_every_step": moves == steps, "frozen_steps": steps - moves,
               "cycles_completed": steps // n_points,
               "all_trials_identical": all(t == traj for t in trajectories)}
    return {"scenario": "classical_control", "parameters": echo, "seed": seed,
            "trials": trials, "summary": summary,
            "series": {"position_trajectory": traj}, "trial_records": records}


# steps below, equal to, a multiple of and not a multiple of the period; many
# trials on few points, and few on many points
@pytest.mark.parametrize("n_points, steps, trials, seed", [
    (2, 5, 3, 0), (4, 8, 3, SEED), (5, 3, 2, 7), (7, 30, 2, 11), (16, 64, 2, 9),
    (48, 96, 1, 2**64 - 1), (16, 20, 40, 5), (1000, 2, 3, 13),
])
def test_classical_zeno_matches_evolved_schedule_reference(n_points, steps, trials, seed):
    res = run_scenario("classical_control",
                       {"scenario": "zeno", "num_points": n_points, "steps": steps},
                       trials=trials, seed=seed, record_trials=True)
    assert res.to_dict() == scalar_classical_zeno(n_points, steps, trials, seed)


def test_classical_zeno_work_does_not_grow_with_trials(monkeypatch):
    # every answer is forced and a point mass is a fixed point of every point question,
    # so the one chain asks once, whatever the steps and trials: x1 of the one measure
    # row, for one trial, with no uniforms, and the row it hands back is the row
    def step(rho, cls, questions, ask, uniforms, used):
        calls.append((rho.shape, len(cls), uniforms.shape, used.tolist()))
        assert rho.tobytes() == np.eye(1, 16).tobytes()
        out = measurement.born_step(rho, cls, questions, ask, uniforms, used)
        assert out[0].shape == (1, 16) and out[0].tobytes() == np.eye(1, 16).tobytes()
        return out

    monkeypatch.setattr(scenarios, "born_step", step)
    monkeypatch.setattr(scenarios, "run_chunked", None)
    for trials in (1, 1000):
        calls = []
        res = run_scenario("classical_control", {"num_points": 16, "steps": 64}, trials,
                           seed=3, record_trials=True)
        assert calls == [((1, 16), 1, (1, 0), [0])]
        assert len(res.trial_records) == trials
        assert len({id(r["entries"]) for r in res.trial_records}) == 1
        assert len({id(r["trajectory"]) for r in res.trial_records}) == 1


def test_classical_zeno_keeps_no_dense_evolved_schedule():
    # one period of evolved dense 48 x 48 projections alone is 85 MB
    tracemalloc.start()
    try:
        run_scenario("classical_control", {"scenario": "zeno", "num_points": 48, "steps": 96},
                     trials=1, seed=0, record_trials=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_classical_epr_anticorrelates_by_bayes():
    res = run_scenario("classical_control", {"scenario": "epr"}, trials=800, seed=SEED)
    assert res.summary["anticorrelation_rate"] == 1.0
    assert res.summary["zero_probabilities_preserved"] is True
    assert abs(res.summary["a_up_rate"] - 0.5) <= band(0.5, 800)
    assert res.summary["b_up_prob_given_a_up"] <= 1e-15
    assert res.summary["b_up_prob_given_a_down"] >= 1.0 - 1e-15


def test_classical_control_unknown_subscenario():
    with pytest.raises(ParameterError):
        run_scenario("classical_control", {"scenario": "pot"}, trials=1, seed=0)
    with pytest.raises(ParameterError):
        run_scenario("classical_control", {"scenario": "zeno", "steps": -1}, trials=1, seed=0)
    res = run_scenario("classical_control", {"scenario": "zeno", "steps": 0}, trials=2, seed=0)
    assert res.series["position_trajectory"] == [0]
    assert res.summary["frozen_steps"] == res.summary["cycles_completed"] == 0


# ----------------------------------------------------------------- plumbing


def test_registry_contents():
    assert set(SCENARIOS) == {
        "polarization_sequence", "zeno_precise", "zeno_coarse", "epr",
        "two_slit", "three_observer", "classical_control",
    }
    for scen in SCENARIOS.values():
        schema = scen.schema()
        assert schema["description"]
        json.dumps(schema)  # schemas must be JSON-serializable


def test_unknown_scenario():
    with pytest.raises(UnknownScenarioError):
        run_scenario("nosuch", trials=1, seed=0)


def test_validate_params_rejects_unknown_and_uncoercible():
    with pytest.raises(ParameterError):
        validate_params("zeno_precise", {"bogus": 1})
    with pytest.raises(ParameterError):
        validate_params("zeno_precise", {"n": "not-a-number"})


@pytest.mark.parametrize("arg, value", [
    ("trials", "x"), ("trials", None), ("trials", math.inf), ("trials", math.nan),
    ("trials", 2.5), ("trials", "2.5"), ("trials", 0),
    ("seed", "x"), ("seed", None), ("seed", -math.inf), ("seed", 2.5), ("seed", -1),
    ("seed", 2**64), pytest.param("seed", 10**400, id="seed-10**400"),
])
def test_trials_and_seed_are_validated_like_integer_parameters(arg, value):
    with pytest.raises(ParameterError, match=arg):
        run_scenario("epr", **{arg: value})


@pytest.mark.parametrize("name, params, trials, seed", [
    ("zeno_precise", {"n": True}, 4, 0),
    ("zeno_precise", {"T": False}, 4, 0),
    ("polarization_sequence", {"angles": [0.0, True]}, 4, 0),
    ("two_slit", {"amp_l": [1.0, False]}, 4, 0),
    ("two_slit", {"amp_r": [[0.0, 1.0], [True, 0.0]]}, 4, 0),
    ("epr", None, True, 0),
    ("epr", None, 4, False),
])
def test_booleans_are_not_numbers(name, params, trials, seed):
    with pytest.raises(ParameterError, match="boolean"):
        run_scenario(name, params, trials=trials, seed=seed)


# a string or a dict iterates, by character or by key, but is not a list of numbers
@pytest.mark.parametrize("name, params", [
    ("polarization_sequence", {"angles": "090"}),
    ("polarization_sequence", {"angles": "0945"}),
    ("polarization_sequence", {"angles": {"0": 1, "9": 2}}),
    ("polarization_sequence", {"angles": 45.0}),
    ("two_slit", {"amp_l": "11"}),
    ("two_slit", {"amp_r": {"1": 0, "-1": 0}}),
])
def test_a_list_parameter_is_a_list_or_tuple(name, params):
    (param,) = params
    with pytest.raises(ParameterError, match=f"bad value for {param}: .*expected a list"):
        run_scenario(name, params, trials=2, seed=0)


def test_integral_trials_and_seed_are_accepted():
    want = run_scenario("epr", trials=4, seed=7, record_trials=True).to_dict()
    got = run_scenario("epr", trials=4.0, seed="7", record_trials=True)
    assert (got.trials, got.seed) == (4, 7) and got.to_dict() == want
    top = run_scenario("epr", trials=3, seed=2**64 - 1)
    assert top.seed == 2**64 - 1


def test_integer_too_large_for_a_float_is_checked_as_an_integer():
    # an int is finite however large; its declared bound then rejects it
    with pytest.raises(ParameterError, match="n must be at least 1"):
        validate_params("zeno_precise", {"n": -10**400})
    assert validate_params("zeno_precise", {"n": 10**400})["n"] == 10**400


def test_defaults_are_coerced_like_given_values():
    amp_l = validate_params("two_slit", None)["amp_l"]
    assert amp_l == [complex(0.7071067811865476)] * 2
    assert all(type(v) is complex for v in amp_l)
    assert validate_params("zeno_precise", {})["n"] == 100


def test_validate_params_coercion():
    params = validate_params("zeno_precise", {"omega": 2, "n": 7.0})
    assert isinstance(params["omega"], float) and params["omega"] == 2.0
    assert isinstance(params["n"], int) and params["n"] == 7
    with pytest.raises(ParameterError):
        validate_params("zeno_precise", {"n": 7.5})
    with pytest.raises(ParameterError):
        validate_params("epr", {"state": "w-state"})


def test_scenario_determinism_and_seed_sensitivity():
    a = run_scenario("three_observer", trials=300, seed=5, record_trials=True)
    b = run_scenario("three_observer", trials=300, seed=5, record_trials=True)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    c = run_scenario("three_observer", trials=300, seed=6, record_trials=True)
    assert json.dumps(a.to_dict()) != json.dumps(c.to_dict())


def test_trials_must_be_positive():
    with pytest.raises(ParameterError):
        run_scenario("epr", trials=0, seed=0)


# every declared lower bound, broken; each run would also be far too large
# for memory, so only a bound checked before the estimate names the parameter
BROKEN_BOUNDS = [
    ("zeno_precise", {"n": 0}, "n must be at least 1, got 0"),
    ("zeno_precise", {"n": -10**400}, "n must be at least 1, got -1000"),
    ("zeno_precise", {"n": -10**5000}, "n must be at least 1, got a number below -10**4000"),
    ("zeno_precise", {"T": -1e-300}, "T must be at least 0, got -1e-300"),
    ("zeno_coarse", {"num_levels": 1}, "num_levels must be at least 2, got 1"),
    ("zeno_coarse", {"drift_rate": -1}, "drift_rate must be at least 0, got -1"),
    ("zeno_coarse", {"steps": -1}, "steps must be at least 0, got -1"),
    ("classical_control", {"num_points": 1}, "num_points must be at least 2, got 1"),
    ("classical_control", {"steps": -1}, "steps must be at least 0, got -1"),
    ("classical_control", {"scenario": "epr", "num_points": 1}, "num_points must be at least 2"),
    ("classical_control", {"scenario": "epr", "steps": -1}, "steps must be at least 0"),
]

# every rule a scenario declares beyond its bounds, broken, on the same runs
_NORMS = ("the squared norms of amp_l and amp_r and of amp_l + amp_r must be positive "
          "with finite reciprocals")
BROKEN_RULES = [
    ("polarization_sequence", {"angles": [0.0]},
     "angles must hold two or more, got [0.0]"),
    ("polarization_sequence", {"angles": []},
     "angles must hold two or more, got []"),
    ("zeno_precise", {"omega": 1e308, "T": 10.0}, "omega*T or T*n overflows: omega=1e+308, T=10.0"),
    ("zeno_precise", {"T": 1e308, "n": 2}, "omega*T or T*n overflows"),
    ("zeno_coarse", {"window_width": 99},
     "window_width must be in [1, num_levels=8], got 99"),
    ("zeno_coarse", {"window_width": 0}, "window_width must be in [1, num_levels=8], got 0"),
    ("zeno_coarse", {"initial_level": 99},
     "initial_level must be in [1, num_levels=8], got 99"),
    ("zeno_coarse", {"num_levels": 3, "initial_level": 4},
     "initial_level must be in [1, num_levels=3]"),
    ("zeno_coarse", {"coupling": 1e308, "dt": 2.0}, "2*coupling*dt overflows"),
    ("two_slit", {"amp_l": [1.0], "amp_r": [1.0, 1.0]},
     "amp_l and amp_r must be nonempty and of equal length"),
    ("two_slit", {"amp_l": [], "amp_r": []}, "amp_l and amp_r must be nonempty"),
    # the which-path state's squared norm overflows, then has no finite
    # reciprocal; the screen state's overflows, then is zero
    *(("two_slit", {"amp_l": [left], "amp_r": [right]}, _NORMS)
      for left, right in ((1e200, 0.0), (1e-161, 0.0), (9e153, 9e153), (1.0, -1.0))),
]


@pytest.mark.parametrize("name, params, message", BROKEN_BOUNDS + BROKEN_RULES)
def test_declared_bounds_are_checked_before_the_memory_estimate(name, params, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        validate_params(name, params)
    with pytest.raises(ParameterError, match=re.escape(message)):
        run_scenario(name, params, trials=10**15, record_trials=True)


def test_every_declared_bound_is_broken_above():
    declared = {(name, p.name) for name, scen in SCENARIOS.items()
                for p in scen.params if p.minimum is not None}
    assert declared == {(name, key) for name, params, _ in BROKEN_BOUNDS for key in params
                        if key != "scenario"}


@pytest.mark.parametrize("params, trials, seed, message", [
    ({"n": 10**5000}, 1, 0, "needs about a number above 10**4000 MiB"),
    (None, 10**5000, 0, "trials=a number above 10**4000 needs about a number above 10**4000 MiB"),
    (None, 1, 10**5000, "seed must be an unsigned 64-bit integer, got a number above 10**4000"),
    ({"T": [10**5000]}, 1, 0, "bad value for T: [a number above 10**4000]"),
], ids=["n", "trials", "seed", "T"])
def test_messages_name_ints_past_the_digit_limit(params, trials, seed, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        run_scenario("zeno_precise", params, trials=trials, seed=seed)


def test_scenario_defaults_fit_in_memory():
    for name in SCENARIOS:
        for scenario in ("zeno", "epr") if name == "classical_control" else (None,):
            params = validate_params(name, scenario and {"scenario": scenario})
            need = peak_bytes(name, params, trials=1000, record_trials=True)
            assert need < min(256 << 20, memory_limit()), (name, scenario, need)


@pytest.mark.parametrize("n_points, steps", [(16, 64), (5, 12), (3, 7), (4, 4)])
def test_classical_zeno_record_estimate_prices_each_measurement(n_points, steps):
    # step t asks (t mod n) + 1 points, so a record holds that many measurements a step
    params = validate_params("classical_control", {"scenario": "zeno", "num_points": n_points,
                                                   "steps": steps})
    per_record = (peak_bytes("classical_control", params, 1, True)
                  - peak_bytes("classical_control", params, 1, False))
    (record,) = run_scenario("classical_control", params, trials=1, seed=0,
                             record_trials=True).trial_records
    assert per_record == (scenarios._RECORD_BYTES
                          + len(record["entries"]) * scenarios._ENTRY_BYTES)


def test_classical_zeno_records_of_a_thousand_trials_are_priced_below_640_mib(monkeypatch):
    # 544 measurements a record, not 64 * 16: the estimate alone, nothing is run
    monkeypatch.setattr(scenarios, "born_step", None)
    params = validate_params("classical_control", {"scenario": "zeno", "num_points": 16,
                                                   "steps": 64})
    assert peak_bytes("classical_control", params, trials=1000, record_trials=True) < 640 << 20


# each scenario with one dimension grown, as far as the suite's time allows
@pytest.mark.parametrize("name, params, trials, record", [
    ("zeno_precise", {"n": 4000}, 1, False),
    ("zeno_precise", {"n": 400}, 2000, False),
    ("polarization_sequence", {"angles": list(range(0, 200))}, 60, True),
    ("three_observer", {}, 3000, True),
    ("two_slit", {"amp_l": [1.0] * 32, "amp_r": [0.5, -0.5] * 16}, 8, True),
    ("zeno_coarse", {"num_levels": 96, "steps": 40}, 2, True),
    ("zeno_coarse", {"num_levels": 96, "steps": 40, "drift_rate": 0}, 2, True),
    ("zeno_coarse", {"num_levels": 4, "steps": 48}, 2000, False),
    ("classical_control", {"num_points": 120, "steps": 3}, 2, True),
    ("classical_control", {"num_points": 20000, "steps": 3}, 2, False),
])
def test_peak_estimate_bounds_measured_peak(monkeypatch, name, params, trials, record):
    # small chunks, so that the sizes grown here, not the chunk, set the peak
    monkeypatch.setattr(measurement, "CHUNK_BYTES", 1 << 16)
    # the run plus the JSON text the CLI writes, whose share the estimate carries
    tracemalloc.start()
    try:
        result_json(run_scenario(name, params, trials=trials, seed=1, record_trials=record))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = peak_bytes(name, validate_params(name, params), trials, record)
    assert peak <= estimate <= 4 * peak + (1 << 20)


# ------------------------------------------- batched vs scalar reference runs
#
# The per-trial loops that the batched epr, classical epr, two_slit and
# zeno_coarse runs replaced, kept here as references: every answer,
# probability and summary value must match bit for bit.


def _mean_or_none(xs):
    return float(np.mean(xs)) if xs else None


def scalar_pair(initial, ask_a, ask_b, seed, trials):
    """Per trial: ask A, note B's yes-probability, ask B (one `perform` each)."""
    runs = []
    for i in range(trials):
        rng = trial_generator(seed, i)
        out_a, st = perform(initial, ask_a, rng)
        b_pre = yes_probability(st, ask_b.projection)
        out_b, st = perform(st, ask_b, rng)
        runs.append((out_a, out_b, b_pre, st))
    return runs


def assert_pair_records(doc, runs, labels):
    assert [r["trial"] for r in doc["trial_records"]] == list(range(len(runs)))
    for record, (out_a, out_b, _, _) in zip(doc["trial_records"], runs):
        assert record == {"trial": record["trial"], "entries": [
            {"time": 0.0, "label": labels[0], "answer": out_a.answer,
             "probability": out_a.probability},
            {"time": 0.0, "label": labels[1], "answer": out_b.answer,
             "probability": out_b.probability}]}


def b_given_a(runs):
    return (_mean_or_none([b_pre for a, _, b_pre, _ in runs if a.yes]),
            _mean_or_none([b_pre for a, _, b_pre, _ in runs if not a.yes]))


@pytest.mark.parametrize("which", ["singlet", "product"])
@pytest.mark.parametrize("seed", [0, 11, SEED, 2**64 - 1])
def test_epr_batch_matches_scalar_reference(which, seed):
    ctx2 = full_context(2)
    psi = {"singlet": [0.0, 1.0, -1.0, 0.0], "product": [1.0, 0.0, 0.0, 0.0]}[which]
    joint = pure_state(tensor(ctx2, ctx2), psi)
    up = Projection(ctx2, np.diag([1.0, 0.0]).astype(complex))
    ask_a = YesNoExperiment("particle 1 spin-up", embed_local(up, 0, (2, 2)))
    ask_b = YesNoExperiment("particle 2 spin-up", embed_local(up, 1, (2, 2)))
    runs = scalar_pair(joint, ask_a, ask_b, seed, 60)

    res = run_scenario("epr", {"state": which}, trials=60, seed=seed, record_trials=True)
    assert_pair_records(res.to_dict(), runs, (ask_a.label, ask_b.label))
    anti = sum(a.yes != b.yes for a, b, _, _ in runs)
    assert res.summary["a_yes_rate"] == sum(a.yes for a, _, _, _ in runs) / 60
    assert res.summary["b_yes_rate"] == sum(b.yes for _, b, _, _ in runs) / 60
    assert res.summary["anticorrelation_rate"] == anti / 60
    assert (res.summary["b_yes_prob_given_a_yes"],
            res.summary["b_yes_prob_given_a_no"]) == b_given_a(runs)


@pytest.mark.parametrize("seed", [0, 3, SEED, 2**64 - 1])
def test_classical_epr_batch_matches_scalar_reference(seed):
    spin = PhaseSpace(("up", "down"))
    ctx = tensor(diagonal_context(spin), diagonal_context(spin))
    space = ctx.phase_space
    initial = classical_state(ctx, [0.0, 0.5, 0.5, 0.0])
    a_up = YesNoExperiment("particle 1 up", characteristic_projection(ctx, space.subset([0, 1])))
    b_up = YesNoExperiment("particle 2 up", characteristic_projection(ctx, space.subset([0, 2])))
    runs = scalar_pair(initial, a_up, b_up, seed, 60)

    res = run_scenario("classical_control", {"scenario": "epr"}, trials=60, seed=seed,
                       record_trials=True)
    assert_pair_records(res.to_dict(), runs, (a_up.label, b_up.label))
    assert res.summary["a_up_rate"] == sum(a.yes for a, _, _, _ in runs) / 60
    assert (res.summary["b_up_prob_given_a_up"],
            res.summary["b_up_prob_given_a_down"]) == b_given_a(runs)
    assert res.summary["zero_probabilities_preserved"] == all(
        st.probabilities()[[0, 3]].max() <= 1e-15 for _, _, _, st in runs)


def scalar_two_slit(amp_l, amp_r, seed, trials):
    """Per trial: sample a screen point, ask the path, sample again."""
    amp_l, amp_r = np.asarray(amp_l, dtype=complex), np.asarray(amp_r, dtype=complex)
    m = len(amp_l)
    screen, ctx2 = full_context(m), full_context(2)
    points = [Projection(screen, np.diag(np.eye(m)[k]).astype(complex)) for k in range(m)]
    joint_points = [embed_local(p, 0, (m, 2)) for p in points]
    left = YesNoExperiment("left", embed_local(
        Projection(ctx2, np.diag([1.0, 0.0]).astype(complex)), 1, (m, 2)))
    screen_state = pure_state(screen, amp_l + amp_r)
    joint_state = pure_state(tensor(screen, ctx2),
                             np.kron(amp_l, [1.0, 0.0]) + np.kron(amp_r, [0.0, 1.0]))

    def sample_point(state, projectors, rng):
        for k, proj in enumerate(projectors):
            out, state = perform(state, YesNoExperiment(f"screen point {k}", proj), rng)
            if out.yes:
                return k, state
        return m - 1, state

    records = []
    for i in range(trials):
        rng = trial_generator(seed, i)
        pos, _ = sample_point(screen_state, points, rng)
        out_path, st = perform(joint_state, left, rng)
        pos_wp, _ = sample_point(st, joint_points, rng)
        records.append({"trial": i, "no_which_path_point": pos,
                        "path_answer": out_path.answer, "which_path_point": pos_wp})
    return records


TWO_SLIT_CASES = [
    ([0.7071067811865476, 0.7071067811865476], [0.7071067811865476, -0.7071067811865476]),
    ([1, 1, 1, 1, 1, 1, 1, 1], [1, -1, 1, -1, 1, -1, 1, -1]),
    ([[1, 0.5], [0, 1], [0.3, -0.2]], [[0.2, 0], [1, -1], [0, 0.7]]),
    ([[0, 1], 0.5, [0.25, 0.25], 1], [1, [0, -0.5], 0.1, [0, 1]]),
]


@pytest.mark.parametrize("amp_l, amp_r", TWO_SLIT_CASES)
@pytest.mark.parametrize("seed", [1, SEED, 2**64 - 1])
def test_two_slit_batch_matches_scalar_reference(amp_l, amp_r, seed):
    res = run_scenario("two_slit", {"amp_l": amp_l, "amp_r": amp_r}, trials=70, seed=seed,
                       record_trials=True)
    amps = [[scenarios._as_complex(v) for v in side] for side in (amp_l, amp_r)]
    records = scalar_two_slit(*amps, seed, 70)
    assert res.trial_records == records
    m = len(amp_l)
    assert res.summary["left_slit_rate"] == sum(r["path_answer"] == "yes" for r in records) / 70
    for key, series in (("no_which_path_point", "empirical_no_which_path"),
                        ("which_path_point", "empirical_which_path")):
        counts = np.zeros(m, dtype=int)
        for r in records:
            counts[r[key]] += 1
        assert res.series[series] == (counts / 70).tolist()


def scalar_zeno_coarse(params, trials, seed, record_trials):
    """The per-trial loop: every trial stepped alone through `perform`."""
    echo = {k: params[k] for k in ("num_levels", "window_width", "drift_rate", "steps",
                                   "coupling", "dt", "initial_level")}
    levels, width, drift, steps, coupling, dt, start = echo.values()
    ctx = full_context(levels)
    level_obs = Observable(ctx, np.diag(np.arange(1, levels + 1)).astype(complex))
    hop = np.zeros((levels, levels), dtype=complex)
    for i in range(levels - 1):
        hop[i, i + 1] = hop[i + 1, i] = coupling
    ham = Hamiltonian(Observable(ctx, hop))

    # window of `width` consecutive eigenvalues; even widths extend upward;
    # near the spectrum edge the window shifts rather than shrinks.  Windows
    # share one eigendecomposition and are built on first use, keyed by lo.
    below = (width - 1) // 2
    spectrum = eigendecompose(level_obs)
    windows = {}

    def window(center):
        lo = min(max(center - below, 1), levels - width + 1)
        if lo not in windows:
            hi = lo + width - 1
            windows[lo] = YesNoExperiment(f"level within [{lo},{hi}]",
                                          spectrum.projection(ValueSet(intervals=((lo, hi),))))
        return windows[lo]

    # `schrodinger_state`'s step rho -> U(-dt) rho U(-dt)*, with U built once
    u = propagator(ham, -dt).matrix
    u_adj = u.conj().T
    initial = pure_state(ctx, np.eye(levels)[start - 1])
    initial_level = float(expectation(initial, level_obs).real)
    trajectories = np.zeros((trials, steps + 1))
    entries = [[] for _ in range(trials)]
    for i, log in enumerate(entries):
        rng = trial_generator(seed, i)
        state, center, levels_seen = initial, start, [initial_level]
        for step in range(1, steps + 1):
            state = State._unchecked(ctx, renormalize(u @ state.rho @ u_adj))
            target = int(round(expectation(state, level_obs).real))
            center += min(max(target - center, -drift), drift)
            center = min(max(center, 1), levels)
            experiment = window(center)
            outcome, state = perform(state, experiment, rng)
            a_now = float(expectation(state, level_obs).real)
            levels_seen.append(a_now)
            if record_trials:
                log.append({**entry_dict(step, experiment.label, outcome.yes,
                                         outcome.probability), "mean_level": a_now})
        trajectories[i] = levels_seen

    records = trial_records(entries=entries) if record_trials else None
    mean_traj = trajectories.mean(axis=0)
    summary = {
        **echo,
        "freeze_metric": float(np.abs(np.diff(mean_traj)).sum()),
        "net_drift": float(mean_traj[-1] - mean_traj[0]),
        "max_mean_excursion": float(np.abs(mean_traj - mean_traj[0]).max()),
    }
    series = {"mean_level_trajectory": [float(x) for x in mean_traj]}
    return ScenarioResult("zeno_coarse", echo, seed, trials, summary, series, records)


# each window width's parity, a window that stays or moves two levels a step,
# a start at either edge of the ladder, and no steps at all
ZENO_COARSE_CASES = [{"window_width": width, "drift_rate": drift, "initial_level": start}
                     for width in (1, 2) for drift in (0, 2) for start in (1, 6)]
ZENO_COARSE_CASES += [{"steps": 0}, {"steps": 0, "initial_level": 6, "window_width": 2}]


@pytest.mark.parametrize("params", ZENO_COARSE_CASES)
@pytest.mark.parametrize("trials, seed", [(1, 2**64 - 1), (300, SEED)])
def test_zeno_coarse_batch_matches_scalar_reference(params, trials, seed):
    merged = validate_params("zeno_coarse", {"num_levels": 6, "steps": 12, "coupling": 0.4,
                                             **params})
    res = run_scenario("zeno_coarse", merged, trials=trials, seed=seed, record_trials=True)
    assert result_json(res) == result_json(scalar_zeno_coarse(merged, trials, seed, True))


def test_zeno_coarse_steps_no_trial_alone_and_builds_each_window_once(monkeypatch):
    def refuse(*args):
        raise AssertionError("zeno_coarse stepped a trial alone")

    built = []  # the windows of each stacked build
    projections = SpectralData.projections

    def counting(self, value_sets, *args):
        built.append([v.intervals for v in value_sets])
        return projections(self, value_sets, *args)

    monkeypatch.setattr(measurement, "perform", refuse)
    monkeypatch.setattr(SpectralData, "projections", counting)
    monkeypatch.setattr(SpectralData, "projection", lambda *args: pytest.fail("one window built alone"))
    # from level 1, one level a step: 16 centers reach 14 windows of 3, built as one stack
    res = run_scenario("zeno_coarse", {"num_levels": 16, "steps": 48}, trials=200, seed=3,
                       record_trials=True)
    asked = {e["label"] for r in res.trial_records for e in r["entries"]}
    assert built == [[((lo, lo + 2.0),) for lo in range(1, 15)]]
    assert asked <= {f"level within [{lo},{lo + 2}]" for lo in range(1, 15)} and len(asked) > 1
    # two steps of one level from level 8 reach levels 6 to 10: windows 5 to 9
    built.clear()
    run_scenario("zeno_coarse", {"num_levels": 16, "steps": 2, "initial_level": 8}, trials=50)
    assert built == [[((lo, lo + 2.0),) for lo in range(5, 10)]]


@pytest.mark.parametrize("name, params", [
    ("epr", {}),
    ("epr", {"state": "product"}),
    ("classical_control", {"scenario": "epr"}),
    ("two_slit", {}),
    ("two_slit", {"amp_l": [1, 1, 1, 1, 1, 1, 1, 1], "amp_r": [1, -1, 1, -1, 1, -1, 1, -1]}),
    ("zeno_coarse", {}),
    ("zeno_coarse", {"num_levels": 16, "steps": 48}),
])
def test_batched_scenarios_do_not_depend_on_chunking(monkeypatch, name, params):
    whole = run_scenario(name, params, trials=23, seed=8, record_trials=True).to_dict()
    # one trial per chunk, then a few trials per chunk with a remainder
    for chunk_bytes in (1, 2000, 16000):
        monkeypatch.setattr(measurement, "CHUNK_BYTES", chunk_bytes)
        assert run_scenario(name, params, trials=23, seed=8,
                            record_trials=True).to_dict() == whole


# sha256 of `noncomm run <scenario> --format json --snapshots` output,
# recorded when these scenarios stepped trial by trial with `perform`
@pytest.mark.parametrize("scenario, settings, seed, trials, digest", [
    ("epr", (), 0, 40, "5f2952f334b22f35a330efde8c2846ee04f14c1c87cfe72e2f4701f06536319c"),
    ("epr", (), 2026, 40, "d852e4e575043fd6a6db048a46aee7528b602be816507d8d826033235dfdd20f"),
    ("epr", ("--set", "state=product"), 5, 30,
     "82e1aaf2b0a44cf74cea95d61338851b10063c95ba9bc966632db862af6239a3"),
    ("two_slit", (), 1, 40, "9031c934d105011c0d27f045de4d157f7ab4f4a290cf0fdabb2b78f06cbb2716"),
    ("two_slit", (), 77, 40, "d5e7fc2573c7b1143a824d8b6c06e55d28e9be0c080322209571fe33ad82c757"),
    ("two_slit",
     ("--set", "amp_l=[[1,0.5],[0,1],[0.3,-0.2]],amp_r=[[0.2,0],[1,-1],[0,0.7]]"), 9, 30,
     "3e84218aac57e3cd71890fc6198db3884ad02aee1145b81b4d2e9c27f96f8d84"),
    ("classical_control", ("--set", "scenario=epr"), 0, 40,
     "2f77dc8ea79080a313d7ffad0688984c7d7b5b4af195a6204ed1fbf76bb648c9"),
    ("classical_control", ("--set", "scenario=epr"), 2**64 - 1, 40,
     "4c558a2f33837e7d7414529bc1e22cbca624b75192e3c7a093650c8b298fa64d"),
])
def test_batched_scenario_bytes_pinned(tmp_path, scenario, settings, seed, trials, digest):
    out = tmp_path / "result.json"
    assert main(["run", scenario, *settings, "--trials", str(trials), "--seed", str(seed),
                 "--format", "json", "--snapshots", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `noncomm run <scenario> --format json --snapshots` output,
# recorded when every schedule entry was evolved with its own propagator and
# every kernel step transposed its own projections
@pytest.mark.parametrize("scenario, settings, seed, trials, digest", [
    ("zeno_precise", (), 0, 40, "8e0580f7000cbb6722bd7d650d4bffcfd305f0a5ce3e69be6bc4ca54c34486eb"),
    ("zeno_precise", (), 7, 40, "ed43afa40e361f94e328145fb28182cc2485dbafac8a9e1736737b7ea4837696"),
    ("zeno_precise", ("--set", "n=100"), 2026, 16,
     "85389bb23ff2a8088c8ca4f7e0382c30681848af383e2148358c004e5ab10089"),
    ("zeno_precise", ("--set", "omega=2.5,T=3,n=37"), 11, 20,
     "d6fa3d9c7edef48217ff33948bb15d71be2815cdfec2feb9d1f8b4c997a9eda1"),
    ("polarization_sequence", (), 0, 40,
     "34c8404191e442cb5318a2f4636de545ba23f459bef9fbbf35360345dc2215c7"),
    ("polarization_sequence", ("--set", "angles=[0,10,20,30,40,50,60,70,80,90]"), 5, 40,
     "299f6c8ea4027487bf4ef1092c21af56bf943c6535cf5828126d845127aec118"),
    ("three_observer", (), 0, 40,
     "e426df22ba9d70670eb02f2173feba17c019f5c3fee8976bd38649a35cac961e"),
    ("three_observer", ("--set", "middle=repeat"), 3, 20,
     "6239689d91a0b9d043d0f62aec7a51afc24d06f1736160d15f69ccf92db7d0a1"),
    ("classical_control", ("--set", "scenario=zeno"), 0, 5,
     "033bca31d1d984c5b317e0352ec79ee42eea57650b79e02940dedf5b3346cea1"),
    ("classical_control", ("--set", "scenario=zeno,num_points=16,steps=64"), 9, 2,
     "74646bd4bc2c373dc68025d820a48e4179968faee5aa6633b5b4617e819276a1"),
])
def test_schedule_scenario_bytes_pinned(tmp_path, scenario, settings, seed, trials, digest):
    out = tmp_path / "result.json"
    assert main(["run", scenario, *settings, "--trials", str(trials), "--seed", str(seed),
                 "--format", "json", "--snapshots", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `noncomm run classical_control --set scenario=zeno,num_points=64,steps=256
# --trials 5 --seed 3 --format json --snapshots` output, recorded when every
# step asked each point in turn up to the yes, its certain noes included; the
# run's one BLAS product, which finds those noes, is only compared with 0, so
# the bytes hold on any OpenBLAS kernel
def test_long_classical_zeno_bytes_pinned(tmp_path):
    out = tmp_path / "result.json"
    assert main(["run", "classical_control", "--set", "scenario=zeno,num_points=64,steps=256",
                 "--trials", "5", "--seed", "3", "--format", "json", "--snapshots",
                 "--out", str(out)]) == 0
    digest = "43d1cb51d01aaaa056b73c56e793f3b9f3de890d5db53b55f7eab5e5649498a0"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_zeno_coarse_builds_its_propagator_once(monkeypatch):
    calls = []

    def counting(h, t):
        calls.append(t)
        return propagator(h, t)

    monkeypatch.setattr(scenarios, "propagator", counting)
    run_scenario("zeno_coarse", {"steps": 12}, trials=3, seed=4)
    assert calls == [-1.0]
