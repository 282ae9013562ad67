import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncomm import measurement, scenarios
from noncomm.algebra import (
    SIGMA_X,
    SIGMA_Z,
    ContextMismatchError,
    Observable,
    PhaseSpace,
    Projection,
    characteristic_projection,
    complement,
    diagonal_context,
    element,
    full_context,
)
from noncomm.dynamics import (
    Flow,
    Hamiltonian,
    heisenberg_evolve,
    koopman_evolve,
    propagator,
    schrodinger_state,
)
from noncomm.measurement import (
    MeasurementRecord,
    Outcome,
    ScheduleEntry,
    YesNoExperiment,
    born_step,
    compile_questions,
    embed_local,
    evolve_schedule,
    make_generator,
    partial_trace,
    perform,
    run_batch,
    run_chunked,
    run_sequence,
    tensor,
    trial_generator,
    trial_streams,
)
from noncomm.scenarios import run_scenario
from noncomm.states import (
    P_FLOOR,
    NumericalInvariantError,
    State,
    ZeroProbabilityError,
    classical_state,
    expectation,
    measure,
    pure_state,
    state_distance,
    yes_probability,
)

QUBIT = full_context(2)
GROUND = Projection(QUBIT, np.diag([1.0, 0.0]))
EXCITED = Projection(QUBIT, np.diag([0.0, 1.0]))
DIAG45 = Projection(QUBIT, np.full((2, 2), 0.5))


def rand_density(ctx, rng):
    g = rng.standard_normal((ctx.dim, ctx.dim)) + 1j * rng.standard_normal((ctx.dim, ctx.dim))
    rho = g @ g.conj().T
    return State(ctx, rho / np.trace(rho).real)


# ------------------------------------------------------------------ perform


def test_perform_certain_yes_leaves_state():
    psi0 = pure_state(QUBIT, [1, 0])
    rng = make_generator(0)
    out, post = perform(psi0, YesNoExperiment("ground", GROUND), rng)
    assert out.yes and out.probability == 1.0
    assert state_distance(post, psi0) <= 1e-9
    # forced outcome consumed no draw: the next number matches a fresh stream
    assert rng.random() == make_generator(0).random()


def test_perform_certain_no_conditions_complement():
    psi0 = pure_state(QUBIT, [1, 0])
    out, post = perform(psi0, YesNoExperiment("excited", EXCITED), make_generator(0))
    assert not out.yes and out.probability == 1.0
    assert state_distance(post, psi0) <= 1e-9


def test_perform_borderline_polarizer():
    psi0 = pure_state(QUBIT, [1, 0])
    target = pure_state(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))
    rng = make_generator(42)
    yes_count = 0
    for _ in range(2000):
        out, post = perform(psi0, YesNoExperiment("45 deg", DIAG45), rng)
        yes_count += out.yes
        if out.yes:
            assert abs(out.probability - 0.5) <= 1e-12
            assert state_distance(post, target) <= 1e-9
    assert abs(yes_count / 2000 - 0.5) <= 4 * math.sqrt(0.25 / 2000)


def test_perform_deterministic_given_stream():
    s = pure_state(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))
    outs1 = [perform(s, YesNoExperiment("g", GROUND), trial_generator(9, i))[0].yes
             for i in range(20)]
    outs2 = [perform(s, YesNoExperiment("g", GROUND), trial_generator(9, i))[0].yes
             for i in range(20)]
    assert outs1 == outs2
    assert len(set(outs1)) == 2  # both outcomes occur


def test_outcome_validation():
    with pytest.raises(ValueError):
        Outcome(yes=True, probability=1.5)
    assert Outcome(yes=False, probability=0.25).answer == "no"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_faults_are_numerical_invariant_errors():
    assert issubclass(ZeroProbabilityError, NumericalInvariantError)
    assert issubclass(NumericalInvariantError, ValueError)
    with pytest.raises(NumericalInvariantError):
        Outcome(yes=True, probability=1.5)
    broken = State._trusted(QUBIT, np.full((2, 2), np.nan, dtype=complex))
    with pytest.raises(NumericalInvariantError, match=r"outside \[0, 1\]"):
        run_batch(broken, [ScheduleEntry(0.0, YesNoExperiment("g", GROUND))], trial_streams(0, 3))


# ------------------------------------------------------------- run_sequence


def test_run_sequence_empty_schedule():
    psi0 = pure_state(QUBIT, [1, 0])
    rec = run_sequence(psi0, [], None, seed=1)
    assert rec.entries == [] and state_distance(rec.final_state, psi0) == 0.0


def test_run_sequence_repetition_consistency():
    rng = np.random.default_rng(30)
    for i in range(20):
        s = rand_density(QUBIT, rng)
        exp = YesNoExperiment("45 deg", DIAG45)
        rec = run_sequence(s, [ScheduleEntry(0.0, exp), ScheduleEntry(0.0, exp)],
                           None, seed=i)
        outs = rec.outcomes()
        assert outs[0] == outs[1]
        assert rec.entries[1].outcome.probability == 1.0


def test_run_sequence_requires_sorted_schedule():
    exp = YesNoExperiment("g", GROUND)
    psi0 = pure_state(QUBIT, [1, 0])
    with pytest.raises(ValueError):
        run_sequence(psi0, [ScheduleEntry(1.0, exp), ScheduleEntry(0.0, exp)], None, seed=0)


def test_run_sequence_context_mismatch():
    psi0 = pure_state(QUBIT, [1, 0])
    other = Projection(full_context(3), np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(ContextMismatchError):
        run_sequence(psi0, [ScheduleEntry(0.0, YesNoExperiment("x", other))], None, seed=0)


def test_run_sequence_seed_rng_exclusive():
    psi0 = pure_state(QUBIT, [1, 0])
    with pytest.raises(ValueError):
        run_sequence(psi0, [], None)
    with pytest.raises(ValueError):
        run_sequence(psi0, [], None, seed=1, rng=make_generator(1))


def test_run_sequence_snapshots_and_record_dict():
    psi0 = pure_state(QUBIT, [1, 0])
    exp = YesNoExperiment("ground", GROUND)
    rec = run_sequence(psi0, [ScheduleEntry(0.0, exp)], None, seed=5, keep_snapshots=True)
    assert isinstance(rec, MeasurementRecord)
    assert rec.seed == 5
    assert rec.entries[0].post_state is not None
    doc = rec.to_dict()
    assert doc["entries"][0]["answer"] == "yes"
    assert doc["entries"][0]["probability"] == 1.0


def test_run_sequence_snapshot_probability_consistency():
    # each recorded probability is the pre-measurement probability of the
    # realized answer, recomputable from the previous snapshot
    omega = 1.1
    ham = Hamiltonian(Observable(QUBIT, (omega / 2) * SIGMA_X))
    psi0 = pure_state(QUBIT, [1, 0])
    schedule = [ScheduleEntry(0.4 * k, YesNoExperiment("g", GROUND)) for k in range(1, 6)]
    rec = run_sequence(psi0, schedule, ham, seed=3, keep_snapshots=True)
    previous = psi0
    for entry, evolved in zip(rec.entries, evolve_schedule(schedule, ham)):
        p_yes = yes_probability(previous, evolved.experiment.projection)
        expected = p_yes if entry.outcome.yes else 1.0 - p_yes
        assert abs(entry.outcome.probability - expected) <= 1e-12
        previous = entry.post_state


def test_run_sequence_heisenberg_matches_pre_evolved_schedule():
    omega = 0.9
    ham = Hamiltonian(Observable(QUBIT, (omega / 2) * SIGMA_X))
    psi0 = pure_state(QUBIT, [1, 0])
    schedule = [ScheduleEntry(0.25 * k, YesNoExperiment("g", GROUND)) for k in range(1, 9)]
    rec1 = run_sequence(psi0, schedule, ham, seed=77)
    rec2 = run_sequence(psi0, evolve_schedule(schedule, ham), None, seed=77)
    assert rec1.outcomes() == rec2.outcomes()
    assert state_distance(rec1.final_state, rec2.final_state) <= 1e-10


def test_koopman_schedule_evolution():
    space = PhaseSpace(("a", "b", "c"))
    ctx = diagonal_context(space)
    flow = Flow(space, (1, 2, 0))
    from noncomm.algebra import characteristic_projection
    from noncomm.states import classical_state

    chi_a = characteristic_projection(ctx, space.subset([0]))
    state = classical_state(ctx, [1.0, 0.0, 0.0])
    # at time 1 the point mass sits at b, so asking "is it at b?" via the
    # evolved projection of "is it at a's image?" must answer yes
    chi_b = characteristic_projection(ctx, space.subset([1]))
    schedule = [ScheduleEntry(1, YesNoExperiment("at b", chi_b))]
    rec = run_sequence(state, schedule, flow, seed=0)
    assert rec.outcomes() == [True]


def test_heisenberg_scheduling_duality():
    rng = np.random.default_rng(31)
    for n in (2, 4):
        ctx = full_context(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ham = Hamiltonian(Observable(ctx, (m + m.conj().T) / 2))
        s = rand_density(ctx, rng)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        v = q[:, : max(1, n // 2)]
        p = Projection(ctx, v @ v.conj().T)
        t = float(rng.standard_normal())
        lhs = yes_probability(s, heisenberg_evolve(p, ham, t))
        rhs = yes_probability(schrodinger_state(s, ham, t), p)
        assert abs(lhs - rhs) <= 1e-10


def per_entry_heisenberg(p, ham, t):
    """One projection evolved as the per-entry pass did it: its own
    propagator, one conjugation, then the symmetrization."""
    w, v = ham.eigh
    u = (v * np.exp(1j * w * (t / ham.hbar))) @ v.conj().T
    out = u @ p @ u.conj().T
    return u, (out + out.conj().T) / 2.0


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 16])
def test_stacked_heisenberg_pass_matches_per_entry_bits(dim):
    rng = np.random.default_rng(60 + dim)
    ctx = full_context(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ham = Hamiltonian(Observable(ctx, (m + m.conj().T) / 2), hbar=0.37)
    exps = []
    for rank in (1, max(1, dim // 2), dim - 1 or 1):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        v = np.linalg.qr(g)[0][:, :rank]
        exps.append(YesNoExperiment(f"rank {rank}", Projection(ctx, v @ v.conj().T)))
    # negative, zero, repeated and far times, in schedule order and not
    times = [*(rng.standard_normal(30) * 4), -2.5, -2.5, 0.0, 0.0, 1.25, 1.25, 1e4]
    schedule = [ScheduleEntry(float(t), exps[k % 3]) for k, t in enumerate(times)]
    moved = evolve_schedule(schedule, ham)
    assert [(e.time, e.experiment.label) for e in moved] == [
        (e.time, e.experiment.label) for e in schedule]
    for entry, got in zip(schedule, moved):
        p = entry.experiment.projection
        u, want = per_entry_heisenberg(p.matrix, ham, entry.time)
        assert np.array_equal(got.experiment.projection.matrix, want)
        assert np.array_equal(heisenberg_evolve(p, ham, entry.time).matrix, want)
        assert np.array_equal(propagator(ham, entry.time).matrix, u)
        assert type(got.experiment.projection) is Projection


def test_stacked_koopman_pass_matches_per_entry_bits():
    n = 11
    space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
    ctx = diagonal_context(space)
    # cycles (0 4 2)(1 3 6 5 7)(8 9) and the fixed point 10
    flow = Flow(space, (4, 3, 0, 6, 2, 7, 5, 1, 9, 8, 10))
    exps = [YesNoExperiment(f"in {m}", characteristic_projection(ctx, space.subset(m)))
            for m in ([0], [1, 2, 8], [3, 10], [4, 5, 6, 7, 9])]
    times = [-31, -4, -1, 0, 0, 1, 2, 2, 7, 30, 10**6]
    schedule = [ScheduleEntry(t, e) for t in times for e in exps]
    moved = evolve_schedule(schedule, flow)
    for entry, got in zip(schedule, moved):
        p = entry.experiment.projection
        want = np.diag(np.diag(p.matrix)[list(flow.at(int(entry.time)))])
        assert np.array_equal(got.experiment.projection.matrix, want)
        assert np.array_equal(koopman_evolve(p, flow, entry.time).matrix, want)


def test_dynamics_are_checked_before_any_entry():
    psi0 = pure_state(QUBIT, [1, 0])
    qutrit = Hamiltonian(Observable(full_context(3), np.diag([1.0, 2.0, 3.0])))
    space = PhaseSpace(tuple("abc"))
    ctx = diagonal_context(space)
    elsewhere = Flow(PhaseSpace(tuple("xyz")), (1, 2, 0))
    for schedule in ([], [ScheduleEntry(0.0, YesNoExperiment("g", GROUND))]):
        with pytest.raises(TypeError):
            evolve_schedule(schedule, 42)
        with pytest.raises(TypeError):
            run_batch(psi0, schedule, trial_streams(0, 2), 42)
        with pytest.raises(ContextMismatchError):
            run_batch(psi0, schedule, trial_streams(0, 2), qutrit)
        with pytest.raises(ContextMismatchError):
            run_sequence(psi0, schedule, qutrit, seed=0)
        with pytest.raises(ContextMismatchError):  # a flow acts on a diagonal algebra
            run_batch(psi0, schedule, trial_streams(0, 2), Flow(PhaseSpace(("u", "v"))))
    with pytest.raises(ContextMismatchError):
        run_batch(classical_state(ctx, [1, 0, 0]), [], trial_streams(0, 2), elsewhere)
    at_a = YesNoExperiment("at a", characteristic_projection(ctx, space.subset([0])))
    with pytest.raises(ContextMismatchError):
        evolve_schedule([ScheduleEntry(1, at_a)], elsewhere)
    with pytest.raises(ContextMismatchError):
        evolve_schedule([ScheduleEntry(0.0, YesNoExperiment("g", GROUND))], qutrit)
    # classical time is an integer: a fractional time is rejected, not truncated
    with pytest.raises(ValueError, match="integer"):
        evolve_schedule([ScheduleEntry(1.5, at_a)], Flow(space, (1, 2, 0)))
    assert evolve_schedule([], qutrit) == [] and evolve_schedule([], None) == []


# ---------------------------------------------------------------- run_batch


def scalar_reference(state, schedule, rngs):
    """The per-trial loop that run_batch replaces: `perform` entry by entry.
    Returns, per trial, the answers, the probabilities and the final state as
    the kernel carries it: mu on a diagonal algebra, else rho."""
    out = []
    for rng in rngs:
        current, yes, prob = state, [], []
        for entry in schedule:
            outcome, current = perform(current, entry.experiment, rng)
            yes.append(outcome.yes)
            prob.append(outcome.probability)
        out.append((yes, prob, current.mu if state.context.is_diagonal else current.rho))
    return out


def assert_batch_matches_scalar(state, schedule, seed, trials):
    batch = run_batch(state, schedule, trial_streams(seed, trials))
    reference = scalar_reference(state, schedule, trial_streams(seed, trials))
    assert batch.yes.shape == batch.probability.shape == (trials, len(schedule))
    for i, (yes, prob, final) in enumerate(reference):
        assert batch.yes[i].tolist() == yes
        assert batch.probability[i].tolist() == prob
        assert batch.final[i].shape == final.shape
        assert batch.final[i].tobytes() == final.tobytes()
    return batch


def zeno_schedule(n=100, omega=math.pi, t_total=1.0):
    ham = Hamiltonian(Observable(QUBIT, (omega / 2.0) * SIGMA_X))
    schedule = [ScheduleEntry(t_total * (k + 1) / n, YesNoExperiment("survive", GROUND))
                for k in range(n)]
    return evolve_schedule(schedule, ham)


def polarizer(deg):
    t = math.radians(deg)
    v = np.array([math.cos(t), math.sin(t)])
    return Projection(QUBIT, np.outer(v, v))


def test_run_batch_matches_scalar_zeno_precise():
    psi0 = pure_state(QUBIT, [1, 0])
    batch = assert_batch_matches_scalar(psi0, zeno_schedule(), seed=42, trials=64)
    assert 0 < batch.yes.all(axis=1).sum() < 64


def test_run_batch_matches_scalar_polarization():
    angles = [0.0, 20.0, 45.0, 70.0, 90.0, 135.0]
    schedule = [ScheduleEntry(float(k), YesNoExperiment(f"{a:g}", polarizer(a)))
                for k, a in enumerate(angles[1:], 1)]
    assert_batch_matches_scalar(pure_state(QUBIT, [1, 0]), schedule, seed=7, trials=50)


@pytest.mark.parametrize("middle", ["plus", "none", "repeat"])
def test_run_batch_matches_scalar_three_observer(middle):
    p = YesNoExperiment("z", GROUND)
    q = YesNoExperiment("x", DIAG45)
    chain = {"plus": [p, q, p], "none": [p, p], "repeat": [p, p, p]}[middle]
    schedule = [ScheduleEntry(float(k), e) for k, e in enumerate(chain)]
    batch = assert_batch_matches_scalar(pure_state(QUBIT, [1, 0]), schedule, seed=3,
                                        trials=40)
    # P on its own eigenstate is forced: no draw unless Q intervenes
    assert batch.draws.tolist() == [2 if middle == "plus" else 0] * 40


def test_run_batch_matches_scalar_diagonal_context():
    space = PhaseSpace(tuple("abcde"))
    ctx = diagonal_context(space)
    rng = np.random.default_rng(35)
    mu = rng.dirichlet(np.ones(5))
    schedule = [
        ScheduleEntry(float(k), YesNoExperiment(
            f"in {sorted(members)}", characteristic_projection(ctx, space.subset(members))))
        for k, members in enumerate([{0, 1, 2}, {1, 2, 3}, {2}, {2, 4}, {0, 2}])
    ]
    batch = assert_batch_matches_scalar(classical_state(ctx, mu), schedule, seed=11, trials=30)
    assert batch.final.shape == (30, 5) and batch.final.dtype == float


@pytest.mark.parametrize("dim", [3, 4])
def test_run_batch_matches_scalar_random_mixed_states(dim):
    ctx = full_context(dim)
    rng = np.random.default_rng(36 + dim)
    schedule = []
    for k in range(8):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        v = np.linalg.qr(g)[0][:, : 1 + k % (dim - 1)]
        exp = YesNoExperiment(f"p{k}", Projection(ctx, v @ v.conj().T))
        schedule.append(ScheduleEntry(float(k), exp))
    assert_batch_matches_scalar(rand_density(ctx, rng), schedule, seed=2**64 - 1, trials=25)


def test_run_batch_single_trial_and_empty_schedule():
    psi0 = pure_state(QUBIT, [1, 0])
    assert_batch_matches_scalar(psi0, zeno_schedule(n=9, omega=3.0), seed=5, trials=1)
    empty = run_batch(psi0, [], trial_streams(5, 3))
    assert empty.yes.shape == (3, 0) and empty.draws.tolist() == [0, 0, 0]
    assert all(rho.tobytes() == psi0.rho.tobytes() for rho in empty.final)


def test_run_batch_does_not_depend_on_chunking(monkeypatch):
    psi0 = pure_state(QUBIT, [1, 0])
    schedule = zeno_schedule(n=20, omega=4.0)
    whole = run_batch(psi0, schedule, trial_streams(8, 23))
    doc = run_scenario("zeno_precise", {"n": 20}, trials=23, seed=8,
                       record_trials=True).to_dict()
    # one trial per chunk, then three trials per chunk with a remainder
    for chunk_bytes in (1, 3 * (8 * 20 + 16 * 4)):
        monkeypatch.setattr(measurement, "CHUNK_BYTES", chunk_bytes)
        part = run_batch(psi0, schedule, trial_streams(8, 23))
        for name in ("yes", "probability", "draws", "final"):
            assert getattr(part, name).tobytes() == getattr(whole, name).tobytes()
        assert run_scenario("zeno_precise", {"n": 20}, trials=23, seed=8,
                            record_trials=True).to_dict() == doc


def test_run_batch_checks_like_run_sequence():
    psi0 = pure_state(QUBIT, [1, 0])
    exp = YesNoExperiment("g", GROUND)
    with pytest.raises(ValueError, match="non-decreasing"):
        run_batch(psi0, [ScheduleEntry(1.0, exp), ScheduleEntry(0.0, exp)], trial_streams(0, 2))
    other = Projection(full_context(3), np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(ContextMismatchError):
        run_batch(psi0, [ScheduleEntry(0.0, YesNoExperiment("x", other))], trial_streams(0, 2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rho, error", [
    # trace 1/2: "yes" has probability 1/2 but "no" has probability 0
    (np.diag([0.5, 0.0]).astype(complex), ZeroProbabilityError),
    (np.full((2, 2), np.nan, dtype=complex), ValueError),
])
def test_run_batch_raises_where_perform_raises(rho, error):
    # State._trusted skips validation, so the broken states reach the step
    state = State._trusted(QUBIT, rho)
    schedule = [ScheduleEntry(0.0, YesNoExperiment("ground", GROUND))]
    with pytest.raises(error) as scalar:
        scalar_reference(state, schedule, trial_streams(0, 8))
    with pytest.raises(error) as batched:
        run_batch(state, schedule, trial_streams(0, 8))
    assert str(batched.value) == str(scalar.value)


def test_run_sequence_advances_supplied_rng_like_perform():
    angles = [0.0, 0.0, 30.0, 30.0, 90.0, 90.0, 10.0]
    schedule = [ScheduleEntry(float(k), YesNoExperiment(f"{a:g}", polarizer(a)))
                for k, a in enumerate(angles)]
    psi0 = pure_state(QUBIT, [1, 0])
    for i in range(20):
        supplied, scalar = trial_generator(13, i), trial_generator(13, i)
        rec = run_sequence(psi0, schedule, rng=supplied)
        current, unforced = psi0, 0
        for entry in schedule:
            p = yes_probability(current, entry.experiment.projection)
            unforced += P_FLOOR < p < 1.0 - P_FLOOR
            outcome, current = perform(current, entry.experiment, scalar)
        assert rec.final_state.rho.tobytes() == current.rho.tobytes()
        counted = trial_generator(13, i)
        counted.random(unforced)
        after = supplied.random(4).tolist()
        assert after == scalar.random(4).tolist() == counted.random(4).tolist()


def one_trial_cases():
    """A full algebra under a Hamiltonian and a diagonal one under a Flow:
    (state, schedule, dynamics)."""
    ham = Hamiltonian(Observable(QUBIT, 0.7 * SIGMA_X + 0.2 * SIGMA_Z))
    angles = [0.0, 30.0, 30.0, 75.0, 120.0, 0.0]
    quantum = [ScheduleEntry(0.3 * k, YesNoExperiment(f"{a:g}", polarizer(a)))
               for k, a in enumerate(angles)]
    space = PhaseSpace(tuple("abcdef"))
    ctx = diagonal_context(space)
    flow = Flow(space, (2, 0, 1, 4, 5, 3))
    classical = [ScheduleEntry(k, YesNoExperiment(f"in {sorted(m)}", characteristic_projection(
        ctx, space.subset(m)))) for k, m in enumerate([{0, 1, 3}, {1, 4}, {0, 2, 5}, {3}, {2, 4}])]
    mu = np.random.default_rng(41).dirichlet(np.ones(6))
    return [(rand_density(QUBIT, np.random.default_rng(40)), quantum, ham),
            (classical_state(ctx, mu), classical, flow)]


@pytest.mark.parametrize("case", range(2), ids=["hamiltonian", "flow"])
def test_one_trial_run_is_row_i_of_the_batch(case):
    state, schedule, dynamics = one_trial_cases()[case]
    seed, trials = 29, 24
    batch = run_batch(state, schedule, trial_streams(seed, trials), dynamics)
    assert 0 < batch.draws.sum() and len({tuple(row) for row in batch.yes.tolist()}) > 1
    for i in range(trials):
        rng = trial_generator(seed, i)
        rec = run_sequence(state, schedule, dynamics, rng=rng)
        assert rec.outcomes() == batch.yes[i].tolist()
        assert [e.outcome.probability for e in rec.entries] == batch.probability[i].tolist()
        final = rec.final_state.mu if state.context.is_diagonal else rec.final_state.rho
        assert final.tobytes() == batch.final[i].tobytes()
        counted = trial_generator(seed, i)
        counted.random(int(batch.draws[i]))
        assert rng.random(3).tolist() == counted.random(3).tolist()


def screen_chain(dim=3):
    """A stop-at-first-yes chain "is it at point m?" on a complex pure state."""
    ctx = full_context(dim)
    psi = np.array([0.6, 0.48j, 0.64, 0.1 - 0.2j][:dim])
    exps = [YesNoExperiment(f"at {m}", Projection(ctx, np.diag(np.eye(dim)[m])))
            for m in range(dim)]
    return pure_state(ctx, psi), exps


def compiled(exps):
    return compile_questions(np.array([e.projection.matrix for e in exps]))


def test_run_batch_and_first_yes_take_empty_stacks():
    state, exps = screen_chain()
    none = run_batch(state, [ScheduleEntry(0.0, e) for e in exps], trial_streams(0, 0))
    assert none.yes.shape == none.p_yes.shape == (0, 3) and none.final.shape == (0, 3, 3)
    empty, used = np.empty((0, 3, 3), dtype=complex), np.zeros(0, dtype=np.intp)
    out, cls, yes, p_yes = born_step(empty, used, compiled(exps)[0], np.zeros((0, 7)), used)
    assert out.shape == (0, 3, 3) and cls.shape == yes.shape == p_yes.shape == (0,)
    point = scenarios._first_yes(empty, used, compiled(exps), np.zeros((0, 7)), used)
    assert point.shape == used.shape == (0,)
    # a one-row stack with no trial on it drops its row
    out, cls, yes, p_yes = born_step(state.rho[None], used, compiled(exps)[0],
                                     np.zeros((0, 7)), used)
    assert out.shape == (0, 3, 3) and cls.shape == yes.shape == p_yes.shape == (0,)


def scalar_first_yes(state, exps, rng):
    """The stop-at-first-yes chain trial by trial with `perform`: the point
    of the first yes (the last point if none) and the draws it took."""
    current, draws = state, 0
    for m, exp in enumerate(exps):
        p = yes_probability(current, exp.projection)
        draws += P_FLOOR < p < 1.0 - P_FLOOR
        outcome, current = perform(current, exp, rng)
        if outcome.yes:
            return m, draws
    return len(exps) - 1, draws


def test_draw_pointer_carries_across_phases():
    # phase 1 is a stop-at-first-yes chain; the uniform each trial's pointer
    # then points at is the draw the scalar run makes next
    state, exps = screen_chain()
    seed, trials = 17, 40

    def run(uniforms, used):
        cls = np.zeros(len(used), dtype=np.intp)
        point = scenarios._first_yes(state.rho[None], cls, compiled(exps), uniforms, used)
        return point, uniforms.ravel()[used], used - np.arange(len(used)) * uniforms.shape[1]

    point, following, used = run_chunked(trial_streams(seed, trials), 2 * len(exps) + 1, 0, run)
    for i, rng in enumerate(trial_streams(seed, trials)):
        assert (point[i], used[i]) == scalar_first_yes(state, exps, rng)
        assert following[i] == rng.random()


def test_first_yes_asks_each_question_only_of_undecided_trials(monkeypatch):
    state, exps = screen_chain(4)
    seed, trials, draws = 23, 60, 4
    asked = []

    def spy(rho, cls, question, uniforms, used):
        trial = used // draws  # each trial's pointer stays in its own row
        out = born_step(rho, cls, question, uniforms, used)
        asked.append((trial.tolist(), len(cls), out[2].tolist()))
        return out

    monkeypatch.setattr(scenarios, "born_step", spy)
    uniforms = np.array([rng.random(draws) for rng in trial_streams(seed, trials)])
    used = np.arange(trials) * draws
    point = scenarios._first_yes(state.rho[None], np.zeros(trials, dtype=np.intp),
                                 compiled(exps), uniforms, used)
    first = [scalar_first_yes(state, exps, rng)[0] for rng in trial_streams(seed, trials)]
    assert 1 < len(asked) <= len(exps) and len(set(first)) > 1
    undecided = list(range(trials))
    for m, (trial, asked_of, yes) in enumerate(asked):
        assert trial == undecided == [i for i in range(trials) if first[i] >= m]
        assert asked_of == len(undecided)
        undecided = [i for i, y in zip(trial, yes) if not y]
    # the last question is not asked: whoever reaches it is on the last point,
    # with the draws of the questions asked and no more
    assert len(asked) <= len(exps) - 1
    streams = list(trial_streams(seed, trials))
    for i in undecided:
        assert point[i] == len(exps) - 1
        assert used[i] - i * draws == scalar_first_yes(state, exps[:-1], streams[i])[1]


def histories(answers):
    """The number of distinct answer histories among rows of a (trials, k) array."""
    return len({row.tobytes() for row in np.ascontiguousarray(answers)})


def test_batch_stack_holds_one_state_per_answer_history(monkeypatch):
    steps = []

    def spy(rho, cls, question, uniforms, used):
        out = born_step(rho, cls, question, uniforms, used)
        steps.append((len(rho), len(out[0]), out[1]))
        return out

    monkeypatch.setattr(measurement, "born_step", spy)
    trials = 4096  # one chunk, so one step per schedule entry
    batch = run_batch(pure_state(QUBIT, [1, 0]), zeno_schedule(), trial_streams(42, trials))
    assert len(steps) == 100 and histories(batch.yes) > 20
    for k, (before, after, cls) in enumerate(steps):
        assert before == histories(batch.yes[:, :k])
        assert after == histories(batch.yes[:, :k + 1]) == len(set(cls.tolist()))


def test_two_slit_stacks_hold_one_state_per_answer_history(monkeypatch):
    calls = []

    def spy(rho, cls, question, uniforms, used):
        out = born_step(rho, cls, question, uniforms, used)
        calls.append((rho.shape[-1], len(set(cls.tolist())), len(cls), len(out[0]), out[2]))
        return out

    monkeypatch.setattr(scenarios, "born_step", spy)
    points = 8
    params = {"amp_l": [1] * points, "amp_r": [1, -1] * (points // 2)}
    records = run_scenario("two_slit", params, 300, 5, record_trials=True).trial_records
    pos = np.array([r["no_which_path_point"] for r in records])
    left = np.array([r["path_answer"] == "yes" for r in records])
    pos_wp = np.array([r["which_path_point"] for r in records])
    screen = [c for c in calls if c[0] == points]
    path, *joint = [c for c in calls if c[0] == 2 * points]
    # each step: the rows live trials are on are their histories before it,
    # and the new stack holds their histories after it
    assert path[1:4] == (1, 300, len(set(left.tolist()))) and path[4].tolist() == left.tolist()
    assert 1 < len(screen) <= points and 1 < len(joint) <= points
    for m, (_, live, asked, after, yes) in enumerate(screen):
        at = pos >= m
        assert (live, asked, after) == (1, at.sum(), histories((pos[at] == m)[:, None]))
        assert yes.tolist() == (pos[at] == m).tolist()
    for m, (_, live, asked, after, yes) in enumerate(joint):
        at = pos_wp >= m
        assert (live, asked) == (histories(left[at][:, None]), at.sum())
        assert after == histories(np.stack([left[at], pos_wp[at] == m], axis=1))
        assert yes.tolist() == (pos_wp[at] == m).tolist()


def test_first_yes_drops_rows_no_trial_is_on(monkeypatch):
    # after a yes its row has no trial left; when the live row then splits
    # in two, the children are as many as the stack's rows but are not it
    state, exps = screen_chain(4)
    seed, trials, draws = 31, 200, 4
    steps = []

    def spy(rho, cls, question, uniforms, used):
        out = born_step(rho, cls, question, uniforms, used)
        steps.append((len(rho), len(set(cls.tolist())), len(out[0])))
        return out

    monkeypatch.setattr(scenarios, "born_step", spy)
    uniforms = np.array([rng.random(draws) for rng in trial_streams(seed, trials)])
    used = np.arange(trials) * draws
    point = scenarios._first_yes(state.rho[None], np.zeros(trials, dtype=np.intp),
                                 compiled(exps), uniforms, used)
    assert any(rows == children > live for rows, live, children in steps[1:])
    for i, rng in enumerate(trial_streams(seed, trials)):
        assert (point[i], used[i] - i * draws) == scalar_first_yes(state, exps, rng)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@pytest.mark.parametrize("rows, cls, draws, error", [
    # "no" has mass 0 on row 0 and 4e-13 on row 1; trial 1 fails first, on row 1
    ([[0.5, 0.0], [0.3, 4e-13]], [0, 1, 0], [0.1, 0.9, 0.9], ZeroProbabilityError),
    # row 1 is nan: no probability fails the floor, the nan check does
    ([[0.5, 0.5], [np.nan, np.nan]], [0, 1, 0], [0.9, 0.9, 0.2], NumericalInvariantError),
])
def test_kernel_raises_the_first_failing_trial_of_any_row(diagonal, rows, cls, draws, error):
    ctx = diagonal_context(PhaseSpace(("u", "v"))) if diagonal else QUBIT
    measures = np.array(rows)
    states = [State._trusted(ctx, mu if diagonal else np.diag(mu).astype(complex))
              for mu in measures]
    exp = YesNoExperiment("at u", Projection(ctx, np.diag([1.0, 0.0]).astype(complex)))
    with pytest.raises(error) as scalar:
        for row, u in zip(cls, draws):  # the trials in order, as a loop would run them
            perform(states[row], exp, CountingDraw(u))
    stack = measures if diagonal else np.array([s.rho for s in states])
    question, = compile_questions((measure(exp.projection.matrix) if diagonal
                                   else exp.projection.matrix)[None])
    with pytest.raises(error) as kernel:
        born_step(stack, np.array(cls), question, np.array(draws)[:, None], np.arange(len(cls)))
    assert type(kernel.value) is type(scalar.value) and str(kernel.value) == str(scalar.value)


class CountingDraw:
    """A stream whose every draw is u, counting the draws taken."""

    def __init__(self, u):
        self.u, self.taken = u, 0

    def random(self):
        self.taken += 1
        return self.u


def outcome_bytes(fn):
    """The bytes of what fn returns, or the type and message of what it raises."""
    try:
        out = fn()
    except NumericalInvariantError as err:
        return type(err), str(err)
    return tuple(np.asarray(x).tobytes() for x in out)


@st.composite
def pure_states_straddling_the_floor(draw):
    """A pure state at d = 2..6 and a projection of random rank whose
    yes-probability is drawn in [P_FLOOR / 4, 4 P_FLOOR], or mirrored near 1:
    psi = sqrt(t) a + sqrt(1 - t) b, a and b unit vectors in the ranges of
    P and 1 - P."""
    d = draw(st.integers(2, 6))
    rank = draw(st.integers(1, d - 1))
    t = draw(st.floats(P_FLOOR / 4, 4 * P_FLOOR))
    t = 1.0 - t if draw(st.booleans()) else t
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ctx = full_context(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    a, b = (basis @ (rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1]))
            for basis in (q[:, :rank], q[:, rank:]))
    psi = np.sqrt(t) * a / np.linalg.norm(a) + np.sqrt(1.0 - t) * b / np.linalg.norm(b)
    return pure_state(ctx, psi), Projection(ctx, q[:, :rank] @ q[:, :rank].conj().T)


@settings(max_examples=300, deadline=None)
@given(pure_states_straddling_the_floor(),
       st.floats(0.0, 1.0, exclude_max=True) | st.floats(0.0, 8 * P_FLOOR)
       | st.floats(1.0 - 8 * P_FLOOR, 1.0, exclude_max=True))
def test_one_trial_step_is_perform_across_the_floor(case, u):
    state, p = case
    p_yes = yes_probability(state, p)
    assert P_FLOOR / 8 <= min(p_yes, 1.0 - p_yes) <= 8 * P_FLOOR
    exp = YesNoExperiment("near the floor", p)

    def scalar():
        draw = CountingDraw(u)
        out, post = perform(state, exp, draw)
        return out.yes, draw.taken, out.probability, post.rho

    def kernel():
        used = np.zeros(1, dtype=np.intp)
        post, cls, yes, p_yes = born_step(state.rho[None], np.zeros(1, dtype=np.intp),
                                          compile_questions(p.matrix[None])[0],
                                          np.array([[u]]), used)
        return yes[0], used[0], p_yes[0] if yes[0] else 1.0 - p_yes[0], post[cls[0]]

    assert outcome_bytes(kernel) == outcome_bytes(scalar)


def test_no_projection_is_built_once_per_experiment(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return complement(p)

    monkeypatch.setattr(measurement, "complement", counting)
    exp = YesNoExperiment("excited", EXCITED)
    for i in range(5):
        outcome, _ = perform(pure_state(QUBIT, [1, 0]), exp, trial_generator(0, i))
        assert not outcome.yes
    run_batch(pure_state(QUBIT, [1, 0]), [ScheduleEntry(0.0, exp)] * 3, trial_streams(0, 4))
    assert len(calls) == 1
    assert exp.no_projection.matrix.tobytes() == complement(EXCITED).matrix.tobytes()
    # a new experiment, as every run builds its own, builds its own complement
    YesNoExperiment("excited", EXCITED).no_projection
    assert len(calls) == 2


def test_koopman_schedule_makes_one_permutation_per_time(monkeypatch):
    space = PhaseSpace(tuple("abcde"))
    ctx = diagonal_context(space)
    flow = Flow(space, (2, 0, 4, 1, 3))
    exps = [YesNoExperiment(f"in {m}", characteristic_projection(ctx, space.subset(m)))
            for m in ([0], [1, 2], [3], [0, 4])]
    schedule = [ScheduleEntry(t, e) for t in (1, 3, 3, 7) for e in exps]
    expected = [koopman_evolve(e.experiment.projection, flow, int(e.time)).matrix
                for e in schedule]
    calls = []
    at = Flow.at
    monkeypatch.setattr(Flow, "at", lambda self, t: calls.append(t) or at(self, t))
    moved = evolve_schedule(schedule, flow)
    assert calls == [1, 3, 7]
    assert [e.experiment.projection.matrix.tobytes() for e in moved] == [
        m.tobytes() for m in expected]
    assert [(e.time, e.experiment.label) for e in moved] == [
        (e.time, e.experiment.label) for e in schedule]


# ------------------------------------------------------------------- tensor


def test_tensor_units():
    one2 = np.eye(2)
    t = tensor(element(QUBIT, one2), element(QUBIT, one2))
    assert np.array_equal(t.matrix, np.eye(4))


def test_tensor_pure_states_kron_convention():
    # e_i (x) e_j has index i * dim_1 + j: |0> (x) |1> lands at index 1
    s = tensor(pure_state(QUBIT, [1, 0]), pure_state(QUBIT, [0, 1]))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(s.rho, expected)


def test_tensor_sigma_z_with_identity_eigenvalues():
    t = tensor(element(QUBIT, SIGMA_Z), element(QUBIT, np.eye(2)))
    assert np.allclose(np.sort(np.linalg.eigvalsh(t.matrix)), [-1, -1, 1, 1])
    assert np.array_equal(t.matrix, np.kron(SIGMA_Z, np.eye(2)))


def test_tensor_projections_stay_projections():
    t = tensor(GROUND, EXCITED)
    assert isinstance(t, Projection)


def test_tensor_diagonal_contexts_builds_product_space():
    a = diagonal_context(PhaseSpace(("u", "d")))
    prod = tensor(a, a)
    assert prod.is_diagonal and prod.dim == 4
    assert prod.phase_space.points == ("u⊗u", "u⊗d", "d⊗u", "d⊗d")


def test_tensor_mixed_kinds_rejected():
    a = diagonal_context(PhaseSpace(("u", "d")))
    with pytest.raises(ValueError):
        tensor(a, QUBIT)
    with pytest.raises(TypeError):
        tensor(pure_state(QUBIT, [1, 0]), GROUND)


# ------------------------------------------------------------- embed_local


def test_embed_identity_is_global_identity():
    t = embed_local(Projection(QUBIT, np.eye(2)), 1, (2, 2))
    assert np.array_equal(t.matrix, np.eye(4))


def test_embed_sigma_z_slot0():
    t = embed_local(element(QUBIT, SIGMA_Z), 0, (2, 2))
    assert np.array_equal(t.matrix, np.kron(SIGMA_Z, np.eye(2)))


def test_embedded_slots_commute():
    rng = np.random.default_rng(32)
    for _ in range(10):
        a = element(QUBIT, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        b = element(full_context(3), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        ea = embed_local(a, 0, (2, 3))
        eb = embed_local(b, 1, (2, 3))
        assert np.allclose((ea @ eb - eb @ ea).matrix, 0.0, atol=1e-12)


def test_embed_local_errors():
    with pytest.raises(ValueError):
        embed_local(GROUND, 2, (2, 2))
    with pytest.raises(ValueError):
        embed_local(GROUND, 0, (3, 2))


# ------------------------------------------------------------ partial trace


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(33)
    rho = rand_density(QUBIT, rng)
    sigma = rand_density(full_context(3), rng)
    joint = State(full_context(6), np.kron(rho.rho, sigma.rho))
    assert state_distance(partial_trace(joint, 0, (2, 3)), rho) <= 1e-12
    assert state_distance(partial_trace(joint, 1, (2, 3)), sigma) <= 1e-12


def test_partial_trace_singlet_is_maximally_mixed():
    singlet = pure_state(full_context(4), np.array([0, 1, -1, 0]) / math.sqrt(2))
    mixed = State(QUBIT, np.eye(2) / 2)
    for slot in (0, 1):
        assert state_distance(partial_trace(singlet, slot, (2, 2)), mixed) <= 1e-12


def test_partial_trace_expectation_consistency():
    rng = np.random.default_rng(34)
    joint = rand_density(full_context(6), rng)
    a = element(QUBIT, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    lhs = expectation(partial_trace(joint, 0, (2, 3)), a)
    rhs = expectation(joint, embed_local(a, 0, (2, 3)))
    assert abs(lhs - rhs) <= 1e-10


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(pure_state(full_context(4), [1, 0, 0, 0]), 0, (3, 2))


def test_singlet_conditioning_drives_partner():
    singlet = pure_state(full_context(4), np.array([0, 1, -1, 0]) / math.sqrt(2))
    from noncomm.states import condition

    after = condition(singlet, embed_local(GROUND, 0, (2, 2)))
    assert abs(yes_probability(after, embed_local(EXCITED, 1, (2, 2))) - 1.0) <= 1e-12


# -------------------------------------------------------------------- rng


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15])
def test_trial_generator_is_the_jumped_root_stream(seed):
    for trial in (0, 1, 2, 1000, 2**32 + 3, 2**62, 2**63 - 1, 2**63, 2**64 - 1):
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(trial))
        assert trial_generator(seed, trial).random(9).tolist() == jumped.random(9).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15])
def test_filled_rows_are_the_trial_streams(seed, monkeypatch):
    # rows are filled from one re-pointed Philox; each must be the stream
    # trial_generator(seed, i) starts, across the counter's high word (trial
    # 2**64 - 1 is the last whose counter fits word 2) and across chunks
    draws, blocks = 7, []

    def rows(uniforms, used):
        blocks.append(len(uniforms))
        return (uniforms.copy(),)

    for chunk_bytes in (measurement.CHUNK_BYTES, 3 * 8 * draws):
        monkeypatch.setattr(measurement, "CHUNK_BYTES", chunk_bytes)
        for trials in (range(5), range(2**64 - 3, 2**64 + 4)):
            filled, = run_chunked(trial_streams(seed, trials), draws, 0, rows)
            assert len(filled) == len(trials)
            for row, i in zip(filled, trials):
                assert row.tolist() == trial_generator(seed, i).random(draws).tolist()
    # whole runs, then three rows a chunk: 5 = 3 + 2 and 7 = 3 + 3 + 1
    assert blocks == [5, 7, 3, 2, 3, 3, 1]


def test_run_chunked_builds_one_philox_per_run(monkeypatch):
    psi0 = pure_state(QUBIT, [1, 0])
    schedule = zeno_schedule(n=3, omega=2.0)
    whole = run_batch(psi0, schedule, trial_streams(9, 10))
    built, philox = [], np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(k) or philox(*a, **k))
    monkeypatch.setattr(measurement, "CHUNK_BYTES", 4 * (8 * 3 + 16 * 4))  # four trials a chunk
    part = run_batch(psi0, schedule, trial_streams(9, 10))
    assert built == [{"key": 9}]
    for name in ("yes", "probability", "draws", "final"):
        assert getattr(part, name).tobytes() == getattr(whole, name).tobytes()


def test_trial_generators_are_reproducible_and_distinct():
    a1 = trial_generator(5, 0).random(4)
    a2 = trial_generator(5, 0).random(4)
    b = trial_generator(5, 1).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
