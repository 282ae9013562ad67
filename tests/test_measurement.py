import functools
import json
import math
import re

import numpy as np
import pytest
from draws import measures_with_mass_on, states_with_mass_on
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noncomm import measurement, scenarios
from noncomm.algebra import (
    SIGMA_X,
    SIGMA_Z,
    AlgebraElement,
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
from noncomm.checks import NumpyDraw
from noncomm.dynamics import (
    Flow,
    Hamiltonian,
    heisenberg_evolve,
    koopman_evolve,
    propagator,
    schrodinger_state,
)
from noncomm.measurement import (
    BatchOutcomes,
    MeasurementRecord,
    Outcome,
    ScheduleEntry,
    YesNoExperiment,
    born_step,
    compile_questions,
    embed_local,
    entry_dict,
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
    condition,
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
    # built by keyword or position, immutable, with its answer and its range check
    out = Outcome(yes=False, probability=0.25)
    assert out == Outcome(False, 0.25) and (out.yes, out.probability, out.answer) == (False, 0.25, "no")
    assert Outcome(yes=True, probability=1.0).answer == "yes"
    for name in ("yes", "probability", "label"):
        with pytest.raises(AttributeError):
            setattr(out, name, True)
    assert out._replace(probability=1.0) == Outcome(False, 1.0) == Outcome._make((False, 1.0))
    for bad in (1.5, -1e-300, math.nan):
        for build in (lambda: Outcome(yes=True, probability=bad), lambda: Outcome._make((True, bad)),
                      lambda: out._replace(probability=bad)):
            with pytest.raises(NumericalInvariantError,
                               match=re.escape(f"outcome probability {bad} outside [0, 1]")):
                build()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_faults_are_numerical_invariant_errors():
    assert issubclass(ZeroProbabilityError, NumericalInvariantError)
    assert issubclass(NumericalInvariantError, ValueError)
    with pytest.raises(NumericalInvariantError):
        Outcome(yes=True, probability=1.5)
    broken = State._unchecked(QUBIT, np.full((2, 2), np.nan, dtype=complex))
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
        s = NumpyDraw(rng).density(QUBIT)
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
        s = NumpyDraw(rng).density(ctx)
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
            run_batch(psi0, schedule, trial_streams(0, 2), Flow.identity(PhaseSpace(("u", "v"))))
    with pytest.raises(ContextMismatchError):
        run_batch(classical_state(ctx, [1, 0, 0]), [], trial_streams(0, 2), elsewhere)
    at_a = YesNoExperiment("at a", characteristic_projection(ctx, space.subset([0])))
    with pytest.raises(ContextMismatchError):
        evolve_schedule([ScheduleEntry(1, at_a)], elsewhere)
    with pytest.raises(ContextMismatchError):
        evolve_schedule([ScheduleEntry(0.0, YesNoExperiment("g", GROUND))], qutrit)
    # classical time is an integer: a fractional or non-finite time is rejected, not
    # truncated, and by the run as by the schedule
    for t in (1.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            evolve_schedule([ScheduleEntry(t, at_a)], Flow(space, (1, 2, 0)))
        with pytest.raises(ValueError, match="integer"):
            run_batch(classical_state(ctx, [1, 0, 0]), [ScheduleEntry(t, at_a)],
                      trial_streams(0, 2), Flow(space, (1, 2, 0)))
    assert evolve_schedule([], qutrit) == [] and evolve_schedule([], None) == []


# ---------------------------------------------------------------- run_batch


def generators(seed, trials):
    """Each trial's own generator, `trial_generator(seed, i)`, in order."""
    return [trial_generator(seed, i) for i in range(trials)]


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
    reference = scalar_reference(state, schedule, generators(seed, trials))
    assert batch.yes.shape == batch.p_yes.shape == (trials, len(schedule))
    for i, (yes, prob, final) in enumerate(reference):
        assert batch.yes[i].tolist() == yes
        assert [p if y else 1.0 - p for y, p in zip(yes, batch.p_yes[i].tolist())] == prob
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
    assert_batch_matches_scalar(NumpyDraw(rng).density(ctx), schedule, seed=2**64 - 1, trials=25)


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
        for name in ("yes", "p_yes", "draws", "final"):
            assert getattr(part, name).tobytes() == getattr(whole, name).tobytes()
        assert run_scenario("zeno_precise", {"n": 20}, trials=23, seed=8,
                            record_trials=True).to_dict() == doc


def test_entries_share_one_list_per_bit_equal_row():
    schedule = [ScheduleEntry(0.0, YesNoExperiment("a", GROUND)),
                ScheduleEntry(1.0, YesNoExperiment("b", GROUND))]
    half, ulp = 0.5, np.nextafter(0.5, 1.0)
    # rows 0, 1 and 5 are equal bit for bit; 2 differs by the sign of a zero on
    # a "yes", 3 by one ulp on a "no", 4 by one answer
    row_of = [0, 0, 1, 2, 3, 0]
    yes = np.array([[False, True]] * 4 + [[False, False], [False, True]])
    p_yes = np.array([[half, 0.0], [half, 0.0], [half, -0.0], [ulp, 0.0], [half, 0.0],
                      [half, 0.0]])
    batch = BatchOutcomes(yes, p_yes, np.zeros(6, dtype=np.intp), np.zeros((6, 2)))
    got = batch.entries(schedule)
    # the per-trial comprehension it replaces; text, since 0.0 == -0.0
    want = [[entry_dict(e.time, e.experiment.label, y, p if y else 1.0 - p)
             for e, y, p in zip(schedule, ys, ps)]
            for ys, ps in zip(yes.tolist(), p_yes.tolist())]
    assert [json.dumps(entries) for entries in got] == [json.dumps(entries) for entries in want]
    assert [[a is b for b in got] for a in got] == [[i == j for j in row_of] for i in row_of]


def test_epr_records_hold_one_entries_list_per_answer_history():
    # A then B on the singlet: A's answer decides B's, so two histories
    res = run_scenario("epr", trials=40, record_trials=True)
    assert len({id(record["entries"]) for record in res.trial_records}) == 2
    assert len({json.dumps(record["entries"]) for record in res.trial_records}) == 2


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
    # State._unchecked skips validation, so the broken states reach the step
    state = State._unchecked(QUBIT, rho)
    schedule = [ScheduleEntry(0.0, YesNoExperiment("ground", GROUND))]
    with pytest.raises(error) as scalar:
        scalar_reference(state, schedule, generators(0, 8))
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
    return [(NumpyDraw(np.random.default_rng(40)).density(QUBIT), quantum, ham),
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
        assert [e.outcome.probability for e in rec.entries] == [
            p if y else 1.0 - p for y, p in zip(rec.outcomes(), batch.p_yes[i].tolist())]
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
    out, cls, yes, p_yes = born_step(empty, used, compiled(exps), 0, np.zeros((0, 7)), used)
    assert out.shape == (0, 3, 3) and cls.shape == yes.shape == p_yes.shape == (0,)
    point = scenarios._first_yes(empty, used, compiled(exps), np.zeros((0, 7)), used)
    assert point.shape == used.shape == (0,)
    # a one-row stack with no trial on it drops its row
    out, cls, yes, p_yes = born_step(state.rho[None], used, compiled(exps), 0,
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
    for i, rng in enumerate(generators(seed, trials)):
        assert (point[i], used[i]) == scalar_first_yes(state, exps, rng)
        assert following[i] == rng.random()


def test_first_yes_asks_each_question_only_of_undecided_trials(monkeypatch):
    state, exps = screen_chain(4)
    seed, trials, draws = 23, 60, 4
    asked = []

    def spy(rho, cls, questions, ask, uniforms, used):
        trial = used // draws  # each trial's pointer stays in its own row
        out = born_step(rho, cls, questions, ask, uniforms, used)
        asked.append((trial.tolist(), len(cls), out[2].tolist()))
        return out

    monkeypatch.setattr(scenarios, "born_step", spy)
    uniforms = np.array([rng.random(draws) for rng in generators(seed, trials)])
    used = np.arange(trials) * draws
    point = scenarios._first_yes(state.rho[None], np.zeros(trials, dtype=np.intp),
                                 compiled(exps), uniforms, used)
    first = [scalar_first_yes(state, exps, rng)[0] for rng in generators(seed, trials)]
    assert 1 < len(asked) <= len(exps) and len(set(first)) > 1
    undecided = list(range(trials))
    for m, (trial, asked_of, yes) in enumerate(asked):
        assert trial == undecided == [i for i in range(trials) if first[i] >= m]
        assert asked_of == len(undecided)
        undecided = [i for i, y in zip(trial, yes) if not y]
    # the last question is not asked: whoever reaches it is on the last point,
    # with the draws of the questions asked and no more
    assert len(asked) <= len(exps) - 1
    streams = generators(seed, trials)
    for i in undecided:
        assert point[i] == len(exps) - 1
        assert used[i] - i * draws == scalar_first_yes(state, exps[:-1], streams[i])[1]


def histories(answers):
    """The number of distinct answer histories among rows of a (trials, k) array."""
    return len({row.tobytes() for row in np.ascontiguousarray(answers)})


def test_batch_stack_holds_one_state_per_answer_history(monkeypatch):
    steps = []

    def spy(rho, cls, questions, ask, uniforms, used):
        out = born_step(rho, cls, questions, ask, uniforms, used)
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

    def spy(rho, cls, questions, ask, uniforms, used):
        out = born_step(rho, cls, questions, ask, uniforms, used)
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

    def spy(rho, cls, questions, ask, uniforms, used):
        out = born_step(rho, cls, questions, ask, uniforms, used)
        steps.append((len(rho), len(set(cls.tolist())), len(out[0])))
        return out

    monkeypatch.setattr(scenarios, "born_step", spy)
    uniforms = np.array([rng.random(draws) for rng in generators(seed, trials)])
    used = np.arange(trials) * draws
    point = scenarios._first_yes(state.rho[None], np.zeros(trials, dtype=np.intp),
                                 compiled(exps), uniforms, used)
    assert any(rows == children > live for rows, live, children in steps[1:])
    for i, rng in enumerate(generators(seed, trials)):
        assert (point[i], used[i] - i * draws) == scalar_first_yes(state, exps, rng)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@pytest.mark.parametrize("rows, cls, draws, error", [
    # "no" has mass 0 on row 0 and 4e-13 on row 1; trial 1 fails first, on row 1
    ([[0.5, 0.0], [0.3, 4e-13]], [0, 1, 0], [0.1, 0.9, 0.9], ZeroProbabilityError),
    # row 1 is nan: no probability fails the floor, the nan check does
    ([[0.5, 0.5], [np.nan, np.nan]], [0, 1, 0], [0.9, 0.9, 0.2], NumericalInvariantError),
    # trial 0 is on the nan row and trial 1 fails the floor: trial 0's error comes first
    ([[np.nan, np.nan], [0.3, 4e-13]], [0, 1], [0.9, 0.9], NumericalInvariantError),
])
def test_kernel_raises_the_first_failing_trial_of_any_row(diagonal, rows, cls, draws, error):
    ctx = diagonal_context(PhaseSpace(("u", "v"))) if diagonal else QUBIT
    measures = np.array(rows)
    states = [State._unchecked(ctx, mu if diagonal else np.diag(mu).astype(complex))
              for mu in measures]
    exp = YesNoExperiment("at u", Projection(ctx, np.diag([1.0, 0.0]).astype(complex)))
    with pytest.raises(error) as scalar:
        for row, u in zip(cls, draws):  # the trials in order, as a loop would run them
            perform(states[row], exp, CountingDraw(u))
    stack = measures if diagonal else np.array([s.rho for s in states])
    questions = compile_questions((measure(exp.projection.matrix) if diagonal
                                   else exp.projection.matrix)[None])
    with pytest.raises(error) as kernel:
        born_step(stack, np.array(cls), questions, 0, np.array(draws)[:, None],
                  np.arange(len(cls)))
    assert type(kernel.value) is type(scalar.value) and str(kernel.value) == str(scalar.value)


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
def test_kernel_raises_the_first_failing_trial_with_a_question_per_row(diagonal):
    # under its own question "no" has mass 0 on row 0 and 4e-13 on row 1, so
    # trial 1 fails first, on row 1; under row 0's question row 1 would pass
    ctx = diagonal_context(PhaseSpace(("u", "v"))) if diagonal else QUBIT
    measures, asked = np.array([[0.5, 0.0], [4e-13, 0.3]]), np.eye(2)
    cls, draws = [0, 1, 0], [0.1, 0.9, 0.9]
    states = [State._unchecked(ctx, mu if diagonal else np.diag(mu).astype(complex))
              for mu in measures]
    exps = [YesNoExperiment("asked", Projection(ctx, np.diag(s).astype(complex))) for s in asked]
    with pytest.raises(ZeroProbabilityError) as scalar:
        for row, u in zip(cls, draws):  # the trials in order, as a loop would run them
            perform(states[row], exps[row], CountingDraw(u))
    stack = measures if diagonal else np.array([s.rho for s in states])
    kept = asked if diagonal else np.array([e.projection.matrix for e in exps])
    with pytest.raises(ZeroProbabilityError) as kernel:
        born_step(stack, np.array(cls), compile_questions(kept), np.arange(2),
                  np.array(draws)[:, None], np.arange(3))
    assert str(kernel.value) == str(scalar.value)


def stack_and_question(diagonal, rows=3, dim=3, seed=41):
    """`rows` random states of one algebra with their stack, and a question
    compiled from a projection none of them answers with certainty."""
    rng = np.random.default_rng(seed)
    if diagonal:
        ctx = diagonal_context(PhaseSpace(tuple("uvwxyz"[:dim])))
        states = [classical_state(ctx, rng.dirichlet(np.ones(dim))) for _ in range(rows)]
        proj = Projection(ctx, np.diag(np.arange(dim) % 2 == 0).astype(complex))
        return states, np.array([s.mu for s in states]), proj, measure(proj.matrix)
    ctx = full_context(dim)
    states = [NumpyDraw(rng).density(ctx) for _ in range(rows)]
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    proj = Projection(ctx, np.outer(v, v.conj()) / np.vdot(v, v).real)
    return states, np.array([s.rho for s in states]), proj, proj.matrix


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@pytest.mark.parametrize("draws, answers, children", [
    # row 0 answers yes, row 1 splits and row 2 answers no: "no" is taken on two rows
    ([0.0, 0.0, 0.0, 0.99, 0.99, 0.99], [True] * 3 + [False] * 3, 4),
    # every row answers yes: no "no" probability is taken
    ([0.0] * 6, [True] * 6, 3),
], ids=["some-rows-no", "all-yes"])
def test_step_on_a_stack_is_perform_for_every_trial(diagonal, draws, answers, children):
    states, stack, proj, matrix = stack_and_question(diagonal)
    exp, cls = YesNoExperiment("asked", proj), np.array([0, 0, 1, 1, 2, 2])
    used = np.arange(len(cls))
    post, row, yes, p_yes = born_step(stack, cls, compile_questions(matrix[None]), 0,
                                      np.array(draws)[:, None], used)
    assert yes.tolist() == answers and len(post) == children
    for i, (k, u) in enumerate(zip(cls, draws)):
        kernel = (yes[i], p_yes[i] if yes[i] else 1.0 - p_yes[i], used[i] - i, post[row[i]])
        scalar = outcome_bytes(functools.partial(one_trial, perform, states[k], exp, u))
        assert outcome_bytes(lambda: kernel) == scalar


def per_row_questions(diagonal, dim=3):
    """A different projection for each of three rows, and their compiled
    questions, row k's at index k."""
    if diagonal:
        ctx = diagonal_context(PhaseSpace(tuple("uvwxyz"[:dim])))
        projs = [characteristic_projection(ctx, ctx.phase_space.subset(s))
                 for s in ([0], [1, 2], [0, 2])]
        kept = [p.values.real for p in projs]
    else:
        projs = [stack_and_question(False, rows=1, dim=dim, seed=s)[2] for s in (5, 6, 7)]
        kept = [p.matrix for p in projs]
    return projs, compile_questions(np.array(kept))


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@pytest.mark.parametrize("cls, draws, children", [
    # row 0 answers yes, row 1 splits and row 2 answers no: the rows' indices
    # are gathered with them, and "no" is taken on two rows
    ([0, 0, 1, 1, 2, 2], [0.0, 0.0, 0.0, 0.99, 0.99, 0.99], 4),
    # trials on rows 0 and 2 only: row 1 and its index are dropped
    ([2, 0, 2], [0.99, 0.0, 0.99], 2),
    # each row answers one way, so no row is gathered
    ([0, 1, 2], [0.0, 0.99, 0.0], 3),
    # trials on row 1 only, and all answer no: one child, on row 1's question
    ([1, 1], [0.99, 0.99], 1),
], ids=["split", "dropped", "kept", "one-child"])
def test_step_with_a_question_per_row_is_perform_for_every_trial(diagonal, cls, draws,
                                                                 children):
    states, stack, _, _ = stack_and_question(diagonal)
    projs, questions = per_row_questions(diagonal)
    cls = np.array(cls)
    for ask in (np.arange(3), 1):  # row k asks question k, then every row asks question 1
        used = np.arange(len(cls))
        post, row, yes, p_yes = born_step(stack, cls, questions, ask, np.array(draws)[:, None],
                                          used)
        assert len(post) == children
        for i, (k, u) in enumerate(zip(cls, draws)):
            exp = YesNoExperiment("asked", projs[np.broadcast_to(ask, 3)[k]])
            kernel = (yes[i], p_yes[i] if yes[i] else 1.0 - p_yes[i], used[i] - i, post[row[i]])
            scalar = outcome_bytes(functools.partial(one_trial, perform, states[k], exp, u))
            assert outcome_bytes(lambda: kernel) == scalar


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@pytest.mark.parametrize("u", [0.0, 0.99], ids=["yes", "no"])
def test_one_row_step_with_its_own_question_is_perform(diagonal, u):
    # the one-child step takes its projection, and on "no" its probability,
    # from the row's own question
    states, stack, _, _ = stack_and_question(diagonal)
    projs, questions = per_row_questions(diagonal)
    one, used = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    post, row, yes, p_yes = born_step(stack[1:2], one, questions, np.array([1]),
                                      np.array([[u]]), used)
    kernel = (yes[0], p_yes[0] if yes[0] else 1.0 - p_yes[0], used[0], post[row[0]])
    scalar = outcome_bytes(functools.partial(
        one_trial, perform, states[1], YesNoExperiment("asked", projs[1]), u))
    assert not yes[0] if u else yes[0]
    assert outcome_bytes(lambda: kernel) == scalar


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
@pytest.mark.parametrize("draws", [[0.0], [0.99], [0.0, 0.99, 0.5, 0.99]],
                         ids=["yes", "no", "split"])
def test_one_row_step_asks_its_index_bitwise_as_a_shared_one(diagonal, draws):
    # `zeno_coarse` at one trial asks its one row's window as an index array
    # every step: that step is the one with the index shared by every row
    _, stack, _, _ = stack_and_question(diagonal)
    _, questions = per_row_questions(diagonal)
    for k in range(3):
        steps = [born_step(stack[k:k + 1], np.zeros(len(draws), dtype=np.intp), questions, ask,
                           np.array(draws)[:, None], np.arange(len(draws)))
                 for ask in (np.array([k]), k)]
        per_row, shared = ([np.asarray(x).tobytes() for x in step] for step in steps)
        assert per_row == shared


@settings(max_examples=150, deadline=None)
@given(states_with_mass_on() | measures_with_mass_on(), st.sampled_from(["free", "yes", "no"]),
       st.lists(st.tuples(st.booleans(), st.floats(0.0, 0.99)), min_size=1, max_size=6))
def test_many_trials_on_one_row_are_perform_each(case, forced, wants):
    # 1-6 trials on one row, each drawing below p (wants yes) or at or above
    # it, so all answer yes, all no, or they split; on the state conditioned
    # on P, the answer to P is forced yes and the answer to 1 - P forced no,
    # unless roundoff on a full algebra leaves p short of the floor
    state, p = case
    if forced != "free":
        state, p = condition(state, p), p if forced == "yes" else complement(p)
    exp, diagonal = YesNoExperiment("asked", p), state.context.is_diagonal
    p_yes = yes_probability(state, p)
    free = P_FLOOR < p_yes < 1.0 - P_FLOOR
    assert free or forced != "free"
    draws = [f * p_yes if want else p_yes + f * (1.0 - p_yes) for want, f in wants]
    questions = compile_questions((measure(p.matrix) if diagonal else p.matrix)[None])
    trials = np.arange(len(draws))
    used = trials.copy()
    post, row, yes, p_kernel = born_step(state._stored[None], np.zeros(len(draws), dtype=np.intp),
                                         questions, 0, np.array(draws)[:, None], used)
    # one draw a free trial, none a forced one
    assert (used - trials).tolist() == [int(free)] * len(draws)
    answers = [want for want, _ in wants] if free else [p_yes >= 1.0 - P_FLOOR] * len(draws)
    assert yes.tolist() == answers and len(post) == len(set(answers))
    for i, u in enumerate(draws):
        kernel = (yes[i], p_kernel[i] if yes[i] else 1.0 - p_kernel[i], used[i] - i, post[row[i]])
        scalar = outcome_bytes(functools.partial(one_trial, perform, state, exp, u))
        assert outcome_bytes(lambda: kernel) == scalar


class CountedStream:
    """A trial's stream, counting the draws taken."""

    def __init__(self, rng):
        self.rng, self.taken = rng, 0

    def random(self):
        self.taken += 1
        return self.rng.random()


def perform_point_chain(state, exps, rng):
    """One trial asked each of `exps` with `perform` until its first yes: each
    answer's (yes, its probability, draws, measure after) as bytes, or the
    (type, message) of the error that ends the chain."""
    steps, stream = [], CountedStream(rng)
    for exp in exps:
        taken = stream.taken
        try:
            out, state = perform(state, exp, stream)
        except NumericalInvariantError as err:
            return steps + [(type(err), str(err))]
        steps.append(tuple(np.asarray(x).tobytes() for x in (
            out.yes, out.probability, stream.taken - taken, state.mu)))
        if out.yes:
            break
    return steps


# pairwise summation is one block up to 128 numbers and recurses past them
@pytest.mark.parametrize("n", [*range(2, 18), 129, 300])
@settings(max_examples=8, deadline=None)
@given(data=st.data(), trials=st.integers(1, 6), seed=st.integers(0, 2**64 - 1))
def test_one_row_point_chain_is_perform_for_every_trial(n, data, trials, seed):
    # the classical Zeno's chain on a measure that is no point mass: "is it at
    # x_k?" for k in a drawn order until each trial's first yes, the last point
    # too; the trials still without a yes share the "no" row, so every question
    # is asked of one row, which weighs as `perform` does, "no" only on a no
    state, _ = data.draw(measures_with_mass_on(n))
    order = data.draw(st.permutations(range(n)))
    space = state.context.phase_space
    exps = [YesNoExperiment(f"x{k}", characteristic_projection(state.context, space.subset([k])))
            for k in order]
    expected = [perform_point_chain(state, exps, rng) for rng in generators(seed, trials)]
    uniforms = np.array([rng.random(n) for rng in generators(seed, trials)])
    questions, kernel = compile_questions(np.eye(n)), [[] for _ in range(trials)]
    rho, live, used = state.mu[None], np.arange(trials), np.arange(trials) * n
    failed = False
    for k in order:
        start = used.copy()
        try:
            post, row, yes, p_yes = born_step(rho, np.zeros(len(live), dtype=np.intp), questions,
                                              k, uniforms, used)
        except NumericalInvariantError as err:  # raised for the first live trial that fails here
            first = next(i for i in live if isinstance(expected[i][len(kernel[i])][0], type))
            kernel[first].append((type(err), str(err)))
            failed = True
            break
        for i, y, p, taken, after in zip(live, yes, p_yes, used - start, post[row]):
            kernel[i].append(tuple(np.asarray(x).tobytes() for x in (
                y, p if y else 1.0 - p, taken, after)))
        live, used, row = live[~yes], used[~yes], row[~yes]
        if not len(live):
            break
        rho = post[row[:1]]
    for got, want in zip(kernel, expected):  # after an error, as far as the kernel went
        assert got == (want[:len(got)] if failed else want)


@pytest.mark.parametrize("case, negative", [
    ("full", False), ("diagonal", False), ("full-d1", True), ("diagonal-signed-measure", False)])
def test_step_keeps_the_sign_of_a_zero_yes_probability_as_perform(case, negative):
    # every product in Tr(rho P) is a signed zero, since P's entries are -0.0
    # (or the measure's are, where P's are +0.0): numpy's sums start from
    # +0.0, but a dot at d = 1 is its one product, -0.0 (`negative`);
    # `yes_probability` and the kernel give every such zero as +0.0 alike
    diagonal = case.startswith("diagonal")
    if case == "full-d1":
        state, zeros = pure_state(full_context(1), [1.0]), [[-0.0]]
    elif case == "diagonal-signed-measure":
        state = State._unchecked(diagonal_context(PhaseSpace(("u", "v"))), np.array([-0.0, 1.0]))
        zeros = np.diag([0.0, -0.0])
    else:
        (state,), _, _, _ = stack_and_question(diagonal, rows=1, dim=2)
        zeros = np.full((2, 2), -0.0)
    proj = Projection(state.context, np.array(zeros).astype(complex))
    assert bool(np.signbit(expectation(state, proj).real)) == negative
    matrix = measure(proj.matrix) if diagonal else proj.matrix
    one = np.zeros(1, dtype=np.intp)
    _, _, _, p_yes = born_step((state.mu if diagonal else state.rho)[None], one,
                               compile_questions(matrix[None]), 0, np.array([[0.5]]), one.copy())
    p = yes_probability(state, proj)
    assert np.float64(p).tobytes() == p_yes[0].tobytes() == np.float64(0.0).tobytes()
    batch = run_batch(state, [ScheduleEntry(0.0, YesNoExperiment("zero", proj))],
                      trial_streams(7, 2))
    assert batch.p_yes.tobytes() == np.zeros((2, 1)).tobytes()


class CountingDraw:
    """A stream whose every draw is u, counting the draws taken."""

    def __init__(self, u):
        self.u, self.taken = u, 0

    def random(self):
        self.taken += 1
        return self.u


def one_trial(step, state, exp, u):
    """(answer, its probability, draws taken, state after) when `step` runs
    one trial whose every draw is u, the state as its kept array."""
    draw = CountingDraw(u)
    out, post = step(state, exp, draw)
    return out.yes, out.probability, draw.taken, post._stored


def outcome_bytes(fn):
    """The bytes of what fn returns, or the type and message of what it raises."""
    try:
        out = fn()
    except NumericalInvariantError as err:
        return type(err), str(err)
    return tuple(np.asarray(x).tobytes() for x in out)


@st.composite
def states_straddling_the_floor(draw):
    """A state at d = 2..6 and a projection of random rank whose
    yes-probability is drawn in [P_FLOOR / 4, 4 P_FLOOR], or mirrored near 1.
    On a full algebra the state is pure, psi = sqrt(t) a + sqrt(1 - t) b, a
    and b unit vectors in the ranges of P and 1 - P; on a diagonal algebra it
    is a measure with mass t on P's points."""
    d = draw(st.integers(2, 6))
    rank = draw(st.integers(1, d - 1))
    t = draw(st.floats(P_FLOOR / 4, 4 * P_FLOOR))
    t = 1.0 - t if draw(st.booleans()) else t
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ctx = diagonal_context(PhaseSpace(tuple(f"x{i}" for i in range(d))))
        inside, weights = rng.permutation(d) < rank, rng.random(d) + 0.1
        mu = np.where(inside, t / weights[inside].sum(), (1.0 - t) / weights[~inside].sum())
        return State(ctx, mu * weights), Projection(ctx, np.diag(inside).astype(complex))
    ctx = full_context(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    a, b = (basis @ (rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1]))
            for basis in (q[:, :rank], q[:, rank:]))
    psi = np.sqrt(t) * a / np.linalg.norm(a) + np.sqrt(1.0 - t) * b / np.linalg.norm(b)
    return pure_state(ctx, psi), Projection(ctx, q[:, :rank] @ q[:, :rank].conj().T)


def floor_failure(ctx):
    """A measure short of unit mass whose drawn "no" (u = 1 - 1e-13) has mass
    5e-13, at or below the floor, as roundoff can leave a state; P is at the
    first point."""
    mu = np.array([1.0 - 4e-12, 5e-13])
    kept = mu if ctx.is_diagonal else np.diag(mu).astype(complex)
    return State._unchecked(ctx, kept), Projection(ctx, np.diag([1.0, 0.0]).astype(complex))


@settings(max_examples=300, deadline=None)
@example(floor_failure(QUBIT), 1.0 - 1e-13)
@example(floor_failure(diagonal_context(PhaseSpace(("u", "v")))), 1.0 - 1e-13)
@given(states_straddling_the_floor(),
       st.floats(0.0, 1.0, exclude_max=True) | st.floats(0.0, 8 * P_FLOOR)
       | st.floats(1.0 - 8 * P_FLOOR, 1.0, exclude_max=True))
def test_one_trial_step_is_perform_across_the_floor(case, u):
    # the kernel and `perform`: forced answers, drawn ones and the floor's
    # error alike, on both algebra kinds
    state, p = case
    p_yes = yes_probability(state, p)
    assert P_FLOOR / 8 <= min(p_yes, 1.0 - p_yes) <= 8 * P_FLOOR
    exp = YesNoExperiment("near the floor", p)
    diagonal = state.context.is_diagonal

    def kernel():
        used = np.zeros(1, dtype=np.intp)
        questions = compile_questions((measure(p.matrix) if diagonal else p.matrix)[None])
        post, cls, yes, p_yes = born_step(state._stored[None], np.zeros(1, dtype=np.intp),
                                          questions, 0, np.array([[u]]), used)
        return yes[0], p_yes[0] if yes[0] else 1.0 - p_yes[0], used[0], post[cls[0]]

    scalar = outcome_bytes(functools.partial(one_trial, perform, state, exp, u))
    assert outcome_bytes(kernel) == scalar


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



def tensor_factor(diagonal, cls, n, rng):
    """A random value of class `cls` on an n-dimensional algebra, diagonal or full."""
    space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
    ctx = diagonal_context(space) if diagonal else full_context(n)
    shape = (n,) if ctx.is_diagonal else (n, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if cls is State:
        return (classical_state(ctx, (m := rng.random(n) + 0.1) / m.sum()) if ctx.is_diagonal
                else NumpyDraw(rng).density(ctx))
    if cls is Projection:
        if ctx.is_diagonal:
            return characteristic_projection(ctx, ctx.phase_space.subset(
                np.flatnonzero(rng.random(n) < 0.5).tolist()))
        q = np.linalg.qr(g)[0][:, :rng.integers(0, n + 1)]
        return Projection(ctx, q @ q.conj().T)
    if cls is Observable:
        return Observable(ctx, g.real if ctx.is_diagonal else (g + g.conj().T) / 2.0)
    return element(ctx, g)


@settings(max_examples=80, deadline=None)
@given(st.booleans(),
       st.sampled_from([State, Projection, Observable, AlgebraElement]),
       st.tuples(st.integers(1, 4), st.integers(1, 4)), st.integers(0, 2**32 - 1))
def test_tensor_is_the_kronecker_product_of_the_kept_arrays(diagonal, cls, dims, seed):
    rng = np.random.default_rng(seed)
    a, b = (tensor_factor(diagonal, cls, n, rng) for n in dims)
    ab = tensor(a, b)
    assert type(ab) is cls
    kron = np.kron(a._stored, b._stored)
    if cls is State:  # judged: symmetrized and scaled to unit trace
        assert np.allclose(ab._stored, kron, rtol=1e-12, atol=1e-15)
    else:
        assert ab._stored.tobytes() == kron.tobytes()
    if diagonal:  # the bits of the dense Kronecker product's diagonal
        dense = np.kron(*(x.rho if cls is State else x.matrix for x in (a, b)))
        if cls is State:  # as the dense state constructor repairs it
            arr = np.diag(np.diag(dense))
            arr = (arr + arr.conj().T) / 2.0
            dense = arr / float(np.trace(arr).real)
        assert ab._stored.tobytes() == (measure(dense) if cls is State
                                        else np.diagonal(dense)).tobytes()
    if cls is not State:
        s, t = (tensor_factor(diagonal, State, n, rng) for n in dims)
        want = expectation(s, a) * expectation(t, b)
        assert abs(expectation(tensor(s, t), ab) - want) <= 1e-12 * (1.0 + abs(want))


# Entries where a product's bits are easiest to lose: signed zeros, subnormals, and
# magnitudes whose products overflow or underflow
_KRON_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1e-160, 1.0, -1.0, 1e154,
               -3e200, 1.7e308, -1.7e308]
_KRON_ENTRIES = st.one_of(st.sampled_from(_KRON_EDGES),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def kron_arrays(draw, shape, entries=_KRON_ENTRIES):
    """A float or complex array of the given shape, or of that many axes of 1-3 entries
    each, its parts drawn from `entries`."""
    if isinstance(shape, int):
        shape = draw(hnp.array_shapes(min_dims=shape, max_dims=shape, max_side=3))
    arr = draw(hnp.arrays(float, shape, elements=entries))
    if draw(st.booleans()):
        arr = arr.astype(complex)
        arr.imag = draw(hnp.arrays(float, shape, elements=entries))
    return arr


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(kron_arrays(n), kron_arrays(n))),
       st.tuples(kron_arrays(2), kron_arrays(3)).map(lambda ab: ab[::-1]),
       st.tuples(kron_arrays(1), kron_arrays(2)))
def test_kron_helper_is_np_kron_bitwise(same_ndim, three_by_two, one_by_two):
    for a, b in (same_ndim, three_by_two, one_by_two):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got, want = measurement._kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


_FINITE_PRODUCTS = st.one_of(st.sampled_from([x for x in _KRON_EDGES if abs(x) < 1e100]),
                             st.floats(-1e90, 1e90))


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.sampled_from([AlgebraElement, Projection, Observable]),
       st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       st.data())
def test_tensor_and_embed_local_are_np_kron_bitwise(diagonal, cls, dims, seed, data):
    # tensor of 1-3 factors: edge entries for plain elements, drawn values for the others
    rng = np.random.default_rng(seed)
    if cls is AlgebraElement:
        def factor(n):
            if diagonal:
                ctx = diagonal_context(PhaseSpace(tuple(map(str, range(n)))))
                return element(ctx, data.draw(kron_arrays((n,), _FINITE_PRODUCTS)))
            return element(full_context(n), data.draw(kron_arrays((n, n), _FINITE_PRODUCTS)))

        factors = [factor(n) for n in dims]
    else:
        factors = [tensor_factor(diagonal, cls, n, rng) for n in dims]
    product = tensor(*factors)
    assert type(product) is cls
    want = functools.reduce(np.kron, [x._stored for x in factors])
    assert product._stored.tobytes() == want.tobytes()
    if diagonal:
        return
    # embed_local at every slot: the 1x1 unit times each factor in turn
    for slot, a in enumerate(factors):
        want = np.eye(1, dtype=complex)
        for k, d in enumerate(dims):
            want = np.kron(want, a.matrix if k == slot else np.eye(d, dtype=complex))
        embedded = embed_local(a, slot, dims)
        assert type(embedded) is cls and embedded.matrix.tobytes() == want.tobytes()


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
    rho = NumpyDraw(rng).density(QUBIT)
    sigma = NumpyDraw(rng).density(full_context(3))
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
    joint = NumpyDraw(rng).density(full_context(6))
    a = element(QUBIT, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    lhs = expectation(partial_trace(joint, 0, (2, 3)), a)
    rhs = expectation(joint, embed_local(a, 0, (2, 3)))
    assert abs(lhs - rhs) <= 1e-10


def test_partial_trace_refuses_a_classical_state():
    # the factors' phase spaces cannot be read back from dims, so there is
    # no classical marginal to give, and a full-kind one would be wrong
    a, b = (diagonal_context(PhaseSpace(labels)) for labels in (("u", "d"), ("l", "m", "r")))
    joint = tensor(classical_state(a, [0.3, 0.7]), classical_state(b, [0.2, 0.3, 0.5]))
    for slot in (0, 1):
        with pytest.raises(ValueError, match="partial trace is defined for full matrix algebras"):
            partial_trace(joint, slot, (2, 3))


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
    for name in ("yes", "p_yes", "draws", "final"):
        assert getattr(part, name).tobytes() == getattr(whole, name).tobytes()


def test_trial_generators_are_reproducible_and_distinct():
    a1 = trial_generator(5, 0).random(4)
    a2 = trial_generator(5, 0).random(4)
    b = trial_generator(5, 1).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
