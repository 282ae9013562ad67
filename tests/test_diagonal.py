"""The commutative path: on a diagonal algebra a state is its measure, and
`condition`, `classical_condition` and the measurement kernel all take the
one Bayes update `states.bayes`."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noncomm.dynamics
import noncomm.measurement
import noncomm.states
from noncomm.algebra import (
    ContextMismatchError,
    Observable,
    PhaseSpace,
    characteristic_projection,
    diagonal_context,
    full_context,
    require_same_context,
)
from noncomm.dynamics import Flow, Hamiltonian
from noncomm.scenarios import run_scenario
from noncomm.measurement import (
    ScheduleEntry,
    YesNoExperiment,
    born_step,
    compile_questions,
    evolve_schedule,
    perform,
    run_batch,
    trial_streams,
)
from noncomm.states import (
    P_FLOOR,
    State,
    ZeroProbabilityError,
    classical_condition,
    classical_state,
    condition,
    measure,
    measure_matrix,
    pure_state,
    renormalize,
    yes_probability,
)

DIMS = (1, 2, 3, 4, 8, 16, 33)


def points(n):
    space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
    return space, diagonal_context(space)


class FixedDraw:
    """A stream whose every draw is u, standing in for the uniform a kernel row reads."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def outcome(fn):
    """The bytes of what fn returns, or the type and message of what it raises."""
    try:
        out = fn()
    except ZeroProbabilityError as err:
        return type(err), str(err)
    return tuple(np.asarray(x).tobytes() for x in out)


@st.composite
def measured_subsets(draw):
    """A Dirichlet measure and a subset, whose mass is sometimes pushed to
    within a factor 4 of P_FLOOR or of 1 - P_FLOOR."""
    n = draw(st.sampled_from(DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.dirichlet(np.full(n, draw(st.sampled_from((0.1, 1.0, 10.0)))))
    inside = np.zeros(n, dtype=bool)
    inside[sorted(draw(st.sets(st.integers(0, n - 1))))] = True
    target = draw(st.none() | st.floats(P_FLOOR / 4, 4 * P_FLOOR))
    if target is not None and mu[inside].sum() > 0 and mu[~inside].sum() > 0:
        target = 1.0 - target if draw(st.booleans()) else target
        mu = np.where(inside, mu * target / mu[inside].sum(),
                      mu * (1.0 - target) / mu[~inside].sum())
    return mu, np.flatnonzero(inside).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 128, 299])
def test_classical_state_keeps_the_bits_of_the_dense_constructor(n):
    # the measure alone, with the bits the n x n route gave: zeros, tiny and
    # slightly negative masses, and sums up to 1e-9 away from 1
    space, ctx = points(n)
    rng = np.random.default_rng(n)
    for _ in range(200):
        mu = rng.dirichlet(np.full(n, rng.choice((0.1, 1.0, 10.0))))
        mu[rng.random(n) < 0.2] = 0.0
        mu[rng.random(n) < 0.1] = rng.choice((1e-300, 5e-324, -1e-10, -0.0))
        mu *= 1.0 + rng.uniform(-9e-10, 9e-10)
        total = float(mu.sum())
        if not total or abs(total - 1.0) > 1e-9:
            continue
        dense = State(ctx, np.diag(np.clip(mu, 0.0, None).astype(complex) / total))
        assert classical_state(ctx, mu).mu.tobytes() == dense.mu.tobytes()


@settings(max_examples=300, deadline=None)
@given(measured_subsets(), st.floats(0.0, 1.0, exclude_max=True),
       st.floats(0.0, 1.0, exclude_max=True))
def test_condition_classical_condition_and_kernel_agree_bitwise(case, u, v):
    start, members = case
    space, ctx = points(len(start))
    state = classical_state(ctx, start)
    mu = state.probabilities()
    subset = space.subset(members)
    for s in (subset, subset.complement()):
        chi = characteristic_projection(ctx, s)
        assert (outcome(lambda: (condition(state, chi).probabilities(),))
                == outcome(lambda: (classical_condition(mu, s),)))

    # the kernel on one trial answers and conditions as `perform` with the same draw
    exp = YesNoExperiment("in S", characteristic_projection(ctx, subset))

    def scalar(state, u):
        p_yes = yes_probability(state, exp.projection)
        out, post = perform(state, exp, FixedDraw(u))
        return measure(post.rho)[None], [out.yes], [p_yes]

    question, = compile_questions(measure(exp.projection.matrix)[None])

    def kernel(rows, uniforms):
        # one trial per row; the post-state is returned in trial order
        trials = np.arange(len(rows))
        post, cls, yes, p_yes = born_step(rows, trials, question, uniforms, trials.copy())
        return post[cls], yes, p_yes

    alone = outcome(lambda: kernel(mu[None].copy(), np.array([[u]])))
    assert alone == outcome(lambda: scalar(state, u))
    # and a row of a stack steps as it does alone
    other = classical_state(ctx, mu[::-1])
    second = outcome(lambda: kernel(measure(other.rho)[None].copy(), np.array([[v]])))
    assert second == outcome(lambda: scalar(other, v))
    if len(alone) == len(second) == 3:
        stacked = kernel(np.stack([mu, measure(other.rho)]), np.array([[u], [v]]))
        for k, row in enumerate((alone, second)):
            assert tuple(x[k:k + 1].tobytes() for x in stacked) == row


def test_point_masses_and_the_epr_measure_condition_as_the_dense_update():
    # the dense update diagonal states took before, kept as the reference
    def dense(state, chi):
        return renormalize(chi.matrix @ state.rho @ chi.matrix)

    cases = []
    for n in (1, 2, 3, 5, 16):
        space, ctx = points(n)
        subsets = ([space.subset(m) for r in range(n + 1)
                    for m in itertools.combinations(range(n), r)] if n <= 5 else
                   [space.subset(m) for m in ([0], [3, 4], range(8), range(1, 16), range(16))])
        cases += [(classical_state(ctx, np.eye(n)[j]), s) for j in range(n) for s in subsets]
    space, ctx = points(4)
    epr = classical_state(ctx, [0.0, 0.5, 0.5, 0.0])
    cases += [(epr, space.subset(m)) for r in range(5)
              for m in itertools.combinations(range(4), r)]
    checked = 0
    for state, s in cases:
        chi = characteristic_projection(state.context, s)
        if state.probabilities()[sorted(s.members)].sum() == 0.0:
            with pytest.raises(ZeroProbabilityError):
                condition(state, chi)
            continue
        assert condition(state, chi).rho.tobytes() == dense(state, chi).tobytes()
        checked += 1
    assert checked > 100


def test_zero_mass_outcome_raises_the_same_error_from_condition_and_the_kernel():
    space, ctx = points(3)
    exp = YesNoExperiment("at x0", characteristic_projection(ctx, space.subset([0])))
    # trace 1/2, past validation: "yes" has mass 1/2, so "no" is drawn and has mass 0
    broken = State._trusted(ctx, np.diag([0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(ZeroProbabilityError) as scalar:
        condition(broken, exp.no_projection)
    with pytest.raises(ZeroProbabilityError) as performed:
        perform(broken, exp, FixedDraw(0.9))
    with pytest.raises(ZeroProbabilityError) as kernel:
        born_step(broken.mu[None], np.zeros(3, dtype=np.intp),
                  compile_questions(measure(exp.projection.matrix)[None])[0],
                  np.array([[0.1], [0.9], [0.7]]), np.arange(3))
    with pytest.raises(ZeroProbabilityError) as bayes:
        classical_condition([0.5, 0.5, 0.0], space.subset([2]))
    message = "cannot condition on an outcome of probability 0.000e+00"
    assert {str(e.value) for e in (scalar, performed, kernel, bayes)} == {message}


def test_diagonal_batch_keeps_final_measures():
    space, ctx = points(4)
    state = classical_state(ctx, np.random.default_rng(8).dirichlet(np.ones(4)))
    schedule = [ScheduleEntry(float(k), YesNoExperiment(f"in {m}", characteristic_projection(
        ctx, space.subset(m)))) for k, m in enumerate([[0, 1], [1, 2, 3], [1], [2, 3]])]
    batch = run_batch(state, schedule, trial_streams(6, 7))
    assert batch.final.shape == (7, 4) and batch.final.dtype == float
    for i, rng in enumerate(trial_streams(6, 7)):
        current = state
        for entry in schedule:
            current = perform(current, entry.experiment, rng)[1]
        assert batch.final[i].tobytes() == current.mu.tobytes()


def test_classical_zeno_never_builds_a_measure_matrix(monkeypatch):
    # every conditioning of the run is Bayes on the measure: no diag(mu) is
    # built, not even for a state's `rho`
    calls = []

    def spy(mu):
        calls.append(mu.shape)
        return measure_matrix(mu)

    for module in (noncomm.states, noncomm.measurement, noncomm.dynamics):
        monkeypatch.setattr(module, "measure_matrix", spy)
    run_scenario("classical_control", {"num_points": 16, "steps": 64}, 3, 17)
    assert calls == []


def test_a_conditioned_diagonal_state_is_its_measure():
    # dyadic masses: every sum and quotient below is exact, so the dense
    # state `State(ctx, diag(mu))`, renormalized by its trace 1.0, is bit for
    # bit the measure-built one
    space, ctx = points(8)
    prior = classical_state(ctx, [1 / 4, 1 / 8, 1 / 8, 1 / 16, 1 / 16, 1 / 8, 1 / 8, 1 / 8])
    state = condition(prior, characteristic_projection(ctx, space.subset([0, 1, 3, 4])))
    assert state.mu.tolist() == [1 / 2, 1 / 4, 0, 1 / 8, 1 / 8, 0, 0, 0]
    assert not state.mu.flags.writeable
    rho = state.rho  # built on this first read, then kept
    assert rho is state.rho and not rho.flags.writeable
    assert rho.tobytes() == measure_matrix(state.mu).tobytes()
    assert state.probabilities().tobytes() == state.mu.tobytes()
    for name in ("rho", "mu", "context"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(state, name, None)
    with pytest.raises(AttributeError, match="'mu'"):
        pure_state(full_context(2), [1, 0]).mu

    dense = State(ctx, np.diag(state.mu))
    for members in ([0, 1], [2, 5], [0, 3, 4, 6]):
        exp = YesNoExperiment("in S", characteristic_projection(ctx, space.subset(members)))
        for u in (0.1, 0.6, 0.99):
            (got, post), (want, ref) = (perform(s, exp, FixedDraw(u)) for s in (state, dense))
            assert got == want
            assert post.mu.tobytes() == ref.mu.tobytes()
            assert post.rho.tobytes() == ref.rho.tobytes()


def test_context_check_accepts_equal_contexts_and_names_different_ones():
    (space, ctx), (twin_space, twin) = points(3), points(3)
    a = characteristic_projection(ctx, space.subset([0]))
    b = characteristic_projection(twin, twin_space.subset([1]))
    assert a.context is not b.context
    require_same_context(a, b)
    wider, wider_ctx = points(4)
    c = characteristic_projection(wider_ctx, wider.subset([0]))
    with pytest.raises(ContextMismatchError, match="values live in different algebras"):
        require_same_context(a, c)


def test_flow_schedule_stays_indicator_rows():
    # 128 entries on 128 points under a Flow: the compiled rows are 0.125 MiB,
    # where the dense (n, d, d) schedule stack alone would be 32 MiB
    space, ctx = points(128)
    flow = Flow(space, tuple((i + 1) % 128 for i in range(128)))
    at_x0 = YesNoExperiment("at x0", characteristic_projection(ctx, space.subset([0])))
    schedule = [ScheduleEntry(float(t), at_x0) for t in range(1, 129)]
    state = classical_state(ctx, np.full(128, 1 / 128))
    tracemalloc.start()
    try:
        batch = run_batch(state, schedule, trial_streams(5, 4), flow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # the gathered rows ask what the evolved matrices ask
    moved = run_batch(state, evolve_schedule(schedule[:16], flow), trial_streams(5, 4))
    again = run_batch(state, schedule[:16], trial_streams(5, 4), flow)
    assert again.yes.tolist() == moved.yes.tolist()
    assert again.probability.tobytes() == moved.probability.tobytes()
    assert again.final.tobytes() == moved.final.tobytes()
    assert batch.final.shape == (4, 128)


def test_diagonal_schedule_under_a_hamiltonian_asks_its_evolved_copy():
    # a Hamiltonian on a diagonal algebra evolves the rows through their matrices
    space, ctx = points(3)
    ham = Hamiltonian(Observable(ctx, np.diag([1.0, 2.0, 3.5]).astype(complex)))
    in_01 = YesNoExperiment("in x0, x1", characteristic_projection(ctx, space.subset([0, 1])))
    schedule = [ScheduleEntry(0.3 * k, in_01) for k in range(4)]
    state = classical_state(ctx, [0.2, 0.3, 0.5])
    batch = run_batch(state, schedule, trial_streams(3, 5), ham)
    copy = run_batch(state, evolve_schedule(schedule, ham), trial_streams(3, 5))
    assert batch.yes.tolist() == copy.yes.tolist()
    assert batch.probability.tobytes() == copy.probability.tobytes()
    assert batch.final.tobytes() == copy.final.tobytes()
