"""The commutative path: on a diagonal algebra a state is its measure, and
`condition`, `classical_condition` and the measurement kernel all take the
one Bayes update `states.bayes`."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noncomm.algebra
import noncomm.dynamics
import noncomm.scenarios
from noncomm.algebra import (
    CLUSTER_TOL,
    AlgebraElement,
    ContextMismatchError,
    Observable,
    PhaseSpace,
    ValueSet,
    characteristic_projection,
    complement,
    diagonal_context,
    diagonal_element,
    eigendecompose,
    full_context,
    norms,
    require_same_context,
    spectral_projection,
)
from noncomm.dynamics import (
    Flow,
    Hamiltonian,
    evolve_stack,
    heisenberg_evolve,
    koopman_evolve,
    propagator,
    propagators,
)
from noncomm.scenarios import run_scenario
from noncomm.measurement import (
    ScheduleEntry,
    YesNoExperiment,
    born_step,
    compile_questions,
    evolve_schedule,
    perform,
    run_batch,
    tensor,
    trial_generator,
    trial_streams,
)
from noncomm.states import (
    P_FLOOR,
    State,
    ZeroProbabilityError,
    classical_condition,
    classical_state,
    condition,
    density_state,
    measure,
    measure_matrix,
    pure_state,
    renormalize,
    state_distance,
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

    questions = compile_questions(measure(exp.projection.matrix)[None])

    def kernel(rows, uniforms):
        # one trial per row; the post-state is returned in trial order
        trials = np.arange(len(rows))
        post, cls, yes, p_yes = born_step(rows, trials, questions, 0, uniforms, trials.copy())
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


@pytest.mark.parametrize("n", [2, 3, 16, 33, 1000])
def test_a_point_mass_is_a_fixed_point_of_every_point_question(n):
    # the classical Zeno's records rest on this: a point mass asked any point
    # question answers it with certainty, draws nothing and is handed back bit
    # for bit, so one ask of its point stands for every step's yes, and every
    # other point is a no of p_yes +0.0
    questions = compile_questions(np.eye(n))
    for c in sorted({0, 1, n // 2, n - 1}):
        for k in range(n):
            used = np.zeros(1, dtype=np.intp)
            post, cls, yes, p = born_step(np.eye(1, n, c), np.zeros(1, dtype=np.intp),
                                          questions, k, np.empty((1, 0)), used)
            assert yes.tolist() == [k == c] and cls.tolist() == [0] and used.tolist() == [0]
            assert p.tobytes() == np.array([1.0 if k == c else +0.0]).tobytes()
            assert post.shape == (1, n) and post.tobytes() == np.eye(1, n, c).tobytes()


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
    broken = State._unchecked(ctx, np.array([0.5, 0.0, 0.0]))
    with pytest.raises(ZeroProbabilityError) as scalar:
        condition(broken, exp.no_projection)
    with pytest.raises(ZeroProbabilityError) as performed:
        perform(broken, exp, FixedDraw(0.9))
    with pytest.raises(ZeroProbabilityError) as kernel:
        born_step(broken.mu[None], np.zeros(3, dtype=np.intp),
                  compile_questions(measure(exp.projection.matrix)[None]), 0,
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
    for i in range(7):
        rng = trial_generator(6, i)
        current = state
        for entry in schedule:
            current = perform(current, entry.experiment, rng)[1]
        assert batch.final[i].tobytes() == current.mu.tobytes()


def test_classical_zeno_never_builds_a_measure_matrix(monkeypatch):
    # every conditioning of the run is Bayes on the measure and every point
    # question keeps its n values: no diag(...) is built, neither by the one
    # lazy builder (for a state's `rho` or a question's `matrix`) nor by
    # np.diag, the mass's point alone is compiled, once, as a row of n values,
    # and every question asked is asked of a stack of measures
    calls, compiled, stacks = [], [], []

    def spy(values):
        calls.append(values.shape)
        return measure_matrix(values)

    def diag(v, k=0):
        if np.ndim(v) == 1:
            calls.append(np.shape(v))
        return numpy_diag(v, k)

    def compile_points(projections):
        compiled.append(compile_questions(projections))
        return compiled[-1]

    def step(rho, *args):
        stacks.append(rho.shape[1:])
        assert rho.tobytes() == np.eye(1, 16).tobytes()
        out = born_step(rho, *args)
        assert out[0].shape == (1, 16) and out[0].tobytes() == np.eye(1, 16).tobytes()
        return out

    numpy_diag = np.diag
    for module in (noncomm.algebra, noncomm.dynamics):
        monkeypatch.setattr(module, "measure_matrix", spy)
    monkeypatch.setattr(np, "diag", diag)
    monkeypatch.setattr(noncomm.scenarios, "compile_questions", compile_points)
    monkeypatch.setattr(noncomm.scenarios, "born_step", step)
    run_scenario("classical_control", {"num_points": 16, "steps": 64}, 3, 17)
    assert calls == [] and len(compiled) == 1
    proj, weight = compiled[0]
    assert proj.shape == (2, 1, 16) and weight is proj  # (s, 1 - s) for x1 alone
    # step t would ask (t mod 16) + 1 points, 544 in all; the point mass is a fixed
    # point of each, so the run asks x1's question, once, and the flow gives the rest
    assert stacks == [(16,)]


def test_classical_zeno_at_a_thousand_points_fits_and_runs():
    # one point question of n numbers is compiled, not n dense n x n ones, so
    # the run needs O(n) bytes
    result = run_scenario("classical_control", {"num_points": 1000, "steps": 4}, trials=1)
    assert result.series["position_trajectory"] == [0, 1, 2, 3, 4]
    assert result.summary["advanced_every_step"]


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


# entries with signed zeros, ties and gaps just inside and outside CLUSTER_TOL
REALS = st.sampled_from((-1.0, -0.0, 0.0, 0.5, 0.5 + CLUSTER_TOL / 2, 0.5 + 2 * CLUSTER_TOL,
                         2.0)) | st.floats(-3.0, 3.0)
COMPLEXES = st.builds(complex, REALS, REALS)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_diagonal_element_is_its_values(data):
    # a diagonal element keeps only its n values; its matrix is built on first
    # read, read-only, cached and np.diag(values); every operation gives the
    # bits its dense formula gives, computed here from the matrices
    n = data.draw(st.integers(1, 6), label="n")
    space, ctx = points(n)
    column = st.lists(COMPLEXES, min_size=n, max_size=n)
    a, b = (diagonal_element(ctx, data.draw(column)) for _ in range(2))
    h = Observable(ctx, np.diag(data.draw(st.lists(REALS, min_size=n, max_size=n))))
    members = data.draw(st.sets(st.integers(0, n - 1)))
    p = characteristic_projection(ctx, space.subset(members))
    for x in (a, b, h, p):
        assert x.values.shape == (n,) and not x.values.flags.writeable
        m = x.matrix
        assert x.matrix is m and not m.flags.writeable
        assert m.tobytes() == np.diag(x.values).tobytes()
    A, B, H, P = a.matrix, b.matrix, h.matrix, p.matrix

    def same(got, dense):
        assert got.matrix.tobytes() == np.asarray(dense, dtype=complex).tobytes()

    same(a @ b, np.diag(np.diag(A) * np.diag(B)))
    same(a.adjoint(), np.diag(np.diag(A.conj().T)))
    assert a.diagonal().tobytes() == np.diag(A).tobytes() and a.diagonal().flags.writeable
    same(p, np.diag(space.subset(members).indicator().astype(complex)))
    same(complement(p), np.eye(n, dtype=complex) - P)
    flow = Flow(space, tuple(data.draw(st.permutations(range(n)))))
    t = data.draw(st.integers(-2 * n, 2 * n))
    same(koopman_evolve(a, flow, t), np.diag(np.diag(A)[list(flow.at(t))]))

    vals = np.real(np.diag(H))
    order = np.argsort(vals, kind="stable")
    spec = eigendecompose(h)
    assert sum(len(np.flatnonzero(np.diag(q.matrix))) for q in spec.projectors) == n
    for k, (val, q) in enumerate(zip(spec.eigenvalues, spec.projectors)):
        inside = np.diag(q.matrix) != 0
        same(q, np.diag(inside.astype(complex)))
        cluster = vals[order[inside[order]]]  # ascending, as the eigenvalues are
        assert val == float(cluster.mean()) and np.all(np.diff(cluster) <= CLUSTER_TOL)
        if k:  # a gap past CLUSTER_TOL separates consecutive clusters
            assert cluster[0] - vals[np.diag(spec.projectors[k - 1].matrix) != 0].max() > CLUSTER_TOL
    lo, hi = sorted(data.draw(st.lists(REALS, min_size=2, max_size=2)))
    value_set = ValueSet(intervals=((lo, hi),))
    same(spectral_projection(h, value_set),
         np.diag([1.0 if value_set.contains(x) else 0.0 for x in vals]))


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
    assert again.p_yes.tobytes() == moved.p_yes.tobytes()
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
    assert batch.p_yes.tobytes() == copy.p_yes.tobytes()
    assert batch.final.tobytes() == copy.final.tobytes()


def test_a_hamiltonian_on_a_diagonal_algebra_gives_values_that_keep_their_n_numbers():
    # propagator and heisenberg_evolve compute d x d matrices and keep their
    # complex diagonals: the values take part in arithmetic like any other
    space, ctx = points(3)
    ham = Hamiltonian(Observable(ctx, np.diag([1.0, 2.0, 3.5]).astype(complex)))
    u = propagator(ham, 0.7)
    assert type(u) is AlgebraElement
    assert u.values.tobytes() == np.diagonal(propagators(ham, [0.7])[0]).tobytes()
    assert np.allclose((u @ u.adjoint()).values, 1.0, atol=1e-12)
    for a in (Observable(ctx, [0.3, -1.0, 2.0]),
              characteristic_projection(ctx, space.subset([0, 2])),
              AlgebraElement(ctx, [0.3 + 1j, -1.0, 2.0 - 0.5j])):
        hermitian = type(a) is not AlgebraElement
        moved = heisenberg_evolve(a, ham, 0.9)
        dense = evolve_stack(ham, [0.9], a.matrix[None], hermitian)[0]
        assert type(moved) is type(a)
        assert moved.values.dtype == complex and not moved.values.flags.writeable
        assert moved.values.tobytes() == np.diagonal(dense).tobytes()
        assert np.allclose((moved - a).values, 0.0, atol=1e-12)


def test_constructors_take_the_n_numbers_with_the_bits_of_the_matrix_route():
    rng = np.random.default_rng(52)
    for n in DIMS:
        _, ctx = points(n)
        mu = rng.random(n) + 0.1
        mu[1:][rng.random(n - 1) < 0.3] = rng.choice((0.0, -0.0, 5e-324, -1e-10))
        mu *= (1.0 + rng.uniform(-1e-7, 1e-7)) / mu.sum()
        vals = rng.standard_normal(n) + 0.0j
        # the dense constructor's repair: symmetrize, then divide by the trace
        arr = np.diag(mu).astype(complex)
        arr = (arr + arr.conj().T) / 2.0
        dense = measure(arr / float(np.trace(arr).real))
        assert State(ctx, mu).mu.tobytes() == dense.tobytes()
        assert State(ctx, np.diag(mu)).mu.tobytes() == dense.tobytes()
        assert Observable(ctx, vals).values.tobytes() == Observable(ctx, np.diag(vals)).values.tobytes()
        for cls, numbers in ((State, mu), (Observable, vals)):
            with pytest.raises(ValueError, match="shape"):
                cls(full_context(n), numbers)


def spy_on_dense_work(monkeypatch):
    """The names of the calls that build a diagonal value's matrix or run an
    eigensolver for a state's spectrum, as they happen."""
    calls = []

    def spy(name, fn):
        def recorded(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(noncomm.algebra, "measure_matrix", spy("measure_matrix", measure_matrix))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
    return calls


def test_classical_constructors_and_tensor_build_no_matrix(monkeypatch):
    calls = spy_on_dense_work(monkeypatch)
    space, ctx = points(5)
    mu = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    s, t = State(ctx, mu), density_state(ctx, np.diag(mu))
    p = characteristic_projection(ctx, space.subset([0, 2]))
    products = (tensor(s, t), tensor(p, p, p), tensor(Observable(ctx, mu), Observable(ctx, mu)))
    assert calls == []
    assert [type(x) for x in products] == [State, type(p), Observable]


@pytest.mark.parametrize("n", [1, 3, 16, 33])
def test_classical_distance_and_norms_read_the_n_numbers(n, monkeypatch):
    rng = np.random.default_rng(n)
    _, ctx = points(n)
    s1, s2 = (classical_state(ctx, (m := rng.random(n) + 0.1) / m.sum()) for _ in range(2))
    a = diagonal_element(ctx, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    distance = float(np.abs(np.linalg.eigvalsh(np.diag(s1.mu - s2.mu))).sum())
    sv = np.linalg.svd(np.diag(a.values), compute_uv=False)
    calls = spy_on_dense_work(monkeypatch)
    assert state_distance(s1, s2) == pytest.approx(distance, rel=1e-12)
    assert norms(a) == pytest.approx((sv.max(), sv.sum()), rel=1e-12)
    assert calls == []


def test_a_diagonal_state_reads_away_small_off_diagonal_entries_before_it_is_judged():
    # as an Observable does: entries within EPS_ALG off the diagonal are
    # dropped on reading, so their antisymmetric pair is no Hermiticity defect
    _, ctx = points(2)
    near = np.array([[0.5, 1e-9], [-1e-9, 0.5]])
    assert density_state(ctx, near).mu.tolist() == [0.5, 0.5]
    assert near.tolist() == [[0.5, 1e-9], [-1e-9, 0.5]]  # read from a copy
    with pytest.raises(ValueError, match="not Hermitian"):
        density_state(full_context(2), near)
    with pytest.raises(ValueError, match="off-diagonal"):
        density_state(ctx, [[0.5, 1e-8], [1e-8, 0.5]])
