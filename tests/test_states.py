import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noncomm.algebra import (
    EPS_ALG,
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
    unit,
)
from noncomm.states import (
    P_FLOOR,
    State,
    ZeroProbabilityError,
    classical_condition,
    classical_state,
    condition,
    density_state,
    expectation,
    pure_state,
    state_distance,
    yes_probability,
)

QUBIT = full_context(2)


def rand_density(ctx, rng):
    n = ctx.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return State(ctx, rho / np.trace(rho).real)


def rand_projection(ctx, rng, rank):
    g = rng.standard_normal((ctx.dim, ctx.dim)) + 1j * rng.standard_normal((ctx.dim, ctx.dim))
    q, _ = np.linalg.qr(g)
    v = q[:, :rank]
    return Projection(ctx, v @ v.conj().T)


# ------------------------------------------------------------- construction


def test_density_state_maximally_mixed():
    s = density_state(QUBIT, np.diag([0.5, 0.5]))
    assert np.allclose(s.rho, np.eye(2) / 2)


def test_density_state_rejects_negative_eigenvalue():
    # eigenvalues of [[.5,.6],[.6,.5]] are .5 +/- .6, so one is -0.1
    with pytest.raises(ValueError):
        density_state(QUBIT, [[0.5, 0.6], [0.6, 0.5]])


def test_density_state_classical_point_mass():
    ctx = diagonal_context(PhaseSpace(("x1", "x2", "x3", "x4")))
    s = density_state(ctx, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(s.probabilities(), [1, 0, 0, 0])


def test_density_state_hermiticity_message_and_margin():
    with pytest.raises(ValueError) as err:
        density_state(QUBIT, [[0.5, 2e-9], [0.0, 0.5]])
    assert str(err.value) == "density matrix is not Hermitian (defect 2.000e-09)"
    # Frobenius defect 1.27e-9 exceeds EPS_ALG, the operator norm 9e-10 does not
    density_state(QUBIT, [[0.5, 9e-10], [0.0, 0.5]])


def test_density_state_trace_and_offdiagonal_errors():
    with pytest.raises(ValueError):
        density_state(QUBIT, np.diag([0.7, 0.7]))
    ctx = diagonal_context(PhaseSpace(("a", "b")))
    with pytest.raises(ValueError):
        density_state(ctx, [[0.5, 0.5], [0.5, 0.5]])


def test_pure_state_examples():
    assert np.allclose(pure_state(QUBIT, [1, 0]).rho, np.diag([1.0, 0.0]))
    assert np.allclose(pure_state(QUBIT, [1, 1]).rho, np.full((2, 2), 0.5))
    # (1, i)/sqrt(2) outer product by hand
    s = pure_state(QUBIT, np.array([1.0, 1.0j]) / np.sqrt(2))
    assert np.allclose(s.rho, 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]]))
    with pytest.raises(ValueError):
        pure_state(QUBIT, [0.0, 0.0])


def test_classical_state_examples():
    ctx = diagonal_context(PhaseSpace(("x1", "x2", "x3", "x4")))
    s = classical_state(ctx, [0.25] * 4)
    assert np.allclose(s.rho, np.eye(4) / 4)
    s = classical_state(ctx, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(s.probabilities(), [1, 0, 0, 0])
    with pytest.raises(ValueError):
        classical_state(ctx, [0.5, 0.6, 0.0, 0.0])
    with pytest.raises(ValueError):
        classical_state(ctx, [-0.1, 0.6, 0.3, 0.2])
    with pytest.raises(ValueError):
        classical_state(QUBIT, [0.5, 0.5])


def test_states_immutable():
    s = pure_state(QUBIT, [1, 0])
    with pytest.raises(AttributeError):
        s.rho = np.eye(2)
    with pytest.raises(ValueError):
        s.rho[0, 0] = 0.0


# ------------------------------------------------------------- expectation


def test_expectation_examples():
    rng = np.random.default_rng(10)
    for _ in range(5):
        s = rand_density(full_context(4), rng)
        assert abs(expectation(s, unit(full_context(4))) - 1.0) <= 1e-12
    mixed = density_state(QUBIT, np.eye(2) / 2)
    assert abs(expectation(mixed, element(QUBIT, SIGMA_Z))) <= 1e-12
    plus = density_state(QUBIT, np.full((2, 2), 0.5))
    assert abs(expectation(plus, element(QUBIT, SIGMA_X)) - 1.0) <= 1e-12


def test_expectation_real_for_hermitian():
    rng = np.random.default_rng(11)
    ctx = full_context(5)
    s = rand_density(ctx, rng)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = element(ctx, (m + m.conj().T) / 2)
    assert abs(expectation(s, a).imag) <= 1e-10


def test_expectation_context_mismatch():
    s = pure_state(QUBIT, [1, 0])
    with pytest.raises(ContextMismatchError):
        expectation(s, unit(full_context(3)))


def test_positivity_of_states_as_functionals():
    rng = np.random.default_rng(12)
    for n in (2, 4, 8):
        ctx = full_context(n)
        s = rand_density(ctx, rng)
        for _ in range(10):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = element(ctx, m)
            assert expectation(s, a.adjoint() @ a).real >= -1e-10


# ---------------------------------------------------------- yes probability


def test_yes_probability_examples():
    psi0 = pure_state(QUBIT, [1, 0])
    assert yes_probability(psi0, unit(QUBIT)) == 1.0
    diag45 = Projection(QUBIT, np.full((2, 2), 0.5))
    assert abs(yes_probability(psi0, diag45) - 0.5) <= 1e-12
    excited = Projection(QUBIT, np.diag([0.0, 1.0]))
    assert yes_probability(psi0, excited) == 0.0


# ------------------------------------------------------------- conditioning


def test_condition_fixed_point():
    s = pure_state(QUBIT, [1, 0])
    p = Projection(QUBIT, np.diag([1.0, 0.0]))
    assert state_distance(condition(s, p), s) <= 1e-12


def test_condition_plus_state_onto_ground():
    # P rho P = [[.5,0],[0,0]], divided by probability .5 gives diag(1,0)
    plus = density_state(QUBIT, np.full((2, 2), 0.5))
    p = Projection(QUBIT, np.diag([1.0, 0.0]))
    post = condition(plus, p)
    assert np.allclose(post.rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_condition_zero_probability():
    s = pure_state(QUBIT, [1, 0])
    p = Projection(QUBIT, np.diag([0.0, 1.0]))
    with pytest.raises(ZeroProbabilityError):
        condition(s, p)


def test_condition_idempotent_and_certain():
    rng = np.random.default_rng(13)
    for n in (2, 3, 6):
        ctx = full_context(n)
        s = rand_density(ctx, rng)
        p = rand_projection(ctx, rng, rank=max(1, n // 2))
        once = condition(s, p)
        assert state_distance(condition(once, p), once) <= 1e-10
        assert abs(yes_probability(once, p) - 1.0) <= 1e-10


# the mass of the answer conditioned on: down to 4 * P_FLOOR, up to 1 - 4 * P_FLOOR
MASSES = st.floats(4 * P_FLOOR, 1e-6) | st.floats(1e-6, 1.0 - 4 * P_FLOOR)


@st.composite
def states_with_mass_on(draw):
    """A full-algebra density matrix at d = 2..6 and a projection of random
    rank whose yes-probability is a drawn mass, with coherences between P
    and 1 - P: each mixed vector is sqrt(m) a + sqrt(1 - m) b, a and b unit
    vectors in the ranges of P and 1 - P."""
    d = draw(st.integers(2, 6))
    rank = draw(st.integers(1, d - 1))
    mass = draw(MASSES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ctx = full_context(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rho = np.zeros((d, d), dtype=complex)
    for w in rng.dirichlet(np.ones(draw(st.integers(1, d)))):
        a, b = (basis @ (rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1]))
                for basis in (q[:, :rank], q[:, rank:]))
        v = np.sqrt(mass) * a / np.linalg.norm(a) + np.sqrt(1.0 - mass) * b / np.linalg.norm(b)
        rho += w * np.outer(v, v.conj())
    return State(ctx, rho), Projection(ctx, q[:, :rank] @ q[:, :rank].conj().T)


@st.composite
def measures_with_mass_on(draw):
    """A Dirichlet measure on n points and the indicator of a proper subset
    carrying a drawn mass."""
    n = draw(st.integers(2, 33))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.dirichlet(np.full(n, draw(st.sampled_from((0.1, 1.0, 10.0)))))
    members = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    inside = np.isin(np.arange(n), members)
    assume(mu[inside].sum() > 0 and mu[~inside].sum() > 0)
    mass = draw(MASSES)
    mu = np.where(inside, mu * mass / mu[inside].sum(), mu * (1.0 - mass) / mu[~inside].sum())
    space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
    ctx = diagonal_context(space)
    return classical_state(ctx, mu), characteristic_projection(ctx, space.subset(members))


@settings(max_examples=300, deadline=None)
@given(states_with_mass_on() | measures_with_mass_on())
def test_conditioning_is_idempotent(case):
    state, p = case
    tol = 1e-12
    if not state.context.is_diagonal:
        # P rho P carries the rounding of rho's whole matrix, about eps, and
        # dividing by the mass scales it by 1 / mass: the conditioned state
        # leaves the range of P by up to about eps / mass (6.5e-6 at 4e-12).
        # Bayes on a measure multiplies by 0 or 1 and has no such term.
        tol += 16 * np.finfo(float).eps / yes_probability(state, p)
    once = condition(state, p)
    assert np.abs(condition(once, p).rho - once.rho).max() <= tol
    # after a "yes" the answer is certain
    assert abs(yes_probability(once, p) - 1.0) <= tol


CHAIN = 10**4  # conditionings per long chain
P_CHAIN = 1e-3  # below this the other answer is taken; see ROADMAP item 2 for small p


def _long_chain(state, projections, rng, check):
    """Condition `state` CHAIN times, cycling through `projections`; each
    step takes the answer rng picks unless its probability is below
    P_CHAIN, then the other (max(p, 1 - p) >= 1/2).  `check` sees every
    conditioned state."""
    nos = [complement(p) for p in projections]
    yes_first = rng.random(CHAIN) < 0.5
    for k in range(CHAIN):
        p, q = projections[k % len(projections)], nos[k % len(projections)]
        p_yes = yes_probability(state, p)
        yes = p_yes >= P_CHAIN if yes_first[k] else 1.0 - p_yes < P_CHAIN
        state = condition(state, p if yes else q)
        check(state)


@settings(max_examples=4, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2**32 - 1))
def test_long_diagonal_chain_keeps_a_probability_measure(n, seed):
    rng = np.random.default_rng(seed)
    space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
    ctx = diagonal_context(space)
    subsets = [np.flatnonzero(rng.random(n) < 0.5).tolist() for _ in range(3)]
    projections = [characteristic_projection(ctx, space.subset(m)) for m in subsets]

    def check(state):
        assert state.mu.min() >= 0.0
        assert abs(state.mu.sum() - 1.0) <= 1e-12

    _long_chain(classical_state(ctx, rng.dirichlet(np.ones(n))), projections, rng, check)


@settings(max_examples=4, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_long_full_chain_keeps_a_density_matrix(d, seed):
    rng = np.random.default_rng(seed)
    ctx = full_context(d)
    projections = [rand_projection(ctx, rng, rank) for rank in rng.integers(1, d, 3)]

    def check(state):
        assert abs(np.trace(state.rho).real - 1.0) <= 1e-12
        assert np.array_equal(state.rho, state.rho.conj().T)
        assert np.linalg.eigvalsh(state.rho).min() >= -EPS_ALG

    _long_chain(rand_density(ctx, rng), projections, rng, check)


def test_condition_functional_identity_on_matrix_units():
    # Tr(rho' E_jk) == Tr(rho P E_jk P) / Tr(rho P) for every matrix unit
    rng = np.random.default_rng(14)
    n = 3
    ctx = full_context(n)
    s = rand_density(ctx, rng)
    p = rand_projection(ctx, rng, rank=2)
    prob = expectation(s, p).real
    post = condition(s, p)
    for j in range(n):
        for k in range(n):
            unit_jk = np.zeros((n, n), dtype=complex)
            unit_jk[j, k] = 1.0
            lhs = np.trace(post.rho @ unit_jk)
            rhs = np.trace(s.rho @ p.matrix @ unit_jk @ p.matrix) / prob
            assert abs(lhs - rhs) <= 1e-10


def test_uniqueness_from_matrix_unit_fingerprint():
    # two states with equal expectations on all matrix units coincide
    rng = np.random.default_rng(15)
    ctx = full_context(4)
    s = rand_density(ctx, rng)
    fingerprint = np.array([[expectation(s, element(ctx, _unit(4, j, k)))
                             for k in range(4)] for j in range(4)])
    rebuilt = State(ctx, fingerprint.T)
    assert state_distance(s, rebuilt) <= 1e-10


def _unit(n, j, k):
    m = np.zeros((n, n), dtype=complex)
    m[j, k] = 1.0
    return m


# ------------------------------------------------------ classical condition


def test_classical_condition_examples():
    space = PhaseSpace(("x1", "x2", "x3", "x4"))
    uniform = np.full(4, 0.25)
    out = classical_condition(uniform, space.subset([0, 1]))
    assert np.allclose(out, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    out = classical_condition(mu, space.subset([1, 3]))
    assert np.allclose(out, [0.0, 1 / 3, 0.0, 2 / 3], atol=1e-12)
    assert np.allclose(classical_condition(mu, space.subset(range(4))), mu)
    with pytest.raises(ZeroProbabilityError):
        classical_condition(np.array([0.0, 0.0, 0.5, 0.5]), space.subset([0, 1]))


def test_matrix_condition_restricted_to_diagonal_is_bayes():
    rng = np.random.default_rng(16)
    space = PhaseSpace(tuple(f"x{i}" for i in range(8)))
    ctx = diagonal_context(space)
    for _ in range(50):
        mu = rng.random(8)
        mu /= mu.sum()
        s = classical_state(ctx, mu)
        members = [i for i in range(8) if rng.random() < 0.5] or [0]
        subset = space.subset(members)
        chi = characteristic_projection(ctx, subset)
        post = condition(s, chi)
        bayes = classical_condition(mu, subset)
        assert np.abs(post.probabilities() - bayes).max() <= 1e-12


# ----------------------------------------------------------- compatibility


def test_commuting_compatibility_lemma():
    rng = np.random.default_rng(17)
    n = 5
    ctx = full_context(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    for _ in range(20):
        m1, m2 = rng.integers(0, 2, (2, n)).astype(float)
        p1 = Projection(ctx, (q * m1) @ q.conj().T)
        p2 = Projection(ctx, (q * m2) @ q.conj().T)
        s = rand_density(ctx, rng)
        sandwich = expectation(s, p1 @ p2 @ p1).real
        assert sandwich >= -1e-12
        assert sandwich <= expectation(s, p2).real + 1e-12
        # a state with omega(P2) = 0 keeps it zero after conditioning on P1
        comp = np.eye(n) - p2.matrix
        blocked = comp @ s.rho @ comp
        tr = np.trace(blocked).real
        if tr <= 1e-9:
            continue
        blocked_state = State(ctx, blocked / tr)
        try:
            post = condition(blocked_state, p1)
        except ZeroProbabilityError:
            continue
        assert yes_probability(post, p2) <= 1e-12


def test_noncommutative_invalidation_witness():
    # polarizers at 0, 45, 90 degrees: the 90-degree probability is zero
    # on the initial state and exactly one half after the 45-degree yes
    psi0 = pure_state(QUBIT, [1.0, 0.0])
    v45 = np.array([1.0, 1.0]) / np.sqrt(2)
    p45 = Projection(QUBIT, np.outer(v45, v45))
    p90 = Projection(QUBIT, np.diag([0.0, 1.0]))
    assert yes_probability(psi0, p90) <= 1e-12
    after = condition(psi0, p45)
    assert abs(yes_probability(after, p90) - 0.5) <= 1e-12


# ----------------------------------------------------------------- distance


def test_state_distance_examples():
    s = pure_state(QUBIT, [1, 0])
    assert state_distance(s, s) == 0.0
    t = pure_state(QUBIT, [0, 1])
    assert abs(state_distance(s, t) - 2.0) <= 1e-12
    mixed = density_state(QUBIT, np.eye(2) / 2)
    # difference diag(.5, -.5) has singular values (.5, .5)
    assert abs(state_distance(s, mixed) - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda x: State(QUBIT, [[0.5, 0.0], [0.0, x]]),
    lambda x: State(QUBIT, [[0.5, x], [x, 0.5]]),
    lambda x: pure_state(QUBIT, [1.0, x]),
    lambda x: classical_state(diagonal_context(PhaseSpace(("a", "b"))), [0.5, x]),
    lambda x: Observable(QUBIT, [[1.0, x], [x, 0.0]]),
    lambda x: Projection(QUBIT, [[1.0, 0.0], [0.0, x]]),
    lambda x: AlgebraElement(QUBIT, [[x, 0.0], [0.0, 0.0]]),
], ids=["state-diagonal", "state-offdiagonal", "pure_state", "classical_state", "observable",
        "projection", "element"])
def test_nonfinite_entries_are_rejected_before_any_arithmetic(build, bad):
    with pytest.raises(ValueError, match="non-finite"):
        build(bad)
