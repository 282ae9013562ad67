import math

import numpy as np
import pytest

from noncomm.algebra import (
    SIGMA_X,
    SIGMA_Z,
    ContextMismatchError,
    Observable,
    PhaseSpace,
    Projection,
    diagonal_context,
    diagonal_element,
    element,
    full_context,
    operator_norm,
)
from noncomm.checks import NumpyDraw
from noncomm.dynamics import (
    Flow,
    Hamiltonian,
    compose_flows,
    heisenberg_evolve,
    invert_flow,
    koopman_evolve,
    propagator,
    schrodinger_state,
)
from noncomm.states import expectation, pure_state, state_distance, yes_probability

QUBIT = full_context(2)


# ---------------------------------------------------------------- propagator


def test_propagator_at_time_zero():
    h = Hamiltonian(Observable(QUBIT, SIGMA_Z))
    assert np.allclose(propagator(h, 0.0).matrix, np.eye(2), atol=1e-12)


def test_propagator_sigma_z_at_pi():
    # exp(i pi sigma_z) = diag(exp(i pi), exp(-i pi)) = -identity
    h = Hamiltonian(Observable(QUBIT, SIGMA_Z))
    assert np.allclose(propagator(h, math.pi).matrix, -np.eye(2), atol=1e-12)


def test_propagator_group_law_and_unitarity():
    rng = np.random.default_rng(20)
    for n in (2, 4, 7):
        ctx = full_context(n)
        h = Hamiltonian(NumpyDraw(rng).hermitian(ctx), hbar=float(rng.random() + 0.5))
        t, s = rng.standard_normal(2) * 3
        ut, us, uts = (propagator(h, x).matrix for x in (t, s, t + s))
        assert operator_norm(ut @ us - uts) <= 1e-10
        assert operator_norm(ut @ ut.conj().T - np.eye(n)) <= 1e-10


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        Hamiltonian(Observable(QUBIT, SIGMA_Z), hbar=0.0)
    # a Hermitian plain element is coerced to an Observable
    h = Hamiltonian(element(QUBIT, SIGMA_Z))
    assert isinstance(h.operator, Observable)
    with pytest.raises(ValueError):
        Hamiltonian(element(QUBIT, [[0.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------------------ heisenberg


def test_heisenberg_commuting_observable_is_fixed():
    h = Hamiltonian(Observable(QUBIT, SIGMA_Z))
    evolved = heisenberg_evolve(element(QUBIT, SIGMA_Z), h, 1.37)
    assert np.allclose(evolved.matrix, SIGMA_Z, atol=1e-12)


def test_heisenberg_rabi_oscillation():
    # drive (omega/2) sigma_x; survival probability of the ground projector
    # on the ground state is cos^2(omega t / 2)
    omega = 1.7
    h = Hamiltonian(Observable(QUBIT, (omega / 2) * SIGMA_X))
    ground = Projection(QUBIT, np.diag([1.0, 0.0]))
    psi0 = pure_state(QUBIT, [1.0, 0.0])
    for t in (0.0, 0.3, 1.0, 2.5):
        moved = heisenberg_evolve(ground, h, t)
        assert isinstance(moved, Projection)
        assert abs(yes_probability(psi0, moved) - math.cos(omega * t / 2) ** 2) <= 1e-10


def test_heisenberg_identity_at_time_zero():
    rng = np.random.default_rng(21)
    ctx = full_context(4)
    h = Hamiltonian(NumpyDraw(rng).hermitian(ctx))
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = element(ctx, m)
    assert operator_norm((heisenberg_evolve(a, h, 0.0) - a).matrix) <= 1e-12


def test_heisenberg_context_mismatch():
    h = Hamiltonian(Observable(QUBIT, SIGMA_Z))
    with pytest.raises(ContextMismatchError):
        heisenberg_evolve(element(full_context(3), np.eye(3)), h, 1.0)


def test_heisenberg_automorphism_laws():
    rng = np.random.default_rng(22)
    for n in (2, 5, 8):
        ctx = full_context(n)
        h = Hamiltonian(NumpyDraw(rng).hermitian(ctx))
        a = element(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        b = element(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        t, s = rng.standard_normal(2) * 2
        tau_ab = heisenberg_evolve(a @ b, h, t)
        assert operator_norm((tau_ab - heisenberg_evolve(a, h, t) @ heisenberg_evolve(b, h, t)).matrix) <= 1e-9
        assert operator_norm((heisenberg_evolve(a.adjoint(), h, t)
                              - heisenberg_evolve(a, h, t).adjoint()).matrix) <= 1e-9
        assert operator_norm((heisenberg_evolve(a, h, t + s)
                              - heisenberg_evolve(heisenberg_evolve(a, h, s), h, t)).matrix) <= 1e-9


# ---------------------------------------------------------------- koopman


def test_flow_validation_and_identity():
    space = PhaseSpace(("a", "b", "c"))
    with pytest.raises(ValueError):
        Flow(space, (0, 0, 1))
    with pytest.raises(TypeError):  # the identity flow has one constructor, `identity`
        Flow(space)
    ident = Flow.identity(space)
    g = diagonal_element(diagonal_context(space), [1.0, 2.0, 3.0])
    assert np.array_equal(koopman_evolve(g, ident, 5).matrix, g.matrix)


def test_koopman_three_cycle():
    # cycle x1 -> x2 -> x3 -> x1; g composed with the map picks up the
    # value at the image point: diag(a, b, c) -> diag(b, c, a)
    space = PhaseSpace(("x1", "x2", "x3"))
    ctx = diagonal_context(space)
    flow = Flow(space, (1, 2, 0))
    g = diagonal_element(ctx, [10.0, 20.0, 30.0])
    assert np.array_equal(koopman_evolve(g, flow, 1).diagonal().real, [20.0, 30.0, 10.0])
    assert np.array_equal(koopman_evolve(g, flow, 3).matrix, g.matrix)
    assert np.array_equal(koopman_evolve(g, flow, -1).diagonal().real, [30.0, 10.0, 20.0])


def test_koopman_equals_permutation_conjugation():
    space = PhaseSpace(tuple(f"x{i}" for i in range(5)))
    ctx = diagonal_context(space)
    rng = np.random.default_rng(24)
    perm = tuple(int(i) for i in rng.permutation(5))
    flow = Flow(space, perm)
    g = diagonal_element(ctx, rng.standard_normal(5))
    # matrix with columns permuted by the step: M e_i = e_{step(i)}
    m = np.zeros((5, 5))
    for i, j in enumerate(perm):
        m[j, i] = 1.0
    conjugated = m.T @ g.matrix @ m
    assert np.array_equal(koopman_evolve(g, flow, 1).matrix, conjugated)


def test_koopman_rejects_full_context_and_wrong_space():
    space = PhaseSpace(("a", "b"))
    flow = Flow(space, (1, 0))
    with pytest.raises(ValueError):
        koopman_evolve(element(QUBIT, SIGMA_Z), flow, 1)
    other = diagonal_context(PhaseSpace(("c", "d")))
    with pytest.raises(ContextMismatchError):
        koopman_evolve(diagonal_element(other, [1.0, 2.0]), flow, 1)


def test_flow_composition_and_inverse():
    space = PhaseSpace(tuple("abcd"))
    t = Flow(space, (1, 0, 3, 2))    # two disjoint transpositions
    u = Flow(space, (2, 3, 0, 1))
    assert compose_flows(t, invert_flow(t)).step == (0, 1, 2, 3)
    # composition law: (t o u)(x) = t(u(x))
    composed = compose_flows(t, u)
    assert composed.step == tuple(t.step[u.step[i]] for i in range(4))
    ident = Flow.identity(space)
    assert compose_flows(t, ident).step == t.step
    with pytest.raises(ContextMismatchError):
        compose_flows(t, Flow(PhaseSpace(("x", "y")), (1, 0)))


def _composed(step, t):
    """step applied t times by plain composition (its inverse for t < 0)."""
    forward = list(step)
    if t < 0:
        for i, j in enumerate(step):
            forward[j] = i
    perm = list(range(len(step)))
    for _ in range(abs(t)):
        perm = [forward[i] for i in perm]
    return tuple(perm)


def test_flow_at_matches_naive_composition():
    rng = np.random.default_rng(27)
    for n in (1, 2, 5, 9):
        space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
        for _ in range(4):
            step = tuple(int(i) for i in rng.permutation(n))
            flow = Flow(space, step)
            for t in range(-3 * n, 3 * n + 1):
                assert flow.at(t) == _composed(step, t)
            assert invert_flow(flow).step == _composed(step, -1)
    # the first has cycles of lengths 3, 4 and 5: order 60, which does not
    # divide 10^6
    space = PhaseSpace(tuple(f"x{i}" for i in range(12)))
    for step in ((1, 2, 0, 4, 5, 6, 3, 8, 9, 10, 11, 7),
                 tuple(int(i) for i in rng.permutation(12))):
        assert Flow(space, step).at(10**6) == _composed(step, 10**6)


def test_koopman_automorphism_laws_integer_times():
    rng = np.random.default_rng(25)
    space = PhaseSpace(tuple(f"x{i}" for i in range(9)))
    ctx = diagonal_context(space)
    flow = Flow(space, tuple(int(i) for i in rng.permutation(9)))
    g = diagonal_element(ctx, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    h = diagonal_element(ctx, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    for t, s in ((1, 2), (-3, 5), (4, -4)):
        assert np.array_equal(koopman_evolve(g @ h, flow, t).matrix,
                              (koopman_evolve(g, flow, t) @ koopman_evolve(h, flow, t)).matrix)
        assert np.array_equal(koopman_evolve(g, flow, t + s).matrix,
                              koopman_evolve(koopman_evolve(g, flow, s), flow, t).matrix)
        assert np.array_equal(koopman_evolve(g.adjoint(), flow, t).matrix,
                              koopman_evolve(g, flow, t).adjoint().matrix)


# --------------------------------------------------------- state picture


def test_schrodinger_state_at_time_zero():
    rng = np.random.default_rng(26)
    ctx = full_context(3)
    h = Hamiltonian(NumpyDraw(rng).hermitian(ctx))
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    from noncomm.states import State

    s = State(ctx, (g @ g.conj().T) / np.trace(g @ g.conj().T).real)
    assert state_distance(schrodinger_state(s, h, 0.0), s) <= 1e-12


def test_schrodinger_duality_identity():
    rng = np.random.default_rng(27)
    for n in (2, 4):
        ctx = full_context(n)
        h = Hamiltonian(NumpyDraw(rng).hermitian(ctx))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        from noncomm.states import State

        s = State(ctx, (g @ g.conj().T) / np.trace(g @ g.conj().T).real)
        a = element(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        t = float(rng.standard_normal())
        lhs = expectation(schrodinger_state(s, h, t), a)
        rhs = expectation(s, heisenberg_evolve(a, h, t))
        assert abs(lhs - rhs) <= 1e-10


def test_schrodinger_precession_oracle():
    # H = sigma_z on |+>: <sigma_x>(t) = cos(2t) with hbar = 1
    h = Hamiltonian(Observable(QUBIT, SIGMA_Z))
    plus = pure_state(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))
    for t in (0.0, 0.4, math.pi / 2, 2.0):
        val = expectation(schrodinger_state(plus, h, t), element(QUBIT, SIGMA_X)).real
        assert abs(val - math.cos(2 * t)) <= 1e-10


def test_schrodinger_rejects_diagonal_context():
    ctx = diagonal_context(PhaseSpace(("a", "b")))
    from noncomm.states import classical_state

    s = classical_state(ctx, [0.5, 0.5])
    h = Hamiltonian(Observable(QUBIT, SIGMA_Z))
    with pytest.raises(ValueError):
        schrodinger_state(s, h, 1.0)
