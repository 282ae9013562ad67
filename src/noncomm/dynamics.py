"""One-parameter *-automorphism groups: the two time evolutions.

Quantum dynamics act on observables by unitary conjugation,
tau_t(A) = exp(iHt/hbar) A exp(-iHt/hbar) (Heisenberg picture).  Classical
dynamics act on the diagonal function algebra by composition with a flow on
phase space, tau_t(g) = g o T_t (the Koopman lift).  Finite phase spaces
admit no faithful continuous flow, so classical time is the group of integers
generated by one bijection.  `evolve_stack` moves a whole stack of
observables, each to its own time, in one stacked conjugation or, on the
diagonals of a diagonal algebra, one index gather; the one-element
evolutions are its one-time case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    ContextMismatchError,
    Observable,
    PhaseSpace,
    Projection,
    diagonal_context,
    measure,
    measure_matrix,
)
from .states import State, renormalize


@dataclass(frozen=True)
class Hamiltonian:
    """Generator of the quantum evolution: a Hermitian operator plus hbar."""

    operator: Observable
    hbar: float = 1.0
    # eigh of the symmetrized operator, computed once for every propagator
    eigh: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.operator, Observable):
            object.__setattr__(
                self, "operator", Observable(self.operator.context, self.operator.matrix)
            )
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        m = self.operator.matrix
        object.__setattr__(self, "eigh", np.linalg.eigh((m + m.conj().T) / 2.0))

    @property
    def context(self):
        return self.operator.context


@dataclass(frozen=True)
class Flow:
    """Generator of the classical evolution: one bijection of the phase space.

    step[i] is the index the point i moves to in one unit of time; time t is
    the t-fold composition (the inverse map for negative t).
    """

    space: PhaseSpace
    step: tuple
    cycles: tuple = field(init=False, compare=False, repr=False)  # of step, for `at`

    def __post_init__(self):
        step = tuple(int(i) for i in self.step)
        object.__setattr__(self, "step", step)
        if sorted(step) != list(range(len(self.space))):
            raise ValueError(f"step {step} is not a bijection of {len(self.space)} points")
        cycles, seen = [], bytearray(len(step))  # a visited flag a point
        for start in range(len(step)):
            cycle, i = [], start
            while not seen[i]:  # a bijection's walk from start first meets start again
                seen[i] = 1
                cycle.append(i)
                i = step[i]
            if cycle:
                cycles.append(tuple(cycle))
        object.__setattr__(self, "cycles", tuple(cycles))

    @classmethod
    def identity(cls, space: PhaseSpace) -> "Flow":
        return cls(space, tuple(range(len(space))))

    def at(self, t: int) -> tuple:
        """The permutation realizing time t: each cycle of `step` rotated t places."""
        if t != t or abs(t) == np.inf or t != int(t):  # nan, +-inf or a fraction
            raise ValueError("classical time must be an integer")
        t = int(t)
        perm = [0] * len(self.step)
        for cycle in self.cycles:
            r = t % len(cycle)
            for i, j in zip(cycle, cycle[r:] + cycle[:r]):
                perm[i] = j
        return tuple(perm)


def compose_flows(t1: Flow, t2: Flow) -> Flow:
    """The flow x -> T1(T2(x))."""
    if t1.space != t2.space:
        raise ContextMismatchError("flows act on different phase spaces")
    return Flow(t1.space, tuple(t1.step[j] for j in t2.step))


def invert_flow(t: Flow) -> Flow:
    return Flow(t.space, t.at(-1))


def propagators(h: Hamiltonian, times) -> np.ndarray:
    """The (n, d, d) stack of unitaries U(t) = exp(iHt/hbar), one per time,
    from the eigendecomposition H keeps: unitary to eigensolver accuracy for
    any t, unlike a truncated series."""
    w, v = h.eigh
    phases = np.exp(1j * w * (np.asarray(times, dtype=float)[:, None] / h.hbar))
    return (v * phases[:, None, :]) @ v.conj().T


def _kept(context, matrix: np.ndarray) -> np.ndarray:
    """What a value of `context` keeps of a d x d result (its diagonal, if diagonal)."""
    return np.diagonal(matrix).copy() if context.is_diagonal else matrix


def propagator(h: Hamiltonian, t: float) -> AlgebraElement:
    """The unitary U(t): the one-time case of `propagators`."""
    return AlgebraElement._unchecked(h.context, _kept(h.context, propagators(h, [t])[0]))


def evolve_stack(dynamics, times, stack, hermitian: bool = True) -> np.ndarray:
    """tau_t(A) for each time and element A of a stack: (n, d, d) matrices,
    or the (n, d) diagonals of diagonal-algebra elements.  A Hamiltonian
    conjugates, U(t) A U(t)*, which keeps a `hermitian` A Hermitian (only
    roundoff is stripped); a Flow gathers each diagonal by `at(t)`."""
    if isinstance(dynamics, Flow):
        perms = {t: dynamics.at(t) for t in dict.fromkeys(times)}  # once per distinct t
        return np.take_along_axis(stack, np.array([perms[t] for t in times], dtype=np.intp), 1)
    if stack.ndim == 2:  # real diagonals under a Hamiltonian: conjugate their matrices
        return measure(evolve_stack(dynamics, times, measure_matrix(stack), hermitian))
    u = propagators(dynamics, times)
    out = u @ stack @ u.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0 if hermitian else out


def check_dynamics(dynamics, contexts) -> None:
    """Reject `dynamics` unless it is None, or a Hamiltonian or Flow whose
    algebra is each of `contexts`."""
    if dynamics is None:
        return
    if not isinstance(dynamics, (Hamiltonian, Flow)):
        raise TypeError(f"dynamics must be a Hamiltonian or Flow, got {type(dynamics)!r}")
    home = diagonal_context(dynamics.space) if isinstance(dynamics, Flow) else dynamics.context
    if any(ctx != home for ctx in contexts):
        raise ContextMismatchError("values and dynamics live in different algebras")


def heisenberg_evolve(a: AlgebraElement, h: Hamiltonian, t: float) -> AlgebraElement:
    """tau_t(A) = U(t) A U(t)*, the one-time case of `evolve_stack`.  Keeps
    the class of the input element."""
    check_dynamics(h, [a.context])
    hermitian = isinstance(a, (Projection, Observable))
    out = _kept(a.context, evolve_stack(h, [t], a.matrix[None], hermitian)[0])
    return (type(a) if hermitian else AlgebraElement)._unchecked(a.context, out)


def koopman_evolve(g: AlgebraElement, flow: Flow, t: int) -> AlgebraElement:
    """tau_t(g) = g o T_t on the diagonal algebra: the one-time case of
    `evolve_stack`, a pure index permutation of g's diagonal."""
    check_dynamics(flow, [g.context])
    return type(g)._unchecked(g.context, evolve_stack(flow, [t], g.values[None])[0])


def schrodinger_state(state: State, h: Hamiltonian, t: float) -> State:
    """The state-picture dual: rho(t) = U(-t) rho U(-t)*, so that expectations
    of evolved observables on rho equal expectations of the originals on
    rho(t)."""
    if state.context.is_diagonal:
        raise ValueError("state-picture evolution is defined for the full algebra")
    check_dynamics(h, [state.context])
    u = propagator(h, -t).matrix
    return State._unchecked(state.context, renormalize(u @ state.rho @ u.conj().T))
