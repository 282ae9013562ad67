"""One-parameter *-automorphism groups: the two time evolutions.

Quantum dynamics act on observables by unitary conjugation,
tau_t(A) = exp(iHt/hbar) A exp(-iHt/hbar) (Heisenberg picture).  Classical
dynamics act on the diagonal function algebra by composition with a flow on
phase space, tau_t(g) = g o T_t (the Koopman lift).  Finite phase spaces
admit no faithful continuous flow, so classical time is the group of integers
generated by one bijection.
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
)
from .states import State


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
    step: tuple = field(default=None)

    def __post_init__(self):
        step = tuple(int(i) for i in (self.step if self.step is not None
                                      else range(len(self.space))))
        object.__setattr__(self, "step", step)
        if sorted(step) != list(range(len(self.space))):
            raise ValueError(f"step {step} is not a bijection of {len(self.space)} points")

    @classmethod
    def identity(cls, space: PhaseSpace) -> "Flow":
        return cls(space, tuple(range(len(space))))

    def at(self, t: int) -> tuple:
        """The permutation realizing time t (exact integer composition)."""
        if t != int(t):
            raise ValueError("classical time must be an integer")
        t = int(t)
        n = len(self.step)
        forward = self.step
        if t < 0:
            inv = [0] * n
            for i, j in enumerate(forward):
                inv[j] = i
            forward, t = tuple(inv), -t
        perm = list(range(n))
        for _ in range(t):
            perm = [forward[i] for i in perm]
        return tuple(perm)

    def __call__(self, index: int, t: int = 1) -> int:
        return self.at(t)[index]


def compose_flows(t1: Flow, t2: Flow) -> Flow:
    """The flow x -> T1(T2(x))."""
    if t1.space != t2.space:
        raise ContextMismatchError("flows act on different phase spaces")
    return Flow(t1.space, tuple(t1.step[j] for j in t2.step))


def invert_flow(t: Flow) -> Flow:
    inv = [0] * len(t.step)
    for i, j in enumerate(t.step):
        inv[j] = i
    return Flow(t.space, tuple(inv))


def propagator(h: Hamiltonian, t: float) -> AlgebraElement:
    """The unitary U(t) = exp(iHt/hbar), via eigendecomposition of H.

    Diagonalizing keeps U unitary to eigensolver accuracy for any t, unlike
    a truncated series.  H is diagonalized once, when it is built.
    """
    w, v = h.eigh
    phases = np.exp(1j * w * (t / h.hbar))
    u = (v * phases) @ v.conj().T
    return AlgebraElement._unchecked(h.context, u)


def heisenberg_evolve(a: AlgebraElement, h: Hamiltonian, t: float) -> AlgebraElement:
    """tau_t(A) = U(t) A U(t)*.  Preserves Hermiticity and the projection
    property, and therefore the class of the input element."""
    if a.context != h.context:
        raise ContextMismatchError("element and Hamiltonian live in different algebras")
    u = propagator(h, t).matrix
    out = u @ a.matrix @ u.conj().T
    if isinstance(a, (Projection, Observable)):
        # conjugation preserves the defining defects; just strip roundoff
        return type(a)._unchecked(a.context, (out + out.conj().T) / 2.0)
    return AlgebraElement._unchecked(a.context, out)


def koopman_evolve(g: AlgebraElement, flow: Flow, t: int) -> AlgebraElement:
    """tau_t(g) = g o T_t on the diagonal algebra: a pure index permutation."""
    if not g.context.is_diagonal:
        raise ValueError("Koopman evolution acts on the diagonal algebra")
    if g.context.phase_space != flow.space:
        raise ContextMismatchError("element and flow live on different phase spaces")
    perm = flow.at(t)
    diag = np.diag(g.matrix)
    moved = diag[list(perm)]
    return type(g)._unchecked(g.context, np.diag(moved))


def schrodinger_state(state: State, h: Hamiltonian, t: float) -> State:
    """The state-picture dual: rho(t) = U(-t) rho U(-t)*, so that expectations
    of evolved observables on rho equal expectations of the originals on
    rho(t)."""
    if state.context.is_diagonal:
        raise ValueError("state-picture evolution is defined for the full algebra")
    if state.context != h.context:
        raise ContextMismatchError("state and Hamiltonian live in different algebras")
    u = propagator(h, -t).matrix
    return State._renormalized(state.context, u @ state.rho @ u.conj().T)
