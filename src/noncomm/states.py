"""States on the observable algebra and the conditional update.

A state is a density matrix rho (positive, unit trace); expectations are
Tr(rho A).  Conditioning on a "yes" for the experiment with projection P is
the projection postulate rho' = P rho P / Tr(rho P) -- the noncommutative
conditional probability.  On the diagonal (classical) algebra the same
update restricted to the diagonal reproduces the Bayes rule
mu'(U) = mu(U & S) / mu(S), and `classical_condition` implements that rule
directly on probability vectors.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    EPS_ALG,
    AlgebraContext,
    AlgebraElement,
    PhaseSubset,
    Projection,
    operator_norm,
    require_same_context,
    within,
)

# Conditioning on outcomes with probability at or below this floor raises
# ZeroProbabilityError: the update is undefined at probability zero, and
# below this scale it would only amplify roundoff.
P_FLOOR = 1e-12

# A candidate density matrix whose trace is farther than this from 1 is
# rejected rather than silently renormalized.
TRACE_TOL = 1e-6


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


class State:
    """A density matrix on the algebra: Hermitian, positive, unit trace.

    Construction validates the invariants within tolerance, then repairs the
    sub-tolerance defects by symmetrizing and renormalizing the trace, so
    long conditioning chains stay machine-checkable.  Immutable.
    """

    __slots__ = ("context", "rho")

    def __init__(self, context: AlgebraContext, rho):
        arr = np.array(rho, dtype=complex)
        if arr.shape != (context.dim, context.dim):
            raise ValueError(
                f"density matrix shape {arr.shape} does not match dimension {context.dim}"
            )
        herm = arr - arr.conj().T
        if not within(herm, EPS_ALG):
            raise ValueError(f"density matrix is not Hermitian (defect {operator_norm(herm):.3e})")
        if context.is_diagonal:
            off = arr - np.diag(np.diag(arr))
            if off.size and np.abs(off).max() > EPS_ALG:
                raise ValueError("diagonal-algebra state has off-diagonal entries")
            arr = np.diag(np.diag(arr))
        arr = (arr + arr.conj().T) / 2.0
        lo = float(np.linalg.eigvalsh(arr).min())
        if lo < -EPS_ALG:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        tr = float(np.trace(arr).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1")
        arr = arr / tr
        arr.setflags(write=False)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "rho", arr)

    def __setattr__(self, name, value):
        raise AttributeError("states are immutable")

    @classmethod
    def _renormalized(cls, context, rho):
        """Internal fast path for matrices positive by construction
        (conjugations P rho P / unitary transports of valid states): still
        symmetrize and fix the trace, but skip the spectral check."""
        return cls._trusted(context, renormalize(rho))

    @classmethod
    def _trusted(cls, context, arr):
        """Internal: wrap a density matrix that is already symmetric with
        unit trace, without copying it."""
        obj = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(obj, "context", context)
        object.__setattr__(obj, "rho", arr)
        return obj

    @property
    def dim(self) -> int:
        return self.context.dim

    def probabilities(self) -> np.ndarray:
        """The diagonal of rho as a real vector; for diagonal contexts this
        is the probability measure on phase space."""
        return np.real(np.diag(self.rho)).copy()

    def __repr__(self):
        return f"State(dim={self.dim}, kind={self.context.kind})"


def renormalize(rho: np.ndarray) -> np.ndarray:
    """Symmetrize a matrix, or each matrix of a (..., d, d) stack, and scale
    it to unit trace.  The stacked form gives every matrix the same bits as
    the single-matrix form."""
    arr = (rho + rho.swapaxes(-1, -2).conj()) / 2.0
    tr = arr.trace(0, -2, -1).real
    return arr / (tr if arr.ndim == 2 else tr[..., None, None])


def density_state(context: AlgebraContext, matrix) -> State:
    return State(context, matrix)


def pure_state(context: AlgebraContext, psi) -> State:
    """The rank-1 state psi psi* / |psi|^2."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape != (context.dim,):
        raise ValueError(f"state vector length {v.shape[0]} does not match dimension {context.dim}")
    nrm2 = float(np.vdot(v, v).real)
    if nrm2 <= 0.0:
        raise ValueError("state vector must be nonzero")
    return State(context, np.outer(v, v.conj()) / nrm2)


def classical_state(context: AlgebraContext, mu) -> State:
    """State of a diagonal algebra from a probability vector mu."""
    if not context.is_diagonal:
        raise ValueError("classical states require a diagonal algebra")
    m = np.asarray(mu, dtype=float)
    if m.shape != (context.dim,):
        raise ValueError(f"measure length {m.shape} does not match {context.dim} points")
    if m.min(initial=0.0) < -1e-9:
        raise ValueError(f"probability measure has negative entry {m.min():.3e}")
    total = float(m.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probability measure sums to {total!r}, not 1")
    return State(context, np.diag(np.clip(m, 0.0, None).astype(complex) / total))


def expectation(state: State, a: AlgebraElement) -> complex:
    """Tr(rho A); real up to roundoff when A is Hermitian."""
    require_same_context(state, a)
    # Tr(rho A) = sum_ij rho[i,j] A[j,i]
    return complex(state.rho.ravel().dot(a.matrix.T.ravel()))


def yes_probability(state: State, p: Projection) -> float:
    """Probability of "yes" for the experiment with projection P, clamped to [0, 1]."""
    val = expectation(state, p).real
    return min(max(val, 0.0), 1.0)


def condition(state: State, p: Projection) -> State:
    """State after a "yes": rho' = P rho P / Tr(rho P).

    The returned state satisfies Tr(rho' A) = Tr(rho P A P) / Tr(rho P) for
    every A, and assigns probability 1 to a repetition of the experiment.
    """
    require_same_context(state, p)
    prob = state.rho.ravel().dot(p.matrix.T.ravel()).real
    if prob <= P_FLOOR:
        raise ZeroProbabilityError(
            f"cannot condition on an outcome of probability {prob:.3e}"
        )
    return State._renormalized(state.context, p.matrix @ state.rho @ p.matrix)


def classical_condition(mu, subset: PhaseSubset) -> np.ndarray:
    """Bayes rule on a probability vector: mu'(U) = mu(U & S) / mu(S)."""
    m = np.asarray(mu, dtype=float)
    if m.shape != (len(subset.space),):
        raise ValueError("measure length does not match the subset's phase space")
    ind = subset.indicator()
    mass = float(m @ ind)
    if mass <= P_FLOOR:
        raise ZeroProbabilityError(f"subset has probability {mass:.3e}")
    return m * ind / mass


def state_distance(s1: State, s2: State) -> float:
    """Trace-norm distance ||rho1 - rho2||_1 (sum of singular values)."""
    require_same_context(s1, s2)
    diff = s1.rho - s2.rho
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())
