"""States on the observable algebra and the conditional update.

A state is a density matrix rho (positive, unit trace); expectations are
Tr(rho A).  Conditioning on a "yes" for the experiment with projection P is
the projection postulate rho' = P rho P / Tr(rho P) -- the noncommutative
conditional probability.  On the diagonal (classical) algebra that update
*is* the Bayes rule mu'(U) = mu(U & S) / mu(S), so a diagonal state *is* its
measure mu, builds rho = diag(mu) only when `rho` is first read, and
`expectation`, `yes_probability` and `condition` work on mu alone, through
`bayes`, the one helper that `classical_condition` and the kernel share.
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


class NumericalInvariantError(ValueError):
    """A computed probability or state broke an invariant it must keep."""


class ZeroProbabilityError(NumericalInvariantError):
    """Conditioning on an outcome of (numerically) zero probability."""


class State:
    """A density matrix on the algebra: Hermitian, positive, unit trace.

    Construction validates the invariants within tolerance, then repairs the
    sub-tolerance defects by symmetrizing and renormalizing the trace, so
    long conditioning chains stay machine-checkable.  Immutable.  A state of a
    diagonal algebra keeps only its measure `mu`, and builds `rho` on first read.
    """

    __slots__ = ("context", "rho", "mu")

    def __init__(self, context: AlgebraContext, rho):
        arr = np.array(rho, dtype=complex)
        if arr.shape != (context.dim, context.dim):
            raise ValueError(
                f"density matrix shape {arr.shape} does not match dimension {context.dim}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("density matrix has a non-finite entry")
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
        self._set(context, arr / tr)

    def _set(self, context, arr):
        arr = measure(arr).copy() if context.is_diagonal and arr.ndim == 2 else arr
        arr.setflags(write=False)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "rho" if arr.ndim == 2 else "mu", arr)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("states are immutable")

    def __getattr__(self, name):  # reached only for the unset `rho` of a diagonal state
        if name != "rho":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rho = measure_matrix(self.mu)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        return rho

    @classmethod
    def _renormalized(cls, context, rho):
        """Internal fast path for matrices positive by construction
        (conjugations P rho P / unitary transports of valid states): still
        symmetrize and fix the trace, but skip the spectral check."""
        return cls._trusted(context, renormalize(rho))

    @classmethod
    def _trusted(cls, context, arr):
        """Internal: wrap, unvalidated, a density matrix that is already
        symmetric with unit trace, or a diagonal-algebra state's (n,) measure
        that is already non-negative with unit sum, which is kept uncopied."""
        return object.__new__(cls)._set(context, arr)

    @property
    def dim(self) -> int:
        return self.context.dim

    def probabilities(self) -> np.ndarray:
        """The diagonal of rho as a real vector; for diagonal contexts this
        is the probability measure on phase space, a copy of `mu`."""
        return (self.mu if self.context.is_diagonal else measure(self.rho)).copy()

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
    if not np.isfinite(v).all():
        raise ValueError("state vector has a non-finite entry")
    nrm2 = float(np.vdot(v, v).real)
    if nrm2 <= 0.0:
        raise ValueError("state vector must be nonzero")
    return State(context, np.outer(v, v.conj()) / nrm2)


def classical_state(context: AlgebraContext, mu) -> State:
    """State of a diagonal algebra from a probability vector mu: the bits of
    `State(context, diag(mu) / sum(mu))`, whose complex division by a real
    multiplies by its reciprocal and whose trace is a complex sum."""
    if not context.is_diagonal:
        raise ValueError("classical states require a diagonal algebra")
    m = np.asarray(mu, dtype=float)
    if m.shape != (context.dim,):
        raise ValueError(f"measure length {m.shape} does not match {context.dim} points")
    if not np.isfinite(m).all():
        raise ValueError("probability measure has a non-finite entry")
    if m.min(initial=0.0) < -1e-9:
        raise ValueError(f"probability measure has negative entry {m.min():.3e}")
    total = float(m.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probability measure sums to {total!r}, not 1")
    mu0 = np.clip(m, 0.0, None) * (1.0 / total)
    return State._trusted(context, mu0 * (1.0 / mu0.astype(complex).sum().real))


def measure(rho: np.ndarray) -> np.ndarray:
    """The real diagonal of a matrix or (..., d, d) stack, as a view: a measure."""
    return rho.diagonal(0, -2, -1).real


def measure_matrix(mu: np.ndarray) -> np.ndarray:
    """The complex matrix diag(mu) of a measure, or of each row of a stack."""
    n = mu.shape[-1]
    out = np.zeros(mu.shape + (n,), dtype=complex)
    out.reshape(mu.shape[:-1] + (n * n,))[..., :: n + 1] = mu
    return out


def require_probability(prob):
    """Raise ZeroProbabilityError, naming the first, if any probability to
    condition on is at or below P_FLOOR."""
    low = prob <= P_FLOOR
    if np.count_nonzero(low):
        worst = float(np.ravel(prob)[np.ravel(low)][0])
        raise ZeroProbabilityError(f"cannot condition on an outcome of probability {worst:.3e}")


def bayes(mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Bayes rule mu'(U) = mu(U & S) / mu(S) over the last axis of mu, S given
    by its indicator s; it divides nothing unless `require_probability` passes."""
    joint = mu * s
    mass = np.add.reduce(joint, -1, keepdims=True)  # sum(), minus its Python wrapper
    require_probability(mass)
    return joint / mass


def expectation(state: State, a: AlgebraElement) -> complex:
    """Tr(rho A); real up to roundoff when A is Hermitian.  On a diagonal
    algebra this is the integral sum_x mu(x) a(x)."""
    require_same_context(state, a)
    if state.context.is_diagonal:
        mu, values = state.mu, a.matrix.diagonal()
        return complex(np.add.reduce(mu * values.real), np.add.reduce(mu * values.imag))
    # Tr(rho A) = sum_ij rho[i,j] A[j,i]
    return complex(state.rho.ravel().dot(a.matrix.T.ravel()))


def yes_probability(state: State, p: Projection) -> float:
    """Probability of "yes" for the experiment with projection P, clamped to [0, 1]."""
    if state.context.is_diagonal:  # the real part of `expectation`, without its imaginary sum
        require_same_context(state, p)
        val = float(np.add.reduce(state.mu * measure(p.matrix)))
    else:
        val = expectation(state, p).real
    return min(max(val, 0.0), 1.0)


def condition(state: State, p: Projection) -> State:
    """State after a "yes": rho' = P rho P / Tr(rho P).

    The returned state satisfies Tr(rho' A) = Tr(rho P A P) / Tr(rho P) for
    every A, and assigns probability 1 to a repetition of the experiment.
    On a diagonal algebra this is `bayes` on the measure and P's indicator.
    """
    require_same_context(state, p)
    if state.context.is_diagonal:
        return State._trusted(state.context, bayes(state.mu, measure(p.matrix)))
    require_probability(state.rho.ravel().dot(p.matrix.T.ravel()).real)
    return State._renormalized(state.context, p.matrix @ state.rho @ p.matrix)


def classical_condition(mu, subset: PhaseSubset) -> np.ndarray:
    """Bayes rule on a probability vector: mu'(U) = mu(U & S) / mu(S)."""
    m = np.asarray(mu, dtype=float)
    if m.shape != (len(subset.space),):
        raise ValueError("measure length does not match the subset's phase space")
    return bayes(m, subset.indicator())


def state_distance(s1: State, s2: State) -> float:
    """Trace-norm distance ||rho1 - rho2||_1 (sum of singular values)."""
    require_same_context(s1, s2)
    diff = s1.rho - s2.rho
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())
