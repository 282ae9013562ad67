"""States on the observable algebra and the conditional update.

A state is a density matrix rho (positive, unit trace); expectations are
Tr(rho A).  Conditioning on a "yes" for the experiment with projection P is
the projection postulate rho' = P rho P / Tr(rho P) -- the noncommutative
conditional probability.  On the diagonal (classical) algebra that update
*is* the Bayes rule mu'(U) = mu(U & S) / mu(S), so a diagonal state *is* its
measure mu: it is read and judged as mu, builds rho = diag(mu) only when
`rho` is first read, and `expectation`, `yes_probability`, `condition` and
`state_distance` work on mu alone.  Every conditioning in the package is one
of two functions: `bayes` on measures and `lueders` on density matrices, in
`condition`, `classical_condition` and the batched kernel alike; a
yes-probability is `expectation`'s Tr(rho P), whose bits the kernel's
weighings share.
"""

from __future__ import annotations

import numpy as np

from .algebra import (  # measure_matrix is exported from here too
    EPS_ALG,
    AlgebraContext,
    AlgebraElement,
    AlgebraValue,
    PhaseSubset,
    Projection,
    measure,
    measure_matrix,
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


class State(AlgebraValue):
    """A density matrix on the algebra: Hermitian, positive, unit trace.

    Construction validates the invariants within tolerance, then repairs the
    sub-tolerance defects by symmetrizing and renormalizing the trace, so
    long conditioning chains stay machine-checkable.  Immutable.  A state of a
    diagonal algebra is built from diag(mu) or from mu itself, keeps only its
    measure `mu`, and builds `rho` on first read; its eigenvalues are mu.
    """

    __slots__ = ("rho", "mu")
    _DENSE, _FLAT, _NOUN = "rho", "mu", "density matrix"
    __init__ = AlgebraValue.__init__  # in this class's own namespace, where tracers wrap it

    def _judged(self, kept):
        herm = kept - kept.conj().T
        if not within(herm, EPS_ALG):
            raise ValueError(f"density matrix is not Hermitian (defect {operator_norm(herm):.3e})")
        arr = (kept + kept.conj().T) / 2.0
        lo = float((arr.real if arr.ndim == 1 else np.linalg.eigvalsh(arr)).min())
        if lo < -EPS_ALG:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        tr = float((arr.sum() if arr.ndim == 1 else np.trace(arr)).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1")
        arr = arr / tr
        return arr.real.copy() if arr.ndim == 1 else arr

    def probabilities(self) -> np.ndarray:
        """The diagonal of rho as a real vector; for diagonal contexts this
        is the probability measure on phase space, a copy of `mu`."""
        return (self.mu if self.context.is_diagonal else measure(self.rho)).copy()


def renormalize(rho: np.ndarray) -> np.ndarray:
    """Symmetrize a matrix, or each matrix of a (..., d, d) stack, to unit trace:
    (rho + rho*) / Tr(rho + rho*), unhalved, as halving is exact and (a/2) / (t/2)
    rounds as a / t, barring subnormals.  Each stacked matrix gets the bits it gets alone.
    A matrix positive by construction (P rho P, or a unitary transport of a
    state) needs no spectral check after it: `State._unchecked` keeps it."""
    arr = rho + rho.swapaxes(-1, -2).conj()
    tr = arr.trace(0, -2, -1).real
    return arr / (tr if arr.ndim == 2 else tr[..., None, None])


def lueders(rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Lueders' rule rho' = P rho P / Tr(rho P), as P rho P renormalized, on
    density matrices and projections that broadcast as (..., d, d) stacks; the
    caller has checked the floor.  On a diagonal algebra it is `bayes`."""
    return renormalize(p @ rho @ p)


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
    """State of a diagonal algebra from a probability vector mu, checked as a
    measure: `State(context, mu / sum(mu))`, negative roundoff clipped."""
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
    return State(context, np.clip(m, 0.0, None).astype(complex) / total)


def require_probability(prob):
    """Raise ZeroProbabilityError, naming the first, if any probability to
    condition on is at or below P_FLOOR."""
    low = prob <= P_FLOOR
    if low is not False and np.count_nonzero(low):  # a float that passes asks numpy nothing
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
    algebra this is the integral sum_x mu(x) a(x), summed as `bayes` sums its
    mass; on a full one, sum_ij rho[i,j] A[j,i] as one `dot`, as the kernel's
    one-row step takes it."""
    require_same_context(state, a)
    if state.context.is_diagonal:
        mu, values = state.mu, a.values
        return complex(np.add.reduce(mu * values.real), np.add.reduce(mu * values.imag))
    return complex(state.rho.ravel().dot(a.matrix.T.ravel()))


def _probability(mass: float) -> float:
    return min(max(mass + 0.0, 0.0), 1.0)  # + 0.0: a zero is +0.0, as `born_step` gives it


def yes_probability(state: State, p: Projection) -> float:
    """Probability of "yes" for the experiment with projection P, clamped to [0, 1]."""
    return _probability(expectation(state, p).real)


def condition(state: State, p: Projection) -> State:
    """State after a "yes": rho' = P rho P / Tr(rho P), by `lueders`.

    The returned state satisfies Tr(rho' A) = Tr(rho P A P) / Tr(rho P) for
    every A, and assigns probability 1 to a repetition of the experiment.
    On a diagonal algebra this is `bayes` on the measure and P's indicator.
    Either raises ZeroProbabilityError at or below P_FLOOR.
    """
    require_same_context(state, p)
    ctx = state.context
    if ctx.is_diagonal:
        return State._unchecked(ctx, bayes(state.mu, p.values.real))
    require_probability(expectation(state, p).real)
    return State._unchecked(ctx, lueders(state.rho, p.matrix))


def classical_condition(mu, subset: PhaseSubset) -> np.ndarray:
    """Bayes rule on a probability vector: mu'(U) = mu(U & S) / mu(S)."""
    m = np.asarray(mu, dtype=float)
    if m.shape != (len(subset.space),):
        raise ValueError("measure length does not match the subset's phase space")
    return bayes(m, subset.indicator())


def state_distance(s1: State, s2: State) -> float:
    """Trace-norm distance ||rho1 - rho2||_1 (sum of singular values)."""
    require_same_context(s1, s2)
    diff = s1._stored - s2._stored  # a diagonal difference's eigenvalues are its entries
    return float(np.abs(diff if diff.ndim == 1 else np.linalg.eigvalsh(diff)).sum())
