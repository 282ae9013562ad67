"""Finite-dimensional unital *-algebras of complex matrices.

One representation covers both kinds of observable algebra used by the rest
of the package: the full algebra of n x n complex matrices (quantum), and the
commutative algebra of functions on a finite phase space, stored as diagonal
matrices (classical).  On top of the raw arithmetic sit projections
(P^2 = P = P*), Hermitian observables, and the functional calculus at finite
spectrum: eigendecomposition with degeneracy clustering and spectral
projections "is the value of A in V?".
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Validation tolerance (operator norm) for projection and Hermiticity defects.
# Comfortably above double-precision eigendecomposition error at n <= 64,
# far below any scale the scenarios probe.
EPS_ALG = 1e-9

# Eigenvalues closer than this are merged into one degenerate cluster.
CLUSTER_TOL = 1e-8

FULL = "full"
DIAGONAL = "diagonal"

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)
del _m


class ContextMismatchError(ValueError):
    """Raised when two values from different observable algebras are combined."""


@dataclass(frozen=True)
class PhaseSpace:
    """Finite phase space: an ordered tuple of distinct str point labels."""

    points: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("phase space must contain at least one point")
        if not all(isinstance(x, str) for x in self.points):  # an int would read as an index
            raise ValueError(f"phase space labels must be str, got {self.points!r}")
        if len(set(self.points)) != len(self.points):
            raise ValueError("phase space labels must be unique")

    def __len__(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        if label not in self.points:
            raise ValueError(f"unknown point label {label!r}")
        return self.points.index(label)

    def subset(self, members) -> "PhaseSubset":
        """Subset from point indices (integers, not bools) or labels (strs)."""
        idx = {m if isinstance(m, (int, np.integer)) else self.index(m) for m in members}
        return PhaseSubset(self, frozenset(idx))


@dataclass(frozen=True)
class PhaseSubset:
    """A set of phase-space points, identified by index (an int)."""

    space: PhaseSpace
    members: frozenset

    def __post_init__(self):
        n = len(self.space)
        for i in self.members:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
                raise ValueError(f"invalid point index {i!r} for space of size {n}")
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))

    def indicator(self) -> np.ndarray:
        """0/1 vector over the space, 1 exactly on the members."""
        v = np.zeros(len(self.space))
        v[sorted(self.members)] = 1.0
        return v

    def complement(self) -> "PhaseSubset":
        return PhaseSubset(self.space, frozenset(range(len(self.space))) - self.members)


@dataclass(frozen=True)
class ValueSet:
    """A finite union of closed real intervals and isolated real points.

    Stands in for a Borel subset of the real line; with finite spectra this
    loses nothing.
    """

    intervals: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivs:
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] has lower > upper")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))

    def contains(self, x: float, atol: float = 0.0) -> bool:
        """Membership test, widened by `atol` to absorb eigenvalue roundoff."""
        for lo, hi in self.intervals:
            if lo - atol <= x <= hi + atol:
                return True
        return any(abs(x - p) <= atol for p in self.points)

    def __contains__(self, x) -> bool:
        return self.contains(float(x))


@dataclass(frozen=True)
class AlgebraContext:
    """The observable algebra: its dimension and kind.

    kind "full" is the whole matrix algebra; kind "diagonal" is the
    commutative function algebra over a bound phase space, with dim equal to
    the number of points.
    """

    dim: int
    kind: str = FULL
    phase_space: PhaseSpace | None = None

    def __post_init__(self):
        if self.kind not in (FULL, DIAGONAL):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("algebra dimension must be at least 1")
        if self.kind == DIAGONAL:
            if self.phase_space is None:
                raise ValueError("diagonal algebra requires a phase space")
            if len(self.phase_space) != self.dim:
                raise ValueError(
                    f"dim {self.dim} does not match phase space of "
                    f"{len(self.phase_space)} points"
                )
        elif self.phase_space is not None:
            raise ValueError("full matrix algebra does not bind a phase space")

    @property
    def is_diagonal(self) -> bool:
        return self.kind == DIAGONAL


def full_context(dim: int) -> AlgebraContext:
    return AlgebraContext(dim=dim, kind=FULL)


def diagonal_context(phase_space: PhaseSpace) -> AlgebraContext:
    return AlgebraContext(dim=len(phase_space), kind=DIAGONAL, phase_space=phase_space)


def make_context(kind: str, dim: int | None = None,
                 phase_space: PhaseSpace | None = None) -> AlgebraContext:
    """Factory accepting either a dimension (full) or a phase space
    (diagonal); `AlgebraContext` rejects what does not fit the kind."""
    if kind == DIAGONAL and phase_space is not None and dim is None:
        dim = len(phase_space)
    if dim is None:
        raise ValueError(f"{kind} context requires "
                         f"{'a phase space' if kind == DIAGONAL else 'dim'}")
    return AlgebraContext(dim, kind, phase_space if kind == DIAGONAL else None)


def require_same_context(a, b):
    """Raise ContextMismatchError unless two values (elements or states)
    live in the same algebra; identity decides before equality does."""
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatchError(
            f"values live in different algebras: {a.context} vs {b.context}"
        )


class AlgebraElement:
    """An element of the observable algebra: an n x n complex matrix.

    Immutable.  Arithmetic follows numpy conventions: + - for the vector
    space, * / for scalars, @ for the algebra product, .adjoint() for the
    involution.  Diagonal-kind elements must be diagonal matrices; this is
    enforced at construction and preserved by all operations.
    """

    __slots__ = ("context", "matrix")

    def __init__(self, context: AlgebraContext, matrix):
        arr = np.array(matrix, dtype=complex)
        if arr.shape != (context.dim, context.dim):
            raise ValueError(
                f"matrix shape {arr.shape} does not match algebra dimension {context.dim}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("matrix has a non-finite entry")
        if context.is_diagonal:
            off = arr - np.diag(np.diag(arr))
            if off.size and np.abs(off).max() > EPS_ALG:
                raise ValueError("diagonal-algebra element has off-diagonal entries")
            arr = np.diag(np.diag(arr))  # drop sub-tolerance off-diagonal noise
        arr.setflags(write=False)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "matrix", arr)
        self._validate()

    def _validate(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("algebra values are immutable")

    @classmethod
    def _unchecked(cls, context, matrix):
        """Internal fast path: skip invariant validation for matrices that are
        guaranteed valid by construction (e.g. unitary conjugates of valid
        inputs)."""
        obj = object.__new__(cls)
        arr = np.asarray(matrix, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(obj, "context", context)
        object.__setattr__(obj, "matrix", arr)
        return obj

    @property
    def dim(self) -> int:
        return self.context.dim

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).copy()

    def adjoint(self) -> "AlgebraElement":
        return type(self)(self.context, self.matrix.conj().T)

    def is_hermitian(self, tol: float = EPS_ALG) -> bool:
        return within(self.matrix - self.matrix.conj().T, tol)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        require_same_context(self, other)
        return AlgebraElement(self.context, self.matrix + other.matrix)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        require_same_context(self, other)
        return AlgebraElement(self.context, self.matrix - other.matrix)

    def __neg__(self):
        return AlgebraElement(self.context, -self.matrix)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return AlgebraElement(self.context, complex(scalar) * self.matrix)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return AlgebraElement(self.context, self.matrix / complex(scalar))

    def __matmul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        require_same_context(self, other)
        if self.context.is_diagonal:
            # the function algebra's product is pointwise multiplication,
            # exact per entry (no BLAS accumulation)
            prod = np.diag(np.diag(self.matrix) * np.diag(other.matrix))
        else:
            prod = self.matrix @ other.matrix
        return AlgebraElement(self.context, prod)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, kind={self.context.kind})"


class Observable(AlgebraElement):
    """A Hermitian element, A = A* within EPS_ALG."""

    __slots__ = ()

    def _validate(self):
        herm = self.matrix - self.matrix.conj().T
        if not within(herm, EPS_ALG):
            raise ValueError(f"observable is not Hermitian (defect {operator_norm(herm):.3e})")


class Projection(AlgebraElement):
    """An idempotent self-adjoint element, P^2 = P = P* within EPS_ALG."""

    __slots__ = ()

    def _validate(self):
        m = self.matrix
        idem, herm = m @ m - m, m - m.conj().T
        if not (within(idem, EPS_ALG) and within(herm, EPS_ALG)):
            raise ValueError(
                f"not a projection (idempotency defect {operator_norm(idem):.3e}, "
                f"Hermiticity defect {operator_norm(herm):.3e})"
            )


@dataclass(frozen=True)
class SpectralData:
    """Distinct eigenvalues (ascending) with their orthogonal eigenprojectors."""

    eigenvalues: tuple
    projectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", tuple(float(a) for a in self.eigenvalues))
        object.__setattr__(self, "projectors", tuple(self.projectors))
        if len(self.eigenvalues) != len(self.projectors):
            raise ValueError("eigenvalue/projector count mismatch")

    def projection(self, value_set: ValueSet, cluster_tol: float = CLUSTER_TOL) -> Projection:
        """Sum of the eigenprojectors whose eigenvalue lies in the value set,
        with membership widened by cluster_tol to absorb eigensolver roundoff."""
        ctx = self.projectors[0].context
        total = np.zeros((ctx.dim, ctx.dim), dtype=complex)
        for val, proj in zip(self.eigenvalues, self.projectors):
            if value_set.contains(val, atol=cluster_tol):
                total = total + proj.matrix
        return Projection(ctx, (total + total.conj().T) / 2.0)


def unit(context: AlgebraContext) -> Projection:
    """The algebra unit; the identity matrix is a projection."""
    return Projection._unchecked(context, np.eye(context.dim, dtype=complex))


def zero(context: AlgebraContext) -> Projection:
    return Projection._unchecked(context, np.zeros((context.dim, context.dim), dtype=complex))


def element(context: AlgebraContext, matrix) -> AlgebraElement:
    return AlgebraElement(context, matrix)


def diagonal_element(context: AlgebraContext, values) -> AlgebraElement:
    """The element diag(values); for a diagonal context this is the function
    on phase space with the given values."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (context.dim,):
        raise ValueError(f"need {context.dim} diagonal values, got shape {vals.shape}")
    return AlgebraElement(context, np.diag(vals))


def complement(p: Projection) -> Projection:
    """1 - P.  Its defects equal P's own, so no revalidation is needed."""
    return Projection._unchecked(p.context, np.eye(p.dim, dtype=complex) - p.matrix)


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value.

    Tolerance checks call `within(m, tol)` instead of comparing this with
    tol.  The Frobenius norm bounds the operator norm from above, so when it
    is at most tol * (1 - 1e-9) (the margin absorbs roundoff in either norm)
    the check passes without an SVD; otherwise this function decides.
    """
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.norm(matrix, 2))


def within(matrix: np.ndarray, tol: float) -> bool:
    """operator_norm(matrix) <= tol, Frobenius norm first (see operator_norm)."""
    return bool(np.linalg.norm(matrix) <= tol * (1.0 - 1e-9)) or operator_norm(matrix) <= tol


def norms(a: AlgebraElement) -> tuple[float, float]:
    """(operator norm, trace norm) of the element."""
    s = np.linalg.svd(a.matrix, compute_uv=False)
    return float(s.max(initial=0.0)), float(s.sum())


def is_projection(a: AlgebraElement, tol: float = EPS_ALG) -> bool:
    m = a.matrix
    return within(m @ m - m, tol) and within(m - m.conj().T, tol)


def commutes(a: AlgebraElement, b: AlgebraElement, tol: float = EPS_ALG) -> bool:
    require_same_context(a, b)
    return within(a.matrix @ b.matrix - b.matrix @ a.matrix, tol)


def characteristic_projection(context: AlgebraContext, subset: PhaseSubset) -> Projection:
    """The indicator function of a phase-space subset, as a diagonal projection."""
    if not context.is_diagonal:
        raise ValueError("characteristic projections live in the diagonal algebra")
    if subset.space != context.phase_space:
        raise ContextMismatchError("subset belongs to a different phase space")
    return Projection._unchecked(context, np.diag(subset.indicator().astype(complex)))


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group indices of ascending values whose consecutive gaps are <= tol."""
    groups = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            groups.append(np.arange(start, i))
            start = i
    groups.append(np.arange(start, len(values)))
    return groups


def eigendecompose(a: AlgebraElement, cluster_tol: float = CLUSTER_TOL) -> SpectralData:
    """Spectral decomposition of a Hermitian element.

    Ascending eigenvalues merge into one degenerate cluster wherever a
    consecutive gap is at most cluster_tol, so merging chains: k eigenvalues
    spaced just under cluster_tol form one cluster up to (k - 1) *
    cluster_tol wide, reported at its mean.  Each projector is the
    symmetrized sum of outer products of an orthonormal eigenbasis for its
    cluster.  Diagonal-kind elements are decomposed exactly from their
    diagonal, with no floating-point eigensolver involved.
    """
    if not a.is_hermitian():
        raise ValueError("eigendecomposition requires a Hermitian element")
    ctx = a.context
    if ctx.is_diagonal:
        vals = np.real(np.diag(a.matrix))
        order = np.argsort(vals, kind="stable")
        svals = vals[order]
        eigenvalues, projectors = [], []
        for grp in _cluster(svals, cluster_tol):
            idx = order[grp]
            d = np.zeros(ctx.dim, dtype=complex)
            d[idx] = 1.0
            eigenvalues.append(float(svals[grp].mean()))
            projectors.append(Projection._unchecked(ctx, np.diag(d)))
        return SpectralData(tuple(eigenvalues), tuple(projectors))

    w, v = np.linalg.eigh((a.matrix + a.matrix.conj().T) / 2.0)
    eigenvalues, projectors = [], []
    for grp in _cluster(w, cluster_tol):
        vecs = v[:, grp]
        p = vecs @ vecs.conj().T
        p = (p + p.conj().T) / 2.0  # suppress roundoff asymmetry
        eigenvalues.append(float(w[grp].mean()))
        projectors.append(Projection(ctx, p))
    return SpectralData(tuple(eigenvalues), tuple(projectors))


def spectral_projection(a: AlgebraElement, value_set: ValueSet,
                        cluster_tol: float = CLUSTER_TOL) -> Projection:
    """Projection of the yes/no experiment "is the value of A in V?".

    Sum of the eigenprojectors of A whose eigenvalue lies in the value set.
    For diagonal-kind A this is exactly the characteristic projection of the
    preimage of V, with exact membership; for full-kind A the membership
    test is widened by cluster_tol to absorb eigensolver roundoff.
    """
    ctx = a.context
    if ctx.is_diagonal:
        if not a.is_hermitian():
            raise ValueError("spectral projection requires a Hermitian element")
        vals = np.real(np.diag(a.matrix))
        d = np.array([1.0 if value_set.contains(x) else 0.0 for x in vals], dtype=complex)
        return Projection._unchecked(ctx, np.diag(d))
    return eigendecompose(a, cluster_tol).projection(value_set, cluster_tol)
