"""Finite-dimensional unital *-algebras of complex matrices.

One representation covers both kinds of observable algebra used by the rest
of the package: the full algebra of n x n complex matrices (quantum), and the
commutative algebra of functions on a finite phase space, whose elements
are diagonal matrices (classical).  An algebra is classical exactly when its
context binds a phase space; nothing else records it.  A classical value is
its n numbers: a diagonal element keeps only its `values`, as a diagonal
state keeps only its measure `mu`, and builds its matrix on first read.  Every value has one
constructor, which reads the matrix or, on a diagonal algebra, the n numbers,
and judges them by its class's rule.  On top of the raw arithmetic sit
projections (P^2 = P = P*), Hermitian observables, and the functional
calculus at finite spectrum: eigendecomposition with degeneracy clustering
and spectral projections "is the value of A in V?".  No call sets its own
tolerance: each constructor and its verdict (`is_hermitian`, `is_projection`)
judge defects against one EPS_ALG, and CLUSTER_TOL alone sets which
eigenvalues merge into one cluster and how far value sets widen for roundoff.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Comfortably above double-precision eigendecomposition error at n <= 64,
# far below any scale the scenarios probe.
EPS_ALG = 1e-9
CLUSTER_TOL = 1e-8

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
        points = tuple(float(p) for p in self.points)
        for lo, hi in ivs:
            if lo != lo or hi != hi:  # nan compares false, so it would match nothing
                raise ValueError(f"interval [{lo}, {hi}] has a nan bound")
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] has lower > upper")
        if any(p != p for p in points):
            raise ValueError(f"points {points} include nan")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "points", points)

    def contains(self, x, atol: float = 0.0):
        """Membership of x, widened by `atol` for eigenvalue roundoff; a bool array if x is one."""
        inside = np.zeros(np.shape(x), dtype=bool)
        for lo, hi in self.intervals:
            inside |= (lo - atol <= x) & (x <= hi + atol)
        for p in self.points:
            inside |= abs(x - p) <= atol
        return inside if inside.ndim else bool(inside)

    def __contains__(self, x) -> bool:
        return self.contains(float(x))


@dataclass(frozen=True)
class AlgebraContext:
    """The observable algebra: its dimension and, for a classical one, its phase space.

    Without a phase space it is the whole d x d matrix algebra; with one it is
    the commutative function algebra over that space, with dim equal to the
    number of points.
    """

    dim: int
    phase_space: PhaseSpace | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("algebra dimension must be at least 1")
        if self.phase_space is not None and len(self.phase_space) != self.dim:
            raise ValueError(
                f"dim {self.dim} does not match phase space of {len(self.phase_space)} points"
            )

    @property
    def is_diagonal(self) -> bool:
        return self.phase_space is not None


def full_context(dim: int) -> AlgebraContext:
    return AlgebraContext(dim)


def diagonal_context(phase_space: PhaseSpace) -> AlgebraContext:
    return AlgebraContext(len(phase_space), phase_space)


def require_same_context(a, b):
    """Raise ContextMismatchError unless two values (elements or states)
    live in the same algebra; identity decides before equality does."""
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatchError(
            f"values live in different algebras: {a.context} vs {b.context}"
        )


def measure(rho: np.ndarray) -> np.ndarray:
    """The real diagonal of a matrix or (..., d, d) stack, as a view: a measure."""
    return rho.diagonal(0, -2, -1).real


def measure_matrix(mu: np.ndarray) -> np.ndarray:
    """diag(mu) as a complex matrix, or one per stack row: how diagonal values build theirs."""
    n = mu.shape[-1]
    out = np.zeros(mu.shape + (n,), dtype=complex)
    out.reshape(mu.shape[:-1] + (n * n,))[..., :: n + 1] = mu
    return out


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two stored arrays: pointwise, exact per entry, on
    diagonals; else the matrix product."""
    return a * b if a.ndim == 1 else a @ b


class AlgebraValue:
    """What elements and states share: an immutable d x d complex matrix,
    kept on a diagonal algebra as only its d numbers and built on first read.
    A subclass names the matrix `_DENSE` and the diagonal `_FLAT`, states its
    rule in `_judged`, and `_NOUN` names its input in messages."""

    __slots__ = ("context",)

    def __init__(self, context: AlgebraContext, value):
        self._set(context, self._judged(self._read(context, value)))

    @classmethod
    def _read(cls, context: AlgebraContext, value) -> np.ndarray:
        """The kept form of a complex copy of the input, checked for shape and
        finiteness: the d x d matrix or, on a diagonal algebra, the d numbers,
        or the diagonal of a matrix whose other entries are within EPS_ALG."""
        arr = np.array(value, dtype=complex)
        flat = context.is_diagonal and arr.shape == (context.dim,)
        if not flat and arr.shape != (context.dim, context.dim):
            raise ValueError(
                f"{cls._NOUN} shape {arr.shape} does not match algebra dimension {context.dim}"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"{cls._NOUN} has a non-finite entry")
        if flat or not context.is_diagonal:
            return arr
        kept = arr.diagonal().copy()
        np.fill_diagonal(arr, 0.0)  # the copy's off-diagonal part, in place
        if np.abs(arr).max(initial=0.0) > EPS_ALG:
            raise ValueError(f"diagonal-algebra {cls._NOUN} has off-diagonal entries")
        return kept

    def _set(self, context, kept):
        """Keep `kept`, unvalidated and read-only: the matrix, or on a
        diagonal algebra the diagonal."""
        kept.setflags(write=False)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, self._FLAT if kept.ndim == 1 else self._DENSE, kept)
        return self

    @classmethod
    def _unchecked(cls, context, kept):
        """Internal fast path: wrap, unvalidated and uncopied, a kept form valid
        by construction (e.g. a unitary conjugate of a valid input)."""
        return object.__new__(cls)._set(context, kept)

    def __setattr__(self, name, value):
        raise AttributeError("algebra values are immutable")

    def __getattr__(self, name):  # reached only for the unset matrix of a diagonal value
        if name != self._DENSE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dense = measure_matrix(getattr(self, self._FLAT))
        dense.setflags(write=False)
        object.__setattr__(self, name, dense)
        return dense

    @property
    def _stored(self) -> np.ndarray:
        """The array kept: the diagonal on a diagonal algebra, else the matrix."""
        return getattr(self, self._FLAT if self.context.is_diagonal else self._DENSE)

    @property
    def dim(self) -> int:
        return self.context.dim

    def __repr__(self):
        kind = "diagonal" if self.context.is_diagonal else "full"
        return f"{type(self).__name__}(dim={self.dim}, kind={kind})"


class AlgebraElement(AlgebraValue):
    """An element of the observable algebra: an n x n complex matrix.

    Immutable.  Arithmetic follows numpy conventions: + - for the vector
    space, * / for scalars, @ for the algebra product, .adjoint() for the
    involution.  A diagonal-kind element is built from a diagonal matrix or
    from its n numbers, and keeps only `values`, its complex diagonal, as a
    diagonal state keeps only its measure `mu`.
    """

    __slots__ = ("matrix", "values")
    _DENSE, _FLAT, _NOUN = "matrix", "values", "matrix"
    __init__ = AlgebraValue.__init__  # in this class's own namespace, where tracers wrap it

    def _judged(self, kept):
        return kept

    def diagonal(self) -> np.ndarray:
        return (self.values if self.context.is_diagonal else np.diag(self.matrix)).copy()

    def adjoint(self) -> "AlgebraElement":
        return type(self)(self.context, self._stored.conj().T)

    def is_hermitian(self) -> bool:
        return within(self._stored - self._stored.conj().T, EPS_ALG)

    def _with(self, other, op):
        """`op` of this element's and another's stored arrays, as an element."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        require_same_context(self, other)
        return AlgebraElement(self.context, op(self._stored, other._stored))

    def __add__(self, other):
        return self._with(other, np.add)

    def __sub__(self, other):
        return self._with(other, np.subtract)

    def __neg__(self):
        return AlgebraElement(self.context, -self._stored)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return AlgebraElement(self.context, complex(scalar) * self._stored)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return AlgebraElement(self.context, self._stored / complex(scalar))

    def __matmul__(self, other):
        return self._with(other, _times)


class Observable(AlgebraElement):
    """A Hermitian element, A = A* within EPS_ALG."""

    __slots__ = ()

    def _judged(self, kept):
        herm = kept - kept.conj().T
        if not within(herm, EPS_ALG):
            raise ValueError(f"observable is not Hermitian (defect {operator_norm(herm):.3e})")
        return kept


class Projection(AlgebraElement):
    """An idempotent self-adjoint element, P^2 = P = P* within EPS_ALG."""

    __slots__ = ()

    def _judged(self, kept):
        _judge_projections(kept[None])
        return kept


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

    def projections(self, value_sets) -> np.ndarray:
        """Window i sums, from zero and in order, the eigenprojectors whose eigenvalue lies in
        value set i widened by CLUSTER_TOL (eigensolver roundoff): one stack, checked as one."""
        values = np.array(self.eigenvalues)
        total = np.zeros((len(value_sets), *self.projectors[0]._stored.shape), dtype=complex)
        for window, value_set in zip(total, value_sets):
            for i in np.flatnonzero(value_set.contains(values, CLUSTER_TOL)):
                window += self.projectors[i]._stored
        return _projection_stack(total)

    def projection(self, value_set: ValueSet) -> Projection:
        """The window of one value set (`projections`), as a `Projection`."""
        return Projection._unchecked(self.projectors[0].context, self.projections((value_set,))[0])


def unit(context: AlgebraContext) -> Projection:
    """The algebra unit, 1 - 0."""
    return complement(zero(context))


def zero(context: AlgebraContext) -> Projection:
    shape = (context.dim,) * (1 if context.is_diagonal else 2)
    return Projection._unchecked(context, np.zeros(shape, dtype=complex))


def element(context: AlgebraContext, matrix) -> AlgebraElement:
    return AlgebraElement(context, matrix)


def diagonal_element(context: AlgebraContext, values) -> AlgebraElement:
    """The element diag(values); for a diagonal context this is the function
    on phase space with the given values."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (context.dim,):
        raise ValueError(f"need {context.dim} diagonal values, got shape {vals.shape}")
    return AlgebraElement(context, vals if context.is_diagonal else np.diag(vals))


def complement(p: Projection) -> Projection:
    """1 - P.  Its defects equal P's own, so no revalidation is needed."""
    one = 1.0 if p.context.is_diagonal else np.eye(p.dim, dtype=complex)
    return Projection._unchecked(p.context, one - p._stored)


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value; a (d,) array stands for its diagonal matrix."""
    if matrix.size == 0:
        return 0.0
    return float(np.abs(matrix).max() if matrix.ndim == 1 else np.linalg.norm(matrix, 2))


def within(matrix: np.ndarray, tol: float) -> bool:
    """operator_norm(matrix) <= tol, by `within_each`'s rule."""
    return bool(within_each(matrix[None], tol)[0])


def within_each(stack: np.ndarray, tol: float) -> np.ndarray:
    """operator_norm(m) <= tol for each member m of a stack.  The Frobenius norm bounds it from
    above, so at most tol * (1 - 1e-9) (the margin absorbs roundoff in either norm) a member
    passes without an SVD; operator_norm decides the others."""
    flat = stack.reshape(len(stack), stack[:1].size)
    ok = np.sqrt(np.vecdot(flat, flat).real) <= tol * (1.0 - 1e-9)
    return ok if ok.all() else ok | [operator_norm(m) <= tol for m in stack]


def norms(a: AlgebraElement) -> tuple[float, float]:
    """(operator norm, trace norm) of the element; the singular values of a
    diagonal value are its moduli."""
    m = a._stored
    s = np.abs(m) if m.ndim == 1 else np.linalg.svd(m, compute_uv=False)
    return float(s.max(initial=0.0)), float(s.sum())


def is_projection(a: AlgebraElement) -> bool:
    m = a._stored
    return within(_times(m, m) - m, EPS_ALG) and within(m - m.conj().T, EPS_ALG)


def commutes(a: AlgebraElement, b: AlgebraElement) -> bool:
    require_same_context(a, b)
    return within(_times(a._stored, b._stored) - _times(b._stored, a._stored), EPS_ALG)


def characteristic_projection(context: AlgebraContext, subset: PhaseSubset) -> Projection:
    """The indicator function of a phase-space subset, as a diagonal projection."""
    if not context.is_diagonal:
        raise ValueError("characteristic projections live in the diagonal algebra")
    if subset.space != context.phase_space:
        raise ContextMismatchError("subset belongs to a different phase space")
    return Projection._unchecked(context, subset.indicator().astype(complex))


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


def _adjoints(stack: np.ndarray) -> np.ndarray:
    """P* of each member of a (k, d, d) stack of matrices or (k, d) stack of diagonals."""
    return stack.conj() if stack.ndim == 2 else stack.swapaxes(-1, -2).conj()


def _judge_projections(p: np.ndarray) -> None:
    """`Projection`'s rule for each member of a stack p (see `_adjoints`); a failing one raises."""
    idem, herm = (p * p if p.ndim == 2 else p @ p) - p, p - _adjoints(p)
    for i in np.flatnonzero(~(within_each(idem, EPS_ALG) & within_each(herm, EPS_ALG)))[:1]:
        raise ValueError(f"not a projection (idempotency defect {operator_norm(idem[i]):.3e}, "
                         f"Hermiticity defect {operator_norm(herm[i]):.3e})")


def _projection_stack(stack: np.ndarray) -> np.ndarray:
    """Symmetrize each member of a stack (see `_adjoints`) in place, as (P + P*) / 2, and
    judge it by `Projection`'s rule, in parts of about 256 KiB to bound the temporaries."""
    for part in np.array_split(stack, 1 + stack.nbytes // (1 << 18)):
        part[...] = (part + _adjoints(part)) / 2.0
        _judge_projections(part)
    return stack


def eigendecompose(a: AlgebraElement) -> SpectralData:
    """Spectral decomposition of a Hermitian element.

    Ascending eigenvalues merge into one degenerate cluster wherever a
    consecutive gap is at most CLUSTER_TOL, so merging chains: k eigenvalues
    spaced just under CLUSTER_TOL form one cluster up to (k - 1) *
    CLUSTER_TOL wide, reported at its mean.  Each projector is the
    symmetrized sum of outer products of an orthonormal eigenbasis for its
    cluster, all built into one stack and checked as one.  Diagonal-kind
    elements are decomposed exactly from their diagonal.
    """
    if not a.is_hermitian():
        raise ValueError("eigendecomposition requires a Hermitian element")
    if a.context.is_diagonal:
        order = np.argsort(a.values.real, kind="stable")
        w = a.values.real[order]
    else:
        w, v = np.linalg.eigh((a.matrix + a.matrix.conj().T) / 2.0)
    groups = _cluster(w, CLUSTER_TOL)
    stack = np.zeros((len(groups), *a._stored.shape), dtype=complex)
    for p, grp in zip(stack, groups):
        if a.context.is_diagonal:
            p[order[grp]] = 1.0
        else:
            np.matmul(v[:, grp], v[:, grp].conj().T, out=p)
    return SpectralData(tuple(w[grp].mean() for grp in groups),
                        tuple(Projection._unchecked(a.context, p) for p in _projection_stack(stack)))


def spectral_projection(a: AlgebraElement, value_set: ValueSet) -> Projection:
    """Projection of the yes/no experiment "is the value of A in V?".

    Sum of the eigenprojectors of A whose eigenvalue lies in the value set.
    For diagonal-kind A this is exactly the characteristic projection of the
    preimage of V, with exact membership; for full-kind A the membership
    test is widened by CLUSTER_TOL to absorb eigensolver roundoff.
    """
    ctx = a.context
    if ctx.is_diagonal:
        if not a.is_hermitian():
            raise ValueError("spectral projection requires a Hermitian element")
        return Projection._unchecked(ctx, value_set.contains(a.values.real).astype(complex))
    return eigendecompose(a).projection(value_set)
