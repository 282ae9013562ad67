"""Spectral projections built and checked as one stack, against references.

`scalar_eigendecompose` and `scalar_projection` are the per-cluster and
per-window forms that `eigendecompose` and `SpectralData.projections`
replaced: each projector and window built alone and checked by its own
`Projection`, window membership decided one eigenvalue at a time.  The
stacked forms must give the same eigenvalues and the same projector and
window bits, and `renormalize` the bits of the halving formula it replaced.
"""

import re

import numpy as np
import pytest
from draws import HypothesisDraw
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noncomm.algebra import (CLUSTER_TOL, SIGMA_X, AlgebraElement, Observable, PhaseSpace, Projection,
                             SpectralData, ValueSet, _cluster, diagonal_context, eigendecompose,
                             full_context, spectral_projection)
from noncomm.checks import NumpyDraw
from noncomm.measurement import make_generator
from noncomm.states import renormalize


def scalar_contains(value_set, x, atol=0.0):
    """`ValueSet.contains` as it was, for one number."""
    for lo, hi in value_set.intervals:
        if lo - atol <= x <= hi + atol:
            return True
    return any(abs(x - p) <= atol for p in value_set.points)


def scalar_eigendecompose(a, cluster_tol=CLUSTER_TOL):
    """`eigendecompose` as it was: (eigenvalues, projectors), one cluster at a
    time, each full-algebra projector checked alone by `Projection`."""
    ctx = a.context
    if ctx.is_diagonal:
        vals = a.values.real
        order = np.argsort(vals, kind="stable")
        svals = vals[order]
        eigenvalues, projectors = [], []
        for grp in _cluster(svals, cluster_tol):
            d = np.zeros(ctx.dim, dtype=complex)
            d[order[grp]] = 1.0
            eigenvalues.append(float(svals[grp].mean()))
            projectors.append(Projection._unchecked(ctx, d))
        return eigenvalues, projectors
    w, v = np.linalg.eigh((a.matrix + a.matrix.conj().T) / 2.0)
    eigenvalues, projectors = [], []
    for grp in _cluster(w, cluster_tol):
        vecs = v[:, grp]
        p = vecs @ vecs.conj().T
        p = (p + p.conj().T) / 2.0  # suppress roundoff asymmetry
        eigenvalues.append(float(w[grp].mean()))
        projectors.append(Projection(ctx, p))
    return eigenvalues, projectors


def scalar_projection(eigenvalues, projectors, value_set, cluster_tol=CLUSTER_TOL):
    """`SpectralData.projection` as it was: one window, checked by `Projection`."""
    total = np.zeros_like(projectors[0]._stored)
    for val, proj in zip(eigenvalues, projectors):
        if scalar_contains(value_set, val, atol=cluster_tol):
            total = total + proj._stored
    return Projection(projectors[0].context, (total + total.conj().T) / 2.0)


def halving_renormalize(rho):
    """`renormalize` as it was, halving before it divides by the trace."""
    arr = (rho + rho.swapaxes(-1, -2).conj()) / 2.0
    tr = arr.trace(0, -2, -1).real
    return arr / (tr if arr.ndim == 2 else tr[..., None, None])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_spectra_match(a, value_sets):
    """eigendecompose(a) and its windows for the value sets, stacked and as the references."""
    spec = eigendecompose(a)
    eigenvalues, projectors = scalar_eigendecompose(a)
    assert_same_bits(spec.eigenvalues, eigenvalues)
    assert len(spec.projectors) == len(projectors)
    for got, want in zip(spec.projectors, projectors):
        assert type(got) is Projection and got.context == want.context
        assert_same_bits(got._stored, want._stored)
    windows = [scalar_projection(eigenvalues, projectors, v)._stored for v in value_sets]
    shape = projectors[0]._stored.shape
    assert_same_bits(spec.projections(value_sets), np.array(windows).reshape(-1, *shape))
    for value_set, want in zip(value_sets, windows):
        assert_same_bits(spec.projection(value_set)._stored, want)
        for x in spec.eigenvalues:  # one number in, one bool out
            assert value_set.contains(x, CLUSTER_TOL) is scalar_contains(value_set, x, CLUSTER_TOL)
        if a.context.is_diagonal:  # exact membership, no clustering
            exact = np.array([1.0 if scalar_contains(value_set, x) else 0.0 for x in a.values.real],
                             dtype=complex)
            assert_same_bits(spectral_projection(a, value_set)._stored, exact)


def _ladder(kind):
    levels = np.arange(1, 17).astype(complex)
    if kind == "full":
        return Observable(full_context(16), np.diag(levels))
    return Observable(diagonal_context(PhaseSpace(tuple(f"x{i}" for i in range(16)))), levels)


def _drawn(dim, kind, seed):
    ctx = full_context(dim) if kind == "full" else diagonal_context(
        PhaseSpace(tuple(f"x{i}" for i in range(dim))))
    return NumpyDraw(make_generator(seed)).hermitian(ctx)


# the ladder's 14 windows of 3 levels, with points, near-misses and an empty window
LADDER_SETS = [ValueSet(intervals=((k, k + 2),)) for k in range(1, 15)] + [
    ValueSet(points=(1.0, 16.0 + 0.5 * CLUSTER_TOL)), ValueSet(intervals=((2.0 + 2 * CLUSTER_TOL, 5),)),
    ValueSet(intervals=((0.0, 0.5), (3.0, 4.0)), points=(8.0, 8.0 + 0.9 * CLUSTER_TOL)), ValueSet()]
WIDE_SETS = [ValueSet(intervals=((-1.0, 0.0),)), ValueSet(intervals=((0.0, 9.0),)),
             ValueSet(intervals=((-9.0, 9.0),)), ValueSet(points=(0.0,))]


@pytest.mark.parametrize("a, value_sets", [
    (_ladder("full"), LADDER_SETS),
    (_ladder("diagonal"), LADDER_SETS),
    (Observable(full_context(2), SIGMA_X), [ValueSet(points=(1.0,)), ValueSet(intervals=((-2, 0),))]),
    (Observable(full_context(3), np.eye(3)), [ValueSet(points=(1.0,)), ValueSet()]),
    (Observable(full_context(4), np.diag([1.0, 1.0 + 0.5 * CLUSTER_TOL, 1.0 + CLUSTER_TOL, 3.0])),
     [ValueSet(points=(1.0,)), ValueSet(intervals=((2.0, 3.0),))]),
    *[(_drawn(d, kind, seed), WIDE_SETS) for d in (1, 2, 5) for kind in ("full", "diagonal")
      for seed in (0, 1)],
    (_drawn(48, "full", 3), WIDE_SETS),  # 48 projectors of 36 KiB: several chunks of the check
])
def test_stacked_spectra_match_references_bitwise_on_fixed_draws(a, value_sets):
    assert_spectra_match(a, value_sets)


OFFSETS = st.sampled_from((0.0, 0.1, -0.1)) | st.floats(-2 * CLUSTER_TOL, 2 * CLUSTER_TOL)


@st.composite
def value_sets_near(draw, eigenvalues):
    """Value sets whose ends sit on, just off, or well off drawn eigenvalues."""
    near = lambda: eigenvalues[draw(st.integers(0, len(eigenvalues) - 1))] + draw(OFFSETS)
    intervals = [tuple(sorted((near(), near()))) for _ in range(draw(st.integers(0, 2)))]
    return ValueSet(intervals=intervals, points=[near() for _ in range(draw(st.integers(0, 2)))])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(1, 6), st.sampled_from(("full", "diagonal")))
def test_stacked_spectra_match_references_bitwise_on_hypothesis_spectra(data, dim, kind):
    # eigenvalue gaps of 0, 0.5-2x CLUSTER_TOL or well apart (`draws.GAPS`)
    ctx = full_context(dim) if kind == "full" else diagonal_context(
        PhaseSpace(tuple(f"x{i}" for i in range(dim))))
    a = HypothesisDraw(data).hermitian(ctx)
    eigenvalues = eigendecompose(a).eigenvalues
    value_sets = data.draw(st.lists(value_sets_near(eigenvalues), min_size=1, max_size=4))
    assert_spectra_match(a, value_sets)


# entries of magnitude 0 or 1e-100 to 4: no sum or product of them is subnormal
ENTRIES = st.just(0.0) | st.floats(1e-100, 4.0).flatmap(lambda x: st.sampled_from((x, -x)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_renormalize_matches_the_halving_formula_bitwise(m, d, data):
    parts = [data.draw(hnp.arrays(float, (m, d, d), elements=ENTRIES)) for _ in range(2)]
    stack = parts[0] + 1j * parts[1]
    trace = np.trace(stack + stack.swapaxes(-1, -2).conj(), axis1=-2, axis2=-1).real
    stack[trace == 0] += np.eye(d)  # a trace of zero has no unit-trace form
    assert_same_bits(renormalize(stack), halving_renormalize(stack))
    assert_same_bits(renormalize(stack[0]), halving_renormalize(stack[0]))


def _message(matrix, ctx=None):
    with pytest.raises(ValueError) as raised:
        Projection(ctx or full_context(len(matrix)), matrix)
    return str(raised.value)


def _with_member(ctx, bad):
    """Spectral data whose third member, at eigenvalue 2, is `bad`."""
    diagonals = ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    good = [Projection(ctx, d if ctx.is_diagonal else np.diag(d)) for d in diagonals]
    spec = SpectralData((0.0, 1.0, 2.0), (*good, AlgebraElement._unchecked(ctx, bad)))
    assert_same_bits(spec.projection(ValueSet(points=(0.0, 1.0))).matrix, np.diag([1.0, 0.0, 1.0]) + 0j)
    return spec


@pytest.mark.parametrize("kind, bad", [
    ("full", np.diag([0.5, 1.0, 0.0]).astype(complex)),  # not idempotent
    ("full", np.diag([1.0, 1.0, 0.0]) + 1e-6 * np.eye(3)[::-1]),  # idempotent only to about 1e-6
    ("diagonal", np.array([0.5, 1.0, 0.0], dtype=complex)),
])
def test_a_stack_with_one_non_projection_raises_projections_message(kind, bad):
    ctx = full_context(3) if kind == "full" else diagonal_context(PhaseSpace(("a", "b", "c")))
    spec = _with_member(ctx, bad)
    want = _message((bad + (bad.conj() if bad.ndim == 1 else bad.conj().T)) / 2.0, ctx)
    for value_sets in ([ValueSet(points=(2.0,))], [ValueSet(points=(0.0,)), ValueSet(points=(2.0,))]):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            spec.projections(value_sets)


def test_a_stack_with_a_nan_member_is_refused():
    # `Projection` refuses a nan input as non-finite before its rule; the
    # stacked check, which takes no input, refuses it through the rule's SVD
    spec = _with_member(full_context(3), np.diag([np.nan, 1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        spec.projections([ValueSet(points=(0.0,)), ValueSet(points=(2.0,))])


def test_the_stacked_check_is_projections_rule_past_the_frobenius_bound():
    # 2P - 1 scaled by eps is the idempotence defect of P + eps: its operator
    # norm is eps, its Frobenius norm 4 eps at d = 16, so only the operator
    # norm passes eps = 0.5e-9 and fails eps = 2e-9, for one member and in a stack
    ctx = full_context(16)
    p = np.diag([1.0] * 5 + [0.0] * 11).astype(complex)
    for eps, passes in ((0.5e-9, True), (2e-9, False)):
        near = p + eps * np.eye(16)
        spec = SpectralData((0.0, 1.0), (Projection(ctx, np.eye(16) - p), AlgebraElement(ctx, near)))
        if passes:
            Projection(ctx, near)
            assert_same_bits(spec.projections([ValueSet(points=(1.0,))] * 3), np.array([near] * 3))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(_message(near))}$"):
                spec.projections([ValueSet(points=(1.0,))] * 3)
