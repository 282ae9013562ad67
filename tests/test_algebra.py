import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncomm.algebra import (
    CLUSTER_TOL,
    EPS_ALG,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ContextMismatchError,
    Observable,
    PhaseSpace,
    Projection,
    SpectralData,
    ValueSet,
    characteristic_projection,
    commutes,
    complement,
    diagonal_context,
    diagonal_element,
    eigendecompose,
    element,
    full_context,
    is_projection,
    make_context,
    norms,
    operator_norm,
    spectral_projection,
    unit,
    within,
)

TOL = 1e-12


def rand_element(ctx, rng):
    n = ctx.dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return element(ctx, m)


def rand_hermitian(ctx, rng):
    m = rand_element(ctx, rng).matrix
    return Observable(ctx, (m + m.conj().T) / 2)


# ---------------------------------------------------------------- contexts


def test_make_context_full_qubit():
    ctx = make_context("full", dim=2)
    assert ctx.dim == 2 and not ctx.is_diagonal


def test_make_context_diagonal_four_points():
    space = PhaseSpace(("x1", "x2", "x3", "x4"))
    ctx = make_context("diagonal", phase_space=space)
    assert ctx.dim == 4 and ctx.is_diagonal


def test_context_validation_errors():
    with pytest.raises(ValueError):
        full_context(0)
    with pytest.raises(ValueError):
        PhaseSpace(())
    with pytest.raises(ValueError):
        PhaseSpace(("a", "a"))
    space = PhaseSpace(("a", "b"))
    with pytest.raises(ValueError):
        make_context("diagonal", dim=3, phase_space=space)  # via AlgebraContext check
    with pytest.raises(ValueError):
        from noncomm.algebra import AlgebraContext

        AlgebraContext(dim=3, kind="diagonal", phase_space=space)


def test_phase_subset_validation():
    space = PhaseSpace(("a", "b", "c"))
    sub = space.subset(["a", 2])
    assert sub.members == frozenset({0, 2})
    with pytest.raises(ValueError):
        space.subset([5])
    # a numpy integer is an index, normalised to int
    sub = space.subset([np.int64(1), "c"])
    assert sub.members == frozenset({1, 2})
    assert all(type(i) is int for i in sub.members)
    assert sub.indicator().tolist() == [0.0, 1.0, 1.0]
    # a bool is neither an index nor a label
    with pytest.raises(ValueError, match="True"):
        space.subset([True])
    with pytest.raises(ValueError, match="unknown point label 'z'"):
        space.subset(["z"])
    # labels are str, so an int member of `subset` is always an index
    with pytest.raises(ValueError, match="labels must be str"):
        PhaseSpace(("b", 0, "a"))


def test_value_set():
    v = ValueSet(intervals=((0.0, 1.0),), points=(3.0,))
    assert 0.5 in v and 3.0 in v and 2.0 not in v
    assert v.contains(1.0 + 1e-9, atol=1e-8)
    with pytest.raises(ValueError):
        ValueSet(intervals=((2.0, 1.0),))


# ------------------------------------------------------------- element ops


def test_unit_law_on_random_elements():
    rng = np.random.default_rng(1)
    ctx = full_context(4)
    one = unit(ctx)
    for _ in range(5):
        a = rand_element(ctx, rng)
        assert operator_norm((one @ a - a).matrix) <= TOL
        assert operator_norm((a @ one - a).matrix) <= TOL


def test_pauli_product_adjoint():
    # sigma_x sigma_z = [[0,-1],[1,0]]; its adjoint is sigma_z sigma_x,
    # which equals the negative of sigma_x sigma_z
    ctx = full_context(2)
    sx, sz = element(ctx, SIGMA_X), element(ctx, SIGMA_Z)
    xz = sx @ sz
    assert np.allclose(xz.matrix, [[0, -1], [1, 0]], atol=TOL)
    assert np.allclose(xz.adjoint().matrix, (sz @ sx).matrix, atol=TOL)
    assert np.allclose(xz.adjoint().matrix, (-(sx @ sz)).matrix, atol=TOL)


def test_diagonal_product_is_pointwise():
    space = PhaseSpace(("a", "b", "c"))
    ctx = diagonal_context(space)
    g = diagonal_element(ctx, [1 + 1j, 2.0, -3.0])
    h = diagonal_element(ctx, [2.0, 0.5, 1j])
    prod = (g @ h).diagonal()
    assert np.array_equal(prod, np.array([1 + 1j, 2.0, -3.0]) * np.array([2.0, 0.5, 1j]))


def test_context_mismatch_raises():
    a = element(full_context(2), np.eye(2))
    b = element(full_context(3), np.eye(3))
    with pytest.raises(ContextMismatchError):
        a @ b
    with pytest.raises(ContextMismatchError):
        a + b


def test_diagonal_constructor_rejects_offdiagonal():
    ctx = diagonal_context(PhaseSpace(("a", "b")))
    with pytest.raises(ValueError):
        element(ctx, [[1.0, 0.5], [0.0, 1.0]])


def test_star_algebra_laws_random():
    rng = np.random.default_rng(2)
    for n in (2, 5, 8):
        ctx = full_context(n)
        a, b, c = (rand_element(ctx, rng) for _ in range(3))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert operator_norm(((a @ b) @ c - a @ (b @ c)).matrix) <= 1e-12 * n * 100
        assert operator_norm((a @ (b + c) - (a @ b + a @ c)).matrix) <= 1e-12 * n * 100
        assert operator_norm(((a @ b).adjoint() - b.adjoint() @ a.adjoint()).matrix) <= TOL
        assert operator_norm((a.adjoint().adjoint() - a).matrix) == 0.0
        assert operator_norm(((lam * a).adjoint() - np.conj(lam) * a.adjoint()).matrix) <= TOL


def test_elements_immutable():
    a = element(full_context(2), np.eye(2))
    with pytest.raises(AttributeError):
        a.matrix = np.zeros((2, 2))
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0


# ------------------------------------------------------------- projections


def test_is_projection_examples():
    ctx = full_context(2)
    assert is_projection(element(ctx, np.diag([1.0, 0.0])))
    # [[.5,.5],[.5,.5]] squared: rows (.25+.25, .25+.25) = itself
    assert is_projection(element(ctx, np.full((2, 2), 0.5)))
    assert not is_projection(element(ctx, np.diag([0.5, 0.0])))


def test_projection_constructor_validates():
    ctx = full_context(2)
    Projection(ctx, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        Projection(ctx, np.diag([0.5, 0.0]))
    with pytest.raises(ValueError):
        Projection(ctx, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_complement_is_projection():
    ctx = full_context(2)
    p = Projection(ctx, np.full((2, 2), 0.5))
    q = complement(p)
    assert is_projection(q)
    assert np.allclose((p + q).matrix, np.eye(2))


def test_commuting_projection_lemma():
    # for commuting P1, P2: P1 P2 and P2 - P1 P2 P1 are projections
    rng = np.random.default_rng(3)
    n = 6
    ctx = full_context(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    for _ in range(10):
        m1, m2 = rng.integers(0, 2, (2, n)).astype(float)
        p1 = Projection(ctx, (q * m1) @ q.conj().T)
        p2 = Projection(ctx, (q * m2) @ q.conj().T)
        assert commutes(p1, p2, tol=1e-9)
        assert is_projection(p1 @ p2, tol=1e-9)
        assert is_projection(p2 - p1 @ p2 @ p1, tol=1e-9)


# -------------------------------------------------------------- commutators


def test_commutes_examples():
    ctx = full_context(2)
    sx, sz = element(ctx, SIGMA_X), element(ctx, SIGMA_Z)
    assert not commutes(sx, sz)
    # commutator is -2i sigma_y
    comm = (sx @ sz - sz @ sx).matrix
    assert np.allclose(comm, -2j * SIGMA_Y, atol=TOL)
    assert commutes(sx, sx)
    space = PhaseSpace(("a", "b", "c"))
    dctx = diagonal_context(space)
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = diagonal_element(dctx, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        h = diagonal_element(dctx, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert commutes(g, h)


# ------------------------------------------------- characteristic projection


def test_characteristic_projection_examples():
    space = PhaseSpace(("x1", "x2", "x3", "x4"))
    ctx = diagonal_context(space)
    assert np.array_equal(characteristic_projection(ctx, space.subset([])).matrix,
                          np.zeros((4, 4)))
    assert np.array_equal(characteristic_projection(ctx, space.subset(range(4))).matrix,
                          np.eye(4))
    chi = characteristic_projection(ctx, space.subset([0, 1]))
    assert np.array_equal(chi.diagonal().real, [1, 1, 0, 0])


def test_characteristic_projection_errors():
    space = PhaseSpace(("x1", "x2"))
    ctx = diagonal_context(space)
    with pytest.raises(ValueError):
        characteristic_projection(full_context(2), space.subset([0]))
    other = PhaseSpace(("y1", "y2"))
    with pytest.raises(ContextMismatchError):
        characteristic_projection(ctx, other.subset([0]))


# ------------------------------------------------------------ spectral data


def test_eigendecompose_diagonal_with_degeneracy():
    space = PhaseSpace(("a", "b", "c"))
    ctx = diagonal_context(space)
    f = Observable(ctx, np.diag([1.0, 2.0, 2.0]).astype(complex))
    spec = eigendecompose(f)
    assert spec.eigenvalues == (1.0, 2.0)
    assert np.array_equal(spec.projectors[0].diagonal().real, [1, 0, 0])
    assert np.array_equal(spec.projectors[1].diagonal().real, [0, 1, 1])


def test_eigendecompose_sigma_x():
    ctx = full_context(2)
    spec = eigendecompose(Observable(ctx, SIGMA_X))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    assert np.allclose(spec.projectors[0].matrix, minus, atol=1e-12)
    assert np.allclose(spec.projectors[1].matrix, plus, atol=1e-12)


def test_eigendecompose_identity():
    ctx = full_context(3)
    spec = eigendecompose(Observable(ctx, np.eye(3, dtype=complex)))
    assert spec.eigenvalues == (1.0,)
    assert np.allclose(spec.projectors[0].matrix, np.eye(3))


def test_eigendecompose_rejects_non_hermitian():
    ctx = full_context(2)
    with pytest.raises(ValueError):
        eigendecompose(element(ctx, [[0.0, 1.0], [0.0, 0.0]]))


def test_eigendecompose_random_resolution_of_identity():
    rng = np.random.default_rng(5)
    for n in (2, 4, 8):
        ctx = full_context(n)
        a = rand_hermitian(ctx, rng)
        spec = eigendecompose(a)
        total = sum(p.matrix for p in spec.projectors)
        recon = sum(v * p.matrix for v, p in zip(spec.eigenvalues, spec.projectors))
        assert operator_norm(total - np.eye(n)) <= 1e-10
        assert operator_norm(recon - a.matrix) <= 1e-10
        for i, pi in enumerate(spec.projectors):
            for pj in spec.projectors[i + 1:]:
                assert operator_norm((pi @ pj).matrix) <= 1e-10


def test_eigendecompose_clusters_near_degenerate_pairs():
    ctx = full_context(2)
    a = Observable(ctx, np.diag([1.0, 1.0 + 1e-12]).astype(complex))
    spec = eigendecompose(a, cluster_tol=1e-8)
    assert len(spec.eigenvalues) == 1
    assert np.allclose(spec.projectors[0].matrix, np.eye(2))


def test_eigendecompose_chains_close_eigenvalues_into_one_cluster():
    # five eigenvalues 0.9 * CLUSTER_TOL apart: every consecutive gap merges,
    # so the cluster is 3.6 * CLUSTER_TOL wide and reported at its mean
    rng = np.random.default_rng(41)
    chain = 0.5 + 0.9 * CLUSTER_TOL * np.arange(5)
    eig = np.concatenate([[-1.0], chain, [2.0, 3.0]])
    n = len(eig)
    ctx = full_context(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = Observable(ctx, (q * eig) @ q.conj().T)
    spec = eigendecompose(a)
    assert len(spec.eigenvalues) == 4
    assert abs(spec.eigenvalues[1] - chain.mean()) <= 1e-14
    ranks = [round(np.trace(p.matrix).real) for p in spec.projectors]
    assert ranks == [1, 5, 1, 1]
    total = sum(p.matrix for p in spec.projectors)
    assert operator_norm(total - np.eye(n)) <= 1e-10
    for i, pi in enumerate(spec.projectors):
        for pj in spec.projectors[i + 1:]:
            assert operator_norm((pi @ pj).matrix) <= 1e-10
    # A is block diagonal in the clusters, so the blocks rebuild it; the
    # eigenvalues rebuild it up to the chain's half-width, at its mean
    blocks = sum(p.matrix @ a.matrix @ p.matrix for p in spec.projectors)
    assert operator_norm(blocks - a.matrix) <= 1e-10
    recon = sum(v * p.matrix for v, p in zip(spec.eigenvalues, spec.projectors))
    assert operator_norm(recon - a.matrix) <= 2 * 0.9 * CLUSTER_TOL + 1e-10
    # membership is the mean's, widened by CLUSTER_TOL: the whole chain or
    # none of it, so its lowest eigenvalue alone (1.8 tolerances off) misses
    value_sets = (ValueSet(points=(chain.mean(),)), ValueSet(points=(chain[0],)),
                  ValueSet(intervals=((chain[0], chain[1]),)),
                  ValueSet(intervals=((chain[0], chain[-1]),)), ValueSet(intervals=((0.0, 2.5),)))
    picked = [spec.projection(v) for v in value_sets]
    assert [round(np.trace(p.matrix).real) for p in picked] == [5, 0, 5, 5, 6]
    for v, p in zip(value_sets, picked):
        assert np.array_equal(p.matrix, spectral_projection(a, v).matrix)
    # the diagonal kind chains the same way, with no eigensolver
    space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
    diag = eigendecompose(Observable(diagonal_context(space), np.diag(eig).astype(complex)))
    assert len(diag.eigenvalues) == 4 and diag.eigenvalues[1] == chain.mean()


# ------------------------------------------------------- spectral projection


def test_spectral_projection_examples():
    ctx3 = full_context(3)
    a = Observable(ctx3, np.diag([1.0, 2.0, 2.0]).astype(complex))
    p = spectral_projection(a, ValueSet(points=(2.0,)))
    assert np.allclose(p.matrix, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    ctx2 = full_context(2)
    sx = Observable(ctx2, SIGMA_X)
    p = spectral_projection(sx, ValueSet(intervals=((0.5, 1.5),)))
    assert np.allclose(p.matrix, np.full((2, 2), 0.5), atol=1e-12)

    p = spectral_projection(sx, ValueSet(intervals=((5.0, 6.0),)))
    assert np.allclose(p.matrix, np.zeros((2, 2)))


def test_spectral_projection_additivity_disjoint():
    rng = np.random.default_rng(6)
    ctx = full_context(6)
    a = rand_hermitian(ctx, rng)
    u = ValueSet(intervals=((-100.0, 0.0),))
    v = ValueSet(intervals=((1e-6, 100.0),))
    uv = ValueSet(intervals=u.intervals + v.intervals)
    pu, pv, puv = (spectral_projection(a, s) for s in (u, v, uv))
    assert operator_norm((pu + pv - puv).matrix) <= 1e-10
    assert operator_norm((pu @ pv).matrix) <= 1e-10


def test_spectral_projection_diagonal_matches_characteristic_exactly():
    space = PhaseSpace(tuple(f"x{i}" for i in range(6)))
    ctx = diagonal_context(space)
    vals = [3.0, -1.0, 0.5, 3.0, 2.0, -2.5]
    f = Observable(ctx, np.diag(vals).astype(complex))
    v = ValueSet(intervals=((0.0, 3.0),))
    preimage = space.subset([i for i, x in enumerate(vals) if v.contains(x)])
    lhs = spectral_projection(f, v).matrix
    rhs = characteristic_projection(ctx, preimage).matrix
    assert np.array_equal(lhs, rhs)


# ------------------------------------------------------------------- norms


def test_norms_examples():
    ctx3 = full_context(3)
    assert norms(element(ctx3, np.eye(3))) == (1.0, 3.0)
    ctx2 = full_context(2)
    op, tr = norms(element(ctx2, np.diag([3.0, -4.0])))
    assert abs(op - 4.0) <= TOL and abs(tr - 7.0) <= TOL


def test_norms_rank_one_pure():
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi /= np.linalg.norm(psi)
    a = element(full_context(5), np.outer(psi, psi.conj()))
    op, tr = norms(a)
    assert abs(op - 1.0) <= 1e-10 and abs(tr - 1.0) <= 1e-10


def test_spectral_data_validation():
    ctx = full_context(2)
    with pytest.raises(ValueError):
        SpectralData((1.0,), (unit(ctx), unit(ctx)))


def test_spectral_data_projection_is_spectral_projection_bitwise():
    # eigenvalue pairs split by less than, about, and more than CLUSTER_TOL,
    # so windows must agree on how near-degenerate clusters are merged
    rng = np.random.default_rng(31)
    for n in (3, 5, 8):
        ctx = full_context(n)
        for _ in range(6):
            eig = np.sort(rng.uniform(-3.0, 3.0, n))
            for k in range(1, n, 2):
                eig[k] = eig[k - 1] + rng.choice([1e-11, 0.5 * CLUSTER_TOL, 2 * CLUSTER_TOL])
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(g)
            a = Observable(ctx, (q * eig) @ q.conj().T)
            spec = eigendecompose(a)
            lo, hi = np.sort(rng.uniform(-3.5, 3.5, 2))
            value_sets = (ValueSet(intervals=((lo, hi),)), ValueSet(points=(eig[0], eig[-1])),
                          ValueSet(intervals=((eig[1], eig[-2]),)), ValueSet())
            for v in value_sets:
                assert np.array_equal(spec.projection(v).matrix,
                                      spectral_projection(a, v).matrix)
            coarse = eigendecompose(a, 1e-6)
            assert np.array_equal(coarse.projection(value_sets[0], 1e-6).matrix,
                                  spectral_projection(a, value_sets[0], 1e-6).matrix)


# ------------------------------------------------------------------ within


def _unit_rank_one(n, rng):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.outer(u, v.conj()) / (np.linalg.norm(u) * np.linalg.norm(v))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([EPS_ALG, 1e-12, 1.0, 3.7e5]),
       rel=st.one_of(st.sampled_from([-1e-12, 0.0, 1e-12, -1e-9]),
                     st.floats(-3e-9, 3e-9)))
def test_within_matches_operator_norm_on_rank_one_edges(n, seed, tol, rel):
    # rank 1: the two norms coincide, so the Frobenius shortcut is decided
    # right at the edge of its margin
    m = tol * (1.0 + rel) * _unit_rank_one(n, np.random.default_rng(seed))
    assert within(m, tol) == (operator_norm(m) <= tol)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       rel=st.sampled_from([-1e-6, -1e-12, 0.0, 1e-12, 1e-6]))
def test_within_flat_spectrum_needs_the_svd(n, seed, rel):
    # c times a unitary: every singular value is c, so for c near tol the
    # Frobenius norm c sqrt(n) exceeds tol and only the SVD can decide
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = EPS_ALG * (1.0 + rel) * q
    assert np.linalg.norm(m) > EPS_ALG
    assert within(m, EPS_ALG) == (operator_norm(m) <= EPS_ALG)
    if abs(rel) > 1e-9:
        assert within(m, EPS_ALG) == (rel < 0)


def test_within_empty_matrix():
    empty = np.zeros((0, 0), dtype=complex)
    for tol in (0.0, EPS_ALG):
        assert within(empty, tol) and operator_norm(empty) <= tol


def test_rejection_messages_report_operator_norm_defects():
    ctx = full_context(2)
    # each Hermiticity defect below is flat (singular values 1e-3, 1e-3), so
    # its Frobenius norm (1.414e-03) differs from the reported operator norm
    cases = (
        (Observable, [[0.0, 1e-3], [0.0, 0.0]], "observable is not Hermitian (defect 1.000e-03)"),
        (Observable, [[1.0, 2e-9j], [0.0, 1.0]], "observable is not Hermitian (defect 2.000e-09)"),
        (Projection, [[1.0, 1e-3], [0.0, 0.0]],
         "not a projection (idempotency defect 0.000e+00, Hermiticity defect 1.000e-03)"),
        (Projection, [[0.5, 0.0], [0.0, 0.0]],
         "not a projection (idempotency defect 2.500e-01, Hermiticity defect 0.000e+00)"),
    )
    for cls, m, message in cases:
        with pytest.raises(ValueError) as err:
            cls(ctx, np.array(m, dtype=complex))
        assert str(err.value) == message
    # Frobenius defect 1.27e-9 > EPS_ALG, operator-norm defect 9e-10: accepted
    Observable(ctx, np.array([[0.0, 9e-10], [0.0, 0.0]], dtype=complex))
