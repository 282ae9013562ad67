"""Runnable invariant suite: the algebraic and statistical laws the engine
promises, each measured with its defect and tolerance.

Each law is stated once, as a body `law(draw) -> defect` that measures one
case on inputs it asks `draw` for, through the methods of `NumpyDraw`.
`@_check(suite, name, stated, statistical, seed, cases)` registers the law
in `SUITES[suite]`, in declaration order, as a `Check` that answers
`(profile) -> CheckResult`.  `noncomm check` feeds a law fixed draws: one
`NumpyDraw` over `make_generator(seed)`, `cases` times, and reports the
largest defect (at least 0; a NaN, or a case that raises, reads as inf).  A
law declared without a seed takes no input and runs once on `draw=None`.
The Tier-1 tests feed every law that is not statistical hypothesis draws
with the same methods, whose values include spectra clustered near
CLUSTER_TOL and masses down to 4 * P_FLOOR, and judge each case at the
strict bound.  So a new law is one decorated body, and no test has to be
written for it.  A sub-law that must hold exactly folds in as an inf defect.

One rule gives every verdict: a check passes when defect <= tolerance.  The
tolerance is the stated bound under the `strict` profile and 100x it under
`default`, as cross-platform headroom, except for a statistical bound (a
4-sigma band), which is the same under both; an exact bound of 0 is 0 under
both.  All randomness is drawn from fixed seeds, so a check run is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra, scenarios
from .algebra import (
    AlgebraContext,
    Observable,
    PhaseSpace,
    Projection,
    ValueSet,
    characteristic_projection,
    commutes,
    diagonal_context,
    eigendecompose,
    full_context,
    operator_norm,
    spectral_projection,
    unit,
)
from .dynamics import Flow, Hamiltonian, heisenberg_evolve, koopman_evolve, schrodinger_state
from .measurement import (
    ScheduleEntry,
    YesNoExperiment,
    born_step,
    compile_questions,
    embed_local,
    make_generator,
    partial_trace,
    run_sequence,
    tensor,
    trial_generator,
)
from .states import (
    State,
    ZeroProbabilityError,
    classical_condition,
    classical_state,
    condition,
    expectation,
    pure_state,
    state_distance,
    yes_probability,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    defect: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.suite}.{self.name}: "
                f"defect={self.defect:.3e} tolerance={self.tolerance:.3e}")


@dataclass(frozen=True)
class Check:
    """A registered law; calling it with a profile runs it on fixed draws."""

    suite: str
    name: str
    stated: float
    law: object  # law(draw) -> defect
    statistical: bool
    seed: int | None
    cases: int

    def tolerance(self, profile: str) -> float:
        return self.stated if self.statistical or profile == "strict" else self.stated * 100.0

    def __call__(self, profile: str) -> CheckResult:
        draw = None if self.seed is None else NumpyDraw(make_generator(self.seed))
        defect = 0.0
        for _ in range(self.cases):
            try:
                case = float(self.law(draw))
            except Exception:  # a case that raises fails the law: show where, once, and stop
                import traceback  # here, as its 1 ms import would slow every `noncomm run`
                traceback.print_exc()
                defect = math.inf
                break
            defect = max(defect, math.inf if math.isnan(case) else case)
        tol = self.tolerance(profile)
        return CheckResult(self.suite, self.name, defect <= tol, defect, tol)


SUITES: dict = {}


def _check(suite: str, name: str, stated: float, statistical: bool = False,
           seed: int | None = None, cases: int = 1):
    """Register `law(draw) -> defect` under `SUITES[suite]` as a `Check`; see
    the module docstring for how it is run and judged."""
    def register(law):
        check = Check(suite, name, stated, law, statistical, seed, cases)
        SUITES.setdefault(suite, []).append(check)
        return check
    return register


class NumpyDraw:
    """The fixed inputs of `noncomm check`, from one numpy generator.  Each
    method is one kind of input a law asks for; a hypothesis-backed draw in
    the tests answers the same methods."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.trials = 0

    def integers(self, lo: int, hi: int, size=None):
        return self.rng.integers(lo, hi, size=size)

    def normal(self, size=None):
        return self.rng.standard_normal(size)

    def random(self, size=None):
        return self.rng.random(size)

    def permutation(self, n: int) -> np.ndarray:
        return self.rng.permutation(n)

    def phase_space(self, n: int) -> PhaseSpace:
        return PhaseSpace(tuple(f"x{i}" for i in range(n)))

    def trial_stream(self, seed: int) -> np.random.Generator:
        """The generator of the next trial of run `seed`."""
        self.trials += 1
        return trial_generator(seed, self.trials - 1)

    def _matrix(self, shape) -> np.ndarray:
        return self.normal(shape) + 1j * self.normal(shape)

    def element(self, ctx: AlgebraContext) -> algebra.AlgebraElement:
        return algebra.element(ctx, self._matrix((ctx.dim,) if ctx.is_diagonal else (ctx.dim, ctx.dim)))

    def hermitian(self, ctx: AlgebraContext) -> Observable:
        m = self.element(ctx)._stored
        return Observable(ctx, (m + m.conj().T) / 2.0)

    def density(self, ctx: AlgebraContext) -> State:
        n = ctx.dim
        if ctx.is_diagonal:
            mu = self.random(n) + 1e-3
            return classical_state(ctx, mu / mu.sum())
        g = self._matrix((n, n))
        rho = g @ g.conj().T
        return State(ctx, rho / np.trace(rho).real)

    def projection(self, ctx: AlgebraContext, rank=None) -> Projection:
        """A projection of full rank `rank` (drawn when None), onto the span
        of the first columns of a random unitary; on a diagonal algebra, the
        indicator of `rank` points in a random order."""
        n = ctx.dim
        if rank is None:
            rank = int(self.integers(0, n + 1))
        if rank == 0:
            return algebra.zero(ctx)
        if rank == n:
            return unit(ctx)
        if ctx.is_diagonal:
            return Projection(ctx, (self.permutation(n) < rank).astype(complex))
        q, _ = np.linalg.qr(self._matrix((n, n)))
        v = q[:, :rank]
        p = v @ v.conj().T
        return Projection(ctx, (p + p.conj().T) / 2.0)

    def commuting_projections(self, ctx: AlgebraContext):
        """Two projections diagonal in one random orthonormal basis."""
        q, _ = np.linalg.qr(self._matrix((ctx.dim, ctx.dim)))
        out = []
        for mask in self.integers(0, 2, size=(2, ctx.dim)).astype(float):
            p = (q * mask) @ q.conj().T
            out.append(Projection(ctx, (p + p.conj().T) / 2.0))
        return out[0], out[1]


# ------------------------------------------------------------ algebra suite


@_check("algebra", "star_algebra_laws", 1e-12, seed=101, cases=50)
def _check_star_algebra_laws(draw):
    n = int(draw.integers(2, 9))
    ctx = full_context(n)
    a, b, c = (draw.element(ctx) for _ in range(3))
    lam = complex(draw.normal(), draw.normal())
    one = unit(ctx)
    defects = [
        operator_norm(((a @ b) @ c - a @ (b @ c)).matrix),
        operator_norm((a @ (b + c) - (a @ b + a @ c)).matrix),
        operator_norm(((a @ b).adjoint() - b.adjoint() @ a.adjoint()).matrix),
        operator_norm((a.adjoint().adjoint() - a).matrix),
        operator_norm(((lam * a).adjoint() - np.conj(lam) * a.adjoint()).matrix),
        operator_norm((one @ a - a).matrix),
        operator_norm((a @ one - a).matrix),
    ]
    scale = max(1.0, operator_norm(a.matrix) * operator_norm(b.matrix)
                * max(1.0, operator_norm(c.matrix)))
    return max(defects) / scale


@_check("algebra", "diagonal_commutativity", 1e-12, seed=102, cases=50)
def _check_diagonal_commutativity(draw):
    ctx = diagonal_context(draw.phase_space(12))
    g, h = draw.element(ctx), draw.element(ctx)
    return operator_norm((g @ h - h @ g).matrix) if commutes(g, h) else math.inf


@_check("algebra", "commuting_projection_products", algebra.EPS_ALG, seed=103, cases=50)
def _check_commuting_projection_products(draw):
    ctx = full_context(int(draw.integers(2, 9)))
    p1, p2 = draw.commuting_projections(ctx)
    worst = 0.0
    for m in ((p1 @ p2).matrix, (p2 - p1 @ p2 @ p1).matrix):
        worst = max(worst, operator_norm(m @ m - m), operator_norm(m - m.conj().T))
    return worst if commutes(p1, p2) else math.inf


@_check("algebra", "spectral_additivity", 1e-10, seed=104, cases=30)
def _check_spectral_additivity(draw):
    ctx = full_context(int(draw.integers(2, 9)))
    a = draw.hermitian(ctx)
    cut = float(draw.normal())
    u = ValueSet(intervals=((-50.0, cut),))
    v = ValueSet(intervals=((cut + 1e-6, 50.0),))
    uv = ValueSet(intervals=u.intervals + v.intervals)
    pu, pv, puv = (spectral_projection(a, s) for s in (u, v, uv))
    return max(operator_norm((pu + pv - puv).matrix), operator_norm((pu @ pv).matrix))


@_check("algebra", "resolution_of_identity", 1e-10, seed=105, cases=50)
def _check_resolution_of_identity(draw):
    # The projectors are orthogonal and sum to 1.  Each cluster is a maximal
    # run of ascending eigenvalues whose neighbour gaps are <= CLUSTER_TOL
    # (anything else reads inf), reported at its mean.  The eigenvalues
    # rebuild A where no eigenvalues merged; where some did, the mean stands
    # for members up to (k - 1) * CLUSTER_TOL apart, and the blocks P A P
    # rebuild A.
    ctx = full_context(int(draw.integers(2, 9)))
    a = draw.hermitian(ctx)
    spec = eigendecompose(a)
    none = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    worst = operator_norm(sum((p.matrix for p in spec.projectors), none) - np.eye(ctx.dim))
    for i, pi in enumerate(spec.projectors):
        for pj in spec.projectors[i + 1:]:
            worst = max(worst, operator_norm((pi @ pj).matrix))
    ranks = [round(np.trace(p.matrix).real) for p in spec.projectors]
    if min(ranks) < 1 or sum(ranks) != ctx.dim:
        return math.inf
    members = np.split(np.linalg.eigh((a.matrix + a.matrix.conj().T) / 2.0)[0], np.cumsum(ranks)[:-1])
    inside = max(float(np.diff(m).max()) if len(m) > 1 else 0.0 for m in members)
    between = min((float(nxt[0] - m[-1]) for m, nxt in zip(members, members[1:])), default=math.inf)
    if inside > algebra.CLUSTER_TOL or between <= algebra.CLUSTER_TOL:
        return math.inf
    worst = max(worst, *(abs(val - m.mean()) for val, m in zip(spec.eigenvalues, members)))
    if max(ranks) == 1:
        rebuilt = sum((val * p.matrix for val, p in zip(spec.eigenvalues, spec.projectors)), none)
    else:
        rebuilt = sum((p.matrix @ a.matrix @ p.matrix for p in spec.projectors), none)
    return max(worst, operator_norm(rebuilt - a.matrix))


@_check("algebra", "diagonal_functional_calculus", 0.0, seed=106, cases=30)
def _check_diagonal_functional_calculus(draw):
    space = draw.phase_space(10)
    ctx = diagonal_context(space)
    vals = draw.integers(-3, 4, size=len(space)).astype(float)
    f = Observable(ctx, vals)
    v = ValueSet(intervals=((-0.5, 2.5),))
    preimage = space.subset([i for i, x in enumerate(vals) if v.contains(x)])
    lhs = spectral_projection(f, v)
    rhs = characteristic_projection(ctx, preimage)
    return float(np.abs(lhs.matrix - rhs.matrix).max())


# ------------------------------------------------------------- states suite


@_check("states", "state_positivity", 1e-10, seed=201, cases=50)
def _check_state_positivity(draw):
    ctx = full_context(int(draw.integers(2, 9)))
    s = draw.density(ctx)
    a = draw.element(ctx)
    return -expectation(s, a.adjoint() @ a).real


@_check("states", "conditioning_idempotence", 1e-10, seed=202, cases=50)
def _check_conditioning_idempotence(draw):
    ctx = full_context(int(draw.integers(2, 9)))
    s = draw.density(ctx)
    p = draw.projection(ctx, rank=int(draw.integers(1, ctx.dim)))
    try:
        once = condition(s, p)
    except ZeroProbabilityError:
        return 0.0
    return max(state_distance(once, condition(once, p)), abs(yes_probability(once, p) - 1.0))


@_check("states", "projection_update_functional_identity", 1e-10, seed=203, cases=100)
def _check_projection_update_functional_identity(draw):
    # Tr(rho' E_jk) must equal Tr(rho P E_jk P)/Tr(rho P) on every matrix
    # unit E_jk; elementwise, that is rho' == P rho P / Tr(rho P).
    ctx = full_context(int(draw.integers(2, 9)))
    s = draw.density(ctx)
    p = draw.projection(ctx, rank=int(draw.integers(1, ctx.dim)))
    prob = yes_probability(s, p)
    if prob <= 1e-6:
        return 0.0
    direct = p.matrix @ s.rho @ p.matrix / prob
    return float(np.abs(condition(s, p).rho - direct).max())


@_check("states", "diagonal_update_matches_bayes", 1e-12, seed=204, cases=100)
def _check_diagonal_update_matches_bayes(draw):
    # `condition` and `classical_condition` against mu(U & S) / mu(S) computed
    # in exact rational arithmetic and rounded once, and against each other
    space = draw.phase_space(12)
    ctx = diagonal_context(space)
    s = draw.density(ctx)
    subset = space.subset(np.flatnonzero(draw.random(len(space)) < 0.5).tolist() or [0])
    chi = characteristic_projection(ctx, subset)
    mu = s.probabilities()
    try:
        post = condition(s, chi).probabilities()
        bayes = classical_condition(mu, subset)
    except ZeroProbabilityError:
        return 0.0
    joint = [Fraction(m) * int(x) for m, x in zip(mu, subset.indicator())]
    exact = np.array([float(j / sum(joint)) for j in joint])
    return max(float(np.abs(post - exact).max()), float(np.abs(bayes - exact).max()),
               float(np.abs(post - bayes).max()))


@_check("states", "diagonal_update_matches_dense_lueders", 1e-12, seed=207, cases=100)
def _check_diagonal_update_matches_dense_lueders(draw):
    # `condition` on a diagonal algebra against P rho P / Tr(rho P) from the matrices
    space = draw.phase_space(12)
    ctx = diagonal_context(space)
    s = draw.density(ctx)
    chi = characteristic_projection(
        ctx, space.subset(np.flatnonzero(draw.random(len(space)) < 0.5).tolist() or [0]))
    try:
        post = condition(s, chi)
    except ZeroProbabilityError:
        return 0.0
    dense = chi.matrix @ s.rho @ chi.matrix / np.trace(s.rho @ chi.matrix)
    return float(np.abs(post.rho - dense).max())


@_check("states", "commuting_compatibility", 1e-12, seed=205, cases=100)
def _check_commuting_compatibility(draw):
    ctx = full_context(int(draw.integers(2, 9)))
    p1, p2 = draw.commuting_projections(ctx)
    s = draw.density(ctx)
    sandwich = expectation(s, p1 @ p2 @ p1).real
    worst = max(-sandwich, sandwich - expectation(s, p2).real)
    # zero-probability preservation: build a state with omega(P2) = 0
    comp = algebra.complement(p2)
    if np.allclose(comp.matrix, 0.0):
        return worst
    seed_state = draw.density(ctx)
    blocked = comp.matrix @ seed_state.rho @ comp.matrix
    tr = float(np.trace(blocked).real)
    if tr <= 1e-9:
        return worst
    try:
        post = condition(State(ctx, blocked / tr), p1)
    except ZeroProbabilityError:
        return worst
    return max(worst, yes_probability(post, p2))


@_check("states", "noncommutative_invalidation_witness", 1e-12)
def _check_invalidation_witness(_):
    ctx = full_context(2)
    psi0 = pure_state(ctx, [1.0, 0.0])
    deg45 = math.pi / 4
    p45 = Projection(ctx, np.outer([math.cos(deg45), math.sin(deg45)],
                                   [math.cos(deg45), math.sin(deg45)]).astype(complex))
    p90 = Projection(ctx, np.diag([0.0, 1.0]).astype(complex))
    before = yes_probability(psi0, p90)
    after = yes_probability(condition(psi0, p45), p90)
    return max(before, abs(after - 0.5))


@_check("states", "fingerprint_uniqueness", 1e-10, seed=206, cases=100)
def _check_fingerprint_uniqueness(draw):
    # if two states agree on all matrix units they are the same state
    ctx = full_context(int(draw.integers(2, 9)))
    s = draw.density(ctx)
    p = draw.projection(ctx, rank=int(draw.integers(1, ctx.dim)))
    if yes_probability(s, p) <= 1e-6:
        return 0.0
    conditioned = condition(s, p)
    # fingerprint[j, k] = Tr(rho' E_jk) = rho'[k, j]
    fingerprint = conditioned.rho.T.copy()
    return state_distance(conditioned, State(ctx, fingerprint.T))


# ----------------------------------------------------------- dynamics suite


@_check("dynamics", "heisenberg_automorphism_laws", 1e-9, seed=301, cases=30)
def _check_heisenberg_automorphism_laws(draw):
    ctx = full_context(int(draw.integers(2, 9)))
    ham = Hamiltonian(draw.hermitian(ctx), hbar=float(draw.random() + 0.5))
    a, b = draw.element(ctx), draw.element(ctx)
    t, s = (float(x) for x in draw.normal(2) * 2.0)
    scale = max(1.0, operator_norm(a.matrix) * max(1.0, operator_norm(b.matrix)))
    tau = lambda x, tt: heisenberg_evolve(x, ham, tt)
    defects = [
        operator_norm((tau(a @ b, t) - tau(a, t) @ tau(b, t)).matrix),
        operator_norm((tau(a.adjoint(), t) - tau(a, t).adjoint()).matrix),
        operator_norm((tau(a, t + s) - tau(tau(a, s), t)).matrix),
        operator_norm((tau(a, 0.0) - a).matrix),
    ]
    return max(defects) / scale


@_check("dynamics", "koopman_automorphism_laws", 1e-9, seed=302, cases=30)
def _check_koopman_automorphism_laws(draw):
    n = int(draw.integers(2, 17))
    space = draw.phase_space(n)
    ctx = diagonal_context(space)
    flow = Flow(space, tuple(int(i) for i in draw.permutation(len(space))))
    g, h = draw.element(ctx), draw.element(ctx)
    t, s = int(draw.integers(-6, 7)), int(draw.integers(-6, 7))
    tau = lambda x, tt: koopman_evolve(x, flow, tt)
    return max(
        operator_norm((tau(g @ h, t) - tau(g, t) @ tau(h, t)).matrix),
        operator_norm((tau(g.adjoint(), t) - tau(g, t).adjoint()).matrix),
        operator_norm((tau(g, t + s) - tau(tau(g, s), t)).matrix),
        operator_norm((tau(g, 0) - g).matrix),
    )


@_check("dynamics", "spectrum_preservation", 1e-9, seed=303, cases=30)
def _check_spectrum_preservation(draw):
    ctx = full_context(int(draw.integers(2, 9)))
    ham = Hamiltonian(draw.hermitian(ctx))
    a = draw.hermitian(ctx)
    t = float(draw.normal() * 3.0)
    before = np.linalg.eigvalsh(a.matrix)
    after = np.linalg.eigvalsh(heisenberg_evolve(a, ham, t).matrix)
    return float(np.abs(before - after).max())


@_check("dynamics", "koopman_multiplicative_exact", 0.0, seed=304, cases=30)
def _check_koopman_multiplicative_exact(draw):
    space = draw.phase_space(9)
    ctx = diagonal_context(space)
    flow = Flow(space, tuple(int(i) for i in draw.permutation(len(space))))
    g, h = draw.element(ctx), draw.element(ctx)
    t = int(draw.integers(-5, 6))
    lhs = koopman_evolve(g @ h, flow, t).matrix
    rhs = (koopman_evolve(g, flow, t) @ koopman_evolve(h, flow, t)).matrix
    return float(np.abs(lhs - rhs).max())


# -------------------------------------------------------- measurement suite


@_check("measurement", "born_rule_sampling", 1.0, statistical=True)
def _check_born_rule_sampling(_):
    ctx = full_context(2)
    draws = 100_000
    worst_ratio = 0.0
    ground = compile_questions(np.diag([1.0, 0.0]).astype(complex)[None])
    for k, p in enumerate((0.1, 0.5, 0.9)):
        psi = [math.sqrt(p), math.sqrt(1.0 - p)]
        state = pure_state(ctx, psi)
        # one step from one row: trial i reads the draw the i-th `perform` makes
        uniforms = make_generator(400 + k).random((draws, 1))
        one = np.zeros(draws, dtype=np.intp)
        hits = int(born_step(state.rho[None], one, ground, 0, uniforms, np.arange(draws))[2].sum())
        band = 4.0 * math.sqrt(p * (1.0 - p) / draws)
        worst_ratio = max(worst_ratio, abs(hits / draws - p) / band)
    return worst_ratio


@_check("measurement", "repetition_consistency", 0.0, seed=401, cases=200)
def _check_repetition_consistency(draw):
    ctx = full_context(int(draw.integers(2, 5)))
    s = draw.density(ctx)
    p = draw.projection(ctx, rank=int(draw.integers(1, ctx.dim)))
    exp = YesNoExperiment("repeat me", p)
    schedule = [ScheduleEntry(0.0, exp), ScheduleEntry(0.0, exp)]
    outs = run_sequence(s, schedule, None, rng=draw.trial_stream(7)).outcomes()
    return float(outs[0] != outs[1])


@_check("measurement", "schedule_duality", 1e-10, seed=402, cases=50)
def _check_schedule_duality(draw):
    # measuring the evolved projection on rho = measuring the original
    # projection on the counter-evolved state
    ctx = full_context(int(draw.integers(2, 9)))
    ham = Hamiltonian(draw.hermitian(ctx))
    s = draw.density(ctx)
    p = draw.projection(ctx, rank=int(draw.integers(1, ctx.dim)))
    t = float(draw.normal() * 2.0)
    lhs = yes_probability(s, heisenberg_evolve(p, ham, t))
    rhs = yes_probability(schrodinger_state(s, ham, t), p)
    return abs(lhs - rhs)


@_check("measurement", "singlet_local_conditioning", 1e-12)
def _check_singlet_local_conditioning(_):
    ctx2 = full_context(2)
    ctx4 = tensor(ctx2, ctx2)
    singlet = pure_state(ctx4, np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))
    up = Projection(ctx2, np.diag([1.0, 0.0]).astype(complex))
    down = Projection(ctx2, np.diag([0.0, 1.0]).astype(complex))
    after = condition(singlet, embed_local(up, 0, (2, 2)))
    defect = abs(yes_probability(after, embed_local(down, 1, (2, 2))) - 1.0)
    mixed = State(ctx2, np.eye(2, dtype=complex) / 2.0)
    defect = max(defect,
                 state_distance(partial_trace(singlet, 0, (2, 2)), mixed),
                 state_distance(partial_trace(singlet, 1, (2, 2)), mixed))
    return defect


# -------------------------------------------------------- scenarios suite


# the 4-sigma band of 10^4 trials around the closed form cos(pi / 2n)^2n
@_check("scenarios", "zeno_analytic_agreement",
        scenarios._ci4(math.cos(math.pi / 200) ** 200, 10_000), statistical=True)
def _check_zeno_analytic_agreement(_):
    res = scenarios.run_scenario("zeno_precise", {"omega": math.pi, "T": 1.0, "n": 100},
                                 trials=10_000, seed=11)
    return abs(res.summary["empirical"] - res.summary["analytic"])


@_check("scenarios", "zeno_monotone_freezing", 0.0)
def _check_zeno_monotone_freezing(_):
    values = [math.cos(math.pi / (2 * n)) ** (2 * n) for n in (10, 100, 1000)]
    ok = values[0] < values[1] < values[2] < 1.0 and values[2] > 0.99
    return 0.0 if ok else 1.0


@_check("scenarios", "polarization_invalidation", 1e-12)
def _check_polarization_invalidation(_):
    res = scenarios.run_scenario("polarization_sequence",
                                 {"angles": [0.0, 45.0, 90.0]}, trials=1, seed=3)
    return max(res.summary["prob_final_initial"],
               abs(res.summary["prob_final_after_intermediate"] - 0.5))


@_check("scenarios", "classical_zero_preservation", 0.0, seed=501, cases=100)
def _check_classical_zero_preservation(draw):
    # a chain of five Bayes updates never moves mass onto a point of mass 0
    space = draw.phase_space(10)
    n = len(space)
    mu = draw.random(n)
    mu[draw.random(n) < 0.4] = 0.0
    if mu.sum() <= 0:
        mu[0] = 1.0
    current = mu = mu / mu.sum()
    zeros = np.flatnonzero(mu == 0.0)
    worst = 0.0
    for _ in range(5):
        members = np.flatnonzero(draw.random(n) < 0.6).tolist()
        subset = space.subset(members or [int(np.argmax(current))])
        try:
            current = classical_condition(current, subset)
        except ZeroProbabilityError:
            continue
        if zeros.size:
            worst = max(worst, float(current[zeros].max()))
    return worst


@_check("scenarios", "epr_anticorrelation_every_trial", 0.0)
def _check_epr_every_trial(_):
    # zero misses holds exactly when every trial anticorrelates
    res = scenarios.run_scenario("epr", trials=2000, seed=5)
    return (1.0 - res.summary["anticorrelation_rate"]) * 2000


def run_checks(suite: str = "all", profile: str = "default") -> list:
    """Run one suite (or all of them); returns CheckResults in order."""
    if profile not in ("default", "strict"):
        raise ValueError(f"unknown tolerance profile {profile!r}")
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; try one of {['all', *SUITES]}")
    return [fn(profile) for name in names for fn in SUITES[name]]
