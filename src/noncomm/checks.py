"""Runnable invariant suite: the algebraic and statistical laws the engine
promises, each measured with its defect and tolerance.

Each check is declared once, by `@_check(suite, name, stated, statistical)`
on a body that takes no arguments and returns the measured defect; the
declaration registers it in `SUITES[suite]` in declaration order.  One rule
gives every verdict: a check passes when defect <= tolerance.  The tolerance
is the stated bound under the `strict` profile and 100x it under `default`,
as cross-platform headroom, except for a statistical bound (a 4-sigma band),
which is the same under both; an exact bound of 0 is 0 under both.  All
randomness is drawn from fixed seeds, so a check run is deterministic.
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


SUITES: dict = {}


def _check(suite: str, name: str, stated: float, statistical: bool = False):
    """Register a check body, which returns its defect, under `SUITES[suite]`
    as `(profile) -> CheckResult`; see the module docstring for the rule."""
    def register(body):
        def run(profile: str) -> CheckResult:
            tol = stated if statistical or profile == "strict" else stated * 100.0
            defect = float(body())
            return CheckResult(suite, name, defect <= tol, defect, tol)
        SUITES.setdefault(suite, []).append(run)
        return run
    return register


# ------------------------------------------------------------ random draws


def _random_element(ctx: AlgebraContext, rng) -> algebra.AlgebraElement:
    shape = (ctx.dim,) if ctx.is_diagonal else (ctx.dim, ctx.dim)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return algebra.element(ctx, m)


def _random_hermitian(ctx: AlgebraContext, rng) -> Observable:
    m = _random_element(ctx, rng)._stored
    return Observable(ctx, (m + m.conj().T) / 2.0)


def _random_density(ctx: AlgebraContext, rng) -> State:
    n = ctx.dim
    if ctx.is_diagonal:
        mu = rng.random(n) + 1e-3
        return classical_state(ctx, mu / mu.sum())
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return State(ctx, rho / np.trace(rho).real)


def _random_projection(ctx: AlgebraContext, rng, rank=None) -> Projection:
    n = ctx.dim
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    if rank == 0:
        return algebra.zero(ctx)
    if rank == n:
        return unit(ctx)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    v = q[:, :rank]
    p = v @ v.conj().T
    return Projection(ctx, (p + p.conj().T) / 2.0)


def _random_commuting_projections(ctx: AlgebraContext, rng):
    """Two projections diagonal in one random orthonormal basis."""
    n = ctx.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    masks = rng.integers(0, 2, size=(2, n)).astype(float)
    out = []
    for mask in masks:
        p = (q * mask) @ q.conj().T
        out.append(Projection(ctx, (p + p.conj().T) / 2.0))
    return out[0], out[1]


# ------------------------------------------------------------ algebra suite


@_check("algebra", "star_algebra_laws", 1e-12)
def _check_star_algebra_laws():
    rng = make_generator(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        ctx = full_context(n)
        a, b, c = (_random_element(ctx, rng) for _ in range(3))
        lam = complex(rng.standard_normal(), rng.standard_normal())
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
        worst = max(worst, max(defects) / scale)
    return worst


@_check("algebra", "diagonal_commutativity", 1e-12)
def _check_diagonal_commutativity():
    rng = make_generator(102)
    space = PhaseSpace(tuple(f"x{i}" for i in range(12)))
    ctx = diagonal_context(space)
    worst = 0.0
    agree = True
    for _ in range(50):
        g, h = _random_element(ctx, rng), _random_element(ctx, rng)
        agree = agree and commutes(g, h)
        worst = max(worst, operator_norm((g @ h - h @ g).matrix))
    return worst if agree else math.inf


@_check("algebra", "commuting_projection_products", algebra.EPS_ALG)
def _check_commuting_projection_products():
    rng = make_generator(103)
    worst = 0.0
    for _ in range(50):
        ctx = full_context(int(rng.integers(2, 9)))
        p1, p2 = _random_commuting_projections(ctx, rng)
        prod = p1 @ p2
        diff = p2 - p1 @ p2 @ p1
        for m in (prod.matrix, diff.matrix):
            worst = max(worst,
                        operator_norm(m @ m - m),
                        operator_norm(m - m.conj().T))
    return worst


@_check("algebra", "spectral_additivity", 1e-10)
def _check_spectral_additivity():
    rng = make_generator(104)
    worst = 0.0
    for _ in range(30):
        ctx = full_context(int(rng.integers(2, 9)))
        a = _random_hermitian(ctx, rng)
        cut = float(rng.standard_normal())
        u = ValueSet(intervals=((-50.0, cut),))
        v = ValueSet(intervals=((cut + 1e-6, 50.0),))
        uv = ValueSet(intervals=u.intervals + v.intervals)
        pu, pv, puv = (spectral_projection(a, s) for s in (u, v, uv))
        worst = max(worst,
                    operator_norm((pu + pv - puv).matrix),
                    operator_norm((pu @ pv).matrix))
    return worst


@_check("algebra", "resolution_of_identity", 1e-10)
def _check_resolution_of_identity():
    rng = make_generator(105)
    worst = 0.0
    for _ in range(50):
        ctx = full_context(int(rng.integers(2, 9)))
        a = _random_hermitian(ctx, rng)
        spec = eigendecompose(a)
        total = sum((p.matrix for p in spec.projectors),
                    np.zeros((ctx.dim, ctx.dim), dtype=complex))
        recon = sum((val * p.matrix for val, p in zip(spec.eigenvalues, spec.projectors)),
                    np.zeros((ctx.dim, ctx.dim), dtype=complex))
        worst = max(worst,
                    operator_norm(total - np.eye(ctx.dim)),
                    operator_norm(recon - a.matrix))
        for i, pi in enumerate(spec.projectors):
            for pj in spec.projectors[i + 1:]:
                worst = max(worst, operator_norm((pi @ pj).matrix))
    return worst


@_check("algebra", "diagonal_functional_calculus", 0.0)
def _check_diagonal_functional_calculus():
    rng = make_generator(106)
    space = PhaseSpace(tuple(f"x{i}" for i in range(10)))
    ctx = diagonal_context(space)
    worst = 0.0
    for _ in range(30):
        vals = rng.integers(-3, 4, size=10).astype(float)
        f = Observable(ctx, vals)
        v = ValueSet(intervals=((-0.5, 2.5),))
        preimage = space.subset([i for i, x in enumerate(vals) if v.contains(x)])
        lhs = spectral_projection(f, v)
        rhs = characteristic_projection(ctx, preimage)
        worst = max(worst, float(np.abs(lhs.matrix - rhs.matrix).max()))
    return worst


# ------------------------------------------------------------- states suite


@_check("states", "state_positivity", 1e-10)
def _check_state_positivity():
    rng = make_generator(201)
    worst = 0.0
    for _ in range(50):
        ctx = full_context(int(rng.integers(2, 9)))
        s = _random_density(ctx, rng)
        a = _random_element(ctx, rng)
        val = expectation(s, a.adjoint() @ a).real
        worst = max(worst, -val)
    return worst


@_check("states", "conditioning_idempotence", 1e-10)
def _check_conditioning_idempotence():
    rng = make_generator(202)
    worst = 0.0
    for _ in range(50):
        ctx = full_context(int(rng.integers(2, 9)))
        s = _random_density(ctx, rng)
        p = _random_projection(ctx, rng, rank=int(rng.integers(1, ctx.dim)))
        try:
            once = condition(s, p)
        except ZeroProbabilityError:
            continue
        twice = condition(once, p)
        worst = max(worst, state_distance(once, twice),
                    abs(yes_probability(once, p) - 1.0))
    return worst


@_check("states", "projection_update_functional_identity", 1e-10)
def _check_projection_update_functional_identity():
    # Tr(rho' E_jk) must equal Tr(rho P E_jk P)/Tr(rho P) on every matrix
    # unit E_jk; elementwise, that is rho' == P rho P / Tr(rho P).
    rng = make_generator(203)
    worst = 0.0
    for _ in range(100):
        ctx = full_context(int(rng.integers(2, 9)))
        s = _random_density(ctx, rng)
        p = _random_projection(ctx, rng, rank=int(rng.integers(1, ctx.dim)))
        prob = yes_probability(s, p)
        if prob <= 1e-6:
            continue
        conditioned = condition(s, p)
        direct = p.matrix @ s.rho @ p.matrix / prob
        worst = max(worst, float(np.abs(conditioned.rho - direct).max()))
    return worst


@_check("states", "diagonal_update_matches_bayes", 1e-12)
def _check_diagonal_update_matches_bayes():
    # `condition` and `classical_condition` against mu(U & S) / mu(S) computed
    # in exact rational arithmetic and rounded once
    rng = make_generator(204)
    space = PhaseSpace(tuple(f"x{i}" for i in range(12)))
    ctx = diagonal_context(space)
    worst = 0.0
    for _ in range(100):
        s = _random_density(ctx, rng)
        members = [i for i in range(12) if rng.random() < 0.5] or [0]
        subset = space.subset(members)
        chi = characteristic_projection(ctx, subset)
        mu = s.probabilities()
        joint = [Fraction(m) * int(x) for m, x in zip(mu, subset.indicator())]
        exact = np.array([float(j / sum(joint)) for j in joint])
        try:
            post = condition(s, chi)
            bayes = classical_condition(mu, subset)
        except ZeroProbabilityError:
            continue
        worst = max(worst, float(np.abs(post.probabilities() - exact).max()),
                    float(np.abs(bayes - exact).max()))
    return worst


@_check("states", "diagonal_update_matches_dense_lueders", 1e-12)
def _check_diagonal_update_matches_dense_lueders():
    # `condition` on a diagonal algebra against P rho P / Tr(rho P) from the matrices
    rng = make_generator(207)
    space = PhaseSpace(tuple(f"x{i}" for i in range(12)))
    ctx = diagonal_context(space)
    worst = 0.0
    for _ in range(100):
        s = _random_density(ctx, rng)
        members = [i for i in range(12) if rng.random() < 0.5] or [0]
        chi = characteristic_projection(ctx, space.subset(members))
        dense = chi.matrix @ s.rho @ chi.matrix / np.trace(s.rho @ chi.matrix)
        worst = max(worst, float(np.abs(condition(s, chi).rho - dense).max()))
    return worst


@_check("states", "commuting_compatibility", 1e-12)
def _check_commuting_compatibility():
    rng = make_generator(205)
    worst = 0.0
    for _ in range(100):
        ctx = full_context(int(rng.integers(2, 9)))
        p1, p2 = _random_commuting_projections(ctx, rng)
        s = _random_density(ctx, rng)
        sandwich = expectation(s, p1 @ p2 @ p1).real
        worst = max(worst, -sandwich, sandwich - expectation(s, p2).real)
        # zero-probability preservation: build a state with omega(P2) = 0
        comp = algebra.complement(p2)
        if np.allclose(comp.matrix, 0.0):
            continue
        seed_state = _random_density(ctx, rng)
        blocked = comp.matrix @ seed_state.rho @ comp.matrix
        tr = float(np.trace(blocked).real)
        if tr <= 1e-9:
            continue
        blocked_state = State(ctx, blocked / tr)
        try:
            post = condition(blocked_state, p1)
        except ZeroProbabilityError:
            continue
        worst = max(worst, yes_probability(post, p2))
    return worst


@_check("states", "noncommutative_invalidation_witness", 1e-12)
def _check_invalidation_witness():
    ctx = full_context(2)
    psi0 = pure_state(ctx, [1.0, 0.0])
    deg45 = math.pi / 4
    p45 = Projection(ctx, np.outer([math.cos(deg45), math.sin(deg45)],
                                   [math.cos(deg45), math.sin(deg45)]).astype(complex))
    p90 = Projection(ctx, np.diag([0.0, 1.0]).astype(complex))
    before = yes_probability(psi0, p90)
    after = yes_probability(condition(psi0, p45), p90)
    return max(before, abs(after - 0.5))


@_check("states", "fingerprint_uniqueness", 1e-10)
def _check_fingerprint_uniqueness():
    # if two states agree on all matrix units they are the same state
    rng = make_generator(206)
    worst = 0.0
    for _ in range(100):
        ctx = full_context(int(rng.integers(2, 9)))
        s = _random_density(ctx, rng)
        p = _random_projection(ctx, rng, rank=int(rng.integers(1, ctx.dim)))
        prob = yes_probability(s, p)
        if prob <= 1e-6:
            continue
        conditioned = condition(s, p)
        # fingerprint[j, k] = Tr(rho' E_jk) = rho'[k, j]
        fingerprint = conditioned.rho.T.copy()
        rebuilt = State(ctx, fingerprint.T)
        worst = max(worst, state_distance(conditioned, rebuilt))
    return worst


# ----------------------------------------------------------- dynamics suite


@_check("dynamics", "heisenberg_automorphism_laws", 1e-9)
def _check_heisenberg_automorphism_laws():
    rng = make_generator(301)
    worst = 0.0
    for _ in range(30):
        ctx = full_context(int(rng.integers(2, 9)))
        ham = Hamiltonian(_random_hermitian(ctx, rng), hbar=float(rng.random() + 0.5))
        a, b = _random_element(ctx, rng), _random_element(ctx, rng)
        t, s = (float(x) for x in rng.standard_normal(2) * 2.0)
        scale = max(1.0, operator_norm(a.matrix) * max(1.0, operator_norm(b.matrix)))
        tau = lambda x, tt: heisenberg_evolve(x, ham, tt)
        defects = [
            operator_norm((tau(a @ b, t) - tau(a, t) @ tau(b, t)).matrix),
            operator_norm((tau(a.adjoint(), t) - tau(a, t).adjoint()).matrix),
            operator_norm((tau(a, t + s) - tau(tau(a, s), t)).matrix),
            operator_norm((tau(a, 0.0) - a).matrix),
        ]
        worst = max(worst, max(defects) / scale)
    return worst


@_check("dynamics", "koopman_automorphism_laws", 1e-9)
def _check_koopman_automorphism_laws():
    rng = make_generator(302)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 17))
        space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
        ctx = diagonal_context(space)
        flow = Flow(space, tuple(int(i) for i in rng.permutation(n)))
        g, h = _random_element(ctx, rng), _random_element(ctx, rng)
        t, s = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        tau = lambda x, tt: koopman_evolve(x, flow, tt)
        defects = [
            operator_norm((tau(g @ h, t) - tau(g, t) @ tau(h, t)).matrix),
            operator_norm((tau(g.adjoint(), t) - tau(g, t).adjoint()).matrix),
            operator_norm((tau(g, t + s) - tau(tau(g, s), t)).matrix),
            operator_norm((tau(g, 0) - g).matrix),
        ]
        worst = max(worst, max(defects))
    return worst


@_check("dynamics", "spectrum_preservation", 1e-9)
def _check_spectrum_preservation():
    rng = make_generator(303)
    worst = 0.0
    for _ in range(30):
        ctx = full_context(int(rng.integers(2, 9)))
        ham = Hamiltonian(_random_hermitian(ctx, rng))
        a = _random_hermitian(ctx, rng)
        t = float(rng.standard_normal() * 3.0)
        before = np.linalg.eigvalsh(a.matrix)
        after = np.linalg.eigvalsh(heisenberg_evolve(a, ham, t).matrix)
        worst = max(worst, float(np.abs(before - after).max()))
    return worst


@_check("dynamics", "koopman_multiplicative_exact", 0.0)
def _check_koopman_multiplicative_exact():
    rng = make_generator(304)
    n = 9
    space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
    ctx = diagonal_context(space)
    worst = 0.0
    for _ in range(30):
        flow = Flow(space, tuple(int(i) for i in rng.permutation(n)))
        g, h = _random_element(ctx, rng), _random_element(ctx, rng)
        t = int(rng.integers(-5, 6))
        lhs = koopman_evolve(g @ h, flow, t).matrix
        rhs = (koopman_evolve(g, flow, t) @ koopman_evolve(h, flow, t)).matrix
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


# -------------------------------------------------------- measurement suite


@_check("measurement", "born_rule_sampling", 1.0, statistical=True)
def _check_born_rule_sampling():
    ctx = full_context(2)
    draws = 100_000
    worst_ratio = 0.0
    ground, = compile_questions(np.diag([1.0, 0.0]).astype(complex)[None])
    for k, p in enumerate((0.1, 0.5, 0.9)):
        psi = [math.sqrt(p), math.sqrt(1.0 - p)]
        state = pure_state(ctx, psi)
        # one step from one row: trial i reads the draw the i-th `perform` makes
        uniforms = make_generator(400 + k).random((draws, 1))
        one = np.zeros(draws, dtype=np.intp)
        hits = int(born_step(state.rho[None], one, ground, uniforms, np.arange(draws))[2].sum())
        band = 4.0 * math.sqrt(p * (1.0 - p) / draws)
        worst_ratio = max(worst_ratio, abs(hits / draws - p) / band)
    return worst_ratio


@_check("measurement", "repetition_consistency", 0.0)
def _check_repetition_consistency():
    rng = make_generator(401)
    disagreements = 0
    for i in range(200):
        ctx = full_context(int(rng.integers(2, 5)))
        s = _random_density(ctx, rng)
        p = _random_projection(ctx, rng, rank=int(rng.integers(1, ctx.dim)))
        exp = YesNoExperiment("repeat me", p)
        schedule = [ScheduleEntry(0.0, exp), ScheduleEntry(0.0, exp)]
        rec = run_sequence(s, schedule, None, rng=trial_generator(7, i))
        outs = rec.outcomes()
        disagreements += outs[0] != outs[1]
    return disagreements


@_check("measurement", "schedule_duality", 1e-10)
def _check_schedule_duality():
    # measuring the evolved projection on rho = measuring the original
    # projection on the counter-evolved state
    rng = make_generator(402)
    worst = 0.0
    for _ in range(50):
        ctx = full_context(int(rng.integers(2, 9)))
        ham = Hamiltonian(_random_hermitian(ctx, rng))
        s = _random_density(ctx, rng)
        p = _random_projection(ctx, rng, rank=int(rng.integers(1, ctx.dim)))
        t = float(rng.standard_normal() * 2.0)
        lhs = yes_probability(s, heisenberg_evolve(p, ham, t))
        rhs = yes_probability(schrodinger_state(s, ham, t), p)
        worst = max(worst, abs(lhs - rhs))
    return worst


@_check("measurement", "singlet_local_conditioning", 1e-12)
def _check_singlet_local_conditioning():
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
def _check_zeno_analytic_agreement():
    res = scenarios.run_scenario("zeno_precise", {"omega": math.pi, "T": 1.0, "n": 100},
                                 trials=10_000, seed=11)
    return abs(res.summary["empirical"] - res.summary["analytic"])


@_check("scenarios", "zeno_monotone_freezing", 0.0)
def _check_zeno_monotone_freezing():
    values = [math.cos(math.pi / (2 * n)) ** (2 * n) for n in (10, 100, 1000)]
    ok = values[0] < values[1] < values[2] < 1.0 and values[2] > 0.99
    return 0.0 if ok else 1.0


@_check("scenarios", "polarization_invalidation", 1e-12)
def _check_polarization_invalidation():
    res = scenarios.run_scenario("polarization_sequence",
                                 {"angles": [0.0, 45.0, 90.0]}, trials=1, seed=3)
    return max(res.summary["prob_final_initial"],
               abs(res.summary["prob_final_after_intermediate"] - 0.5))


@_check("scenarios", "classical_zero_preservation", 0.0)
def _check_classical_zero_preservation():
    rng = make_generator(501)
    worst = 0.0
    space = PhaseSpace(tuple(f"x{i}" for i in range(10)))
    ctx = diagonal_context(space)
    for _ in range(100):
        mu = rng.random(10)
        mu[rng.random(10) < 0.4] = 0.0
        if mu.sum() <= 0:
            mu[0] = 1.0
        mu = mu / mu.sum()
        zeros = np.flatnonzero(mu == 0.0)
        current = mu
        for _ in range(5):
            members = [i for i in range(10) if rng.random() < 0.6]
            subset = space.subset(members or [int(np.argmax(current))])
            try:
                current = classical_condition(current, subset)
            except ZeroProbabilityError:
                continue
            if zeros.size:
                worst = max(worst, float(current[zeros].max()))
    return worst


@_check("scenarios", "epr_anticorrelation_every_trial", 0.0)
def _check_epr_every_trial():
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
