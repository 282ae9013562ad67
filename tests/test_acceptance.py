"""Acceptance suite: the quantitative exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or by
running this file directly) and asserts the criterion at its stated
tolerance.
"""

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from noncomm.algebra import (
    PhaseSpace,
    Projection,
    characteristic_projection,
    diagonal_context,
    diagonal_element,
    element,
    full_context,
)
from noncomm.checks import NumpyDraw
from noncomm.cli import main as cli_main
from noncomm.dynamics import Flow, Hamiltonian, heisenberg_evolve, koopman_evolve
from noncomm.measurement import YesNoExperiment, make_generator, perform
from noncomm.states import (
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
from noncomm.scenarios import run_scenario


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_bayes_equivalence():
    # 1000 random diagonal states and subsets (n <= 16): the matrix update
    # restricted to the diagonal equals the Bayes rule within 1e-12; < 5 s
    rng = make_generator(1001)
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 17))
        space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
        ctx = diagonal_context(space)
        mu = rng.random(n)
        mu /= mu.sum()
        members = [i for i in range(n) if rng.random() < 0.5]
        subset = space.subset(members or [int(rng.integers(0, n))])
        mass = mu[sorted(subset.members)].sum()
        state = classical_state(ctx, mu)
        chi = characteristic_projection(ctx, subset)
        if mass <= 1e-9:
            # both routes must refuse to condition
            for fn in (lambda: condition(state, chi),
                       lambda: classical_condition(mu, subset)):
                try:
                    fn()
                    raised = False
                except ZeroProbabilityError:
                    raised = True
                assert raised
            continue
        post = condition(state, chi)
        bayes = classical_condition(mu, subset)
        worst = max(worst, float(np.abs(post.probabilities() - bayes).max()))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, "bayes_equivalence", ok,
            f"max defect {worst:.3e} <= 1e-12, {elapsed:.2f}s < 5s")


def test_criterion_2_projection_postulate_equivalence_uniqueness():
    # 1000 random (rho, P) at n <= 8: the conditioned state matches the
    # functional identity on every matrix unit within 1e-10, and its
    # matrix-unit expectation fingerprint pins it to trace distance 1e-10;
    # < 10 s
    rng = make_generator(1002)
    t0 = time.perf_counter()
    worst_unit = 0.0
    worst_dist = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 9))
        ctx = full_context(n)
        s = NumpyDraw(rng).density(ctx)
        p = NumpyDraw(rng).projection(ctx, int(rng.integers(1, n)))
        prob = yes_probability(s, p)
        if prob <= 1e-6:
            continue
        post = condition(s, p)
        direct = p.matrix @ s.rho @ p.matrix / prob
        # Tr(M E_jk) = M[k, j], so the matrix-unit comparison is elementwise
        worst_unit = max(worst_unit, float(np.abs(post.rho - direct).max()))
        fingerprint = np.array([[post.rho[k, j] for k in range(n)] for j in range(n)])
        rebuilt = State(ctx, fingerprint.T)
        worst_dist = max(worst_dist, state_distance(post, rebuilt))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_unit <= 1e-10 and worst_dist <= 1e-10 and elapsed < 10.0
    _report(2, "projection_postulate_equivalence", ok,
            f"matrix-unit defect {worst_unit:.3e} <= 1e-10, "
            f"uniqueness {worst_dist:.3e} <= 1e-10, {elapsed:.2f}s < 10s")


def test_criterion_3_compatibility_lemma():
    # 1000 random commuting projection pairs: sandwich bounds and
    # zero-preservation within 1e-12; the polarization triple flips an exact
    # zero to one half
    rng = make_generator(1003)
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 9))
        ctx = full_context(n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        m1, m2 = rng.integers(0, 2, (2, n)).astype(float)
        p1 = Projection(ctx, (q * m1) @ q.conj().T)
        p2 = Projection(ctx, (q * m2) @ q.conj().T)
        s = NumpyDraw(rng).density(ctx)
        sandwich = expectation(s, p1 @ p2 @ p1).real
        worst = max(worst, -sandwich, sandwich - expectation(s, p2).real)
        comp = np.eye(n) - p2.matrix
        blocked = comp @ s.rho @ comp
        tr = np.trace(blocked).real
        if tr > 1e-9:
            blocked_state = State(ctx, blocked / tr)
            try:
                post = condition(blocked_state, p1)
                worst = max(worst, yes_probability(post, p2))
            except ZeroProbabilityError:
                pass
        done += 1

    psi0 = pure_state(full_context(2), [1.0, 0.0])
    v45 = np.array([1.0, 1.0]) / math.sqrt(2)
    p45 = Projection(full_context(2), np.outer(v45, v45))
    p90 = Projection(full_context(2), np.diag([0.0, 1.0]))
    before = yes_probability(psi0, p90)
    after = yes_probability(condition(psi0, p45), p90)
    witness = max(before, abs(after - 0.5))

    ok = worst <= 1e-12 and witness <= 1e-12
    _report(3, "compatibility_lemma", ok,
            f"commuting defect {worst:.3e} <= 1e-12, "
            f"polarization witness defect {witness:.3e} <= 1e-12")


def test_criterion_4_automorphism_suite():
    # composition, multiplicativity, *-preservation, identity within 1e-9
    # for unitary conjugation (n <= 8) and permutation lifts (|F| <= 16)
    rng = make_generator(1004)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        ctx = full_context(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ham = Hamiltonian(element(ctx, (m + m.conj().T) / 2))
        a = element(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        b = element(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        t, s = (float(x) for x in rng.standard_normal(2) * 2)
        scale = max(1.0, float(np.linalg.norm(a.matrix, 2)) * float(np.linalg.norm(b.matrix, 2)))
        defects = [
            np.linalg.norm((heisenberg_evolve(a @ b, ham, t)
                            - heisenberg_evolve(a, ham, t) @ heisenberg_evolve(b, ham, t)).matrix, 2),
            np.linalg.norm((heisenberg_evolve(a.adjoint(), ham, t)
                            - heisenberg_evolve(a, ham, t).adjoint()).matrix, 2),
            np.linalg.norm((heisenberg_evolve(a, ham, t + s)
                            - heisenberg_evolve(heisenberg_evolve(a, ham, s), ham, t)).matrix, 2),
            np.linalg.norm((heisenberg_evolve(a, ham, 0.0) - a).matrix, 2),
        ]
        worst = max(worst, max(float(d) for d in defects) / scale)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
        ctx = diagonal_context(space)
        flow = Flow(space, tuple(int(i) for i in rng.permutation(n)))
        g = diagonal_element(ctx, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        h = diagonal_element(ctx, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        t, s = int(rng.integers(-8, 9)), int(rng.integers(-8, 9))
        defects = [
            np.abs((koopman_evolve(g @ h, flow, t)
                    - koopman_evolve(g, flow, t) @ koopman_evolve(h, flow, t)).matrix).max(),
            np.abs((koopman_evolve(g.adjoint(), flow, t)
                    - koopman_evolve(g, flow, t).adjoint()).matrix).max(),
            np.abs((koopman_evolve(g, flow, t + s)
                    - koopman_evolve(koopman_evolve(g, flow, s), flow, t)).matrix).max(),
            np.abs((koopman_evolve(g, flow, 0) - g).matrix).max(),
        ]
        worst = max(worst, max(float(d) for d in defects))
    ok = worst <= 1e-9
    _report(4, "automorphism_suite", ok, f"max law defect {worst:.3e} <= 1e-9")


def test_criterion_5_zeno_closed_form():
    # survival at (omega=pi, T=1, n=100, 10^4 trials) within 4 sigma of the
    # recomputed closed form; monotone approach to 1 over n = 10, 100, 1000;
    # < 30 s
    t0 = time.perf_counter()
    expected = math.cos(math.pi / 200) ** 200  # = [cos^2(pi/200)]^100
    res = run_scenario("zeno_precise", {"omega": math.pi, "T": 1.0, "n": 100},
                       trials=10_000, seed=42)
    gap = abs(res.summary["empirical"] - expected)
    sigma4 = 4 * math.sqrt(expected * (1 - expected) / 10_000)
    curve = [math.cos(math.pi / (2 * n)) ** (2 * n) for n in (10, 100, 1000)]
    monotone = curve[0] < curve[1] < curve[2] < 1.0
    elapsed = time.perf_counter() - t0
    ok = (abs(res.summary["analytic"] - expected) <= 1e-15
          and gap <= sigma4 and monotone and elapsed < 30.0)
    _report(5, "zeno_closed_form", ok,
            f"|{res.summary['empirical']:.5f} - {expected:.5f}| = {gap:.2e} <= "
            f"{sigma4:.2e}, survival({{10,100,1000}}) = "
            f"{', '.join(f'{v:.5f}' for v in curve)} rising, {elapsed:.1f}s < 30s")


def test_criterion_6_classical_pot_boils_quantum_freezes():
    # the watched classical cycle advances every step; the width-1 drift-0
    # quantum watcher freezes the mean level within statistical tolerance
    classical = run_scenario("classical_control", {"scenario": "zeno"},
                             trials=3, seed=13)
    quantum = run_scenario("zeno_coarse",
                           {"window_width": 1, "drift_rate": 0, "coupling": 0.05,
                            "steps": 24},
                           trials=200, seed=13)
    moved = run_scenario("zeno_coarse",
                         {"window_width": 3, "drift_rate": 1, "coupling": 0.05,
                          "steps": 24},
                         trials=200, seed=13)
    ok = (classical.summary["advanced_every_step"]
          and classical.summary["frozen_steps"] == 0
          and quantum.summary["freeze_metric"] < 0.3
          and moved.summary["freeze_metric"] > 0.6)
    _report(6, "classical_pot_boils", ok,
            f"classical frozen steps {classical.summary['frozen_steps']} == 0, "
            f"quantum width-1 freeze metric {quantum.summary['freeze_metric']:.3f} < 0.3, "
            f"coarse window moves {moved.summary['freeze_metric']:.3f} > 0.6")


def test_criterion_7_epr():
    # anticorrelation in every one of 10^4 trials, marginals within 4 sigma
    # of one half, reduced states maximally mixed within 1e-12
    res = run_scenario("epr", trials=10_000, seed=17)
    sigma4 = 4 * math.sqrt(0.25 / 10_000)
    ok = (res.summary["anticorrelated_every_trial"]
          and abs(res.summary["a_yes_rate"] - 0.5) <= sigma4
          and abs(res.summary["b_yes_rate"] - 0.5) <= sigma4
          and res.summary["marginal_mixed_distance_slot0"] <= 1e-12
          and res.summary["marginal_mixed_distance_slot1"] <= 1e-12)
    _report(7, "epr", ok,
            f"anticorrelation rate {res.summary['anticorrelation_rate']:.4f} == 1, "
            f"marginals {res.summary['a_yes_rate']:.4f}/{res.summary['b_yes_rate']:.4f} "
            f"within {sigma4:.4f} of 0.5, "
            f"marginal mix distance <= {max(res.summary['marginal_mixed_distance_slot0'], res.summary['marginal_mixed_distance_slot1']):.1e}")


def test_criterion_8_two_slit_invalidation():
    # the two-point example: interference distribution (1, 0), which-path
    # distribution (1/2, 1/2), an exact zero turning positive
    root = 1 / math.sqrt(2)
    res = run_scenario("two_slit", {"amp_l": [root, root], "amp_r": [root, -root]},
                       trials=1000, seed=19)
    nwp = res.series["analytic_no_which_path"]
    wp = res.series["analytic_which_path"]
    defect = max(abs(nwp[0] - 1.0), abs(nwp[1]), abs(wp[0] - 0.5), abs(wp[1] - 0.5))
    ok = defect <= 1e-12 and res.series["invalidated_point_indices"] == [1]
    _report(8, "two_slit_invalidation", ok,
            f"distribution defect {defect:.3e} <= 1e-12, "
            f"zero-density point {res.series['invalidated_point_indices']} became positive")


def test_criterion_9_sampling_soundness():
    # Born frequencies at p in {0.1, 0.5, 0.9} over 10^5 draws within
    # 4 sqrt(p(1-p)/N); reruns under a fixed seed are byte-identical
    ctx = full_context(2)
    ground = Projection(ctx, np.diag([1.0, 0.0]))
    worst_ratio = 0.0
    for k, p in enumerate((0.1, 0.5, 0.9)):
        state = pure_state(ctx, [math.sqrt(p), math.sqrt(1 - p)])
        exp = YesNoExperiment("ground", ground)
        rng = make_generator(900 + k)
        hits = sum(perform(state, exp, rng)[0].yes for _ in range(100_000))
        band = 4 * math.sqrt(p * (1 - p) / 100_000)
        worst_ratio = max(worst_ratio, abs(hits / 100_000 - p) / band)

    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "a.json"
        b = Path(tmp) / "b.json"
        for path in (a, b):
            code = cli_main(["run", "epr", "--trials", "500", "--seed", "33",
                             "--format", "json", "--snapshots", "--out", str(path)])
            assert code == 0
        identical = a.read_bytes() == b.read_bytes()

    ok = worst_ratio <= 1.0 and identical
    _report(9, "sampling_soundness", ok,
            f"worst frequency deviation {worst_ratio:.2f} of the 4-sigma band, "
            f"rerun bytes identical: {identical}")


if __name__ == "__main__":
    failures = 0
    for fn in (
        test_criterion_1_bayes_equivalence,
        test_criterion_2_projection_postulate_equivalence_uniqueness,
        test_criterion_3_compatibility_lemma,
        test_criterion_4_automorphism_suite,
        test_criterion_5_zeno_closed_form,
        test_criterion_6_classical_pot_boils_quantum_freezes,
        test_criterion_7_epr,
        test_criterion_8_two_slit_invalidation,
        test_criterion_9_sampling_soundness,
    ):
        try:
            fn()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)
