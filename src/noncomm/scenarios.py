"""Executable measurement scenarios.

Each scenario wires the algebra, state, dynamics, and measurement machinery
into one quantitative experiment: sequential polarizers, precise and
coarse-window Zeno runs, an entangled-pair (EPR) experiment, a two-slit
which-path comparison, the three-observer P,Q,P sequence, and classical
control runs of the Zeno and EPR setups on the commutative algebra.

A scenario takes a parameter mapping, a trial count, and a 64-bit seed, and
returns a ScenarioResult: scalar summary statistics, sequence-valued series,
and (optionally) per-trial outcome records.  Trial i draws from the Philox
stream `trial_generator(seed, i)`, identical to the root stream jumped i
times, so results are reproducible and independent of how trials are
scheduled.  Polarization, precise Zeno, three observers and both EPR runs
advance all trials as one stack through `run_batch`, and two-slit asks its
stop-at-first-yes chains as masked `born_step`s.  `zeno_coarse` and the
classical Zeno control step trial by trial with `perform`, because what
they ask next depends on the state the trial reached.  The classical Zeno
run builds its point questions once and asks the evolved ones as these
points relabelled by the flow, never as evolved matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    SIGMA_X,
    Observable,
    PhaseSpace,
    Projection,
    ValueSet,
    characteristic_projection,
    diagonal_context,
    eigendecompose,
    full_context,
)
from .dynamics import Flow, Hamiltonian, propagator
from .measurement import (
    ScheduleEntry,
    YesNoExperiment,
    born_step,
    compile_questions,
    embed_local,
    entry_dict,
    partial_trace,
    perform,
    run_batch,
    run_chunked,
    tensor,
    trial_generator,
    trial_streams,
)
from .states import (
    State,
    ZeroProbabilityError,
    classical_state,
    condition,
    expectation,
    pure_state,
    state_distance,
    yes_probability,
)


class UnknownScenarioError(ValueError):
    """Requested scenario name is not in the registry."""


class ParameterError(ValueError):
    """Scenario parameters fail validation against the schema."""


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # number | integer | string | number_list | complex_list
    default: object
    description: str
    choices: tuple = None

    def schema(self) -> dict:
        out = {"name": self.name, "type": self.kind,
               "default": _echo(self.default), "description": self.description}
        if self.choices:
            out["choices"] = list(self.choices)
        return out


@dataclass
class ScenarioResult:
    scenario: str
    parameters: dict
    seed: int
    trials: int
    summary: dict
    series: dict = field(default_factory=dict)
    trial_records: list | None = None

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "parameters": self.parameters,
            "seed": self.seed,
            "trials": self.trials,
            "summary": self.summary,
            "series": self.series,
        }
        if self.trial_records is not None:
            out["trial_records"] = self.trial_records
        return out


def _echo(value):
    """Canonical JSON-safe form of a parameter value."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_echo(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _coerce(spec: ParamSpec, value):
    try:
        if spec.kind == "number":
            out = float(value)
        elif spec.kind == "integer":
            out = int(value)
            if out != float(value):
                raise ParameterError(f"{spec.name} must be an integer, got {value!r}")
        elif spec.kind == "string":
            out = str(value)
        elif spec.kind == "number_list":
            out = [float(v) for v in value]
        elif spec.kind == "complex_list":
            out = [_as_complex(v) for v in value]
        else:
            raise ParameterError(f"unknown parameter kind {spec.kind!r}")
    except ParameterError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad value for {spec.name}: {value!r} ({exc})") from exc
    numbers = [] if spec.kind == "string" else out if isinstance(out, list) else [out]
    if not all(map(cmath.isfinite, numbers)):  # a complex entry is finite in both parts
        raise ParameterError(f"{spec.name} must be finite, got {value!r}")
    if spec.choices and out not in spec.choices:
        raise ParameterError(f"{spec.name} must be one of {spec.choices}, got {out!r}")
    return out


def _as_complex(v):
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"complex entries are numbers or [re, im] pairs, got {v!r}")
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def _ci4(p: float, n: int) -> float:
    """Half-width of the 4-sigma binomial band around probability p."""
    return 4.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _qubit():
    return full_context(2)


def _ket_projector(ctx, v) -> Projection:
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return Projection(ctx, np.outer(v, v.conj()))


def _batch_records(record_trials, key, values, batch, schedule):
    """Per-trial records of a batched run: the trial index, one verdict
    under `key`, then the trial's measurement record."""
    if not record_trials:
        return None
    return [{"trial": i, key: value, **doc}
            for i, (value, doc) in enumerate(zip(values, batch.to_dicts(schedule)))]


# ---------------------------------------------------------------- scenarios


def _run_polarization(params, trials, seed, record_trials):
    angles = params["angles"]
    if len(angles) < 2:
        raise ParameterError("need at least two polarizer angles")
    ctx = _qubit()
    thetas = np.deg2rad(angles)
    initial = pure_state(ctx, [math.cos(thetas[0]), math.sin(thetas[0])])
    experiments = [
        YesNoExperiment(f"polarizer {angles[k]:g} deg",
                        _ket_projector(ctx, [math.cos(t), math.sin(t)]))
        for k, t in enumerate(thetas)
    ]
    schedule = [ScheduleEntry(float(k), experiments[k]) for k in range(1, len(angles))]

    analytic = math.prod(math.cos(t2 - t1) ** 2 for t1, t2 in zip(thetas, thetas[1:]))

    # Invalidation witness: probability of passing the final polarizer on the
    # initial state versus after conditioning on "yes" at every intermediate
    # angle.  A zero turning positive is information being invalidated.
    last = experiments[-1].projection
    prob_final_initial = yes_probability(initial, last)
    witness_state = initial
    try:
        for exp in experiments[1:-1]:
            witness_state = condition(witness_state, exp.projection)
        prob_final_after = yes_probability(witness_state, last)
    except ZeroProbabilityError:
        prob_final_after = None

    batch = run_batch(initial, schedule, trial_streams(seed, trials))
    pass_all = batch.yes.all(axis=1).tolist()
    records = _batch_records(record_trials, "pass_all", pass_all, batch, schedule)

    empirical = sum(pass_all) / trials
    summary = {
        "num_angles": len(angles),
        "analytic_pass_all": analytic,
        "empirical_pass_all": empirical,
        "ci_halfwidth": _ci4(analytic, trials),
        "prob_final_initial": prob_final_initial,
        "prob_final_after_intermediate": prob_final_after,
        "invalidated": bool(
            prob_final_after is not None
            and prob_final_initial <= 1e-12
            and prob_final_after > 1e-12
        ),
    }
    series = {"angles_deg": list(angles)}
    return ScenarioResult("polarization_sequence", {"angles": _echo(angles)},
                          seed, trials, summary, series, records)


def _run_zeno_precise(params, trials, seed, record_trials):
    omega, t_total, n = params["omega"], params["T"], params["n"]
    if n < 1:
        raise ParameterError("n must be at least 1")
    ctx = _qubit()
    ham = Hamiltonian(Observable(ctx, (omega / 2.0) * SIGMA_X))
    survive = Projection(ctx, np.diag([1.0, 0.0]).astype(complex))
    initial = pure_state(ctx, [1.0, 0.0])
    schedule = [
        ScheduleEntry(t_total * (k + 1) / n, YesNoExperiment("still in the initial level", survive))
        for k in range(n)
    ]
    analytic = math.cos(omega * t_total / (2.0 * n)) ** (2 * n)

    batch = run_batch(initial, schedule, trial_streams(seed, trials), ham)
    survived_rows = batch.yes.all(axis=1).tolist()
    survived = sum(survived_rows)
    records = _batch_records(record_trials, "survived", survived_rows, batch, schedule)

    echo = {"omega": omega, "T": t_total, "n": n}
    summary = {
        **echo,
        "analytic": analytic,
        "empirical": survived / trials,
        "ci_halfwidth": _ci4(analytic, trials),
        "survived_count": survived,
    }
    return ScenarioResult("zeno_precise", echo, seed, trials, summary, {}, records)


def _run_zeno_coarse(params, trials, seed, record_trials):
    echo = {k: params[k] for k in ("num_levels", "window_width", "drift_rate", "steps",
                                   "coupling", "dt", "initial_level")}
    levels, width, drift, steps, coupling, dt, start = echo.values()
    if levels < 2:
        raise ParameterError("need at least two levels")
    if not 1 <= width <= levels:
        raise ParameterError("window width must be between 1 and the number of levels")
    if not 1 <= start <= levels:
        raise ParameterError("initial level out of range")
    if drift < 0:
        raise ParameterError("drift rate must be non-negative")
    if steps < 0:
        raise ParameterError("steps must be non-negative")

    ctx = full_context(levels)
    level_obs = Observable(ctx, np.diag(np.arange(1, levels + 1)).astype(complex))
    hop = np.zeros((levels, levels), dtype=complex)
    for i in range(levels - 1):
        hop[i, i + 1] = hop[i + 1, i] = coupling
    ham = Hamiltonian(Observable(ctx, hop))

    # window of `width` consecutive eigenvalues; even widths extend upward;
    # near the spectrum edge the window shifts rather than shrinks.  Windows
    # share one eigendecomposition and are built on first use, keyed by lo.
    below = (width - 1) // 2
    spectrum = eigendecompose(level_obs)
    windows = {}

    def window(center):
        lo = min(max(center - below, 1), levels - width + 1)
        if lo not in windows:
            hi = lo + width - 1
            windows[lo] = YesNoExperiment(f"level within [{lo},{hi}]",
                                          spectrum.projection(ValueSet(intervals=((lo, hi),))))
        return windows[lo]

    # `schrodinger_state`'s step rho -> U(-dt) rho U(-dt)*, with U built once
    u = propagator(ham, -dt).matrix
    u_adj = u.conj().T
    trajectories = np.zeros((trials, steps + 1))
    records = [] if record_trials else None
    for i in range(trials):
        rng = trial_generator(seed, i)
        state = pure_state(ctx, np.eye(levels)[start - 1])
        center = start
        levels_seen = [float(expectation(state, level_obs).real)]
        entries = []
        for step in range(1, steps + 1):
            state = State._renormalized(ctx, u @ state.rho @ u_adj)
            target = int(round(expectation(state, level_obs).real))
            center += min(max(target - center, -drift), drift)
            center = min(max(center, 1), levels)
            experiment = window(center)
            outcome, state = perform(state, experiment, rng)
            a_now = float(expectation(state, level_obs).real)
            levels_seen.append(a_now)
            if records is not None:
                entries.append({**entry_dict(step, experiment.label, outcome.yes,
                                             outcome.probability), "mean_level": a_now})
        trajectories[i] = levels_seen
        if records is not None:
            records.append({"trial": i, "entries": entries})

    mean_traj = trajectories.mean(axis=0)
    summary = {
        **echo,
        "freeze_metric": float(np.abs(np.diff(mean_traj)).sum()),
        "net_drift": float(mean_traj[-1] - mean_traj[0]),
        "max_mean_excursion": float(np.abs(mean_traj - mean_traj[0]).max()),
    }
    series = {"mean_level_trajectory": [float(x) for x in mean_traj]}
    return ScenarioResult("zeno_coarse", echo, seed, trials, summary, series, records)


def _run_epr(params, trials, seed, record_trials):
    which = params["state"]
    ctx2 = _qubit()
    ctx4 = tensor(ctx2, ctx2)
    kets = {"singlet": np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0),
            "product": np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)}
    if which not in kets:
        raise ParameterError(f"unknown initial state {which!r}")
    joint = pure_state(ctx4, kets[which])

    up = Projection(ctx2, np.diag([1.0, 0.0]).astype(complex))
    ask_a = YesNoExperiment("particle 1 spin-up", embed_local(up, 0, (2, 2)))
    ask_b = YesNoExperiment("particle 2 spin-up", embed_local(up, 1, (2, 2)))

    mixed = State(ctx2, np.eye(2, dtype=complex) / 2.0)
    marg0 = state_distance(partial_trace(joint, 0, (2, 2)), mixed)
    marg1 = state_distance(partial_trace(joint, 1, (2, 2)), mixed)

    a, b, b_pre, _, records = _ask_pair(joint, ask_a, ask_b, trials, seed, record_trials)
    anti = int((a != b).sum())
    summary = {
        "state": which,
        "a_yes_rate": int(a.sum()) / trials,
        "b_yes_rate": int(b.sum()) / trials,
        "anticorrelation_rate": anti / trials,
        "anticorrelated_every_trial": anti == trials,
        "correlation_rate": (trials - anti) / trials,
        "marginal_ci_halfwidth": _ci4(0.5, trials),
        "b_yes_prob_given_a_yes": _mean_or_none(b_pre[a]),
        "b_yes_prob_given_a_no": _mean_or_none(b_pre[~a]),
        "marginal_mixed_distance_slot0": marg0,
        "marginal_mixed_distance_slot1": marg1,
    }
    return ScenarioResult("epr", {"state": which}, seed, trials, summary, {}, records)


def _ask_pair(initial, ask_a, ask_b, trials, seed, record_trials):
    """Ask A, then B, of every trial of a pair state (the quantum and classical
    EPR runs differ only in state and questions).  Returns the answers to A
    and B, B's yes-probability when asked, the final states and the records."""
    schedule = [ScheduleEntry(0.0, ask_a), ScheduleEntry(0.0, ask_b)]
    batch = run_batch(initial, schedule, trial_streams(seed, trials))
    records = None if not record_trials else [
        {"trial": i, "entries": doc["entries"]} for i, doc in enumerate(batch.to_dicts(schedule))]
    return (*batch.yes.T, batch.p_yes[:, 1], batch.final, records)


def _mean_or_none(xs):
    return float(np.mean(xs)) if len(xs) else None


def _first_yes(rho, questions, uniforms, used):
    """Each trial's position, sampled by asking "is it at point m?" in order
    until its first yes, conditioning on each answer: the chain reproduces
    the Born distribution, and the last question is forced if reached."""
    point = np.full(len(rho), -1)
    for m, question in enumerate(questions):
        if (point >= 0).all():
            break
        point[born_step(rho, question, uniforms, used, point < 0)[1]] = m
    return np.where(point < 0, len(questions) - 1, point)


def _run_two_slit(params, trials, seed, record_trials):
    amp_l = np.asarray(params["amp_l"], dtype=complex)
    amp_r = np.asarray(params["amp_r"], dtype=complex)
    if amp_l.shape != amp_r.shape or amp_l.ndim != 1:
        raise ParameterError("amp_l and amp_r must be vectors of equal length")
    m_points = amp_l.shape[0]
    if m_points < 1:
        raise ParameterError("need at least one screen point")
    joint_norm2 = float(np.vdot(amp_l, amp_l).real + np.vdot(amp_r, amp_r).real)
    if joint_norm2 <= 0.0:
        raise ParameterError("slit amplitudes have zero total norm")
    combined = amp_l + amp_r
    combined_norm2 = float(np.vdot(combined, combined).real)
    if combined_norm2 <= 0.0:
        raise ParameterError("slit amplitudes cancel everywhere; screen state has zero norm")

    analytic_nwp = (np.abs(combined) ** 2 / combined_norm2).tolist()
    analytic_wp = ((np.abs(amp_l) ** 2 + np.abs(amp_r) ** 2) / joint_norm2).tolist()

    ctx_screen = full_context(m_points)
    ctx_joint = tensor(ctx_screen, _qubit())

    # "is it at screen point m?" on the screen and on screen (x) path, and
    # "did it go through the left slit?" (1 (x) |left><left|), compiled once
    points = np.array([np.diag(row) for row in np.eye(m_points, dtype=complex)])
    at_screen, at_joint = compile_questions(points), compile_questions(np.kron(points, np.eye(2)))
    path_left, = compile_questions(np.kron(np.eye(m_points), np.diag([1.0 + 0j, 0.0]))[None])

    screen_state = pure_state(ctx_screen, combined)
    psi_joint = np.kron(amp_l, np.array([1.0, 0.0])) + np.kron(amp_r, np.array([0.0, 1.0]))
    joint_state = pure_state(ctx_joint, psi_joint)

    def run(uniforms, used):
        screen, joint = (np.repeat(s.rho[None], len(used), axis=0)
                         for s in (screen_state, joint_state))
        pos = _first_yes(screen, at_screen, uniforms, used)
        joint, left, _ = born_step(joint, path_left, uniforms, used)
        return pos, left, _first_yes(joint, at_joint, uniforms, used)

    # per trial: 2m + 1 uniforms (m per screen chain, 1 for the path; one
    # pointer walks them across the phases) and m x m plus 2m x 2m states
    pos, left, pos_wp = run_chunked(trial_streams(seed, trials), 2 * m_points + 1,
                                    16 * 5 * m_points * m_points, run)
    records = None if not record_trials else [
        {"trial": i, "no_which_path_point": p, "path_answer": "yes" if y else "no",
         "which_path_point": q}
        for i, (p, y, q) in enumerate(zip(pos.tolist(), left.tolist(), pos_wp.tolist()))]

    flipped = [m for m in range(m_points)
               if analytic_nwp[m] <= 1e-12 and analytic_wp[m] > 1e-12]
    summary = {
        "num_points": m_points,
        "left_slit_rate": int(left.sum()) / trials,
        "invalidated_points": len(flipped),
        "first_invalidated_point": flipped[0] if flipped else None,
    }
    series = {
        "analytic_no_which_path": analytic_nwp,
        "analytic_which_path": analytic_wp,
        "empirical_no_which_path": (np.bincount(pos, minlength=m_points) / trials).tolist(),
        "empirical_which_path": (np.bincount(pos_wp, minlength=m_points) / trials).tolist(),
        "invalidated_point_indices": flipped,
    }
    echo = {"amp_l": _echo([complex(v) for v in amp_l]),
            "amp_r": _echo([complex(v) for v in amp_r])}
    return ScenarioResult("two_slit", echo, seed, trials, summary, series, records)


def _run_three_observer(params, trials, seed, record_trials):
    middle = params["middle"]
    ctx = _qubit()
    p_exp = YesNoExperiment("spin-up along z", Projection(ctx, np.diag([1.0, 0.0]).astype(complex)))
    q_exp = YesNoExperiment("spin-up along x", _ket_projector(ctx, [1.0, 1.0]))
    chains = {"plus": ([p_exp, q_exp, p_exp], 0.5), "none": ([p_exp, p_exp], 0.0),
              "repeat": ([p_exp, p_exp, p_exp], 0.0)}
    if middle not in chains:
        raise ParameterError(f"unknown middle experiment {middle!r}")
    chain, analytic = chains[middle]
    schedule = [ScheduleEntry(float(k), exp) for k, exp in enumerate(chain)]
    initial = pure_state(ctx, [1.0, 0.0])

    batch = run_batch(initial, schedule, trial_streams(seed, trials))
    mismatch_rows = (batch.yes[:, 0] != batch.yes[:, -1]).tolist()
    mismatch = sum(mismatch_rows)
    q_yes = int(batch.yes[:, 1].sum()) if middle == "plus" else 0
    records = _batch_records(record_trials, "mismatch", mismatch_rows, batch, schedule)

    summary = {
        "middle": middle,
        "analytic_mismatch": analytic,
        "empirical_mismatch": mismatch / trials,
        "ci_halfwidth": _ci4(analytic, trials),
        "q_yes_rate": (q_yes / trials) if middle == "plus" else None,
    }
    return ScenarioResult("three_observer", {"middle": middle}, seed, trials,
                          summary, {}, records)


def _run_classical_control(params, trials, seed, record_trials):
    run = {"zeno": _classical_zeno, "epr": _classical_epr}.get(params["scenario"])
    if run is None:
        raise ParameterError(f"unknown classical control scenario {params['scenario']!r}")
    return run(params, trials, seed, record_trials)


def _classical_zeno(params, trials, seed, record_trials):
    n_points = params["num_points"]
    steps = params["steps"]
    if n_points < 2:
        raise ParameterError("need at least two phase-space points")
    if steps < 0:
        raise ParameterError("steps must be non-negative")
    space = PhaseSpace(tuple(f"x{i + 1}" for i in range(n_points)))
    ctx = diagonal_context(space)
    cycle = Flow(space, tuple((i + 1) % n_points for i in range(n_points)))
    initial = classical_state(ctx, np.eye(n_points)[0])
    point_exps = [
        YesNoExperiment(f"at {space.points[j]}", characteristic_projection(ctx, space.subset([j])))
        for j in range(n_points)
    ]

    # Precise observation of a point mass is deterministic: every yes/no
    # answer is forced, so all trials coincide and no draws are consumed.
    # The Koopman lift of a point indicator is a point indicator,
    # 1_{x_j} o T_t = 1_{T_t^-1(x_j)}: at time t question j is the point
    # experiment of at(-t)[j], recorded under the label of x_j.
    trajectories = []
    records = [] if record_trials else None
    for i in range(trials):
        rng = trial_generator(seed, i)
        state = initial
        positions = [0]
        entries = []
        for t in range(1, steps + 1):
            pos = None
            for j, k in enumerate(cycle.at(-t)):
                out, state = perform(state, point_exps[k], rng)
                if records is not None:
                    entries.append(entry_dict(t, point_exps[j].label, out.yes,
                                              out.probability))
                if out.yes:
                    pos = j
                    break
            positions.append(pos)
        trajectories.append(positions)
        if records is not None:
            records.append({"trial": i, "trajectory": positions, "entries": entries})

    traj = trajectories[0]
    moves = sum(a != b for a, b in zip(traj, traj[1:]))
    echo = {"scenario": "zeno", "num_points": n_points, "steps": steps}
    summary = {
        **echo,
        "advanced_every_step": moves == steps,
        "frozen_steps": steps - moves,
        "cycles_completed": steps // n_points,
        "all_trials_identical": all(t == traj for t in trajectories),
    }
    series = {"position_trajectory": traj}
    return ScenarioResult("classical_control", echo, seed, trials, summary, series, records)


def _classical_epr(params, trials, seed, record_trials):
    spin = PhaseSpace(("up", "down"))
    ctx = tensor(diagonal_context(spin), diagonal_context(spin))
    space = ctx.phase_space
    # perfectly anticorrelated pair: all mass on (up,down) and (down,up)
    mu = np.array([0.0, 0.5, 0.5, 0.0])
    initial = classical_state(ctx, mu)
    a_up = YesNoExperiment("particle 1 up", characteristic_projection(ctx, space.subset([0, 1])))
    b_up = YesNoExperiment("particle 2 up", characteristic_projection(ctx, space.subset([0, 2])))
    zero_idx = np.flatnonzero(mu == 0.0)

    a, b, b_pre, final, records = _ask_pair(initial, a_up, b_up, trials, seed, record_trials)
    anti = int((a != b).sum())
    summary = {
        "scenario": "epr",
        "a_up_rate": int(a.sum()) / trials,
        "anticorrelation_rate": anti / trials,
        "anticorrelated_every_trial": anti == trials,
        "zero_probabilities_preserved": not np.any(final[:, zero_idx, zero_idx].real > 1e-15),
        "b_up_prob_given_a_up": _mean_or_none(b_pre[a]),
        "b_up_prob_given_a_down": _mean_or_none(b_pre[~a]),
    }
    echo = {"scenario": "epr"}
    return ScenarioResult("classical_control", echo, seed, trials, summary, {}, records)


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    params: tuple
    fn: object

    def defaults(self) -> dict:
        return {p.name: p.default for p in self.params}

    def schema(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "parameters": [p.schema() for p in self.params],
        }


SCENARIOS = {
    s.name: s
    for s in (
        Scenario(
            "polarization_sequence",
            "Photon through a sequence of polarizers; pass-all probability and "
            "the zero-to-positive invalidation witness.",
            (ParamSpec("angles", "number_list", [0.0, 45.0, 90.0],
                       "polarizer angles in degrees; the photon starts aligned with the first"),),
            _run_polarization,
        ),
        Scenario(
            "zeno_precise",
            "Driven qubit under n equally spaced precise survival measurements; "
            "frequent measurement freezes the evolution.",
            (
                ParamSpec("omega", "number", math.pi, "drive angular frequency (rad/s)"),
                ParamSpec("T", "number", 1.0, "total duration (s)"),
                ParamSpec("n", "integer", 100, "number of equally spaced measurements"),
            ),
            _run_zeno_precise,
        ),
        Scenario(
            "zeno_coarse",
            "Ladder of levels watched through a coarse window that drifts toward "
            "the current mean level; imprecise observation does not freeze.",
            (
                ParamSpec("num_levels", "integer", 8, "number of levels"),
                ParamSpec("window_width", "integer", 3, "eigenvalues per measurement window"),
                ParamSpec("drift_rate", "integer", 1, "max window-center move per step (levels)"),
                ParamSpec("steps", "integer", 24, "number of measurement steps"),
                ParamSpec("coupling", "number", 0.3, "nearest-neighbor coupling strength"),
                ParamSpec("dt", "number", 1.0, "evolution time between measurements"),
                ParamSpec("initial_level", "integer", 1, "starting level (1-based)"),
            ),
            _run_zeno_coarse,
        ),
        Scenario(
            "epr",
            "Two observers measure spin-up on the two particles of an entangled "
            "pair; outcomes anticorrelate in every trial.",
            (ParamSpec("state", "string", "singlet", "initial pair state",
                       choices=("singlet", "product")),),
            _run_epr,
        ),
        Scenario(
            "two_slit",
            "Abstract two-slit screen: interference distribution without path "
            "information versus the distribution after a which-path measurement.",
            (
                ParamSpec("amp_l", "complex_list",
                          [0.7071067811865476, 0.7071067811865476],
                          "left-slit amplitude at each screen point (numbers or [re,im] pairs)"),
                ParamSpec("amp_r", "complex_list",
                          [0.7071067811865476, -0.7071067811865476],
                          "right-slit amplitude at each screen point"),
            ),
            _run_two_slit,
        ),
        Scenario(
            "three_observer",
            "Noncommuting questions asked in the order P, Q, P on a qubit; the "
            "two P answers disagree half the time.",
            (ParamSpec("middle", "string", "plus", "middle experiment",
                       choices=("plus", "none", "repeat")),),
            _run_three_observer,
        ),
        Scenario(
            "classical_control",
            "Commutative control runs: a watched classical cycle keeps moving "
            "(zeno), and a correlated classical pair anticorrelates by plain "
            "conditioning (epr).",
            (
                ParamSpec("scenario", "string", "zeno", "which control run",
                          choices=("zeno", "epr")),
                ParamSpec("num_points", "integer", 4, "cycle length (zeno only)"),
                ParamSpec("steps", "integer", 8, "observation steps (zeno only)"),
            ),
            _run_classical_control,
        ),
    )
}


def scenario_names() -> list:
    return list(SCENARIOS)


def validate_params(name: str, overrides: dict | None) -> dict:
    if name not in SCENARIOS:
        raise UnknownScenarioError(f"unknown scenario {name!r}; try one of {scenario_names()}")
    scen = SCENARIOS[name]
    known = {p.name: p for p in scen.params}
    merged = scen.defaults()
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ParameterError(
                f"scenario {name!r} has no parameter {key!r}; known: {sorted(known)}"
            )
        merged[key] = _coerce(known[key], value)
    return merged


def run_scenario(name: str, params: dict | None = None, trials: int = 1000,
                 seed: int = 0, record_trials: bool = False) -> ScenarioResult:
    """Validate parameters against the scenario's schema and execute it."""
    merged = validate_params(name, params)
    trials = int(trials)
    if trials < 1:
        raise ParameterError("trials must be positive")
    return SCENARIOS[name].fn(merged, trials, int(seed), record_trials)
