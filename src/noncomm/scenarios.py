"""Executable measurement scenarios.

Each scenario wires the algebra, state, dynamics, and measurement machinery
into one quantitative experiment: sequential polarizers, precise and
coarse-window Zeno runs, an entangled-pair (EPR) experiment, a two-slit
which-path comparison, the three-observer P,Q,P sequence, and classical
control runs of the Zeno and EPR setups on the commutative algebra.

A scenario is declared once, by its entry in `SCENARIOS`: parameters with
their lower bounds, runner, memory footprint and the rules its parameters
must keep together.  `run_scenario` is the one entry point, for the library
and for `noncomm run` alike: it validates the parameters against the
schema, bounds and rules, and the trial count and 64-bit seed as integer
parameters, before it estimates anything; rejects a run whose estimated
peak memory (`peak_bytes`) exceeds what the process may use
(`memory_limit`); then runs the scenario.  Every scenario is
setup, run, summary: it builds its states and questions, runs its trials,
and returns a ScenarioResult of scalar summary statistics, sequence-valued
series and (optionally) per-trial records, laid out by `trial_records`.
Trial i draws from the Philox stream of `trial_streams(seed, trials)` whose
counter starts at i * 2**128, identical to the root stream jumped i times,
so results are reproducible and independent of how trials are scheduled.
Every scenario advances all its trials as one stack (`born_step`):
polarization, precise Zeno, three observers and both EPR runs through
`run_batch`; two-slit asks each question of its stop-at-first-yes chains
only of the trials still without a yes; `zeno_coarse` asks each row of its
stack the window its state has reached; and the classical Zeno control, whose
answers are all forced and hand its point mass back, compiles and asks only
the question of its mass's point, once for every trial and step, each step
reading the mass's label from the flow, never evolving a question.
"""

from __future__ import annotations

import cmath
import math
import os
import resource
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import (
    SIGMA_X,
    Observable,
    PhaseSpace,
    Projection,
    ValueSet,
    _judge_projections,
    characteristic_projection,
    diagonal_context,
    eigendecompose,
    full_context,
)
from .dynamics import Flow, Hamiltonian, propagator
from .measurement import (
    ScheduleEntry,
    YesNoExperiment,
    _kron,
    born_step,
    chunk_peak_bytes,
    compile_questions,
    embed_local,
    entry_dict,
    partial_trace,
    run_batch,
    row_traces,
    run_chunked,
    tensor,
    trial_records,
    trial_streams,
)
from .states import (
    State,
    ZeroProbabilityError,
    classical_state,
    condition,
    pure_state,
    renormalize,
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
    minimum: object = None  # least value of a number or integer, checked by `_coerce`

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

    def to_dict(self) -> dict:  # the fields in order, the records only when kept
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.trial_records is None:
            del out["trial_records"]
        return out


def _echo(value):
    """Canonical JSON-safe form of a parameter value."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_echo(v) for v in value]
    return value


def _cut(text: str, limit: int = 200) -> str:
    """Text for a message: its first `limit` characters and its length, when longer."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _shown(value) -> str:
    """repr for a message, through `_cut`; an int past 10**4000, which repr
    may refuse, is named by its side."""
    if isinstance(value, int) and not -10**4000 < value < 10**4000:
        return f"a number {'below -' if value < 0 else 'above '}10**4000"
    return _cut(f"[{', '.join(map(_shown, value))}]" if isinstance(value, (list, tuple))
                else repr(value))


def _coerce(spec: ParamSpec, value):
    try:
        out = _KINDS[spec.kind](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(
            f"bad value for {spec.name}: {_shown(value)} ({_cut(str(exc))})") from exc
    if spec.kind == "integer" and not isinstance(value, str) and out != value:  # exact, past 2**53
        raise ParameterError(f"{spec.name} must be an integer, got {_shown(value)}")
    # ints are finite, and too large for the float an isfinite check would make
    numbers = [] if spec.kind in ("string", "integer") else out if isinstance(out, list) else [out]
    if not all(map(cmath.isfinite, numbers)):  # a complex entry is finite in both parts
        raise ParameterError(f"{spec.name} must be finite, got {_shown(value)}")
    if spec.choices and out not in spec.choices:
        raise ParameterError(f"{spec.name} must be one of {spec.choices}, got {_shown(out)}")
    if spec.minimum is not None and out < spec.minimum:
        raise ParameterError(f"{spec.name} must be at least {spec.minimum}, got {_shown(out)}")
    return out


def _number(v, kind):
    """`kind(v)`, refusing a bool: true and false are not the numbers 1 and 0."""
    if isinstance(v, bool):
        raise ValueError("a boolean is not a number")
    return kind(v)


def _as_complex(v):
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"complex entries are numbers or [re, im] pairs, got {_shown(v)}")
        return complex(_number(v[0], float), _number(v[1], float))
    return _number(v, complex)


def _listed(v, entry):
    """Each entry of a list or tuple through `entry`; a string or dict iterates, but is no list."""
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"expected a list, got {type(v).__name__}")
    return [entry(x) for x in v]


_KINDS = {  # each kind's conversion, raising TypeError, ValueError or OverflowError
    "number": lambda v: _number(v, float),
    "integer": lambda v: _number(v, int),
    "string": str,
    "number_list": lambda v: _listed(v, lambda x: _number(x, float)),
    "complex_list": lambda v: _listed(v, _as_complex),
}


def _ci4(p: float, n: int) -> float:
    """Half-width of the 4-sigma binomial band around probability p."""
    return 4.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _qubit():
    return full_context(2)


def _ket_projectors(ctx, kets) -> list:
    """Each ket's projection `np.outer(u, u.conj())`, u over its own norm, judged as one stack."""
    units = [u / np.linalg.norm(u) for u in (np.asarray(v, dtype=complex) for v in kets)]
    stack = np.array([np.outer(u, u.conj()) for u in units])
    _judge_projections(stack)
    return [Projection._unchecked(ctx, p) for p in stack]


# ---------------------------------------------------------------- scenarios


def _run_polarization(params, trials, seed, record_trials):
    angles = params["angles"]
    ctx = _qubit()
    thetas = np.deg2rad(angles)
    initial = pure_state(ctx, [math.cos(thetas[0]), math.sin(thetas[0])])
    polarizers = _ket_projectors(ctx, [[math.cos(t), math.sin(t)] for t in thetas])
    experiments = [YesNoExperiment(f"polarizer {a:g} deg", p) for a, p in zip(angles, polarizers)]
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
    records = trial_records(pass_all=pass_all, seed=[None] * trials,
                            entries=batch.entries(schedule)) if record_trials else None

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
    ctx = _qubit()
    ham = Hamiltonian(Observable(ctx, (omega / 2.0) * SIGMA_X))
    survive = YesNoExperiment("still in the initial level", Projection(ctx, np.diag([1.0, 0.0])))
    initial = pure_state(ctx, [1.0, 0.0])
    schedule = [ScheduleEntry(t_total * (k + 1) / n, survive) for k in range(n)]
    analytic = math.cos(omega * t_total / (2.0 * n)) ** (2 * n)

    batch = run_batch(initial, schedule, trial_streams(seed, trials), ham)
    survived_rows = batch.yes.all(axis=1).tolist()
    survived = sum(survived_rows)
    records = trial_records(survived=survived_rows, seed=[None] * trials,
                            entries=batch.entries(schedule)) if record_trials else None

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
    drift = min(drift, levels)  # no move is longer than the ladder
    ctx = full_context(levels)
    level_obs = Observable(ctx, np.diag(np.arange(1, levels + 1)).astype(complex))
    hop = np.zeros((levels, levels), dtype=complex)
    for i in range(levels - 1):
        hop[i, i + 1] = hop[i + 1, i] = coupling
    ham = Hamiltonian(Observable(ctx, hop))

    # window of `width` consecutive eigenvalues; even widths extend upward; near
    # the spectrum edge it shifts rather than shrinks.  The center moves at most
    # `drift` a step toward the rounded mean level; windows in reach are compiled once.
    place = np.arange(levels + 1)
    lo = np.clip(place - (width - 1) // 2, 1, levels - width + 1)
    first, last = lo[np.clip([start - steps * drift, start + steps * drift], 1, levels)].tolist()
    windows = compile_questions(eigendecompose(level_obs).projections(
        [ValueSet(intervals=((k, k + width - 1),)) for k in range(first, last + 1)]))
    window_of = lo - first
    next_center = place[:, None] + (place - place[:, None]).clip(-drift, drift)

    # `schrodinger_state`'s step rho -> U(-dt) rho U(-dt)*, with U built once;
    # each row's mean level Tr(rho L), weighed as `born_step` weighs, is `start` at first
    u = propagator(ham, -dt).matrix
    u_adj = u.conj().T
    level_col = level_obs.matrix.T.reshape(-1, 1)
    initial = pure_state(ctx, np.eye(levels)[start - 1]).rho[None]

    def run(uniforms, used):
        t = len(used)
        rho, cls, center = initial, np.zeros(t, dtype=np.intp), np.array([start])
        yes, p_yes = np.empty((t, steps), dtype=bool), np.empty((t, steps))
        asked, seen = np.empty((t, steps), dtype=np.intp), np.full((t, steps + 1), float(start))
        for k in range(steps):
            rho = renormalize(u @ rho @ u_adj)
            center = next_center[center, np.rint(row_traces(rho, level_col)).astype(np.intp)]
            ask = window_of[center]
            rho, child, yes[:, k], p_yes[:, k] = born_step(rho, cls, windows, ask, uniforms, used)
            parent, center = center, np.empty(len(rho), dtype=np.intp)
            center[child] = parent[cls]
            asked[:, k], seen[:, k + 1], cls = ask[cls], row_traces(rho, level_col)[child], child
        return yes, p_yes, asked, seen

    yes, p_yes, asked, trajectories = run_chunked(trial_streams(seed, trials), steps,
                                                  16 * 5 * levels * levels, run)
    records = trial_records(entries=[
        [{**entry_dict(step, f"level within [{k},{k + width - 1}]", y, p if y else 1.0 - p),
          "mean_level": a} for step, k, y, p, a in zip(range(1, steps + 1), *row)]
        for row in zip((asked + first).tolist(), yes.tolist(), p_yes.tolist(),
                       trajectories[:, 1:].tolist())]) if record_trials else None
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
    records = trial_records(entries=batch.entries(schedule)) if record_trials else None
    return (*batch.yes.T, batch.p_yes[:, 1], batch.final, records)


def _mean_or_none(xs):
    return float(np.mean(xs)) if len(xs) else None


def _first_yes(rho, cls, questions, uniforms, used):
    """Each trial's position, sampled by asking "is it at point m?", index m
    of the compiled `questions`, in order until its first yes, conditioning
    on each answer: the chain reproduces the Born distribution; the last,
    whose answer after no to all others is a forced yes, is not asked.
    Trial i is on row cls[i] of `rho`, one row per answer history
    (`born_step`), and is asked only until its yes; `used` ends at each
    trial's next draw."""
    last = questions[0].shape[1] - 1
    point, rows, ahead = np.full(len(cls), last), np.arange(len(cls)), used.copy()
    for m in range(last):
        if not len(rows):
            break
        rho, cls, yes, _ = born_step(rho, cls, questions, m, uniforms, ahead)
        if yes.any():
            point[rows[yes]], used[rows[yes]] = m, ahead[yes]
            cls, rows, ahead = cls[~yes], rows[~yes], ahead[~yes]
    used[rows] = ahead
    return point


def _slits(params):
    """amp_l, amp_r, their sum, and the which-path and screen squared norms."""
    amp_l, amp_r = np.asarray(params["amp_l"]), np.asarray(params["amp_r"])
    combined = amp_l + amp_r
    joint_norm2 = float(np.vdot(amp_l, amp_l).real) + float(np.vdot(amp_r, amp_r).real)
    return amp_l, amp_r, combined, joint_norm2, float(np.vdot(combined, combined).real)


def _run_two_slit(params, trials, seed, record_trials):
    amp_l, amp_r, combined, joint_norm2, combined_norm2 = _slits(params)
    m_points = len(amp_l)
    analytic_nwp = (np.abs(combined) ** 2 / combined_norm2).tolist()
    analytic_wp = ((np.abs(amp_l) ** 2 + np.abs(amp_r) ** 2) / joint_norm2).tolist()

    ctx_screen = full_context(m_points)
    ctx_joint = tensor(ctx_screen, _qubit())

    # "is it at screen point m?" on the screen and on screen (x) path, and
    # "did it go through the left slit?" (1 (x) |left><left|), compiled once
    points = np.array([np.diag(row) for row in np.eye(m_points, dtype=complex)])
    at_screen, at_joint = compile_questions(points), compile_questions(_kron(points, np.eye(2)))
    path_left = compile_questions(_kron(np.eye(m_points), np.diag([1.0 + 0j, 0.0]))[None])

    screen_state = pure_state(ctx_screen, combined)
    psi_joint = _kron(amp_l, np.array([1.0, 0.0])) + _kron(amp_r, np.array([0.0, 1.0]))
    joint_state = pure_state(ctx_joint, psi_joint)

    def run(uniforms, used):
        start = np.zeros(len(used), dtype=np.intp)
        pos = _first_yes(screen_state.rho[None], start, at_screen, uniforms, used)
        joint, cls, left, _ = born_step(joint_state.rho[None], start, path_left, 0, uniforms, used)
        return pos, left, _first_yes(joint, cls, at_joint, uniforms, used)

    # per trial: 2m + 1 uniforms (m per screen chain, 1 for the path; one
    # pointer walks them across the phases) and at most m x m plus 2m x 2m states
    pos, left, pos_wp = run_chunked(trial_streams(seed, trials), 2 * m_points + 1,
                                    16 * 5 * m_points * m_points, run)
    records = trial_records(
        no_which_path_point=pos.tolist(), path_answer=["yes" if y else "no" for y in left.tolist()],
        which_path_point=pos_wp.tolist()) if record_trials else None

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
    echo = {"amp_l": _echo(params["amp_l"]), "amp_r": _echo(params["amp_r"])}
    return ScenarioResult("two_slit", echo, seed, trials, summary, series, records)


def _run_three_observer(params, trials, seed, record_trials):
    middle = params["middle"]
    ctx = _qubit()
    p_exp = YesNoExperiment("spin-up along z", Projection(ctx, np.diag([1.0, 0.0]).astype(complex)))
    q_exp = YesNoExperiment("spin-up along x", _ket_projectors(ctx, [[1.0, 1.0]])[0])
    chains = {"plus": ([p_exp, q_exp, p_exp], 0.5), "none": ([p_exp, p_exp], 0.0),
              "repeat": ([p_exp, p_exp, p_exp], 0.0)}
    chain, analytic = chains[middle]
    schedule = [ScheduleEntry(float(k), exp) for k, exp in enumerate(chain)]
    initial = pure_state(ctx, [1.0, 0.0])

    batch = run_batch(initial, schedule, trial_streams(seed, trials))
    mismatch_rows = (batch.yes[:, 0] != batch.yes[:, -1]).tolist()
    mismatch = sum(mismatch_rows)
    q_yes = int(batch.yes[:, 1].sum()) if middle == "plus" else 0
    records = trial_records(mismatch=mismatch_rows, seed=[None] * trials,
                            entries=batch.entries(schedule)) if record_trials else None

    summary = {
        "middle": middle,
        "analytic_mismatch": analytic,
        "empirical_mismatch": mismatch / trials,
        "ci_halfwidth": _ci4(analytic, trials),
        "q_yes_rate": (q_yes / trials) if middle == "plus" else None,
    }
    return ScenarioResult("three_observer", {"middle": middle}, seed, trials,
                          summary, {}, records)


def _classical_zeno(params, trials, seed, record_trials):
    n_points, steps = params["num_points"], params["steps"]
    space = PhaseSpace(tuple(f"x{i + 1}" for i in range(n_points)))
    ahead = Flow(space, tuple((i + 1) % n_points for i in range(n_points))).at(1)
    labels = [f"at {x}" for x in space.points]

    # A point mass observed precisely is a fixed point of its own observation: all
    # trials coincide and draw nothing, so the chain runs once, for one trial on one
    # measure row with no uniforms (a free answer would index the empty block and raise).
    # The Koopman lift 1_{x_j} o T_t = 1_{T_t^-1(x_j)} makes question j at time t,
    # labelled x_j, "at point at(-t)[j]?".  From the mass on x1, a point without it
    # weighs exactly +0.0, a certain no of probability 1 whose update is the row over
    # 1.0, the row; and the yes to x1 is the row times its indicator over 1.0, the row
    # again.  So the state never moves: only x1's question is compiled and asked, once,
    # and at step t the yes is the label whose point is x1, at(t)[0] = at(1)[at(t - 1)[0]],
    # the labels before it the certain noes.
    rho = np.eye(1, n_points)  # the point mass at x1, and the indicator of x1
    _, _, yes, p = born_step(rho, np.zeros(1, dtype=np.intp), compile_questions(rho), 0,
                             np.empty((1, 0)), np.zeros(1, dtype=np.intp))
    (said,), (p,) = yes.tolist(), p.tolist()  # a bool and a float, as JSON writes them
    skip, traj, entries = 0, [0], []  # skip: at(0)[0]
    for step in range(1, steps + 1):
        skip = ahead[skip]  # at(step)[0], an int
        if record_trials:
            entries += [entry_dict(step, labels[j], False, 1.0) for j in range(skip)]
            entries.append(entry_dict(step, labels[skip], said, p if said else 1.0 - p))
        traj.append(skip)

    # every trial's outputs are the chain's: its records share its lists; read them only
    records = trial_records(trajectory=[traj] * trials,
                            entries=[entries] * trials) if record_trials else None
    moves = sum(a != b for a, b in zip(traj, traj[1:]))
    echo = {"scenario": "zeno", "num_points": n_points, "steps": steps}
    summary = {
        **echo,
        "advanced_every_step": moves == steps,
        "frozen_steps": steps - moves,
        "cycles_completed": steps // n_points,
        "all_trials_identical": True,  # no trial draws
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
        "zero_probabilities_preserved": not np.any(final[:, zero_idx] > 1e-15),
        "b_up_prob_given_a_up": _mean_or_none(b_pre[a]),
        "b_up_prob_given_a_down": _mean_or_none(b_pre[~a]),
    }
    echo = {"scenario": "epr"}
    return ScenarioResult("classical_control", echo, seed, trials, summary, {}, records)


# -------------------------------------------------------------- footprints

# Bytes, measured on CPython 3.11 with numpy 2.4 and rounded up: a schedule
# entry's Python objects besides its matrices (the entry and its compiled
# views), one measurement of a kept record and one trial's record, each with
# its share of the JSON text the CLI writes.  The tracemalloc peak of a run
# plus `cli.result_json` with records, less the peak without, grows by
# 644-701 bytes a measurement (polarization_sequence, zeno_precise and
# zeno_coarse at 20 and 80 measurements a record) and 346-372 bytes a record.
_QUESTION_BYTES = 640
_ENTRY_BYTES = 1024
_RECORD_BYTES = 640


def _schedule_footprint(n, d):
    """A fixed n-entry schedule on d x d matrices through `run_batch`: the
    evolved and compiled stacks with a chunk, per trial its result rows and
    final state, held twice while the chunks are joined (an answer and its p_yes:
    18 bytes, of which zeno_precise's measured peak needs 17.3-17.5), per
    record n measurements."""
    return (n * (_QUESTION_BYTES + 192 * d * d) + chunk_peak_bytes(n, 16 * d * d),
            18 * n + 32 * d * d + 16, _RECORD_BYTES + n * _ENTRY_BYTES)


def _zeno_coarse_footprint(params):
    levels, steps = params["num_levels"], params["steps"]
    # the windows a center moving drift_rate a step reaches, each P, 1 - P, their
    # columns and construction; an eigenprojector a level; a state row and question a trial
    windows = min(levels - params["window_width"] + 1, 2 * steps * params["drift_rate"] + 1)
    once = 16 * levels * levels * (10 + levels + 7 * windows)
    return (once + chunk_peak_bytes(steps, 80 * levels * levels), 64 * (steps + 1),
            _RECORD_BYTES + steps * _ENTRY_BYTES)


def _two_slit_footprint(params):
    m = len(params["amp_l"])
    # m screen-point questions of m x m and 2m x 2m, compiled: two (2, m, ...) stacks each
    return 768 * m ** 3 + chunk_peak_bytes(2 * m + 1, 80 * m * m), 48, _RECORD_BYTES


def _classical_control_footprint(params):
    if params["scenario"] == "epr":
        return _schedule_footprint(2, 4)
    n, steps = params["num_points"], params["steps"]
    q, r = divmod(steps, n)  # a cycle of n steps asks n (n + 1) / 2 points, r more r (r + 3) / 2
    # once the point labels, phase space and flow, whose peak (the run plus `result_json`)
    # measured 186-211 bytes a point at 300 to 4 * 10^5 points, and the one chain's
    # positions; nothing per trial; per record step t's (t mod n) + 1 measurements
    return (216 * n + 40 * (steps + 1), 0,
            _RECORD_BYTES + (q * n * (n + 1) + r * (r + 3)) // 2 * _ENTRY_BYTES)


def peak_bytes(name: str, params: dict, trials: int, record_trials: bool) -> int:
    """Estimated peak bytes of a run, from its parameters alone, already
    within their declared bounds and rules: what it builds once (schedule and question
    stacks, windows, a chunk's step stacks), plus per trial its results and
    trajectory and, when kept, its records.  Nothing is allocated."""
    once, per_trial, per_record = SCENARIOS[name].footprint(params)
    return once + trials * (per_trial + (per_record if record_trials else 0))


def memory_limit() -> int:
    """Bytes this process may use: the smaller of physical memory and the
    soft address-space limit (RLIMIT_AS)."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    params: tuple
    fn: object  # fn(params, trials, seed, record_trials) -> ScenarioResult
    footprint: object  # params -> bytes (built once, per trial, per kept trial record)
    rules: tuple = ()  # (message formatted with the params, holds(params)) pairs

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
            lambda params: _schedule_footprint(len(params["angles"]) - 1, 2),
            (("angles must hold two or more, got {angles}", lambda p: len(p["angles"]) >= 2),),
        ),
        Scenario(
            "zeno_precise",
            "Driven qubit under n equally spaced precise survival measurements; "
            "frequent measurement freezes the evolution.",
            (
                ParamSpec("omega", "number", math.pi, "drive angular frequency (rad/s)"),
                ParamSpec("T", "number", 1.0, "total duration (s)", minimum=0),
                ParamSpec("n", "integer", 100, "number of equally spaced measurements", minimum=1),
            ),
            _run_zeno_precise,
            lambda params: _schedule_footprint(params["n"], 2),
            # the last measurement is at T*n/n; an n past any double is left to peak_bytes
            (("omega*T or T*n overflows: omega={omega}, T={T}, n={n}",
              lambda p: math.isfinite(p["omega"] * p["T"])
              and (p["n"] > sys.float_info.max or math.isfinite(p["T"] * p["n"]))),),
        ),
        Scenario(
            "zeno_coarse",
            "Ladder of levels watched through a coarse window that drifts toward "
            "the current mean level; imprecise observation does not freeze.",
            (
                ParamSpec("num_levels", "integer", 8, "number of levels", minimum=2),
                ParamSpec("window_width", "integer", 3, "eigenvalues per measurement window"),
                ParamSpec("drift_rate", "integer", 1, "max window-center move per step (levels)",
                          minimum=0),
                ParamSpec("steps", "integer", 24, "number of measurement steps", minimum=0),
                ParamSpec("coupling", "number", 0.3, "nearest-neighbor coupling strength"),
                ParamSpec("dt", "number", 1.0, "evolution time between measurements"),
                ParamSpec("initial_level", "integer", 1, "starting level (1-based)"),
            ),
            _run_zeno_coarse,
            _zeno_coarse_footprint,
            (
                ("window_width must be in [1, num_levels={num_levels}], got {window_width}",
                 lambda p: 1 <= p["window_width"] <= p["num_levels"]),
                ("initial_level must be in [1, num_levels={num_levels}], got {initial_level}",
                 lambda p: 1 <= p["initial_level"] <= p["num_levels"]),
                # symmetrizing doubles coupling: the eigenphases stay below 2*coupling*dt
                ("2*coupling*dt overflows: coupling={coupling}, dt={dt}",
                 lambda p: math.isfinite(2.0 * p["coupling"] * p["dt"])),
            ),
        ),
        Scenario(
            "epr",
            "Two observers measure spin-up on the two particles of an entangled "
            "pair; outcomes anticorrelate in every trial.",
            (ParamSpec("state", "string", "singlet", "initial pair state",
                       choices=("singlet", "product")),),
            _run_epr,
            lambda params: _schedule_footprint(2, 4),
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
            _two_slit_footprint,
            (
                ("amp_l and amp_r must be nonempty and of equal length",
                 lambda p: len(p["amp_l"]) == len(p["amp_r"]) > 0),
                # `pure_state` scales each state by the reciprocal of its squared norm
                ("the squared norms of amp_l and amp_r and of amp_l + amp_r must be "
                 "positive with finite reciprocals",
                 lambda p: all(0 < x < math.inf and 1 / x < math.inf for x in _slits(p)[3:])),
            ),
        ),
        Scenario(
            "three_observer",
            "Noncommuting questions asked in the order P, Q, P on a qubit; the "
            "two P answers disagree half the time.",
            (ParamSpec("middle", "string", "plus", "middle experiment",
                       choices=("plus", "none", "repeat")),),
            _run_three_observer,
            lambda params: _schedule_footprint(3, 2),
        ),
        Scenario(
            "classical_control",
            "Commutative control runs: a watched classical cycle keeps moving "
            "(zeno), and a correlated classical pair anticorrelates by plain "
            "conditioning (epr).",
            (
                ParamSpec("scenario", "string", "zeno", "which control run",
                          choices=("zeno", "epr")),
                ParamSpec("num_points", "integer", 4, "cycle length (zeno only)", minimum=2),
                ParamSpec("steps", "integer", 8, "observation steps (zeno only)", minimum=0),
            ),
            lambda params, *run: (_classical_zeno if params["scenario"] == "zeno"
                                  else _classical_epr)(params, *run),
            _classical_control_footprint,
        ),
    )
}


def validate_params(name: str, overrides: dict | None) -> dict:
    if name not in SCENARIOS:
        raise UnknownScenarioError(f"unknown scenario {name!r}; try one of {list(SCENARIOS)}")
    scen = SCENARIOS[name]
    known = {p.name: p for p in scen.params}
    merged = {p.name: _coerce(p, p.default) for p in scen.params}
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ParameterError(f"scenario {name!r} has no parameter {_shown(key)}; "
                                 f"known: {sorted(known)}")
        merged[key] = _coerce(known[key], value)
    for message, holds in scen.rules:
        if not holds(merged):
            raise ParameterError(message.format_map({k: _shown(v) for k, v in merged.items()}))
    return merged


# the run's own two integers, declared like a scenario's parameters
TRIALS = ParamSpec("trials", "integer", 1000, "trial count", minimum=1)
SEED = ParamSpec("seed", "integer", 0, "unsigned 64-bit run seed", minimum=0)


def run_scenario(name: str, params: dict | None = None, trials: int = TRIALS.default,
                 seed: int = SEED.default, record_trials: bool = False) -> ScenarioResult:
    """Validate parameters against the scenario's schema, bounds and rules,
    and the trial count and seed like integer parameters; then reject a run
    whose estimated peak memory (`peak_bytes`) exceeds `memory_limit()`;
    then execute the scenario."""
    merged = validate_params(name, params)
    trials, seed = _coerce(TRIALS, trials), _coerce(SEED, seed)
    if seed >= 2**64:
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {_shown(seed)}")
    need, limit = peak_bytes(name, merged, trials, record_trials), memory_limit()
    if need > limit:
        raise ParameterError(f"{name} with these parameters and trials={_shown(trials)} needs "
                             f"about {_shown(need >> 20)} MiB, more than the {limit >> 20} MiB "
                             "this process may use")
    return SCENARIOS[name].fn(merged, trials, seed, record_trials)
