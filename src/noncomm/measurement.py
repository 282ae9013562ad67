"""Yes/no experiments, outcome sampling, schedules, and composite systems.

A measurement is a yes/no question whose mathematical content is a
projection P; "yes" happens with probability Tr(rho P) and updates the state
by the conditional rho' = P rho P / Tr(rho P), "no" by the complementary
projection 1 - P.  Schedules evolve each experiment's projection to its
measurement time before asking (the dynamics act on the observables, not on
the state); a run evolves its whole schedule once, as one stack, and
compiles it into the stacks of P, 1 - P and their rows that `born_step`
reads.  Kronecker products, local embeddings, and partial traces cover the
composite systems needed for entangled-pair experiments.

One trial is `perform`: `run_sequence` loops it over the evolved schedule.
A batch runs as one stack of distinct states, trials that share an answer
history sharing one conditioned state: `born_step` asks one question of
every trial at once, conditions each state once per answer given, and gives
each trial the bits `perform` gives it alone.  On a diagonal algebra the
stack holds measures, a schedule stays the (n, d) stack of its indicator
rows from evolution to compiled question, the update is `condition`'s Bayes
rule, and the final states are those measures.  A trial draws one block of
uniforms, sized to its run's most draws, and its one pointer moves only on
unforced outcomes, so in every phase the k-th uniform used is the k-th
`perform` would draw.  `run_batch` loops the step over a fixed schedule; a
caller that stops trials early passes only their rows' indices.
`trial_records` lays out every scenario's per-trial records.

Randomness comes from numpy's Philox counter-based generator.  A run is
keyed by a 64-bit seed; trial i of a multi-trial experiment uses the Philox
stream whose counter starts at i * 2**128, which is the stream
Philox(key=seed).jumped(i) addressed directly (the counter-based design of
Random123, Salmon et al., SC'11).  A stream is an address, not an object:
`run_chunked` fills each chunk's uniform block from one Philox keyed by the
seed, setting its counter to i * 2**128 with an empty buffer before trial
i's row, so no trial builds a generator of its own.  Trials are therefore
independent, and results do not depend on how trials are batched or
chunked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DIAGONAL,
    FULL,
    AlgebraContext,
    AlgebraElement,
    ContextMismatchError,
    Observable,
    PhaseSpace,
    Projection,
    complement,
    diagonal_context,
    full_context,
)
from .dynamics import check_dynamics, evolve_stack
from .states import (
    P_FLOOR,
    NumericalInvariantError,
    State,
    bayes,
    condition,
    measure,
    measure_matrix,
    renormalize,
    require_probability,
    yes_probability,
)

# Bytes of one chunk's uniform blocks plus its state stacks in `run_chunked`.
# Every trial has its own stream, so results do not depend on this bound.
CHUNK_BYTES = 1 << 22


def make_generator(seed: int) -> np.random.Generator:
    """Root generator for a run (Philox, counter-based, 64-bit key)."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial: the Philox counter starts at
    trial * 2**128, the state the root stream reaches when jumped `trial`
    times."""
    return np.random.Generator(np.random.Philox(key=int(seed), counter=int(trial) << 128))


@dataclass(frozen=True)
class TrialStreams:
    """The streams of one seed's trials, in order.  Iterating yields each
    trial's own generator, `trial_generator(seed, i)`; `run_chunked` reads
    the same streams from one Philox re-pointed at each trial."""

    seed: int
    trials: range

    def __iter__(self):
        return (trial_generator(self.seed, i) for i in self.trials)


def trial_streams(seed: int, trials) -> TrialStreams:
    """The streams of trials 0 .. trials-1, or of the trials in a range."""
    return TrialStreams(int(seed), trials if isinstance(trials, range) else range(trials))


def _stream_starts(streams: TrialStreams) -> tuple:
    """The generator `run_chunked` fills rows from, and a function giving the
    bit-generator state it is set to before row k: one Philox keyed by the
    seed, its counter at i * 2**128 (i the row's trial) with an empty buffer,
    the state `trial_generator(seed, i)` starts in."""
    gen = make_generator(streams.seed)
    state = gen.bit_generator.state  # counter 0, empty buffer
    # as lists: the state setter reads them in half the time of arrays
    state["state"] = {"counter": [0, 0, 0, 0], "key": state["state"]["key"].tolist()}
    state["buffer"] = state["buffer"].tolist()
    counter = state["state"]["counter"]  # four 64-bit words, lowest first

    def start(k):
        i = streams.trials[k]
        counter[2], counter[3] = i & 0xFFFFFFFFFFFFFFFF, i >> 64
        return state

    return gen, start


@dataclass(frozen=True)
class YesNoExperiment:
    """A binary question ("Is the value of A in V?") with its projection."""

    label: str
    projection: Projection

    @property
    def no_projection(self) -> Projection:
        """1 - P, the projection of the answer "no", built on first use."""
        if "_no" not in self.__dict__:  # cached_property's lock costs more than 1 - P
            self.__dict__["_no"] = complement(self.projection)
        return self.__dict__["_no"]


@dataclass(frozen=True)
class Outcome:
    yes: bool
    probability: float  # pre-measurement probability of the realized answer

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise NumericalInvariantError(f"outcome probability {self.probability} outside [0, 1]")

    @property
    def answer(self) -> str:
        return "yes" if self.yes else "no"


@dataclass(frozen=True)
class ScheduleEntry:
    time: float
    experiment: YesNoExperiment


@dataclass(frozen=True)
class RecordEntry:
    time: float
    label: str
    outcome: Outcome
    post_state: State | None = None


@dataclass
class MeasurementRecord:
    """Audit trail of a measurement sequence: outcomes in schedule order."""

    seed: int | None
    entries: list = field(default_factory=list)
    final_state: State | None = None

    def outcomes(self) -> list:
        return [e.outcome.yes for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "entries": [entry_dict(e.time, e.label, e.outcome.yes, e.outcome.probability)
                        for e in self.entries],
        }


def entry_dict(time, label, yes, probability) -> dict:
    """One measurement of a per-trial record, as result files write it."""
    return {"time": time, "label": label, "answer": "yes" if yes else "no",
            "probability": probability}


def trial_records(**columns) -> list:
    """Per-trial records, as result files write them: record i is
    {"trial": i} followed by each column's i-th value under its name."""
    first, *_ = columns.values()
    records = [{"trial": i} for i in range(len(first))]
    for name, column in columns.items():  # column by column: cheaper than a dict per row
        for record, value in zip(records, column):
            record[name] = value
    return records


@dataclass(frozen=True)
class BatchOutcomes:
    """One fixed schedule run over a batch of trials: row i is trial i,
    column k schedule entry k."""

    yes: np.ndarray          # (trials, n) bool answers
    probability: np.ndarray  # (trials, n) pre-measurement probability of each answer
    p_yes: np.ndarray        # (trials, n) clamped probability of "yes" before each entry
    draws: np.ndarray        # (trials,) uniforms consumed, one per unforced outcome
    final: np.ndarray        # (trials, d, d) density matrices after the last entry,
                             # or on a diagonal algebra the (trials, d) measures

    def entries(self, schedule) -> list:
        """Each trial's measurements, as a list of `entry_dict`s."""
        stamps = [(e.time, e.experiment.label) for e in schedule]
        return [[entry_dict(t, label, y, p) for (t, label), y, p in zip(stamps, ys, ps)]
                for ys, ps in zip(self.yes.tolist(), self.probability.tolist())]


def perform(state: State, experiment: YesNoExperiment,
            rng: np.random.Generator) -> tuple[Outcome, State]:
    """Sample one yes/no experiment and condition the state on the result.

    Outcomes with probability at or below the floor (or at or above one minus
    it) are forced without consuming a draw, which keeps draw counts stable
    and avoids conditioning on impossible outcomes.
    """
    p = yes_probability(state, experiment.projection)
    yes = p >= 1.0 - P_FLOOR or (not p <= P_FLOOR and bool(rng.random() < p))
    post = condition(state, experiment.projection if yes else experiment.no_projection)
    return Outcome(yes=yes, probability=p if yes else 1.0 - p), post


def evolve_schedule(schedule, dynamics) -> list:
    """Evolve every entry's projection to its own time (observables move,
    the state does not), as a view of the one stack `run_batch` would ask.
    With dynamics None the schedule is returned as-is."""
    schedule = list(schedule)
    contexts = {e.experiment.projection.context for e in schedule}
    check_dynamics(dynamics, contexts)
    if dynamics is None or not schedule:
        return schedule
    ctx = contexts.pop()
    moved = _evolved(schedule, dynamics, ctx)
    if ctx.is_diagonal:
        moved = measure_matrix(moved)
    return [ScheduleEntry(e.time, YesNoExperiment(e.experiment.label,
                                                  Projection._unchecked(ctx, m)))
            for e, m in zip(schedule, moved)]


def _evolved(schedule, dynamics, ctx: AlgebraContext) -> np.ndarray:
    """The schedule's projections, each at its time, as one stack: (n, d, d)
    matrices, or on a diagonal algebra the (n, d) indicator rows."""
    read, dims = (measure, (ctx.dim,)) if ctx.is_diagonal else (np.asarray, (ctx.dim, ctx.dim))
    stack = np.array([read(e.experiment.projection.matrix) for e in schedule]).reshape(-1, *dims)
    return stack if dynamics is None else evolve_stack(dynamics, [e.time for e in schedule], stack)


def compile_questions(projections) -> list:
    """Compile projections for `born_step`: an (n, d, d) stack (or list) of
    matrices gives question k = (P, 1 - P, P^T, (1 - P)^T), views of four
    stacks built once, each transpose a (d*d, 1) column; an (n, d) stack of
    a diagonal algebra's indicator rows gives the rows (s, 1 - s)."""
    yes = np.asarray(projections)
    if yes.ndim == 2:
        s = np.ascontiguousarray(yes)
        return list(zip(s, 1.0 - s))
    n, d = len(yes), yes.shape[-1]
    no = np.eye(d, dtype=complex) - yes
    cols = (m.swapaxes(-1, -2).reshape(n, d * d, 1) for m in (yes, no))
    return list(zip(yes, no, *cols))


def _check_schedule(state: State, schedule):
    times = [e.time for e in schedule]
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("schedule times must be non-decreasing")
    for entry in schedule:
        if entry.experiment.projection.context != state.context:
            raise ContextMismatchError(
                f"experiment {entry.experiment.label!r} lives in a different algebra"
            )


def run_chunked(streams: TrialStreams, draws: int, state_bytes: int, run) -> tuple:
    """Run trials in chunks of at most about CHUNK_BYTES of uniforms plus
    `state_bytes` per trial.  `run(uniforms, used)` gets each trial's next
    `draws` uniforms as a row and its pointer, the flat index of that row's
    start; the per-trial arrays it returns are joined on axis 0.  Each row is
    drawn from one generator set to that trial's start (`_stream_starts`)."""
    gen, start = _stream_starts(streams)
    trials = len(streams.trials)
    size = max(1, CHUNK_BYTES // (8 * draws + state_bytes))

    def block(first):
        uniforms = np.empty((min(size, trials - first), draws))
        for k, row in enumerate(uniforms, first):
            gen.bit_generator.state = start(k)
            gen.random(out=row)
        return run(uniforms, np.arange(len(uniforms), dtype=np.intp) * draws)

    parts = [block(first) for first in range(0, trials, size)] or [block(0)]
    return tuple(np.concatenate(f) for f in zip(*parts))


def chunk_peak_bytes(draws: int, state_bytes: int) -> int:
    """Estimated peak bytes of one `run_chunked` chunk: its uniforms and state
    stacks (CHUNK_BYTES, or one trial's if more), thrice more for temporaries."""
    return 4 * max(CHUNK_BYTES, 8 * draws + state_bytes)


def born_step(rho: np.ndarray, cls: np.ndarray, question, uniforms: np.ndarray,
              used: np.ndarray) -> tuple:
    """Ask one compiled question (`compile_questions`) of every trial, with
    the bits and errors `perform` gives each trial alone.  Trials that share
    an answer history share one state: trial i is on row cls[i] of `rho`, a
    C-ordered (m, d, d) stack, or (m, n) measures on a diagonal algebra.  Its
    answer is forced when its clamped yes-probability p is within P_FLOOR of
    0 or 1, else it is uniforms.ravel()[used[i]] < p and used[i] advances in
    place.  Each (row, answer) some trial gave is conditioned once, and rows
    no trial is on are dropped.  Returns the new stack, each trial's row in
    it, the answers and p ("no": 1 - p)."""
    diagonal = rho.ndim == 2
    if diagonal:  # the sums `yes_probability` and `bayes` take
        s, s_no = question
        raw_yes, raw_no = np.add.reduce(rho * s, -1), np.add.reduce(rho * s_no, -1)
    else:
        p, q, p_col, q_col = question
        flat = rho.reshape(len(rho), 1, rho.shape[-1] ** 2)
        # Tr(rho P) = sum_ij rho[i,j] P[j,i], as `expectation` computes it
        raw_yes, raw_no = (flat @ p_col)[:, 0, 0].real, (flat @ q_col)[:, 0, 0].real
    p_yes = raw_yes.clip(0.0, 1.0)[cls]  # keeps -0.0, as yes_probability does
    forced_yes = p_yes >= 1.0 - P_FLOOR
    free = ~(forced_yes | (p_yes <= P_FLOOR))
    yes = forced_yes | (free & (uniforms.ravel()[used] < p_yes))
    used += free
    child = 2 * cls + yes  # each trial's (row, answer) as one index
    taken = np.bincount(child, minlength=2 * len(rho)).reshape(-1, 2) > 0
    answer = taken[:, 1]
    if np.count_nonzero(taken[:, 0] == answer):  # a row splits, or no trial is on it
        row, answer = np.nonzero(taken)
        rho, raw_yes, raw_no = rho[row], raw_yes[row], raw_no[row]
        cls = (taken.cumsum() - 1)[child]
    prob = np.where(answer, raw_yes, raw_no)
    if np.count_nonzero(prob <= P_FLOOR):  # name the first trial to fail, as a loop would
        require_probability(prob[cls])
    if diagonal:
        post = bayes(rho, np.where(answer[:, None], s, s_no))
    else:
        proj = np.where(answer[:, None, None], p, q)
        post = renormalize(proj @ rho @ proj)
    if np.isnan(p_yes).any():  # p is clamped, so only nan leaves [0, 1]
        raise NumericalInvariantError("outcome probability nan outside [0, 1]")
    return post, cls, yes, p_yes


def run_batch(state: State, schedule, streams: TrialStreams, dynamics=None) -> BatchOutcomes:
    """Run one schedule, fixed in advance, over a batch of trials at once.

    The schedule is evolved and compiled once, as one stack of questions.
    `streams` is `trial_streams(seed, trials)`; all trials start on one row,
    `state`, and the stack keeps one state per answer history.  Trial i
    draws a block of len(schedule) uniforms from its stream and `born_step`
    uses them in order, one per unforced outcome, so its answers,
    probabilities, final state and errors are bit for bit those of
    `run_sequence` with `trial_generator(seed, i)`.  Each trial's final
    state is its row: a measure on a diagonal algebra, else a density matrix.
    """
    _check_schedule(state, schedule)
    check_dynamics(dynamics, [state.context])
    questions = compile_questions(_evolved(schedule, dynamics, state.context))
    n, d = len(questions), state.dim
    start = state.mu if state.context.is_diagonal else state.rho

    def run(uniforms, used):
        t = len(used)
        yes, p_yes = np.empty((t, n), dtype=bool), np.empty((t, n))
        rho, cls = start[None], np.zeros(t, dtype=np.intp)
        for k, question in enumerate(questions):
            rho, cls, yes[:, k], p_yes[:, k] = born_step(rho, cls, question, uniforms, used)
        prob = np.where(yes, p_yes, 1.0 - p_yes)
        return yes, prob, p_yes, used - np.arange(t) * n, rho[cls]

    return BatchOutcomes(*run_chunked(streams, n, 16 * d * d, run))


def run_sequence(state: State, schedule, dynamics=None, *, seed: int | None = None,
                 rng: np.random.Generator | None = None,
                 keep_snapshots: bool = False) -> MeasurementRecord:
    """Run a schedule of yes/no experiments, conditioning after each:
    `perform` entry by entry over the evolved schedule (`evolve_schedule`),
    with the bits row i of `run_batch` gives the trial of the same stream.

    Exactly one of `seed` (fresh Philox stream, recorded) or `rng` (caller
    supplies the stream, e.g. a per-trial one) drives the draws; a supplied
    `rng` ends advanced by exactly one draw per unforced outcome.
    Deterministic given the stream.
    """
    if (seed is None) == (rng is None):
        raise ValueError("pass exactly one of seed or rng")
    if rng is None:
        rng = make_generator(seed)
    _check_schedule(state, schedule)
    check_dynamics(dynamics, [state.context])
    record, current = MeasurementRecord(seed=seed), state
    for entry in evolve_schedule(schedule, dynamics):
        outcome, current = perform(current, entry.experiment, rng)
        record.entries.append(RecordEntry(entry.time, entry.experiment.label, outcome,
                                          current if keep_snapshots else None))
    record.final_state = current
    return record


def _tensor_contexts(contexts) -> AlgebraContext:
    kinds = {c.kind for c in contexts}
    if kinds == {FULL}:
        dim = int(np.prod([c.dim for c in contexts]))
        return full_context(dim)
    if kinds == {DIAGONAL}:
        labels = contexts[0].phase_space.points
        for c in contexts[1:]:
            labels = tuple(f"{a}⊗{b}" for a in labels for b in c.phase_space.points)
        return diagonal_context(PhaseSpace(labels))
    raise ValueError("cannot tensor full and diagonal algebras together")


def tensor(*items):
    """Kronecker product of contexts, states, or elements (all of one kind).

    Slot 0 is the leftmost factor: the basis vector e_i (x) e_j of the product
    has index i * dim_1 + j.  Products of projections are projections and
    products of states are states.
    """
    if not items:
        raise ValueError("tensor of nothing")
    if len(items) == 1:
        return items[0]
    first = items[0]
    nouns = {AlgebraContext: "contexts", State: "states", AlgebraElement: "elements"}
    kind = next((k for k in nouns if isinstance(first, k)), None)
    if kind is None:
        raise TypeError(f"cannot tensor values of type {type(first)!r}")
    if not all(isinstance(x, kind) for x in items):
        raise TypeError(f"cannot tensor {nouns[kind]} with non-{nouns[kind]}")
    if kind is AlgebraContext:
        return _tensor_contexts(items)
    ctx = _tensor_contexts([x.context for x in items])
    if kind is State:
        return State(ctx, functools.reduce(np.kron, [x.rho for x in items]))
    m = functools.reduce(np.kron, [x.matrix for x in items])
    for cls in (Projection, Observable):
        if all(isinstance(x, cls) for x in items):
            return cls(ctx, m)
    return AlgebraElement(ctx, m)


def embed_local(a: AlgebraElement, slot: int, dims) -> AlgebraElement:
    """Embed a one-factor element into a product algebra: 1 (x) ... A ... (x) 1.

    Embeddings into different slots commute.
    """
    dims = tuple(int(d) for d in dims)
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for {len(dims)} factors")
    if a.context.kind != FULL:
        raise ValueError("local embedding is defined for full matrix algebras")
    if a.dim != dims[slot]:
        raise ValueError(f"element dimension {a.dim} does not match dims[{slot}]={dims[slot]}")
    m = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        m = np.kron(m, a.matrix if k == slot else np.eye(d, dtype=complex))
    ctx = full_context(int(np.prod(dims)))
    if isinstance(a, (Projection, Observable)):
        return type(a)(ctx, m)
    return AlgebraElement(ctx, m)


def partial_trace(state: State, keep_slot: int, dims) -> State:
    """Reduced state of one factor of a product system.

    Expectations of locally embedded elements on the full state equal
    expectations of the bare elements on the reduction.
    """
    dims = tuple(int(d) for d in dims)
    if not 0 <= keep_slot < len(dims):
        raise ValueError(f"slot {keep_slot} out of range for {len(dims)} factors")
    if int(np.prod(dims)) != state.dim:
        raise ValueError(f"factor dimensions {dims} do not multiply to {state.dim}")
    k = len(dims)
    letters = "abcdefghijklmnop"
    if 2 * k > len(letters):
        raise ValueError("too many factors")
    row = list(letters[:k])
    col = [letters[k + i] if i == keep_slot else letters[i] for i in range(k)]
    spec = "".join(row) + "".join(col) + "->" + row[keep_slot] + col[keep_slot]
    reduced = np.einsum(spec, state.rho.reshape(dims + dims))
    return State(full_context(dims[keep_slot]), reduced)
