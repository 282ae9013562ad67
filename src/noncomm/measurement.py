"""Yes/no experiments, outcome sampling, schedules, and composite systems.

A measurement is a yes/no question whose mathematical content is a
projection P; "yes" happens with probability Tr(rho P) and updates the state
by the conditional rho' = P rho P / Tr(rho P), "no" by the complementary
projection 1 - P.  Schedules evolve each experiment's projection to its
measurement time before asking (the dynamics act on the observables, not on
the state); a run evolves its whole schedule once, as one stack, and
compiles it (`compile_questions`) into one stack of P and 1 - P and one of
the columns Tr(rho .) reads, which `born_step` asks by index.  Kronecker
products, local embeddings, and partial traces cover the composite systems
needed for entangled-pair experiments; classical values multiply as their n
numbers, and the other two are for full algebras only.

One trial is `perform`, which `run_sequence` loops over the evolved
schedule: the library's one-trial API, and the reference the kernel is
tested against; no scenario steps with it.  It is its definition,
`yes_probability`, a draw unless forced, then `condition` on the answer's
projection.  A batch runs as one stack of
distinct states, trials that share an answer history sharing one conditioned
state: `born_step` asks one question of every trial, or each row its own,
takes "no" probabilities only for rows that answered no, conditions each
state once per answer, checks the step once for the floor and nan, and gives
each trial `perform`'s bits and errors.  On a diagonal algebra the stack
holds measures, a schedule stays the (n, d) stack of its indicator rows from
evolution to compiled question, and the final states are those measures.
Every update, in `perform` and the kernel alike, is `bayes` on measures and
`lueders` on density matrices.  A trial draws one block of uniforms,
sized to its run's most draws, and its one pointer moves only on unforced
outcomes, so in every phase the k-th uniform used is the k-th `perform`
would draw.  `run_batch` loops the step over a fixed schedule; a caller that
stops trials early passes only their rows' indices.  Its result keeps each
answer and the yes-probability it was drawn against, and derives an answer's
own probability only for the records.  `trial_records` lays out every
scenario's per-trial records.

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
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # loaded with the package, so no run's memory counts numpy's lazy import

from .algebra import (
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
    _probability,
    bayes,
    condition,
    lueders,
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
    """The streams of one seed's trials, in order: trial i's is `trial_generator(seed, i)`."""

    seed: int
    trials: range


def trial_streams(seed: int, trials) -> TrialStreams:
    """The streams of trials 0 .. trials-1, or of the trials in a range."""
    return TrialStreams(int(seed), trials if isinstance(trials, range) else range(trials))


@dataclass(frozen=True)
class YesNoExperiment:
    """A binary question ("Is the value of A in V?") with its projection."""

    label: str
    projection: Projection

    @property
    def no_projection(self) -> Projection:
        """1 - P, the projection of the answer "no"."""
        return complement(self.projection)


class Outcome(namedtuple("Outcome", ("yes", "probability"))):
    """An answer and its prior probability: a (yes, probability) tuple, range-checked when built."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks the range too

    def __new__(cls, yes: bool, probability: float):
        if not 0.0 <= probability <= 1.0:
            raise NumericalInvariantError(f"outcome probability {probability} outside [0, 1]")
        return tuple.__new__(cls, (yes, probability))

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
    column k schedule entry k.  An answer's probability is not kept: it is
    p_yes for a "yes" and 1 - p_yes for a "no"."""

    yes: np.ndarray    # (trials, n) bool answers
    p_yes: np.ndarray  # (trials, n) clamped probability of "yes" before each entry
    draws: np.ndarray  # (trials,) uniforms consumed, one per unforced outcome
    final: np.ndarray  # (trials, d, d) density matrices after the last entry,
                       # or on a diagonal algebra the (trials, d) measures

    def entries(self, schedule) -> list:
        """Each trial's measurements, as a list of `entry_dict`s: trials whose
        answer and probability rows are equal bit for bit (0.0 and -0.0 write
        different text) share one list, built once; read it, do not change it."""
        stamps = [(e.time, e.experiment.label) for e in schedule]
        probability = np.where(self.yes, self.p_yes, 1.0 - self.p_yes)
        keys = [ys.tobytes() + ps.tobytes() for ys, ps in zip(self.yes, probability)]
        rows = dict(zip(keys, zip(self.yes.tolist(), probability.tolist())))
        built = {key: [entry_dict(t, label, y, p) for (t, label), y, p in zip(stamps, ys, ps)]
                 for key, (ys, ps) in rows.items()}
        return [built[key] for key in keys]


def perform(state: State, experiment: YesNoExperiment,
            rng: np.random.Generator) -> tuple[Outcome, State]:
    """Sample one yes/no experiment and condition the state on the result:
    p = `yes_probability`, then `condition` on P for "yes" or 1 - P for "no".
    An outcome within P_FLOOR of probability 0 or 1 is forced without a draw,
    which keeps draw counts stable and avoids conditioning on the impossible.
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
    moved = np.asarray(_evolved(schedule, dynamics, ctx), dtype=complex)
    return [ScheduleEntry(e.time, YesNoExperiment(e.experiment.label,
                                                  Projection._unchecked(ctx, m)))
            for e, m in zip(schedule, moved)]


def _evolved(schedule, dynamics, ctx: AlgebraContext) -> np.ndarray:
    """The schedule's projections, each at its time, as one stack: (n, d, d)
    matrices, or on a diagonal algebra the (n, d) indicator rows."""
    stack = np.array([e.experiment.projection._stored for e in schedule])
    stack = stack.reshape(-1, *[ctx.dim] * (1 if ctx.is_diagonal else 2))
    stack = stack.real if ctx.is_diagonal else stack
    return stack if dynamics is None else evolve_stack(dynamics, [e.time for e in schedule], stack)


def compile_questions(projections) -> tuple:
    """Compile n projections for `born_step` as (proj, weight), each stacked
    (2, n, ...): proj[0, k] is P_k and proj[1, k] is 1 - P_k, and weight,
    what Tr(rho .) reads, holds their transposes as (d*d, 1) columns.  On a
    diagonal algebra the (n, d) indicator rows s give proj = (s, 1 - s),
    which weight is too.  A question is asked by its index k."""
    yes = np.asarray(projections)
    diagonal, d = yes.ndim == 2, yes.shape[-1]
    proj = np.stack((yes, (1.0 if diagonal else np.eye(d, dtype=complex)) - yes))
    return proj, proj if diagonal else proj.swapaxes(-1, -2).reshape(2, len(yes), d * d, 1)


def _check_schedule(state: State, schedule):
    times = [e.time for e in schedule]
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("schedule times must be non-decreasing")
    for entry in schedule:
        ctx = entry.experiment.projection.context
        if ctx is not state.context and ctx != state.context:  # identity decides first
            raise ContextMismatchError(f"experiment {entry.experiment.label!r} lives in a "
                                       "different algebra")


def run_chunked(streams: TrialStreams, draws: int, state_bytes: int, run) -> tuple:
    """Run trials in chunks of at most about CHUNK_BYTES of uniforms plus
    `state_bytes` per trial.  `run(uniforms, used)` gets each trial's next
    `draws` uniforms as a row and its pointer, the flat index of that row's
    start; the per-trial arrays it returns are joined on axis 0.  Each row is
    drawn from one Philox keyed by the seed, set before it to the state
    `trial_generator(seed, i)` starts in (i the row's trial): its counter at
    i * 2**128, its buffer empty."""
    gen = make_generator(streams.seed)
    state = gen.bit_generator.state  # counter 0, empty buffer
    # as lists: the state setter reads them in half the time of arrays
    counter = [0, 0, 0, 0]  # four 64-bit words, lowest first
    state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
    state["buffer"] = state["buffer"].tolist()
    trials = len(streams.trials)
    size = max(1, CHUNK_BYTES // (8 * draws + state_bytes))

    def block(first):
        uniforms = np.empty((min(size, trials - first), draws))
        for row, i in zip(uniforms, streams.trials[first:]):
            counter[2], counter[3] = i & 0xFFFFFFFFFFFFFFFF, i >> 64
            gen.bit_generator.state = state
            gen.random(out=row)
        return run(uniforms, np.arange(len(uniforms), dtype=np.intp) * draws)

    parts = [block(first) for first in range(0, trials, size)] or [block(0)]
    return tuple(np.concatenate(f) for f in zip(*parts))


def chunk_peak_bytes(draws: int, state_bytes: int) -> int:
    """Estimated peak bytes of one `run_chunked` chunk: its uniforms and state
    stacks (CHUNK_BYTES, or one trial's if more), thrice more for temporaries."""
    return 4 * max(CHUNK_BYTES, 8 * draws + state_bytes)


def row_traces(rho: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Tr(rho P) for each row: on (m, n) measures the sum of mu * s `bayes` takes; else
    sum_ij rho[i,j] P[j,i], as `expectation` takes it, from P's transpose as a (d*d, 1) column."""
    if rho.ndim == 2:
        return np.add.reduce(rho * weight, -1)
    return (rho.reshape(-1, 1, weight.shape[-2]) @ weight)[:, 0, 0].real


def _trace(rho: np.ndarray, weight: np.ndarray) -> float:
    """`row_traces` of one row as a float, unclamped, with `expectation`'s bits:
    the `add.reduce` of mu * s, or the one `dot` of rho with P's transpose."""
    if rho.ndim == 1:
        return float(np.add.reduce(rho * weight))
    return float(rho.ravel().dot(weight.ravel()).real)


def born_step(rho: np.ndarray, cls: np.ndarray, questions, ask, uniforms: np.ndarray,
              used: np.ndarray) -> tuple:
    """Ask compiled questions (`compile_questions`) of every trial, with the
    bits and errors `perform` gives each trial alone.  Trials that share an
    answer history share one state: trial i is on row cls[i] of `rho`, a
    C-ordered (m, d, d) stack, or (m, n) measures on a diagonal algebra; `ask`
    is one question's index, or an intp array of one index a row.  The answer
    is forced when its clamped yes-probability p is within P_FLOOR of 0 or 1,
    else it is uniforms.ravel()[used[i]] < p and used[i] advances in place.
    Each (row, answer) some trial gave is conditioned once, rows no trial is
    on are dropped with their indices, and "no" probabilities are taken only
    for rows that answered no.  A nan p answers yes here, so one check a step,
    of each child's probability, catches the floor and nan alike; only then is
    `perform`'s error raised, for the first failing trial.  One row with a
    trial on it takes p as one float, weighed as `perform` weighs it ("no"
    only if a trial answered no), decides in Python whether it is forced, and
    conditions once, unless its trials split, into rows (no, yes).  Both
    blocks end in the one update: `bayes` on measures, `lueders` on density
    matrices.  Returns the new stack, each trial's row in it, the
    answers and p ("no": 1 - p)."""
    proj, weight = questions
    per_row = isinstance(ask, np.ndarray)
    update = bayes if rho.ndim == 2 else lueders
    if len(rho) == 1 and len(cls):
        ask = ask[0] if per_row else ask  # one row asks one question
        mass = _trace(rho[0], weight[0, ask])
        p = _probability(mass)
        if P_FLOOR < p < 1.0 - P_FLOOR or p != p:  # free, as a nan p is, which answers yes
            yes = ~(uniforms.ravel()[used] >= p)
            used += 1
            answers = np.count_nonzero(yes)
        else:  # forced: every trial answers alike
            yes, answers = np.empty(len(cls), dtype=bool), len(cls) if p >= 1.0 - P_FLOOR else 0
            yes.fill(answers > 0)
        if answers < len(yes):  # a "no": only its mass can fail, as a free p's is above the floor
            mass = _trace(rho[0], weight[1, ask])
        if not mass > P_FLOOR:  # the floor or nan: `perform`'s error, which answers no to a nan p
            require_probability(_trace(rho[0], weight[1, ask]) if p != p else mass)
            Outcome(False, 1.0 - p)  # raises for a nan p
        if 0 < answers < len(yes):  # rows (no, yes)
            cls, post = yes.astype(np.intp), update(rho, proj[[1, 0], ask])
        else:  # one child, conditioned as one measure or matrix
            post = update(rho[0], proj[0 if answers else 1, ask])[None]
        p_yes = np.empty(len(cls))
        p_yes.fill(p)
        return post, cls, yes, p_yes
    raw_yes = row_traces(rho, weight[0, ask])
    p_yes = raw_yes.clip(0.0, 1.0)[cls]  # numpy's sums give a zero as +0.0, as yes_probability does
    forced_yes = p_yes >= 1.0 - P_FLOOR
    free = (p_yes <= P_FLOOR) == forced_yes  # neither forced, as a nan p is
    yes = forced_yes | (free > (uniforms.ravel()[used] >= p_yes))  # free and not u >= p
    used += free
    child = 2 * cls + yes  # each trial's (row, answer) as one index
    taken = np.zeros((len(rho), 2), dtype=bool)
    taken.ravel()[child] = True
    answer = taken[:, 1]
    if np.count_nonzero(taken[:, 0] == answer):  # a row splits, or no trial is on it
        row, answer = np.nonzero(taken)
        rho, raw_yes, answer = rho[row], raw_yes[row], answer == 1
        cls = (taken.cumsum() - 1)[child]
        if per_row:  # each row's question goes with it
            ask = ask[row]
    prob, no = raw_yes, ~answer  # each child's probability: "no" only where a row answered no
    if np.count_nonzero(no):
        prob[no] = row_traces(rho[no], weight[1, ask[no] if per_row else ask])
    if np.count_nonzero(prob > P_FLOOR) != len(prob):  # the floor or nan: find the first trial
        nan = p_yes != p_yes  # `perform` answers these no, and divides by their "no" probability
        given = np.where(nan, row_traces(rho, weight[1, ask])[cls], prob[cls])
        first = ((given <= P_FLOOR) | nan).argmax()
        require_probability(given[first])
        Outcome(False, float(1.0 - p_yes[first]))  # raises for a nan p, as in `perform`
    return update(rho, proj[1 - answer, ask]), cls, yes, p_yes


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
    n, d = questions[0].shape[1], state.dim
    start = state._stored

    def run(uniforms, used):
        t = len(used)
        yes, p_yes = np.empty((t, n), dtype=bool), np.empty((t, n))
        rho, cls = start[None], np.zeros(t, dtype=np.intp)
        for k in range(n):
            rho, cls, yes[:, k], p_yes[:, k] = born_step(rho, cls, questions, k, uniforms, used)
        return yes, p_yes, used - np.arange(t) * n, rho[cls]

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
    diagonal = {c.is_diagonal for c in contexts}
    if diagonal == {False}:
        return full_context(int(np.prod([c.dim for c in contexts])))
    if diagonal == {True}:
        labels = contexts[0].phase_space.points
        for c in contexts[1:]:
            labels = tuple(f"{a}⊗{b}" for a in labels for b in c.phase_space.points)
        return diagonal_context(PhaseSpace(labels))
    raise ValueError("cannot tensor full and diagonal algebras together")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.kron(a, b)` of two arrays by the broadcast `multiply` numpy's own does,
    without its wrapper: each entry is the same one product."""
    sa, sb = (1,) * (b.ndim - a.ndim) + a.shape, (1,) * (a.ndim - b.ndim) + b.shape
    return np.multiply(a.reshape([n for m in sa for n in (m, 1)]),
                       b.reshape([n for m in sb for n in (1, m)])).reshape(np.multiply(sa, sb))


def tensor(*items):
    """Kronecker product of contexts, states, or elements (all of one kind).

    Slot 0 is the leftmost factor: the basis vector e_i (x) e_j of the product
    has index i * dim_1 + j.  The product has the class its factors share:
    products of projections are projections and products of states are
    states.  The kept arrays, n numbers for a classical value, multiply left
    to right by `_kron`, bit for bit `np.kron`."""
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
    cls = next(c for c in (Projection, Observable, kind) if all(isinstance(x, c) for x in items))
    return cls(_tensor_contexts([x.context for x in items]),
               functools.reduce(_kron, [x._stored for x in items]))


def embed_local(a: AlgebraElement, slot: int, dims) -> AlgebraElement:
    """Embed a one-factor element into a product algebra: 1 (x) ... A ... (x) 1,
    the 1x1 unit times each factor in turn by `_kron`, of A's class and, as the
    units add no defect, not judged again.  Embeddings into different slots commute."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for {len(dims)} factors")
    if a.context.is_diagonal:
        raise ValueError("local embedding is defined for full matrix algebras")
    if a.dim != dims[slot]:
        raise ValueError(f"element dimension {a.dim} does not match dims[{slot}]={dims[slot]}")
    m = functools.reduce(_kron, [a.matrix if k == slot else np.eye(d, dtype=complex)
                                 for k, d in enumerate(dims)], np.eye(1, dtype=complex))
    cls = type(a) if isinstance(a, (Projection, Observable)) else AlgebraElement
    return cls._unchecked(full_context(int(np.prod(dims))), m)


def partial_trace(state: State, keep_slot: int, dims) -> State:
    """Reduced state of one factor of a product system.

    Expectations of locally embedded elements on the full state equal
    expectations of the bare elements on the reduction.
    """
    dims = tuple(int(d) for d in dims)
    if not 0 <= keep_slot < len(dims):
        raise ValueError(f"slot {keep_slot} out of range for {len(dims)} factors")
    if state.context.is_diagonal:
        raise ValueError("partial trace is defined for full matrix algebras")
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
