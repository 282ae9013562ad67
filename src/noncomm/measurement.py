"""Yes/no experiments, outcome sampling, schedules, and composite systems.

A measurement is a yes/no question whose mathematical content is a
projection P; "yes" happens with probability Tr(rho P) and updates the state
by the conditional rho' = P rho P / Tr(rho P), "no" by the complementary
projection 1 - P.  Schedules evolve each experiment's projection to its
measurement time before asking (the dynamics act on the observables, not on
the state).  Kronecker products, local embeddings, and partial traces cover
the composite systems needed for entangled-pair experiments.

A schedule fixed in advance runs over all trials at once: `run_batch`
holds the trials' states as one (trials, d, d) stack and, per schedule
entry, makes one batched Born probability, one vectorized forced/draw
decision and one batched Lueders update.  Its arithmetic gives every trial
the bits `perform` gives it alone, and `run_sequence` is its one-trial case.
`perform` remains the single step for schedules that depend on earlier
outcomes.

Randomness comes from numpy's Philox counter-based generator.  A run is
keyed by a 64-bit seed; trial i of a multi-trial experiment uses the Philox
stream whose counter starts at i * 2**128, which is the stream
Philox(key=seed).jumped(i) addressed directly (the counter-based design of
Random123, Salmon et al., SC'11).  Trials are therefore independent, and
results do not depend on how trials are batched or chunked.
"""

from __future__ import annotations

import itertools
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
from .dynamics import Flow, Hamiltonian, heisenberg_evolve, koopman_evolve
from .states import (
    P_FLOOR,
    State,
    ZeroProbabilityError,
    condition,
    renormalize,
    yes_probability,
)

# Bytes of one chunk's uniform block plus its state stack in `run_batch`.
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


def trial_streams(seed: int, trials: int):
    """The streams of trials 0 .. trials-1, made as they are consumed."""
    return (trial_generator(seed, i) for i in range(trials))


@dataclass(frozen=True)
class YesNoExperiment:
    """A binary question ("Is the value of A in V?") with its projection."""

    label: str
    projection: Projection


@dataclass(frozen=True)
class Outcome:
    yes: bool
    probability: float  # pre-measurement probability of the realized answer

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"outcome probability {self.probability} outside [0, 1]")

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


@dataclass(frozen=True)
class BatchOutcomes:
    """One fixed schedule run over a batch of trials: row i is trial i,
    column k schedule entry k."""

    yes: np.ndarray          # (trials, n) bool answers
    probability: np.ndarray  # (trials, n) pre-measurement probability of each answer
    draws: np.ndarray        # (trials,) uniforms consumed, one per unforced outcome
    final: np.ndarray        # (trials, d, d) density matrices after the last entry
    snapshots: np.ndarray | None = None  # (trials, n, d, d) state after each entry

    def to_dicts(self, schedule) -> list:
        """Each trial's record in the `MeasurementRecord.to_dict` layout, with
        seed None because the caller supplied the streams."""
        stamps = [(e.time, e.experiment.label) for e in schedule]
        return [
            {"seed": None,
             "entries": [entry_dict(t, label, y, p)
                         for (t, label), y, p in zip(stamps, ys, ps)]}
            for ys, ps in zip(self.yes.tolist(), self.probability.tolist())
        ]


def perform(state: State, experiment: YesNoExperiment,
            rng: np.random.Generator) -> tuple[Outcome, State]:
    """Sample one yes/no experiment and condition the state on the result.

    Outcomes with probability at or below the floor (or at or above one minus
    it) are forced without consuming a draw, which keeps draw counts stable
    and avoids conditioning on impossible outcomes.
    """
    p = yes_probability(state, experiment.projection)
    if p <= P_FLOOR:
        yes = False
    elif p >= 1.0 - P_FLOOR:
        yes = True
    else:
        yes = bool(rng.random() < p)
    proj = experiment.projection if yes else complement(experiment.projection)
    post = condition(state, proj)
    return Outcome(yes=yes, probability=p if yes else 1.0 - p), post


def evolve_schedule(schedule, dynamics) -> list:
    """Evolve every entry's projection to its own time (observables move,
    the state does not).  With dynamics None the schedule is returned as-is."""
    if dynamics is None:
        return list(schedule)
    out = []
    for entry in schedule:
        if isinstance(dynamics, Hamiltonian):
            moved = heisenberg_evolve(entry.experiment.projection, dynamics, entry.time)
        elif isinstance(dynamics, Flow):
            moved = koopman_evolve(entry.experiment.projection, dynamics, int(entry.time))
        else:
            raise TypeError(f"dynamics must be a Hamiltonian or Flow, got {type(dynamics)!r}")
        out.append(ScheduleEntry(entry.time, YesNoExperiment(entry.experiment.label, moved)))
    return out


def _check_schedule(state: State, schedule):
    times = [e.time for e in schedule]
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("schedule times must be non-decreasing")
    for entry in schedule:
        if entry.experiment.projection.context != state.context:
            raise ContextMismatchError(
                f"experiment {entry.experiment.label!r} lives in a different algebra"
            )


def run_batch(state: State, schedule, rngs, dynamics=None, *,
              keep_snapshots: bool = False) -> BatchOutcomes:
    """Run one schedule, fixed in advance, over a batch of trials at once.

    `rngs` yields one generator per trial, all starting from `state`.  Trial
    i draws a block of len(schedule) uniforms from its generator and uses
    them in order, one per outcome that is not forced, so its answers,
    probabilities and states are bit for bit those of `perform` applied
    entry by entry with that generator.  Each generator is left past its
    whole block.  Trials run in chunks of at most about CHUNK_BYTES of
    uniforms and states; each has its own stream, so chunking does not
    change results.  The errors are those of `perform`: ZeroProbabilityError
    for an outcome conditioned on at probability <= P_FLOOR, ValueError for
    an outcome probability outside [0, 1].
    """
    _check_schedule(state, schedule)
    entries = evolve_schedule(schedule, dynamics)
    n, d = len(entries), state.dim
    steps = []
    for entry in entries:
        p = entry.experiment.projection.matrix
        q = complement(entry.experiment.projection).matrix
        # Tr(rho P) = sum_ij rho[i,j] P[j,i], as `expectation` computes it
        steps.append((p, q, p.T.ravel()[:, None], q.T.ravel()[:, None]))
    size = max(1, CHUNK_BYTES // (8 * n + 16 * d * d))
    rngs = iter(rngs)
    chunks = iter(lambda: list(itertools.islice(rngs, size)), [])
    parts = ([_run_chunk(state.rho, steps, c, keep_snapshots) for c in chunks]
             or [_run_chunk(state.rho, steps, [], keep_snapshots)])
    return BatchOutcomes(*(None if f[0] is None else np.concatenate(f) for f in zip(*parts)))


def _run_chunk(rho0, steps, rngs, keep_snapshots):
    t, n, d = len(rngs), len(steps), rho0.shape[0]
    uniforms = np.empty((t, n))
    for row, rng in zip(uniforms, rngs):
        rng.random(out=row)
    rows = np.arange(t)
    used = np.zeros(t, dtype=np.intp)
    yes = np.empty((t, n), dtype=bool)
    prob = np.empty((t, n))
    snapshots = np.empty((t, n, d, d), dtype=complex) if keep_snapshots else None
    # C order, as every later stack is: the BLAS calls then see the strides
    # the single-matrix path sees, which keeps their rounding identical
    rho = np.repeat(rho0[None], t, axis=0)
    for k, (p, q, p_col, q_col) in enumerate(steps):
        flat = rho.reshape(t, 1, d * d)
        raw_yes = (flat @ p_col)[:, 0, 0].real
        raw_no = (flat @ q_col)[:, 0, 0].real
        p_yes = np.clip(raw_yes, 0.0, 1.0)
        forced_no = p_yes <= P_FLOOR
        forced_yes = p_yes >= 1.0 - P_FLOOR
        free = ~(forced_no | forced_yes)
        y = forced_yes | (free & (uniforms[rows, used] < p_yes))
        used += free
        conditioned = np.where(y, raw_yes, raw_no)
        if (conditioned <= P_FLOOR).any():
            worst = float(conditioned[conditioned <= P_FLOOR][0])
            raise ZeroProbabilityError(
                f"cannot condition on an outcome of probability {worst:.3e}"
            )
        realized = np.where(y, p_yes, 1.0 - p_yes)
        valid = (0.0 <= realized) & (realized <= 1.0)
        if not valid.all():
            raise ValueError(
                f"outcome probability {float(realized[~valid][0])} outside [0, 1]"
            )
        proj = np.where(y[:, None, None], p, q)
        rho = renormalize(proj @ rho @ proj)
        yes[:, k] = y
        prob[:, k] = realized
        if snapshots is not None:
            snapshots[:, k] = rho
    return yes, prob, used, rho, snapshots


def run_sequence(state: State, schedule, dynamics=None, *, seed: int | None = None,
                 rng: np.random.Generator | None = None,
                 keep_snapshots: bool = False) -> MeasurementRecord:
    """Run a schedule of yes/no experiments, conditioning after each: the
    one-trial case of `run_batch`.

    Exactly one of `seed` (fresh Philox stream, recorded) or `rng` (caller
    supplies the stream, e.g. a per-trial one) drives the draws; a supplied
    `rng` ends advanced by exactly one draw per unforced outcome.
    Deterministic given the stream.
    """
    if (seed is None) == (rng is None):
        raise ValueError("pass exactly one of seed or rng")
    if rng is None:
        rng = make_generator(seed)
    start = rng.bit_generator.state
    batch = run_batch(state, schedule, [rng], dynamics, keep_snapshots=keep_snapshots)
    # rewind past the block, then consume only the draws the trial used
    rng.bit_generator.state = start
    rng.random(int(batch.draws[0]))

    ctx = state.context
    record = MeasurementRecord(seed=seed)
    for k, entry in enumerate(schedule):
        yes = bool(batch.yes[0, k])
        post = State._trusted(ctx, batch.snapshots[0, k]) if keep_snapshots else None
        record.entries.append(RecordEntry(entry.time, entry.experiment.label,
                                          Outcome(yes, float(batch.probability[0, k])), post))
    record.final_state = State._trusted(ctx, batch.final[0])
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
    if isinstance(first, AlgebraContext):
        if not all(isinstance(x, AlgebraContext) for x in items):
            raise TypeError("cannot tensor contexts with non-contexts")
        return _tensor_contexts(items)
    if isinstance(first, State):
        if not all(isinstance(x, State) for x in items):
            raise TypeError("cannot tensor states with non-states")
        ctx = _tensor_contexts([x.context for x in items])
        rho = items[0].rho
        for x in items[1:]:
            rho = np.kron(rho, x.rho)
        return State(ctx, rho)
    if isinstance(first, AlgebraElement):
        if not all(isinstance(x, AlgebraElement) for x in items):
            raise TypeError("cannot tensor elements with non-elements")
        ctx = _tensor_contexts([x.context for x in items])
        m = items[0].matrix
        for x in items[1:]:
            m = np.kron(m, x.matrix)
        if all(isinstance(x, Projection) for x in items):
            return Projection(ctx, m)
        if all(isinstance(x, Observable) for x in items):
            return Observable(ctx, m)
        return AlgebraElement(ctx, m)
    raise TypeError(f"cannot tensor values of type {type(first)!r}")


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
