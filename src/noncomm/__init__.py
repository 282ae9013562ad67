"""noncomm: one engine for classical and quantum conditional probability.

Classical probability (diagonal matrix algebras, Bayes conditioning,
permutation dynamics) and quantum mechanics (full matrix algebras, the
projection postulate, unitary Heisenberg dynamics) run through the same four
ingredients: an observable algebra, states on it, a conditional update, and a
one-parameter automorphism group.  A scenario suite turns the standard
measurement puzzles (Zeno freezing, entangled pairs, two-slit which-path,
repeated noncommuting questions) into reproducible numerical experiments.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    ContextMismatchError,
    Observable,
    PhaseSpace,
    PhaseSubset,
    Projection,
    SpectralData,
    ValueSet,
    characteristic_projection,
    commutes,
    complement,
    diagonal_context,
    diagonal_element,
    eigendecompose,
    full_context,
    is_projection,
    norms,
    spectral_projection,
    unit,
)
from .dynamics import (
    Flow,
    Hamiltonian,
    compose_flows,
    heisenberg_evolve,
    invert_flow,
    koopman_evolve,
    propagator,
    schrodinger_state,
)
from .measurement import (
    BatchOutcomes,
    MeasurementRecord,
    Outcome,
    ScheduleEntry,
    YesNoExperiment,
    embed_local,
    make_generator,
    partial_trace,
    perform,
    run_batch,
    run_sequence,
    tensor,
    trial_generator,
    trial_streams,
)
from .scenarios import (
    SCENARIOS,
    ParameterError,
    ScenarioResult,
    UnknownScenarioError,
    run_scenario,
)
from .states import (
    NumericalInvariantError,
    State,
    ZeroProbabilityError,
    classical_condition,
    classical_state,
    condition,
    density_state,
    expectation,
    pure_state,
    state_distance,
    yes_probability,
)
