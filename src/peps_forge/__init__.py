"""Measurement-driven preparation of injective PEPS: simulator and checks.

The package simulates, at exactly diagonalizable sizes, the procedure that
grows an entangled-pair state into a target tensor-network state by
projective energy measurements with an undo-retry repair loop, and verifies
its quantitative guarantees: the ground-state overlap bound, the repair-loop
termination law, and the measurement/runtime accounting.
"""

from .dynamics import (
    CostModel,
    Lemma1Report,
    MeasurementOutcome,
    PreparedInstance,
    RunReport,
    VertexRecord,
    cost_model,
    graph_cost_parameters,
    markov_exact_distribution,
    markov_simulate,
    markov_trials,
    measure_zero_energy,
    p_fail_bound,
    p_term,
    required_alternations,
    run_algorithm,
    verify_lemma1,
)
from .errors import (
    BoundViolationError,
    CapacityError,
    ConditioningError,
    ConfigError,
    DegenerateGroundSpaceError,
    GaugeRestoreError,
    InjectivityError,
    InvalidInputError,
    NumericalFailureError,
    OrthogonalTargetsError,
    PepsForgeError,
)
from .hamiltonian import (
    GroundAnalysis,
    LocalHamiltonian,
    LocalTerm,
    assemble_step,
    edge_term,
    edge_term_on_registers,
    ground_analysis,
    parent_term,
    terms_to_json,
)
from .harness import (
    InstanceConfig,
    SweepResult,
    SweepRow,
    build_instance,
    load_config,
    load_fixture,
    parse_config,
    sweep,
)
from .linalg import (
    SingularDecomposition,
    SpectralDecomposition,
    embed_term,
    hermitian_eig,
    svd,
)
from .network import (
    InteractionGraph,
    PepsTensor,
    canonicalize,
    contract_partial,
    pair_state,
    peps_state,
    restore_gauge,
)

__version__ = "0.1.0"
