"""Measurement-driven preparation of injective PEPS: simulator and checks.

The package simulates, at exactly diagonalizable sizes, the procedure that
grows an entangled-pair state into a target tensor-network state by
projective energy measurements with an undo-retry repair loop, and verifies
its quantitative guarantees: the ground-state overlap bound, the repair-loop
termination law, and the measurement/runtime accounting.
"""

from .dynamics import (
    CostModel,
    JordanPlane,
    Lemma1Report,
    MeasurementOutcome,
    PreparedInstance,
    RunReport,
    VertexRecord,
    cost_model,
    cost_model_for_graph,
    jordan_plane,
    jordan_plane_from_states,
    markov_exact_distribution,
    markov_simulate,
    markov_trials,
    measure_zero_energy,
    overlap_p,
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
    penalty_term,
    terms_to_json,
)
from .harness import (
    InstanceConfig,
    SweepResult,
    SweepRow,
    build_instance,
    generate_random_injective,
    load_config,
    load_fixture,
    parse_config,
    random_injective_matrix,
    sweep,
)
from .linalg import (
    SingularDecomposition,
    SpectralDecomposition,
    condition_number,
    embed_term,
    hermitian_eig,
    kernel_projector,
    kron,
    polar_decompose,
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
    z_ratio_bound,
)

__version__ = "0.1.0"
