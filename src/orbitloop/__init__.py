"""Observer-based closed-loop orbit maneuver toolkit.

Plant construction and analysis, LQR/H-infinity/observer synthesis, Lambert
boundary-value guidance, and adaptive closed-loop propagation of planar
two-body motion under solar radiation pressure.
"""

__version__ = "0.1.0"

from ._dopri import BACKEND_REASON, USING_NUMBA
from .dynamics import (
    EARTH_RADIUS_KM,
    OrbitState,
    PhysicalConstants,
    SOLAR_CONSTANT_W_M2,
    SpacecraftParams,
    SrpConfig,
    lambert_solve,
    linearize_plant,
    srp_accel,
    srp_force,
    two_body_srp_derivative,
)
from .errors import (
    DegenerateGeometryError,
    DimensionError,
    GammaRangeError,
    InfeasibleTransferError,
    NoUniqueSolutionError,
    NotApplicableError,
    NumericalError,
    OrbitloopError,
    ScenarioError,
    SingularMatrixError,
    SolverError,
    SynthesisError,
    UndefinedNormError,
)
from .linalg import as_matrix, eigenvalues, expm, rank, solve_lyapunov
from .ltisys import (
    Stability,
    StateSpace,
    controllability_matrix,
    default_frequency_grid,
    frequency_response,
    observability_matrix,
    stability_class,
    step_response,
    transfer_eval,
    zero_input_response,
    zero_state_response,
)
from .simulate import (
    ComparisonReport,
    DriftStudy,
    Method,
    Metrics,
    MethodReport,
    PlantMode,
    ReferenceMode,
    Scenario,
    ScenarioDesign,
    SimulationRecord,
    compare_methods,
    compute_metrics,
    estimation_error_series,
    propagate_two_body,
    run_scenario,
    scenario_plant,
    srp_drift_study,
    synthesize_for_scenario,
)
from .synthesis import (
    SeparationLoop,
    SynthesisResult,
    Weights,
    assemble_separation_loop,
    hinf_norm,
    hinf_state_feedback,
    lqr_gain,
    lqr_loop_transfer,
    observer_compensator,
    observer_gain,
    place_poles,
    solve_care,
    solve_hinf_riccati,
    weighted_performance_loop,
)
