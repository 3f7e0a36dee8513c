"""Simulation and likelihood-ratio detection of actuator attacks in
watermarked networked control systems, with a finite-MDP testbed."""

from .detection import (
    Decision,
    DetectionSeries,
    DriftEstimate,
    decide,
    detect_ensemble,
    expected_step_drift,
)
from .harness import (
    AssumptionViolation,
    MdpScenario,
    ParseError,
    RunSummary,
    Scenario,
    ValidationError,
    load_mdp_scenario,
    load_scenario,
    preset,
    run_mdp_batch,
    read_scenario_json,
    run_montecarlo,
    scenario_from_dict,
    with_overrides,
)
from .mdp import (
    FiniteMdp,
    NotAbsolutelyContinuous,
    StochasticPolicy,
    analytic_drift,
    induced_kernel,
    path_log_ratio,
    simulate_paths,
    stationary_distribution,
)
from .model import (
    AttackConfig,
    CpsModel,
    Violation,
    honest_influence_check,
    validate_attack,
    validate_model,
)
from .numerics import (
    ConvergenceFailure,
    DiagonalPsd,
    Dirac,
    GaussianLaw,
    NotPositiveDefinite,
    NotSymmetric,
    SpdMatrix,
    eig_extremes,
    logdet,
    make_spd,
    sample_gaussian,
    split_seed,
)
from .policies import (
    Affine,
    DoS,
    Fdi,
    HistoryWindow,
    LinearFeedback,
    LinearLaws,
    Mimic,
    Replacement,
    Zero,
    control_means,
    lift,
)
from .simulator import (
    Ensemble,
    NonFiniteState,
    simulate_ensemble,
    trajectory_csv_tile,
)

__version__ = "0.1.0"
