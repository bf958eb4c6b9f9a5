"""Exact front tracking for scalar conservation laws, particle paths
through the resulting discontinuous fields, viscous comparisons, stability
experiments, and Bayesian inversion of trajectory observations."""

from .bayes import (
    BallAverageForward,
    HellingerEstimate,
    ObservationSet,
    PointwiseForward,
    PosteriorRun,
    PriorSpec,
    StudyReport,
    TrajectoryForward,
    VelocityTrajectoryForward,
    ViscousTrajectoryForward,
    hellinger_between,
    latent_to_unit_interval,
    place_observation_points,
    posterior_convergence_study,
    potential,
    run_pcn,
    synth_observations,
)
from .config import ConfigError, ScenarioConfig, load_scenario
from .experiments import (
    BurgersCheck,
    LadderReport,
    RateReport,
    burgers_transform_check,
    fit_rate,
    flux_stability,
    initial_field_stability,
    perturb_initial_field,
    perturb_velocity,
    stability_window,
    traffic_speed_margin,
    trajectory_convergence_study,
    velocity_lip_distance,
    viscous_convergence_study,
)
from .filippov import (
    SpreadReport,
    Trajectory,
    check_speed_inclusion,
    initial_position_spread,
    riemann_comparison,
    track,
)
from .flux import (
    BurgersQuadraticFlux,
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TableVelocity,
    TrafficQuadraticFlux,
    concave_envelope,
    convex_envelope,
    dyadic_points,
    lipschitz_distance,
    piecewise_linearize,
    traffic_flux_from_velocity,
)
from .front_tracking import (
    EventCapError,
    FrontEvent,
    FrontTrackingSolution,
    ShockCatalog,
    StepFunction,
    evolve,
    l1_distance,
    quantize_step,
    solve_riemann,
)
from .viscous import GridField, solve_viscous, track_smooth

__version__ = "0.1.0"
