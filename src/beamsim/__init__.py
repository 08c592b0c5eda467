"""beamsim: multi-beam GEO satellite forward-link Monte Carlo simulator.

Full-frequency-reuse TDMA downlink with multicast MMSE precoding, MaxDist
user clustering, and two frame schedulers (random and geographical) whose
spectral-efficiency and precoding-loss metrics can be compared pairwise.
"""

__version__ = "0.1.0"

from .channel import beam_rf_parameters, channel_matrix
from .clustering import channel_features, max_dist_partition
from .engine import RunManifest, run_experiment, run_iteration
from .errors import GeometryError, ValidationError
from .geometry import SectorGrid
from .link_adaptation import MetricsReport, aggregate, cluster_rates
from .precoding import mmse_precoder, normalize_power
from .scenario import (
    Beam,
    ModCodTable,
    Scenario,
    ScenarioConfig,
    deploy_users,
    load_beams,
    load_config,
    load_modcod,
    load_scenario,
)
from .scheduling import ScheduleSequence, gsa_schedule, random_schedule

__all__ = [
    "__version__",
    "beam_rf_parameters",
    "Beam",
    "channel_features",
    "channel_matrix",
    "cluster_rates",
    "deploy_users",
    "GeometryError",
    "gsa_schedule",
    "load_beams",
    "load_config",
    "load_modcod",
    "load_scenario",
    "max_dist_partition",
    "MetricsReport",
    "mmse_precoder",
    "ModCodTable",
    "normalize_power",
    "aggregate",
    "random_schedule",
    "run_experiment",
    "run_iteration",
    "RunManifest",
    "Scenario",
    "ScenarioConfig",
    "ScheduleSequence",
    "SectorGrid",
    "ValidationError",
]
