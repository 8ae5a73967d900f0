"""Numerical toolkit for single-photon cavity reflection, post-selected
atom-atom controlled-phase gates, and probabilistic cluster-state growth."""

__version__ = "0.1.0"

from .core import (
    CavityParams,
    ConfigError,
    PulseEnvelope,
    TimeGrid,
    WindowTooSmallError,
    coupling_at,
    default_time_grid,
    g0_for_mean_coupling,
    make_sech_pulse,
    mean_coupling,
    parse_config,
)
from .reflection import (
    ReflectionRecord,
    SolverError,
    reflect_bare,
    reflect_coupled,
    reflect_coupled_motion_averaged,
    sweep,
)
from .gate import (
    BranchReflectivities,
    GateOutcome,
    TwoQubitState,
    circuit_oracle,
    gate_from_simulation,
    single_cavity_entangle,
    two_cavity_gate,
    two_sided_effective_params,
)
from .cluster import (
    GrowthStats,
    SmallState,
    attach_attempt,
    join_cross,
    make_linear_cluster,
    monte_carlo_growth,
    recover_failure,
    split_measure,
)
