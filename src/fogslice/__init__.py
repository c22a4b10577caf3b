"""Discrete-time simulator and solvers for energy-harvesting fog networks.

Nodes wake each slot with whatever energy their harvesters banked, slice
it across service types, and forward workload to neighbors with spare
capacity; payoffs follow served requests.  The package provides the
queueing and battery primitives, the per-slot welfare solver with its
enumeration oracles, belief tracking for partially observed agents, and
an episode engine with reports and parameter sweeps.
"""

from .belief import (
    FinitePomdp,
    ImpossibleObservation,
    TypeSpace,
    bellman_value,
    select_action,
    update_env_belief,
    update_type_belief,
)
from .engine import (
    ConfigError,
    EngineInvariantError,
    EpisodeResult,
    ExperimentConfig,
    build_config,
    emit_report,
    emit_sweep,
    load_config,
    load_report,
    run_episode,
    run_sweep,
)
from .env import (
    CausalityViolation,
    EnvironmentSpec,
    EnvState,
    MarkovChainSpec,
    battery_step,
    bursty_arrivals,
    sample_step,
    uniform_harvest,
)
from .game import (
    CoreOptions,
    CoreResult,
    GameInstance,
    OffloadSolution,
    SliceInstance,
    SolverOptions,
    WelfareSolution,
    check_core,
    dump_instance,
    load_instance,
    solve_energy_split,
    solve_offload,
    solve_social_welfare,
)
from .model import (
    DimensionMismatch,
    FogNodeSpec,
    NetworkSpec,
    ServiceTypeSpec,
    SlicingAgreement,
    SlotState,
    Violation,
    validate_agreement,
)
from .queueing import (
    DegenerateArrival,
    UnstableError,
    optimal_local_fraction,
    response_time_local,
)
from .topology import (
    ConstantRtt,
    DistanceRtt,
    KNearestRule,
    RadiusRule,
    build_neighbors,
    pairwise_distances,
    synth_topology,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
