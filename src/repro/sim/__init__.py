"""Integrated hybrid simulation infrastructure (Section V).

Couples the three layers the way the paper couples GPGPU-Sim and
SPICE 3: every GPU clock cycle the timing model emits per-SM power,
the PDN circuit model converts it to currents and advances the supply
transient, the detectors sample the resulting SM voltages, and the
smoothing controller's (latency-delayed) commands reconfigure the GPU's
issue adjusters before the next cycle.
"""

from repro.sim.cosim import (
    CosimConfig,
    CosimResult,
    LayerShutoffEvent,
    run_cosim,
)
from repro.sim.explore import (
    ExploreResult,
    ExploreRound,
    round_schedule,
    run_exploration,
)
from repro.sim.pds_configs import PDS_CONFIGS, PDSKind
from repro.sim.power_experiments import (
    run_baseline,
    run_dfs_experiment,
    run_pg_experiment,
)
from repro.sim.sweep import (
    SweepPoint,
    SweepPointResult,
    SweepResult,
    SweepRunner,
    expand_grid,
    run_sweep,
)
from repro.sim.store import ResultStore, point_key

__all__ = [
    "CosimConfig",
    "CosimResult",
    "ExploreResult",
    "ExploreRound",
    "LayerShutoffEvent",
    "PDSKind",
    "PDS_CONFIGS",
    "ResultStore",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "SweepRunner",
    "expand_grid",
    "point_key",
    "round_schedule",
    "run_baseline",
    "run_cosim",
    "run_dfs_experiment",
    "run_exploration",
    "run_pg_experiment",
    "run_sweep",
]
