"""repro — Voltage-Stacked GPUs (MICRO 2018) reproduction library.

A control-theory-driven cross-layer simulator for practical voltage
stacking in GPUs.  The package combines:

* ``repro.circuits`` — a SPICE-substitute linear circuit engine (MNA,
  trapezoidal transient, complex AC analysis);
* ``repro.pdn`` — power delivery network models: conventional VRM,
  single-layer IVR, and the 4x4 voltage-stacked configuration with
  charge-recycling IVRs, plus effective-impedance and efficiency
  analysis;
* ``repro.gpu`` — a simplified cycle-level Fermi-class GPU timing and
  power model (the GPGPU-Sim/GPUWattch substitute);
* ``repro.workloads`` — the paper's twelve benchmarks as synthetic kernel
  generators plus worst-case stimuli;
* ``repro.core`` — the paper's contribution: the state-space model of the
  stacked power grid, stability analysis, voltage detectors, the DIWS /
  FII / DCC actuators, the Algorithm 1 voltage-smoothing controller and
  the Algorithm 2 VS-aware power-management hypervisor;
* ``repro.power_mgmt`` — GRAPE-style DFS and Warped-Gates-style power
  gating, used for the collaborative power-management studies;
* ``repro.sim`` — the integrated hybrid co-simulation infrastructure;
* ``repro.analysis`` — metrics and report formatting for every table and
  figure in the paper's evaluation.

Quickstart::

    from repro import quick_cosim
    result = quick_cosim(benchmark="hotspot", cycles=2000)
    print(result.summary())
"""

__version__ = "1.0.0"

from repro.config import (
    DEFAULT_CONFIG,
    GPUConfig,
    PowerConfig,
    StackConfig,
    SystemConfig,
)

__all__ = [
    "DEFAULT_CONFIG",
    "GPUConfig",
    "PowerConfig",
    "StackConfig",
    "SystemConfig",
    "__version__",
]


def quick_cosim(benchmark: str = "hotspot", cycles: int = 2000, **kwargs):
    """Run a short cross-layer co-simulation of one benchmark.

    Convenience wrapper that builds the default voltage-stacked system,
    runs ``cycles`` GPU cycles of ``benchmark`` through the coupled
    GPU/PDN/controller loop, and returns the
    :class:`repro.sim.cosim.CosimResult`.
    """
    from repro.sim.cosim import CosimConfig, run_cosim

    return run_cosim(benchmark, CosimConfig(cycles=cycles, **kwargs))
