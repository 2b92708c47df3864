"""The paper's contribution: control-theory-driven voltage smoothing.

* :mod:`repro.core.state_space` — the linear dynamic model of the
  stacked power grid (eqs. 1-5) with proportional state feedback
  (eqs. 6-7);
* :mod:`repro.core.stability` — discretization at the control latency
  (eq. 8), eigenvalue stability, and the disturbance-rejection bound
  (Section IV-B);
* :mod:`repro.core.detectors` — front-end voltage detector options
  (Table II) and the anti-aliasing RC low-pass filter;
* :mod:`repro.core.actuators` — DIWS / FII / DCC actuation mechanisms
  with their timescales (Fig. 5) and the weighted control input (eq. 9);
* :mod:`repro.core.controller` — Algorithm 1: the boundary-triggered
  per-SM proportional power controller with its latency pipeline;
* :mod:`repro.core.overheads` — synthesized power/area/latency budget
  (Section IV-D);
* :mod:`repro.core.hypervisor` — Algorithm 2: the VS-aware power
  management hypervisor that makes DFS and power gating compatible with
  voltage stacking.
"""

from repro.core.state_space import StackedGridModel
from repro.core.stability import (
    discretize,
    disturbance_rejection_bound,
    is_stable,
    select_feedback_gain,
    spectral_radius,
)
from repro.core.detectors import (
    DETECTOR_OPTIONS,
    DetectorSpec,
    RCLowPassFilter,
    VoltageDetector,
)
from repro.core.actuators import (
    ACTUATION_TIMESCALES,
    CurrentCompensationDAC,
    WeightedActuation,
)
from repro.core.controller import ControllerConfig, VoltageSmoothingController
from repro.core.overheads import ControllerOverheads, control_latency_cycles
from repro.core.hypervisor import HypervisorConfig, VSAwareHypervisor

__all__ = [
    "ACTUATION_TIMESCALES",
    "ControllerConfig",
    "ControllerOverheads",
    "CurrentCompensationDAC",
    "DETECTOR_OPTIONS",
    "DetectorSpec",
    "HypervisorConfig",
    "RCLowPassFilter",
    "StackedGridModel",
    "VSAwareHypervisor",
    "VoltageDetector",
    "VoltageSmoothingController",
    "control_latency_cycles",
    "discretize",
    "disturbance_rejection_bound",
    "is_stable",
    "select_feedback_gain",
    "spectral_radius",
]
