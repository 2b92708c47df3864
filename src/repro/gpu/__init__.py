"""Simplified cycle-level Fermi-class GPU model (GPGPU-Sim substitute).

The model reproduces the architectural behaviour the paper's control
scheme interacts with:

* per-SM dual-issue front end with a GTO warp scheduler (or the
  gating-aware GATES scheduler) and a register scoreboard (so issue
  rates land in the paper's observed 0.8-1.8 warps/cycle band);
* ALU / SFU / LSU execution blocks with per-class latencies;
* a shared L2/DRAM memory model with hit/miss latencies and a global
  bandwidth limit;
* the two architectural actuation hooks the paper adds — dynamic issue
  width scaling (DIWS, fractional widths via a down-counter window) and
  fake instruction injection (FII) — plus per-SM frequency scaling and
  execution-unit power gating for the collaborative power-management
  studies;
* a GPUWattch-style event power model emitting per-SM power every cycle.

One engine implements the model: the struct-of-arrays
``VectorizedGPUEngine``, stepping every SM per cycle in the native
library.  Its oracle, the per-object model (an object per SM and per
warp), lives in ``tests/oracles/per_object_gpu.py`` — see
``docs/performance.md``.
"""

from repro.gpu.isa import InstructionClass, UNIT_FOR_CLASS
from repro.gpu.kernels import KernelSpec
from repro.gpu.memory import MemorySystem
from repro.gpu.power import SMPowerModel
from repro.gpu.engine import VectorizedGPUEngine
from repro.gpu.gpu import GPU

__all__ = [
    "GPU",
    "VectorizedGPUEngine",
    "InstructionClass",
    "KernelSpec",
    "MemorySystem",
    "SMPowerModel",
    "UNIT_FOR_CLASS",
]
