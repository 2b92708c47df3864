"""Power delivery subsystem (PDS) models.

Implements the four PDS configurations compared by the paper:

* conventional single-layer with a board VRM (`Table III` row 1);
* single-layer with an on-chip switched-capacitor IVR (row 2);
* circuit-only voltage stacking with charge-recycling IVRs (row 3);
* cross-layer voltage stacking — CR-IVR plus architectural control (row 4);

plus the effective-impedance analysis of Section III-B (Fig. 3), the
PDE/loss accounting behind Fig. 8 and Table III, and the CR-IVR area
sizing model behind the 912 mm^2 vs 105.8 mm^2 comparison.
"""

from repro.pdn.parameters import PDNParameters, DEFAULT_PDN
from repro.pdn.builder import (
    build_conventional_pdn,
    build_stacked_pdn,
    StackedPDN,
    ConventionalPDN,
)
from repro.pdn.cr_ivr import CRIVRDesign
from repro.pdn.impedance import ImpedanceAnalyzer, StimulusKind
from repro.pdn.efficiency import (
    EfficiencyBreakdown,
    pde_conventional,
    pde_single_ivr,
    pde_voltage_stacked,
)
from repro.pdn.area import required_cr_ivr_area, AreaModel
from repro.pdn.level_shifters import (
    LEVEL_SHIFTER_OPTIONS,
    best_topology_for_rate,
    chip_interface_overhead,
)
from repro.pdn.l2_stack import L2StackConfig

__all__ = [
    "AreaModel",
    "CRIVRDesign",
    "ConventionalPDN",
    "DEFAULT_PDN",
    "EfficiencyBreakdown",
    "ImpedanceAnalyzer",
    "L2StackConfig",
    "LEVEL_SHIFTER_OPTIONS",
    "PDNParameters",
    "StackedPDN",
    "StimulusKind",
    "best_topology_for_rate",
    "chip_interface_overhead",
    "build_conventional_pdn",
    "build_stacked_pdn",
    "pde_conventional",
    "pde_single_ivr",
    "pde_voltage_stacked",
    "required_cr_ivr_area",
]
