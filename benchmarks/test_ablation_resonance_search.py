"""Ablation — empirical resonance search vs the impedance analysis.

The effective-impedance methodology (Section III-B) predicts the
frequencies at which load-current energy hurts most.  This ablation
validates the prediction *in the time domain*: a square-wave "power
virus" sweeps its fundamental frequency through the PDN, and the
frequency producing the worst droop must land on the AC analysis's
global resonance peak (+/- a sweep bin).

It also validates the residual story: a low-frequency residual pattern
(intra-column imbalance) produces more droop per ampere than the same
current applied globally — Fig. 3's Z_R >> Z_G finding, measured
transiently.

Both are open-loop runs of the stacked PDN: each stimulus is one lane of
a batch-solver run (``tests/pdn/open_loop.py``), the eight frequencies
one batch and the residual/global pair another.
"""

import numpy as np

from conftest import emit
from repro.analysis.report import format_series, format_table
from repro.circuits.ac import log_frequency_grid
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.impedance import ImpedanceAnalyzer, StimulusKind
from repro.workloads.synthetic import (
    resonance_currents,
    worst_case_residual_currents,
)
from tests.pdn.open_loop import run_open_loop

SWEEP_MHZ = [20, 35, 50, 63, 80, 110, 150, 220]


def _sweep():
    patterns = [
        resonance_currents(f_mhz * 1e6, low_activity=0.4, high_activity=0.9)
        for f_mhz in SWEEP_MHZ
    ]
    droops = [
        float(np.median(result.sm_voltages)) - result.min_voltage
        for result in run_open_loop(
            patterns, duration_s=0.8e-6, cr_ivr_area_mm2=0.0
        )
    ]
    # AC-analysis prediction of the worst global frequency.
    analyzer = ImpedanceAnalyzer(build_stacked_pdn())
    freqs = log_frequency_grid(10e6, 300e6, points_per_decade=30)
    z_global = analyzer.sweep(freqs, StimulusKind.GLOBAL)
    predicted_mhz = float(freqs[int(np.argmax(z_global))] / 1e6)
    return droops, predicted_mhz


def test_resonance_search_matches_impedance_peak(benchmark):
    droops, predicted_mhz = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "Ablation: resonance search",
        format_series(
            {"freq_mhz": SWEEP_MHZ, "worst_droop_v": [round(d, 4) for d in droops]},
            x_label="freq_mhz",
            title=(
                "Empirical worst droop vs virus frequency "
                f"(AC analysis predicts {predicted_mhz:.0f} MHz)"
            ),
        ),
    )
    empirical_mhz = SWEEP_MHZ[int(np.argmax(droops))]
    # The empirical worst frequency lands on the predicted resonance
    # within one sweep bin.
    neighbours = {
        SWEEP_MHZ[max(0, int(np.argmax(droops)) - 1)],
        empirical_mhz,
        SWEEP_MHZ[min(len(SWEEP_MHZ) - 1, int(np.argmax(droops)) + 1)],
    }
    assert any(abs(m - predicted_mhz) < 25 for m in neighbours)


def test_residual_hurts_more_than_global(benchmark):
    def _compare():
        # Same 2 A of stimulus: once concentrated as an intra-column
        # residual at 2 MHz, once as part of the global square wave.
        residual = worst_case_residual_currents(
            2e6, sm=0, amplitude_a=2.0, activity=0.6
        )
        global_wave = resonance_currents(
            2e6, low_activity=0.56, high_activity=0.64
        )  # ~2 A total swing across 16 SMs
        r_res, r_glob = run_open_loop(
            [residual, global_wave], 2.0e-6, cr_ivr_area_mm2=0.0
        )
        droop_res = float(np.median(r_res.sm_voltages) - r_res.min_voltage)
        droop_glob = float(np.median(r_glob.sm_voltages) - r_glob.min_voltage)
        return droop_res, droop_glob

    droop_res, droop_glob = benchmark.pedantic(_compare, rounds=1, iterations=1)
    emit(
        "Ablation: residual vs global stimulus",
        format_table(
            ["stimulus", "worst droop (V)"],
            [["residual 2 A @ 2 MHz", round(droop_res, 4)],
             ["global 2 A @ 2 MHz", round(droop_glob, 4)]],
            title="Per-ampere noise: residual imbalance vs global load",
        ),
    )
    assert droop_res > 2 * droop_glob