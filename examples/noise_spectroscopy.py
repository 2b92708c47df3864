#!/usr/bin/env python
"""Noise spectroscopy: where in frequency does a workload's danger live?

Reproduces the paper's Section III-B reasoning on a real workload trace:

1. run a benchmark as a circuit-only lane of the co-sim loop and take
   its per-SM power trace (the GPU's own: no controller, so nothing
   from the PDN reaches it);
2. decompose the trace into the three orthogonal current components
   (global / stack / residual) and take each component's spectrum;
3. weight each spectral line by the PDN's effective impedance for that
   component at that frequency — the product is the supply-noise
   contribution;
4. report which component dominates and in which band, and therefore
   which layer of the cross-layer solution is responsible for it.

Run:  python examples/noise_spectroscopy.py [benchmark]
"""

import sys

import numpy as np

from repro.analysis.spectral import imbalance_spectrum
from repro.circuits.ac import log_frequency_grid
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.impedance import ImpedanceAnalyzer, StimulusKind
from repro.sim.cosim import CosimConfig, run_cosim

BANDS = [
    ("low    (<6 MHz: controller's band)", 3e5, 6e6),
    ("middle (6-30 MHz: shared)", 6e6, 30e6),
    ("high   (>30 MHz: CR-IVR/decap band)", 30e6, 350e6),
]


def band_noise(freqs, amps, z_of_f, lo, hi):
    """RMS noise contribution of a component within a band."""
    mask = (freqs >= lo) & (freqs < hi)
    if not np.any(mask):
        return 0.0
    contributions = amps[mask] * z_of_f(freqs[mask])
    return float(np.sqrt(0.5 * np.sum(contributions**2)))


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "backprop"
    print(f"Capturing {name!r} power trace...")
    trace = run_cosim(name, CosimConfig(
        cycles=4096, warmup_cycles=300, use_controller=False, seed=11,
    )).power_trace
    spectra = imbalance_spectrum(trace.data, trace.frequency_hz)

    print("Building impedance profiles (unregulated PDN)...")
    analyzer = ImpedanceAnalyzer(build_stacked_pdn())
    grid = log_frequency_grid(3e5, 3.5e8, points_per_decade=8)
    z_tables = {
        "global": analyzer.sweep(grid, StimulusKind.GLOBAL),
        "stack": analyzer.sweep(grid, StimulusKind.STACK, column=0),
        "residual": analyzer.sweep(
            grid, StimulusKind.RESIDUAL, observe_sm=0, sm=0
        ),
    }

    def z_interp(component):
        table = z_tables[component]

        def z_of_f(f):
            return np.interp(np.log10(f), np.log10(grid), table)

        return z_of_f

    print()
    print(f"Supply-noise contribution by component and band ({name}):")
    header = f"  {'band':<38s}" + "".join(
        f"{c:>12s}" for c in ("global", "stack", "residual")
    )
    print(header)
    totals = {c: 0.0 for c in z_tables}
    for label, lo, hi in BANDS:
        row = f"  {label:<38s}"
        for component in ("global", "stack", "residual"):
            freqs, amps = spectra[component]
            noise = band_noise(freqs, amps, z_interp(component), lo, hi)
            totals[component] += noise**2
            row += f"{1e3 * noise:9.2f} mV"
        print(row)
    print()
    dominant = max(totals, key=totals.get)
    print(f"Dominant noise component: {dominant} "
          f"(total {1e3 * np.sqrt(totals[dominant]):.1f} mV RMS)")
    print("The residual (imbalance) component's low/middle-band share is")
    print("what the architectural controller exists to remove; the high")
    print("band belongs to the CR-IVRs and decap — the cross-layer split.")


if __name__ == "__main__":
    main()
