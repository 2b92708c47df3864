"""The noise observatory — physics-level observability for one run.

A co-simulation's scalar endpoints (``min_voltage_v``, ``pde``) say
*whether* a run drooped or lost efficiency; this module says *why*:

* :func:`band_decomposition` — RMS content of the worst-SM voltage
  trace split into the paper's three frequency regimes (below the
  controller bandwidth / the mid band / around the PDN resonance),
  with each band attributed to the global / stack / residual
  imbalance components via :func:`repro.analysis.spectral.imbalance_series`;
* :func:`droop_event_log` — contiguous excursions below the guardband
  as an event stream (start, duration, depth, worst SM and layer)
  instead of a single minimum;
* :func:`pde_loss_ledger` — board input power reconciled to delivered
  power term by term (VRM conversion / PDN IR / CR-IVR shuffle /
  level shifters / quiescent bias / controller), with a closure check
  that the terms account for the whole input;
* :func:`layer_imbalance_summary` — per-layer power shares, excess
  over the layer mean, and worst voltages.

:func:`compute_noise_report` bundles all four into a
:class:`NoiseReport` whose :meth:`NoiseReport.to_dict` form is embedded
as the ``noise`` section of a telemetry manifest (and rendered back by
``repro observe`` through :func:`render_noise_report`).  The flat
``summary`` sub-dict is what ``repro compare`` gates regressions on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.spectral import band_powers, imbalance_series
from repro.config import StackConfig
from repro.pdn.efficiency import layer_shuffle_power, pde_voltage_stacked
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters

#: Package-inductance / on-chip-decap resonance of the stacked PDN
#: (the ~70 MHz peak of the Fig. 3 global impedance curve).
PDN_RESONANCE_HZ = 70e6


# ---------------------------------------------------------------------------
# Frequency bands
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Band:
    """One closed frequency band ``[low_hz, high_hz]``."""

    name: str
    low_hz: float
    high_hz: float

    def __post_init__(self) -> None:
        if not 0 <= self.low_hz < self.high_hz:
            raise ValueError(
                f"band {self.name!r} needs 0 <= low < high, "
                f"got [{self.low_hz}, {self.high_hz}]"
            )


def default_bands(
    sample_rate_hz: float,
    latency_cycles: Optional[int] = None,
    resonance_hz: float = PDN_RESONANCE_HZ,
) -> Tuple[Band, ...]:
    """The paper's frequency division of labor as three bands.

    * ``control`` — DC up to the controller bandwidth (one loop
      turnaround of ``latency_cycles``; the paper's 60-cycle design
      point by default): the regime Algorithm 1 is responsible for.
    * ``mid`` — between the controller bandwidth and the lower skirt of
      the PDN resonance: neither actor owns it outright; energy here is
      the hand-off region of Fig. 5.
    * ``resonance`` — around the package/decap resonance peak (half to
      twice ``resonance_hz``, clipped to Nyquist): the CR-IVRs' job.
    """
    if sample_rate_hz <= 0:
        raise ValueError("sample rate must be positive")
    if latency_cycles is None:
        from repro.core.overheads import control_latency_cycles

        latency_cycles = control_latency_cycles()
    nyquist = sample_rate_hz / 2.0
    control_edge = sample_rate_hz / float(latency_cycles)
    mid_edge = resonance_hz / 2.0
    top_edge = min(2.0 * resonance_hz, nyquist)
    if not control_edge < mid_edge < top_edge:
        raise ValueError(
            f"degenerate band layout at sample rate {sample_rate_hz:g} Hz: "
            f"edges {control_edge:g} / {mid_edge:g} / {top_edge:g} Hz must "
            "increase — pass explicit bands instead"
        )
    return (
        Band("control", 0.0, control_edge),
        Band("mid", control_edge, mid_edge),
        Band("resonance", mid_edge, top_edge),
    )


def band_decomposition(
    sm_voltages: np.ndarray,
    per_sm_power: np.ndarray,
    sample_rate_hz: float,
    bands: Sequence[Band],
    stack: StackConfig = StackConfig(),
) -> List[Dict[str, object]]:
    """Per-band RMS of the worst-SM voltage, attributed to components.

    For each band: the RMS voltage noise of the worst-SM trace inside
    it, the RMS of each imbalance-component series (watts) inside it,
    and each component's *share* of the three components' band energy —
    i.e. which kind of imbalance is exciting that band.
    """
    worst_trace = np.asarray(sm_voltages, dtype=float).min(axis=1)
    series = imbalance_series(per_sm_power, stack)
    edges = [(band.low_hz, band.high_hz) for band in bands]
    v_bands = band_powers(worst_trace, sample_rate_hz, edges)
    comp_bands = {
        name: band_powers(values, sample_rate_hz, edges)
        for name, values in series.items()
    }
    rows: List[Dict[str, object]] = []
    for k, band in enumerate(bands):
        v_rms = v_bands[k]
        comp_rms = {name: powers[k] for name, powers in comp_bands.items()}
        energy = sum(r**2 for r in comp_rms.values())
        shares = {
            name: (r**2 / energy if energy > 0 else 0.0)
            for name, r in comp_rms.items()
        }
        rows.append({
            "band": band.name,
            "low_hz": band.low_hz,
            "high_hz": band.high_hz,
            "voltage_rms_v": float(v_rms),
            "component_rms_w": {k: float(v) for k, v in comp_rms.items()},
            "component_share": {k: float(v) for k, v in shares.items()},
        })
    return rows


# ---------------------------------------------------------------------------
# Droop events
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DroopEvent:
    """One contiguous excursion of the worst SM below the guardband."""

    start_cycle: int
    duration_cycles: int
    min_voltage_v: float
    depth_v: float  # guardband minus the event minimum (positive)
    worst_sm: int
    layer: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "start_cycle": self.start_cycle,
            "duration_cycles": self.duration_cycles,
            "min_voltage_v": self.min_voltage_v,
            "depth_v": self.depth_v,
            "worst_sm": self.worst_sm,
            "layer": self.layer,
        }


def droop_event_log(
    sm_voltages: np.ndarray,
    guardband_v: float,
    stack: StackConfig = StackConfig(),
) -> List[DroopEvent]:
    """Contiguous below-guardband excursions as an event stream.

    ``sm_voltages`` is the recorded ``(cycles, num_sms)`` waveform; an
    event spans every consecutive cycle whose *worst* SM sits below
    ``guardband_v``.  Each event reports its depth and the SM (and
    layer) that reached the event minimum.
    """
    sm_voltages = np.asarray(sm_voltages, dtype=float)
    if sm_voltages.ndim != 2 or sm_voltages.shape[1] != stack.num_sms:
        raise ValueError(
            f"expected (cycles, {stack.num_sms}) voltages, "
            f"got shape {sm_voltages.shape}"
        )
    below = np.flatnonzero(sm_voltages.min(axis=1) < guardband_v)
    if below.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(below) > 1)
    starts = np.concatenate(([below[0]], below[breaks + 1]))
    ends = np.concatenate((below[breaks], [below[-1]]))  # inclusive
    events: List[DroopEvent] = []
    for start, end in zip(starts, ends):
        window = sm_voltages[start : end + 1]
        cycle_off, worst_sm = np.unravel_index(np.argmin(window), window.shape)
        minimum = float(window[cycle_off, worst_sm])
        layer, _ = stack.layer_column(int(worst_sm))
        events.append(
            DroopEvent(
                start_cycle=int(start),
                duration_cycles=int(end - start + 1),
                min_voltage_v=minimum,
                depth_v=float(guardband_v - minimum),
                worst_sm=int(worst_sm),
                layer=int(layer),
            )
        )
    return events


# ---------------------------------------------------------------------------
# PDE loss ledger
# ---------------------------------------------------------------------------
#: Ledger term order as rendered (board input downward to the load).
LEDGER_TERMS = (
    "vrm_conversion_w",
    "pdn_ir_w",
    "cr_ivr_shuffle_w",
    "level_shifter_w",
    "cr_quiescent_w",
    "controller_w",
)


@dataclass(frozen=True)
class LossLedger:
    """Board input power reconciled to delivered power, term by term."""

    input_power_w: float
    delivered_power_w: float
    terms: Dict[str, float]

    @property
    def total_loss_w(self) -> float:
        return float(sum(self.terms.values()))

    @property
    def closure_rel_error(self) -> float:
        """|input - losses - delivered| / input — 0 when the ledger closes."""
        gap = self.input_power_w - self.total_loss_w - self.delivered_power_w
        return abs(gap) / self.input_power_w

    def closes(self, tolerance: float = 0.01) -> bool:
        return self.closure_rel_error <= tolerance

    @property
    def pde(self) -> float:
        return self.delivered_power_w / self.input_power_w

    def to_dict(self) -> Dict[str, object]:
        return {
            "input_power_w": self.input_power_w,
            "delivered_power_w": self.delivered_power_w,
            "terms_w": dict(self.terms),
            "total_loss_w": self.total_loss_w,
            "closure_rel_error": self.closure_rel_error,
            "pde": self.pde,
        }


def pde_loss_ledger(
    result,
    params: PDNParameters = DEFAULT_PDN,
) -> LossLedger:
    """Reconcile a run's board input power against its loss terms.

    The *input* side comes from the efficiency model the headline PDE
    uses (:func:`repro.pdn.efficiency.pde_voltage_stacked`); the loss
    *terms* are re-derived here from the run's measured trace, so a
    closure failure means the accounting paths disagree — exactly the
    regression the observatory exists to catch.
    """
    stack: StackConfig = result.stack
    load = result.power_trace.mean_power_w
    shuffle = layer_shuffle_power(result.power_trace.data, stack)
    eta = params.cr_shuffle_efficiency
    terms = {
        "vrm_conversion_w": 0.0,  # stacking has no conversion stage
        "pdn_ir_w": (load / stack.board_voltage) ** 2
        * params.series_resistance,
        "cr_ivr_shuffle_w": shuffle * (1.0 - eta) / eta,
        "level_shifter_w": params.level_shifter_overhead * load,
        "cr_quiescent_w": params.cr_quiescent_power,
        "controller_w": result.controller_power_w,
    }
    breakdown = pde_voltage_stacked(
        load, shuffle, stack, params,
        controller_power_w=result.controller_power_w,
    )
    return LossLedger(
        input_power_w=breakdown.input_power,
        delivered_power_w=load,
        terms=terms,
    )


# ---------------------------------------------------------------------------
# Per-layer imbalance
# ---------------------------------------------------------------------------
def layer_imbalance_summary(
    sm_voltages: np.ndarray,
    per_sm_power: np.ndarray,
    stack: StackConfig = StackConfig(),
) -> List[Dict[str, float]]:
    """Per-layer power share, mean excess over the layer mean, min voltage."""
    per_sm_power = np.atleast_2d(np.asarray(per_sm_power, dtype=float))
    sm_voltages = np.atleast_2d(np.asarray(sm_voltages, dtype=float))
    layer_powers = per_sm_power.reshape(
        per_sm_power.shape[0], stack.num_layers, stack.num_columns
    ).sum(axis=2)  # (cycles, layers)
    mean_layer = layer_powers.mean(axis=1, keepdims=True)
    excess = np.clip(layer_powers - mean_layer, 0.0, None)
    total = float(layer_powers.sum())
    rows = []
    for layer in range(stack.num_layers):
        sms = stack.sms_in_layer(layer)
        rows.append({
            "layer": layer,
            "mean_power_w": float(layer_powers[:, layer].mean()),
            "power_share": (
                float(layer_powers[:, layer].sum()) / total if total > 0 else 0.0
            ),
            "mean_excess_w": float(excess[:, layer].mean()),
            "min_voltage_v": float(sm_voltages[:, sms].min()),
        })
    return rows


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NoiseReport:
    """Everything the observatory computed for one run."""

    benchmark: str
    sample_rate_hz: float
    guardband_v: float
    bands: List[Dict[str, object]]
    droop_events: List[DroopEvent]
    ledger: LossLedger
    layers: List[Dict[str, float]]

    def summary(self) -> Dict[str, float]:
        """Flat scalar KPIs — the metrics ``repro compare`` gates on."""
        out: Dict[str, float] = {
            "droop_event_count": float(len(self.droop_events)),
            "droop_cycles": float(
                sum(e.duration_cycles for e in self.droop_events)
            ),
            "worst_droop_depth_v": (
                max(e.depth_v for e in self.droop_events)
                if self.droop_events
                else 0.0
            ),
            "ledger_closure_rel_error": self.ledger.closure_rel_error,
            "pde": self.ledger.pde,
            "max_layer_excess_w": max(
                row["mean_excess_w"] for row in self.layers
            ),
        }
        for row in self.bands:
            out[f"band_{row['band']}_vrms"] = float(row["voltage_rms_v"])
        residual_low = next(
            (
                row["component_rms_w"]["residual"]
                for row in self.bands
                if row["band"] == "control"
            ),
            None,
        )
        if residual_low is not None:
            out["residual_imbalance_w_rms"] = float(residual_low)
        return out

    def to_dict(self) -> Dict[str, object]:
        """Manifest-ready (JSON-clean) form — the ``noise`` section."""
        return {
            "benchmark": self.benchmark,
            "sample_rate_hz": self.sample_rate_hz,
            "guardband_v": self.guardband_v,
            "summary": self.summary(),
            "bands": self.bands,
            "droop_events": [e.to_dict() for e in self.droop_events],
            "ledger": self.ledger.to_dict(),
            "layers": self.layers,
        }


def compute_noise_report(
    result,
    params: PDNParameters = DEFAULT_PDN,
    bands: Optional[Sequence[Band]] = None,
    guardband_v: Optional[float] = None,
) -> NoiseReport:
    """Build the full :class:`NoiseReport` for a ``CosimResult``.

    ``result`` is duck-typed: it needs ``sm_voltages``, ``power_trace``
    (with ``data`` / ``mean_power_w`` / ``frequency_hz``), ``stack``,
    ``controller_power_w`` and ``benchmark``.  Needs at least 8
    recorded cycles for the spectral split to mean anything.
    """
    stack: StackConfig = result.stack
    if result.sm_voltages.shape[0] < 8:
        raise ValueError(
            f"need >= 8 recorded cycles for a noise report, "
            f"got {result.sm_voltages.shape[0]}"
        )
    sample_rate = float(result.power_trace.frequency_hz)
    if bands is None:
        bands = default_bands(sample_rate)
    if guardband_v is None:
        guardband_v = stack.min_safe_voltage
    return NoiseReport(
        benchmark=result.benchmark,
        sample_rate_hz=sample_rate,
        guardband_v=float(guardband_v),
        bands=band_decomposition(
            result.sm_voltages, result.power_trace.data,
            sample_rate, bands, stack,
        ),
        droop_events=droop_event_log(result.sm_voltages, guardband_v, stack),
        ledger=pde_loss_ledger(result, params),
        layers=layer_imbalance_summary(
            result.sm_voltages, result.power_trace.data, stack
        ),
    )


# ---------------------------------------------------------------------------
# Rendering (operates on the dict form so it works straight off a manifest)
# ---------------------------------------------------------------------------
MAX_RENDERED_EVENTS = 10


def render_noise_report(noise: Mapping[str, object]) -> str:
    """Human-readable tables for a manifest's ``noise`` section."""
    from repro.analysis.report import format_percent, format_table

    lines: List[str] = []
    lines.append(
        f"noise observatory: {noise.get('benchmark', '?')} | "
        f"guardband {float(noise.get('guardband_v', 0.0)):.3f} V | "
        f"sample rate {float(noise.get('sample_rate_hz', 0.0)) / 1e6:.0f} MHz"
    )

    bands = list(noise.get("bands") or [])
    if bands:
        rows = []
        for row in bands:
            comp = dict(row.get("component_share") or {})
            rows.append([
                row["band"],
                f"{float(row['low_hz']) / 1e6:.1f}-"
                f"{float(row['high_hz']) / 1e6:.1f} MHz",
                f"{float(row['voltage_rms_v']) * 1e3:.2f} mV",
                format_percent(float(comp.get("global", 0.0))),
                format_percent(float(comp.get("stack", 0.0))),
                format_percent(float(comp.get("residual", 0.0))),
            ])
        lines.append("")
        lines.append(
            format_table(
                ["band", "range", "V(rms)", "global", "stack", "residual"],
                rows,
                title="Band decomposition of the worst-SM voltage "
                "(component shares of imbalance energy)",
            )
        )

    events = list(noise.get("droop_events") or [])
    lines.append("")
    if events:
        rows = [
            [
                e["start_cycle"],
                e["duration_cycles"],
                f"{float(e['min_voltage_v']):.3f}",
                f"{float(e['depth_v']) * 1e3:.1f} mV",
                f"SM{int(e['worst_sm'])}",
                int(e["layer"]),
            ]
            for e in events[:MAX_RENDERED_EVENTS]
        ]
        title = f"Droop events ({len(events)} below guardband)"
        if len(events) > MAX_RENDERED_EVENTS:
            title += f", first {MAX_RENDERED_EVENTS} shown"
        lines.append(
            format_table(
                ["start", "cycles", "V(min)", "depth", "worst", "layer"],
                rows, title=title,
            )
        )
    else:
        lines.append("Droop events: none (no excursion below the guardband)")

    ledger = dict(noise.get("ledger") or {})
    if ledger:
        input_w = float(ledger.get("input_power_w", 0.0))
        rows = [["board input", f"{input_w:.3f} W", ""]]
        for term in LEDGER_TERMS:
            watts = float((ledger.get("terms_w") or {}).get(term, 0.0))
            rows.append([
                f"- {term[:-2]}", f"{watts:.4f} W",
                format_percent(watts / input_w) if input_w > 0 else "",
            ])
        rows.append([
            "= delivered",
            f"{float(ledger.get('delivered_power_w', 0.0)):.3f} W",
            format_percent(float(ledger.get("pde", 0.0))),
        ])
        lines.append("")
        lines.append(
            format_table(
                ["ledger", "power", "of input"], rows,
                title=(
                    "PDE loss ledger (closure error "
                    f"{float(ledger.get('closure_rel_error', 0.0)):.2%})"
                ),
            )
        )

    layers = list(noise.get("layers") or [])
    if layers:
        rows = [
            [
                int(row["layer"]),
                f"{float(row['mean_power_w']):.2f}",
                format_percent(float(row["power_share"])),
                f"{float(row['mean_excess_w']):.3f}",
                f"{float(row['min_voltage_v']):.3f}",
            ]
            for row in layers
        ]
        lines.append("")
        lines.append(
            format_table(
                ["layer", "P(mean) W", "share", "excess W", "V(min)"],
                rows, title="Per-layer current imbalance",
            )
        )
    return "\n".join(lines)
