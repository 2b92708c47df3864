"""Outside-in span tracer: wraps the public methods of each layer.

The simulator has no spans of its own, so the benchmark records them
from outside: entering :class:`Tracer` replaces each method named in
:data:`SPANS` on its class (or module) with a timing wrapper, and
leaving it puts every original object back.  Layers are named after the
``repro`` modules that own them.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of all spans under one root add up to the
root's duration.  Spans are aggregated per method as they close
(calls, self time) rather than kept one by one.

``Tracer(layers=("sim",))`` wraps only the two co-sim entry points: the
untimed-cost call counter the timed reps use to catch the sweep's
silent per-point fallback.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: (layer, module, attribute path) of every wrapped callable.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("gpu", "repro.gpu.batch", "GPUBatch.step_into"),
    ("gpu", "repro.gpu.gpu", "GPU.step"),
    ("gpu", "repro.gpu.gpu", "GPU.step_into"),
    ("gpu", "repro.gpu.gpu", "GPU.set_issue_widths"),
    ("gpu", "repro.gpu.gpu", "GPU.set_fake_rates"),
    ("gpu", "repro.gpu.gpu", "GPU.set_frequency_scales"),
    ("circuits", "repro.circuits.transient", "BatchSolverGuard.step_cycle"),
    ("circuits", "repro.circuits.transient", "SolverGuard.step_cycle"),
    ("circuits", "repro.circuits.transient", "TransientSolver.step_n"),
    ("circuits", "repro.circuits.transient", "TransientSolver.step"),
    ("circuits", "repro.circuits.transient", "BatchTransientSolver.step_n"),
    ("circuits", "repro.circuits.transient", "BatchTransientSolver.step"),
    ("circuits", "repro.circuits.transient", "TransientSolver.vsource_current"),
    ("circuits", "repro.circuits.transient",
     "BatchTransientSolver.vsource_currents"),
    ("circuits", "repro.circuits.transient", "TransientSolver.initialize_dc"),
    # As bound in the co-sim module, which calls it per lane.
    ("pdn", "repro.sim.cosim", "build_stacked_pdn"),
    ("core", "repro.core.controller", "ControllerBank.observe"),
    ("core", "repro.core.controller", "VoltageSmoothingController.observe"),
    ("core", "repro.core.controller",
     "VoltageSmoothingController.commands_for"),
    ("faults", "repro.faults.injector", "FaultInjector.active_kinds"),
    ("faults", "repro.faults.injector", "FaultInjector.apply_circuit_faults"),
    ("faults", "repro.faults.injector", "FaultInjector.scale_powers"),
    ("faults", "repro.faults.injector", "FaultInjector.corrupt_sensors"),
    ("faults", "repro.faults.injector", "FaultInjector.observation_allowed"),
    ("faults", "repro.faults.injector", "FaultInjector.extra_latency"),
    ("faults", "repro.faults.injector", "FaultInjector.distort_actuation"),
    ("faults", "repro.faults.injector", "FaultInjector.halted_sms"),
    ("faults", "repro.faults.injector", "FaultInjector.frequency_scales"),
    ("faults", "repro.faults.injector", "FaultInjector.report"),
    ("sim", "repro.sim.cosim", "run_cosim"),
    ("sim", "repro.sim.cosim", "run_cosim_batch"),
    ("sweep", "repro.sim.sweep", "SweepRunner.run"),
)
LAYERS = ("gpu", "circuits", "core", "faults", "pdn", "sim", "sweep")
#: GPU setters: spans of the gpu layer, also counted as actuation calls.
ACTUATION = ("GPU.set_issue_widths", "GPU.set_fake_rates",
             "GPU.set_frequency_scales")
SCALAR_CONTROLLER = ("VoltageSmoothingController.observe",
                     "VoltageSmoothingController.commands_for")
#: Constructors whose instances are kept for their work counters.
REGISTRIES: Tuple[Tuple[str, str, str], ...] = (
    ("solvers", "repro.circuits.transient", "TransientSolver"),
    ("guards", "repro.circuits.transient", "SolverGuard"),
    ("controllers", "repro.core.controller", "VoltageSmoothingController"),
)

_MISSING = object()


def _resolve(module: str, path: str):
    """(owner, attribute name) for ``module`` + ``Class.attr`` or ``func``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class _SimFrame(list):
    """A sim span's stack frame: [child time] plus its phase marks."""

    __slots__ = ("first_gpu", "covered_at_first_gpu", "last_circuits",
                 "covered_at_last_circuits")

    def __init__(self) -> None:
        super().__init__([0.0])
        self.first_gpu: Optional[float] = None
        self.covered_at_first_gpu = 0.0
        self.last_circuits: Optional[float] = None
        self.covered_at_last_circuits = 0.0


class Tracer:
    """Context manager installing span wrappers on the listed layers."""

    def __init__(self, layers: Sequence[str] = LAYERS) -> None:
        unknown = set(layers) - set(LAYERS)
        if unknown:
            raise ValueError(f"unknown layers {sorted(unknown)}")
        self.layers = tuple(layers)
        self.full = set(self.layers) == set(LAYERS)
        # key -> [calls, self_s]
        self.records: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        self.instances: Dict[str, list] = {name: [] for name, _, _ in REGISTRIES}
        self.results: list = []
        self.shards = 0
        self.sim_setup_s = 0.0
        self.sim_loop_self_s = 0.0
        self.sim_finalize_s = 0.0
        self._stack: List[list] = []
        self._sim: List[Optional[_SimFrame]] = [None]
        self._saved: List[Tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for layer, module, path in SPANS:
                if layer in self.layers:
                    self._patch(module, path, self._wrap(layer, path))
            if self.full:
                for registry, module, cls in REGISTRIES:
                    self._patch(module, f"{cls}.__init__",
                                self._registrar(registry))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, module: str, path: str, make) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__.get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{module}.{path} is not defined there")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------
    def _registrar(self, registry: str):
        instances = self.instances[registry]

        def make(init):
            @functools.wraps(init)
            def register(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                instances.append(obj)

            return register

        return make

    def _wrap(self, layer: str, key: str):
        self.layer_of[key] = layer
        rec = self.records.setdefault(key, [0, 0.0])
        stack = self._stack
        sim = self._sim
        clock = time.perf_counter
        if layer == "sim":
            return lambda fn: self._sim_span(fn, rec)
        stepping = layer == "gpu" and key not in ACTUATION
        circuits = layer == "circuits"

        def make(fn):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                if stepping:
                    top = sim[0]
                    if top is not None and top.first_gpu is None:
                        top.first_gpu = start
                        top.covered_at_first_gpu = top[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    dur = end - start
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                    if circuits:
                        top = sim[0]
                        if top is not None:
                            top.last_circuits = end
                            top.covered_at_last_circuits = top[0]

            return span

        return make

    def _sim_span(self, fn, rec):
        """A co-sim entry point: also split its self time into phases."""
        stack = self._stack
        sim = self._sim
        clock = time.perf_counter
        full = self.full

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = _SimFrame()
            outer = sim[0]
            sim[0] = frame
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                sim[0] = outer
                self_s = dur - frame[0]
                rec[0] += 1
                rec[1] += self_s
                if stack:
                    stack[-1][0] += dur
                self._account_phases(frame, start, end, self_s)
            if full:
                self.results.extend(
                    result if isinstance(result, list) else [result]
                )
                if fn.__name__ == "run_cosim_batch":
                    from repro.sim.cosim import last_batch_solver_info

                    self.shards += last_batch_solver_info().get("shards", 0)
            return result

        return span

    def _account_phases(self, frame: _SimFrame, start: float, end: float,
                        self_s: float) -> None:
        """Setup = entry to first gpu span; finalize = last circuits
        span to exit; the loop's self time is what remains."""
        if frame.first_gpu is None:
            self.sim_setup_s += end - start
            return
        setup = frame.first_gpu - start
        setup_self = setup - frame.covered_at_first_gpu
        finalize = finalize_self = 0.0
        if frame.last_circuits is not None and frame.last_circuits > frame.first_gpu:
            finalize = end - frame.last_circuits
            finalize_self = finalize - (frame[0] - frame.covered_at_last_circuits)
        self.sim_setup_s += setup
        self.sim_finalize_s += finalize
        self.sim_loop_self_s += self_s - setup_self - finalize_self

    # -- read-out ------------------------------------------------------
    def calls(self, key: str) -> int:
        return int(self.records.get(key, (0,))[0])

    def _sum(self, keys, column: int) -> float:
        return sum(self.records[k][column] for k in keys if k in self.records)

    def layer_self_s(self, layer: str) -> float:
        return self._sum(
            [k for k, l in self.layer_of.items() if l == layer], 1
        )

    def layer_calls(self, layer: str) -> int:
        return int(self._sum(
            [k for k, l in self.layer_of.items() if l == layer], 0
        ))

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced rep that took ``wall_s``."""
        if not self.full:
            raise RuntimeError("per-layer metrics need a full trace")
        m: Dict[str, float] = {"trace.wall_s": wall_s}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self_s(layer)
        for layer in ("gpu", "circuits", "core", "sim", "sweep"):
            m[f"{layer}.share"] = m[f"{layer}.self_s"] / wall_s
        for layer in ("gpu", "circuits", "faults"):
            m[f"{layer}.calls"] = self.layer_calls(layer)
        m["core.bank_observe_s"] = self._sum(["ControllerBank.observe"], 1)
        m["core.scalar_s"] = self._sum(SCALAR_CONTROLLER, 1)
        m["sim.setup_s"] = self.sim_setup_s
        m["sim.loop_self_s"] = self.sim_loop_self_s
        m["sim.finalize_s"] = self.sim_finalize_s

        actuations = int(self._sum(ACTUATION, 0))
        controllers = self.instances["controllers"]
        triggers = sum(c.triggers for c in controllers)
        m["gpu.actuation_calls"] = actuations
        m["core.triggers"] = triggers
        m["core.decisions"] = sum(c.decisions_made for c in controllers)
        # Base: core.triggers; 0 when nothing triggered.
        m["core.actuations_per_trigger"] = (
            actuations / triggers if triggers else 0.0
        )
        m["circuits.factorizations"] = sum(
            s.stats.factorizations for s in self.instances["solvers"]
        )
        m["circuits.shards"] = self.shards
        m["circuits.guard_recoveries"] = sum(
            g.recoveries for g in self.instances["guards"]
        )
        m["core.sim_throttled_cycles"] = sum(
            r.throttled_cycles for r in self.results
        )
        m["gpu.sim_instructions"] = sum(r.instructions for r in self.results)
        m["circuits.sim_cycles_below_guardband"] = sum(
            int((r.sm_voltages.min(axis=1) < r.stack.min_safe_voltage).sum())
            for r in self.results if r.num_cycles
        )
        return m
