"""Parallel design-space sweeps over the co-simulator.

The vertical-power-delivery literature leans on large parameter sweeps
(CR-IVR area x control latency x guardband x workload) to map the
design space; this module makes those tractable by fanning a grid of
:class:`~repro.sim.cosim.CosimConfig` points across worker processes.

Structure:

* :func:`expand_grid` — cartesian product of benchmarks and per-field
  axes into a flat list of :class:`SweepPoint`, each with a
  deterministic per-point seed (reproducible regardless of worker
  scheduling order).
* :class:`SweepRunner` — chunked fan-out over a
  ``concurrent.futures.ProcessPoolExecutor``; every point's failure is
  captured as a structured :class:`SweepPointResult` (with traceback),
  so one diverging point never kills the sweep.
* :class:`SweepResult` — ordered per-point results plus a JSON writer.

Hardening (long sweeps die in boring ways, and should survive them):

* ``point_timeout_s`` runs each point in its own killable process — a
  hanging point is terminated at the deadline and captured as a
  structured, retryable failure instead of wedging the pool;
* ``max_attempts`` re-runs *retryable* failures (timeouts, crashed
  workers, OS-level errors) in bounded retry waves with exponential
  backoff; deterministic failures (bad configs) are never retried;
* ``checkpoint_path`` appends every completed point to an atomically
  replaced partial-results file, and :meth:`SweepRunner.resume`
  rebuilds a runner that skips the points already done — a sweep
  killed mid-run continues where it stopped.

The CLI front end is ``repro sweep``; ``examples/parameter_sweep.py``
shows library usage.
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.faults import chaos
from repro.sim.cosim import CosimConfig
from repro.sim.cosim import _LANE_SHARED_FIELDS as _BATCH_COMPAT_FIELDS
from repro.telemetry import Telemetry, config_hash, to_jsonable
from repro.telemetry.live import LiveRun, WorkerLiveConfig, atomic_write_json

# Seed derivation: a fixed odd multiplier keeps per-point seeds distinct
# for any base seed while staying deterministic across runs and worker
# scheduling orders.
_SEED_STRIDE = 100_003

#: Failure classes worth re-running: transient by nature (a timeout, a
#: worker killed by the OOM killer, a flaky filesystem) rather than a
#: property of the point's configuration.
RETRYABLE_ERRORS = frozenset({
    "TimeoutError", "WorkerCrash", "BrokenProcessPool",
    "OSError", "IOError", "MemoryError", "ConnectionResetError",
})


def point_seed(base_seed: int, index: int) -> int:
    """Deterministic seed of grid point ``index`` under ``base_seed``."""
    return (base_seed * _SEED_STRIDE + index) % (2**31 - 1)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a benchmark plus ``CosimConfig`` field overrides.

    Override names may be dotted (``controller.k2``) to reach one level
    into a nested config dataclass — the axis syntax that lets sweeps
    and the exploration service vary controller gains without shipping
    whole ``ControllerConfig`` objects through JSON checkpoints.
    """

    index: int
    benchmark: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    seed: int = 1

    def config(self, base: CosimConfig) -> CosimConfig:
        """The point's full config: ``base`` + overrides + per-point seed.

        An explicit ``seed`` axis wins over the derived per-point seed.
        """
        fields: Dict[str, object] = {}
        nested: Dict[str, Dict[str, object]] = {}
        for name, value in self.overrides:
            if "." in name:
                head, tail = name.split(".", 1)
                nested.setdefault(head, {})[tail] = value
            else:
                fields[name] = value
        for head, sub in nested.items():
            fields[head] = replace(getattr(base, head), **sub)
        fields.setdefault("seed", self.seed)
        return replace(base, **fields)

    def describe(self) -> str:
        knobs = ", ".join(f"{k}={v}" for k, v in self.overrides)
        return f"#{self.index} {self.benchmark}" + (f" ({knobs})" if knobs else "")


@dataclass
class SweepPointResult:
    """Outcome of one point: metrics on success, a traceback on failure.

    ``note`` carries structured degradations that are *not* failures
    (e.g. ``cycles_per_kernel`` unavailable on a short run) so they
    surface in ``repro trace`` / the results JSON instead of being
    silently swallowed.  ``attempts``/``timed_out`` record the retry
    history under the hardened runner.  ``cached`` marks a result
    served from a :class:`~repro.sim.store.ResultStore` instead of a
    fresh simulation (its ``elapsed_s`` is the original run's).
    """

    point: SweepPoint
    ok: bool
    metrics: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None
    elapsed_s: float = 0.0
    attempts: int = 1
    timed_out: bool = False
    note: Optional[str] = None
    cached: bool = False

    @property
    def retryable(self) -> bool:
        """Whether this failure is worth another attempt."""
        if self.ok:
            return False
        return self.timed_out or self.error_type in RETRYABLE_ERRORS

    def to_record(self) -> Dict[str, object]:
        """The JSON record shared by results files and checkpoints."""
        return {
            "index": self.point.index,
            "benchmark": self.point.benchmark,
            "overrides": dict(self.point.overrides),
            "seed": self.point.seed,
            "ok": self.ok,
            "metrics": _jsonable(self.metrics),
            "error": self.error,
            "error_type": self.error_type,
            "elapsed_s": self.elapsed_s,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
            "note": self.note,
            "cached": self.cached,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "SweepPointResult":
        """Rebuild a result from its JSON record (checkpoint resume)."""
        point = SweepPoint(
            index=int(record["index"]),
            benchmark=str(record["benchmark"]),
            overrides=tuple(sorted(dict(record.get("overrides") or {}).items())),
            seed=int(record.get("seed", 1)),
        )
        return cls(
            point=point,
            ok=bool(record["ok"]),
            metrics=dict(record.get("metrics") or {}),
            error=record.get("error"),
            error_type=record.get("error_type"),
            elapsed_s=float(record.get("elapsed_s", 0.0)),
            attempts=int(record.get("attempts", 1)),
            timed_out=bool(record.get("timed_out", False)),
            note=record.get("note"),
            cached=bool(record.get("cached", False)),
        )


@dataclass
class SweepResult:
    """All per-point results of one sweep, in grid order."""

    points: List[SweepPointResult]
    base_config: CosimConfig
    elapsed_s: float = 0.0

    @property
    def num_failed(self) -> int:
        return sum(1 for p in self.points if not p.ok)

    def successes(self) -> List[SweepPointResult]:
        return [p for p in self.points if p.ok]

    def failures(self) -> List[SweepPointResult]:
        return [p for p in self.points if not p.ok]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "num_points": len(self.points),
            "num_failed": self.num_failed,
            "elapsed_s": self.elapsed_s,
            "base_config": _jsonable(asdict(self.base_config)),
            "points": [r.to_record() for r in self.points],
        }

    def write_json(self, path) -> Path:
        """Write the structured results to ``path`` (JSON, atomically).

        The document lands via a same-directory temp file and
        ``os.replace``, so a sweep killed mid-write never leaves a
        truncated/corrupt results JSON behind.
        """
        return atomic_write_json(path, self.to_dict(), "checkpoint_write")


def _jsonable(value):
    """Coerce NumPy scalars/arrays/dataclasses for ``json.dump``.

    Delegates to :func:`repro.telemetry.to_jsonable`, which — unlike the
    earlier scalar-only ``.item()`` coercion — also round-trips NumPy
    *arrays* (``tolist``), sets, enums and paths; telemetry adds such
    values to point metrics.
    """
    return to_jsonable(value)


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------
def expand_grid(
    benchmarks: Sequence[str],
    axes: Optional[Mapping[str, Sequence]] = None,
    base_seed: int = 1,
) -> List[SweepPoint]:
    """Cartesian product of ``benchmarks`` x every axis of ``axes``.

    ``axes`` maps :class:`CosimConfig` field names to value lists, e.g.
    ``{"cr_ivr_area_mm2": [52.9, 105.8, 211.6]}``.  A dotted name like
    ``controller.k2`` reaches one level into a nested config dataclass
    (controller gains, actuation weights).  Unknown field names fail
    fast here rather than inside a worker process.
    """
    if not benchmarks:
        raise ValueError("need at least one benchmark")
    axes = dict(axes or {})
    config_fields = set(CosimConfig.__dataclass_fields__)
    reference = CosimConfig()
    for name in axes:
        head, _, tail = name.partition(".")
        if head not in config_fields:
            raise ValueError(
                f"unknown CosimConfig field {head!r}; "
                f"valid axes: {sorted(config_fields)}"
            )
        if tail:
            nested = getattr(reference, head)
            nested_fields = getattr(nested, "__dataclass_fields__", {})
            if tail not in nested_fields:
                raise ValueError(
                    f"unknown nested field {name!r}; valid "
                    f"{head}.* axes: {sorted(nested_fields)}"
                )
        if len(axes[name]) == 0:
            raise ValueError(f"axis {name!r} has no values")
    keys = list(axes)
    points: List[SweepPoint] = []
    for benchmark in benchmarks:
        for combo in product(*(axes[k] for k in keys)):
            index = len(points)
            points.append(
                SweepPoint(
                    index=index,
                    benchmark=benchmark,
                    overrides=tuple(zip(keys, combo)),
                    seed=point_seed(base_seed, index),
                )
            )
    return points


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------
def _point_metrics(result) -> Tuple[Dict[str, object], Optional[str]]:
    """Flatten a CosimResult into the JSON-friendly sweep record.

    Returns ``(metrics, note)``: a metric that cannot be computed for a
    legitimate reason (``cycles_per_kernel`` needs a completed kernel in
    the window) is recorded as ``None`` *and explained* in the note —
    previously the ValueError was swallowed without a trace.
    """
    eff = result.efficiency()
    note: Optional[str] = None
    try:
        cycles_per_kernel = result.cycles_per_kernel()
    except ValueError as exc:
        cycles_per_kernel = None
        note = f"cycles_per_kernel unavailable: {exc}"
    metrics: Dict[str, object] = {
        "min_voltage_v": result.min_voltage,
        "max_voltage_v": result.max_voltage,
        "p1_voltage_v": float(result.voltage_percentiles(1)),
        "mean_power_w": result.mean_power_w,
        "pde": eff.pde,
        "throughput_ipc": result.throughput(),
        "instructions": result.instructions,
        "fake_instructions": result.fake_instructions,
        "throttled_cycles": result.throttled_cycles,
        "kernels_completed": result.kernels_completed,
        "cycles_per_kernel": cycles_per_kernel,
        "mean_dcc_power_w": result.mean_dcc_power_w,
    }
    if result.fault_report is not None:
        metrics["fault_verdict"] = result.fault_report["verdict"]
        metrics["fault_min_voltage_v"] = (
            result.fault_report["summary"]["min_voltage_v"]
        )
    return metrics, note


def _divergence_result(
    point: SweepPoint, result, elapsed_s: float
) -> SweepPointResult:
    """The structured failure for a run_cosim ``diverged`` verdict.

    ``NumericalDivergence`` is deterministic — a property of the
    point's configuration, not of the worker that ran it — so it is
    deliberately *not* in :data:`RETRYABLE_ERRORS`; the forensics ride
    along in ``metrics`` so ``repro trace`` and the results JSON show
    where the solver gave up.
    """
    info = dict(result.divergence or {})
    return SweepPointResult(
        point=point,
        ok=False,
        metrics={"divergence": info},
        error=(
            "NumericalDivergence: solver diverged at recorded cycle "
            f"{info.get('cycle')} (stage {info.get('stage')}, worst node "
            f"{info.get('worst_node')}, value {info.get('worst_value')})"
        ),
        error_type="NumericalDivergence",
        note=f"waveform truncated to {result.num_cycles} recorded cycles",
        elapsed_s=elapsed_s,
    )


def _run_point(payload: Tuple[SweepPoint, CosimConfig]) -> SweepPointResult:
    """Run one grid point; never raises — failures are captured."""
    point, base = payload
    start = time.perf_counter()
    try:
        from repro.sim.cosim import run_cosim

        result = run_cosim(point.benchmark, point.config(base))
        if result.diverged:
            return _divergence_result(
                point, result, time.perf_counter() - start
            )
        metrics, note = _point_metrics(result)
        return SweepPointResult(
            point=point,
            ok=True,
            metrics=metrics,
            note=note,
            elapsed_s=time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 — structured failure capture
        return SweepPointResult(
            point=point,
            ok=False,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            error_type=type(exc).__name__,
            elapsed_s=time.perf_counter() - start,
        )


def _run_point_to_queue(runner, payload, queue) -> None:
    """Child-process entry for the timeout path: result via queue."""
    queue.put(runner(payload))


@dataclass
class _Task:
    """One unit of worker execution: a point, or a compatible batch.

    ``runner(payload)`` returns one :class:`SweepPointResult` (per-point
    task) or a list of them (batch task); ``points`` enumerates the grid
    points the task covers so path-level failures (broken pool, kill at
    deadline, worker crash) can be attributed to every affected point.

    ``live`` (a picklable :class:`~repro.telemetry.WorkerLiveConfig`)
    makes the executing worker maintain a heartbeat file; ``retry``
    marks tasks issued during a retry wave so the heartbeat's
    ``points_retried`` counter stays exact.
    """

    runner: object
    payload: object
    points: Tuple[SweepPoint, ...]
    live: Optional[WorkerLiveConfig] = None
    retry: bool = False

    def failure(self, error: str, error_type: str, **kwargs) -> List[SweepPointResult]:
        return [
            SweepPointResult(
                point=p, ok=False, error=error, error_type=error_type,
                **kwargs,
            )
            for p in self.points
        ]


def _task_lane_cycles(task: _Task, results: List[SweepPointResult]) -> int:
    """Simulated lane-cycles this task completed (ok points only)."""
    payload = task.payload
    if not (isinstance(payload, tuple) and len(payload) == 2):
        return 0
    base = payload[1]
    if not isinstance(base, CosimConfig):
        return 0
    total = 0
    for result in results:
        if not result.ok:
            continue
        config = result.point.config(base)
        total += config.cycles + config.warmup_cycles
    return total


def _run_task(task: _Task) -> List[SweepPointResult]:
    """Process-pool entry: run a task, normalizing to a result list.

    When the task carries a live config the worker writes its heartbeat
    file around the work — failures of the heartbeat itself (read-only
    filesystem, racing cleanup) never fail the task.
    """
    event = chaos.fire("worker_point")
    if event is not None and event.action == "kill":
        # Scheduled worker death at a point boundary: the parent sees a
        # crashed worker (retryable) and the fire-once token guarantees
        # the retry is not killed again.
        os.kill(os.getpid(), signal.SIGKILL)
    beat = None
    if task.live is not None:
        try:
            live = task.live
            if not live.worker_id:
                live = replace(live, worker_id=f"pid-{os.getpid()}")
            beat = live.open()
            beat.start_points([p.describe() for p in task.points])
        except Exception:  # noqa: BLE001 — observability must not fail work
            beat = None
    result = task.runner(task.payload)
    results = result if isinstance(result, list) else [result]
    if beat is not None:
        try:
            from repro.sim.cosim import last_batch_solver_info

            solver_info = last_batch_solver_info()
            done = sum(1 for r in results if r.ok)
            beat.finish_points(
                done=done,
                failed=len(results) - done,
                retried=len(results) if task.retry else 0,
                lane_cycles=_task_lane_cycles(task, results),
                busy_s=sum(r.elapsed_s for r in results),
                solver_shards=solver_info.get("shards"),
            )
        except Exception:  # noqa: BLE001 — observability must not fail work
            pass
    return results


def _run_point_batch(
    payload: Tuple[Tuple[SweepPoint, ...], CosimConfig],
) -> List[SweepPointResult]:
    """Run one compatible batch of grid points through the lock-stepped
    batched co-simulator; never raises.

    The batch is bit-identical to running each point serially, so the
    per-point metrics are interchangeable with :func:`_run_point`'s;
    only ``elapsed_s`` differs in meaning (the batch wall time split
    evenly across its lanes).  A lane the batch runtime *quarantined*
    (structured ``diverged`` verdict) is retried serially on its own —
    a transient upset (e.g. injected NaN poisoning) succeeds on the
    retry, a deterministic divergence reproduces and is reported as the
    structured verdict; its batch-mates keep their batch results.  Only
    a whole-batch setup failure falls back to running every point
    serially.
    """
    points, base = payload
    start = time.perf_counter()
    try:
        from repro.sim.cosim import CosimLane, run_cosim_batch

        lanes = [
            CosimLane(benchmark=p.benchmark, config=p.config(base))
            for p in points
        ]
        results = run_cosim_batch(lanes)
    except Exception:  # noqa: BLE001 — per-point serial fallback
        results = None
    if results is None:  # outside the handler: errors read as serially
        return [_run_point((p, base)) for p in points]
    per_lane = (time.perf_counter() - start) / len(points)
    out: List[SweepPointResult] = []
    for point, result in zip(points, results):
        if result.diverged:
            out.append(_run_point((point, base)))
            continue
        try:
            metrics, note = _point_metrics(result)
            out.append(
                SweepPointResult(
                    point=point, ok=True, metrics=metrics, note=note,
                    elapsed_s=per_lane,
                )
            )
        except Exception as exc:  # noqa: BLE001 — structured capture
            out.append(
                SweepPointResult(
                    point=point, ok=False,
                    error=(
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}"
                    ),
                    error_type=type(exc).__name__,
                    elapsed_s=per_lane,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
class SweepRunner:
    """Fan a list of :class:`SweepPoint` across worker processes.

    ``max_workers=0/1`` runs in-process (useful for tests and debugging);
    otherwise points fan out across processes — a
    :class:`~concurrent.futures.ProcessPoolExecutor` in ``chunksize``
    batches, or (with ``point_timeout_s`` set) one killable process per
    task so a hung task can be terminated at its deadline.  Results
    always come back in grid order, independent of worker scheduling.

    ``batch_size > 1`` groups compatible points (same cycle counts,
    circuit substeps and CR-IVR area — the topology-family contract of
    :func:`repro.sim.cosim.run_cosim_batch`) into tasks of up to
    ``batch_size`` points, one ``run_cosim_batch`` call each, which
    amortize the per-cycle Python overhead across lanes while staying
    bit-identical to per-point runs.  ``batch_size`` sets the task
    size; inside a call the lanes step in groups of at most
    :data:`repro.sim.cosim.LANE_GROUP`, so a wider task's GPU stage
    costs no more per lane-cycle.  A batch that
    fails as a whole falls back to independent serial runs of its
    points; an injected ``point_runner`` disables batching (tasks stay
    one point each so the injected runner actually runs).

    ``max_attempts > 1`` re-runs retryable failures in waves separated
    by ``retry_backoff_s * 2**(wave-1)`` seconds.  ``checkpoint_path``
    persists completed points (atomic replace) every
    ``checkpoint_every`` completions; :meth:`resume` rebuilds a runner
    from such a file that skips the successes already recorded.

    ``point_runner`` swaps the per-point callable (tests inject hanging
    or crashing stand-ins); it must stay importable/picklable for the
    process-pool path.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        base_config: CosimConfig = CosimConfig(),
        max_workers: Optional[int] = None,
        chunksize: int = 1,
        point_timeout_s: Optional[float] = None,
        max_attempts: int = 1,
        retry_backoff_s: float = 0.5,
        checkpoint_path=None,
        checkpoint_every: int = 1,
        point_runner=None,
        batch_size: int = 1,
    ) -> None:
        if not points:
            raise ValueError("sweep needs at least one point")
        if chunksize <= 0:
            raise ValueError(f"chunksize must be positive, got {chunksize}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ValueError(
                f"point_timeout_s must be positive, got {point_timeout_s}"
            )
        if max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s cannot be negative")
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if base_config.controller_object is not None:
            raise ValueError(
                "sweeps cannot ship a live controller_object to worker "
                "processes; parameterize via ControllerConfig instead"
            )
        self.points = list(points)
        self.base_config = base_config
        self.max_workers = max_workers
        self.chunksize = chunksize
        self.point_timeout_s = point_timeout_s
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self._point_runner = point_runner or _run_point
        # Batched execution rides the bit-identical run_cosim_batch
        # engine, so an injected point_runner (tests substitute hanging
        # or crashing stand-ins per point) keeps the one-point-per-task
        # shape: batching would silently bypass it.
        self.batch_size = batch_size if point_runner is None else 1
        # index -> result preloaded from a checkpoint (resume).
        self._preloaded: Dict[int, SweepPointResult] = {}
        # index -> last recorded failure from the checkpoint.  Its
        # ``attempts`` seeds the retry budget so a resumed sweep cannot
        # grant a failing point a fresh ``max_attempts`` every resume;
        # a point whose budget is already spent keeps this result.
        self._prior_failures: Dict[int, SweepPointResult] = {}
        self._completed_since_checkpoint = 0
        # Failed checkpoint writes (disk full, torn): counted, never
        # fatal — the previous checkpoint stays valid on disk.
        self.checkpoint_write_errors = 0
        # Live plane of the current run() (None outside one): tasks are
        # stamped with per-worker heartbeat configs when this is set.
        self._live: Optional[LiveRun] = None

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _signature(self) -> Dict[str, object]:
        """Identity of this sweep: base config hash + the grid itself."""
        return {
            "config_hash": config_hash(self.base_config),
            "points_hash": config_hash([
                (p.index, p.benchmark, tuple(p.overrides), p.seed)
                for p in self.points
            ]),
            "num_points": len(self.points),
        }

    def _write_checkpoint(self, results_by_index: Dict[int, SweepPointResult]) -> None:
        payload = dict(self._signature())
        payload["completed"] = [
            results_by_index[i].to_record() for i in sorted(results_by_index)
        ]
        try:
            atomic_write_json(
                self.checkpoint_path, payload, "checkpoint_write"
            )
        except OSError:
            # A checkpoint is a recovery aid, not the product: a failed
            # write must not kill a sweep that is making progress.  The
            # atomic-replace never ran, so the previous checkpoint is
            # still intact for a later resume.
            self.checkpoint_write_errors += 1

    def _maybe_checkpoint(
        self, results_by_index: Dict[int, SweepPointResult], force: bool = False
    ) -> None:
        if self.checkpoint_path is None:
            return
        self._completed_since_checkpoint += 0 if force else 1
        if force or self._completed_since_checkpoint >= self.checkpoint_every:
            self._write_checkpoint(results_by_index)
            self._completed_since_checkpoint = 0

    @classmethod
    def resume(
        cls,
        checkpoint_path,
        points: Sequence[SweepPoint],
        base_config: CosimConfig = CosimConfig(),
        **kwargs,
    ) -> "SweepRunner":
        """Rebuild a runner from a checkpoint written by a killed sweep.

        Points whose successful results are recorded in the checkpoint
        are *not* re-run; recorded failures are retried while attempt
        budget remains — their recorded ``attempts`` carry over, so the
        total attempts a point receives across any number of resumes
        never exceed ``max_attempts``.  A point that already spent its
        budget keeps its recorded failure.  The checkpoint must
        describe the same sweep: identical base config and grid (both
        hashed), otherwise resuming would silently mix results from
        different experiments.
        """
        checkpoint_path = Path(checkpoint_path)
        with open(checkpoint_path) as handle:
            data = json.load(handle)
        runner = cls(
            points, base_config, checkpoint_path=checkpoint_path, **kwargs
        )
        signature = runner._signature()
        for key in ("config_hash", "points_hash"):
            if data.get(key) != signature[key]:
                raise ValueError(
                    f"checkpoint {checkpoint_path} does not match this sweep "
                    f"({key} differs): it was written for a different base "
                    "config or grid"
                )
        by_index = {p.index: p for p in runner.points}
        for record in data.get("completed", []):
            result = SweepPointResult.from_record(record)
            point = by_index.get(result.point.index)
            if point is None:
                continue
            # Re-attach the live point object (identical by signature).
            result.point = point
            if result.ok:
                runner._preloaded[point.index] = result
            else:
                runner._prior_failures[point.index] = result
        return runner

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        progress=None,
        telemetry: Optional[Telemetry] = None,
        live: Optional[LiveRun] = None,
    ) -> SweepResult:
        """Execute every point; ``progress`` (if given) is called with
        each :class:`SweepPointResult` as it completes.

        ``telemetry`` records per-point wall times and structured
        success/failure events (uniformly — the same failure capture
        that already lands in :class:`SweepPointResult`), plus worker
        utilization of the whole fan-out.

        ``live`` (a :class:`repro.telemetry.LiveRun`) turns on the live
        plane: the parent publishes aggregate progress to the run
        directory's ``status.json`` as points complete, and every worker
        maintains a heartbeat file under ``heartbeats/`` (points
        done/failed/retried, lane-cycles/s, ETA) — what ``repro top``
        renders mid-run.
        """
        tele = (
            telemetry
            if telemetry is not None and telemetry.enabled
            else None
        )
        inline = self.max_workers is not None and self.max_workers <= 1
        workers = 1 if inline else (self.max_workers or os.cpu_count() or 1)
        self._live = live
        if live is not None:
            reg = live.registry
            live.publisher.extra.setdefault("command", "sweep")
            live.publisher.extra["last_checkpoint"] = (
                str(self.checkpoint_path) if self.checkpoint_path else None
            )
            live_done = reg.counter("sweep_points_done")
            live_failed = reg.counter("sweep_points_failed")
            live_retried = reg.counter("sweep_points_retried")
            reg.gauge("sweep_points_total").set(len(self.points))
            reg.gauge("sweep_workers").set(workers)
            live_wave = reg.gauge("sweep_wave")
            live_eta = reg.gauge("sweep_eta_s")
            live_elapsed = reg.histogram(
                "sweep_point_elapsed_s",
                uppers=(0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0),
            )
        if tele is not None:
            tele.event(
                "sweep_start", num_points=len(self.points), workers=workers,
                chunksize=self.chunksize,
                batch_size=self.batch_size,
                resumed_points=len(self._preloaded),
                point_timeout_s=self.point_timeout_s,
                max_attempts=self.max_attempts,
            )
        results_by_index: Dict[int, SweepPointResult] = dict(self._preloaded)
        # Failed points resume with their recorded attempt count; one
        # whose budget is already spent keeps its checkpointed failure
        # instead of being granted a fresh ``max_attempts`` per resume.
        attempts: Dict[int, int] = {p.index: 0 for p in self.points}
        for index, failure in self._prior_failures.items():
            if index in attempts:
                attempts[index] = failure.attempts
                if failure.attempts >= self.max_attempts:
                    results_by_index.setdefault(index, failure)
        pending = [p for p in self.points if p.index not in results_by_index]
        # Results carried over from a checkpoint spent their wall time
        # in a *previous* run; utilization below measures this run only.
        carried = frozenset(results_by_index)
        start = time.perf_counter()
        wave = 0
        while pending:
            wave += 1
            if wave > 1:
                delay = self.retry_backoff_s * 2 ** (wave - 2)
                if tele is not None:
                    tele.event(
                        "sweep_retry_wave", wave=wave,
                        num_points=len(pending), backoff_s=delay,
                    )
                if delay > 0:
                    time.sleep(delay)
            if live is not None:
                live_wave.set(wave)
            retry: List[SweepPoint] = []
            for result in self._iter_wave(
                pending, inline, workers, retry_wave=wave > 1
            ):
                attempts[result.point.index] += 1
                result.attempts = attempts[result.point.index]
                if (
                    result.retryable
                    and result.attempts < self.max_attempts
                ):
                    retry.append(result.point)
                # Record the latest outcome either way, so a sweep that
                # dies mid-retry still has the structured failure.
                results_by_index[result.point.index] = result
                self._notify(result, progress, tele)
                self._maybe_checkpoint(results_by_index)
                if live is not None:
                    (live_done if result.ok else live_failed).inc()
                    if result.attempts > 1:
                        live_retried.inc()
                    live_elapsed.observe(result.elapsed_s)
                    fresh = live_done.value + live_failed.value
                    if fresh > 0:
                        run_s = time.perf_counter() - start
                        remaining = max(0, len(self.points) - len(results_by_index))
                        live_eta.set(remaining * run_s / fresh)
                    live.publisher.maybe_publish()
            pending = retry
        self._maybe_checkpoint(results_by_index, force=True)
        if live is not None:
            live.publisher.publish()
        elapsed = time.perf_counter() - start
        results = [results_by_index[p.index] for p in self.points]
        if tele is not None:
            busy = sum(
                r.elapsed_s for r in results if r.point.index not in carried
            )
            tele.add_time("sweep", elapsed)
            tele.set_metrics({
                "num_points": len(results),
                "num_failed": sum(1 for r in results if not r.ok),
                "num_timed_out": sum(1 for r in results if r.timed_out),
                "num_resumed": len(self._preloaded),
                "workers": workers,
                "batch_size": self.batch_size,
                # Fraction of the worker pool's wall-clock capacity spent
                # inside points; low values localize a slow sweep to
                # scheduling/serialization rather than the points.
                "worker_utilization": (
                    busy / (elapsed * workers) if elapsed > 0 else 0.0
                ),
            })
            tele.event(
                "sweep_done", elapsed_s=round(elapsed, 3),
                num_failed=sum(1 for r in results if not r.ok),
                waves=wave,
            )
        return SweepResult(
            points=results,
            base_config=self.base_config,
            elapsed_s=elapsed,
        )

    def _group_batches(
        self, points: Sequence[SweepPoint]
    ) -> List[Tuple[SweepPoint, ...]]:
        """Partition ``points`` into batches the lock-stepped engine can
        co-simulate: lanes of one batch must agree on the topology-family
        fields ``run_cosim_batch`` validates (cycle counts, substeps,
        CR-IVR area).  Grouping is stable — batches come out in first-seen
        order and points keep their grid order within a batch.  A point
        whose config cannot be built gets a batch of its own, which
        records the failure as the serial path does."""
        buckets: Dict[Tuple, List[SweepPoint]] = {}
        batches: List[Tuple[SweepPoint, ...]] = []
        for point in points:
            try:
                config = point.config(self.base_config)
            except Exception:  # noqa: BLE001 — failed in its own batch
                batches.append((point,))
                continue
            key = tuple(
                getattr(config, name) for name in _BATCH_COMPAT_FIELDS
            )
            bucket = buckets.setdefault(key, [])
            bucket.append(point)
            if len(bucket) >= self.batch_size:
                batches.append(tuple(bucket))
                bucket.clear()
        for bucket in buckets.values():
            if bucket:
                batches.append(tuple(bucket))
        return batches

    def _make_tasks(
        self, points: Sequence[SweepPoint], retry_wave: bool = False
    ) -> List[_Task]:
        live_cfg = None
        if self._live is not None:
            # worker_id stays empty here: pool/inline workers resolve it
            # to their pid at execution time; the killable path stamps
            # stable slot ids at spawn.
            live_cfg = self._live.worker_config(
                "",
                total_points=len(self.points),
                checkpoint_path=self.checkpoint_path,
            )
        if self.batch_size > 1:
            return [
                _Task(
                    runner=_run_point_batch,
                    payload=(batch, self.base_config),
                    points=batch,
                    live=live_cfg,
                    retry=retry_wave,
                )
                for batch in self._group_batches(points)
            ]
        return [
            _Task(
                runner=self._point_runner,
                payload=(p, self.base_config),
                points=(p,),
                live=live_cfg,
                retry=retry_wave,
            )
            for p in points
        ]

    def _call_task(self, task: _Task) -> List[SweepPointResult]:
        """Invoke a task inline, structuring any exception it leaks.

        The built-in runners capture their own failures; this guard
        keeps an injected ``point_runner`` that raises from aborting the
        whole sweep (and losing the checkpoint progress of finished
        points).
        """
        try:
            return _run_task(task)
        except Exception as exc:
            return task.failure(
                error=f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__,
            )

    def _iter_wave(
        self,
        points: Sequence[SweepPoint],
        inline: bool,
        workers: int,
        retry_wave: bool = False,
    ) -> Iterator[SweepPointResult]:
        """One attempt over ``points``, yielding each result as it
        completes (completion order, not grid order) so the caller can
        checkpoint incrementally; never raises."""
        tasks = self._make_tasks(points, retry_wave=retry_wave)
        if self.point_timeout_s is not None:
            yield from self._run_wave_killable(tasks, workers)
            return
        if inline:
            for task in tasks:
                yield from self._call_task(task)
            return
        done = 0
        try:
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                for results in pool.map(
                    _run_task, tasks, chunksize=self.chunksize
                ):
                    done += 1
                    yield from results
        except BrokenProcessPool:
            # A worker died hard (OOM kill, segfault).  Points without a
            # result get a structured, retryable failure.
            for task in tasks[done:]:
                yield from task.failure(
                    error="worker process pool broke before this point "
                          "completed",
                    error_type="BrokenProcessPool",
                )
        except Exception as exc:
            # A custom point runner raised inside the pool; ``map``
            # re-raises on iteration and drops the rest of the wave.
            for task in tasks[done:]:
                yield from task.failure(
                    error=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                )

    def _run_wave_killable(
        self, tasks: List[_Task], workers: int
    ) -> Iterator[SweepPointResult]:
        """Process-per-task execution with a wall-clock deadline each.

        ``ProcessPoolExecutor`` cannot kill a hung task, so the timeout
        path manages its own worker processes: up to ``workers`` run at
        once, each with a private result queue; a task that misses its
        deadline is terminated (then killed) and captured as a
        structured timeout.  A batch task covers several points' worth
        of work, so its deadline is ``point_timeout_s`` per covered
        point — and a kill or crash is attributed to every point in it.
        """
        import multiprocessing as mp
        import queue as queue_mod

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX fallback
            ctx = mp.get_context()
        pending = list(tasks)
        running: List[Tuple[object, object, _Task, float, int]] = []
        # Process-per-task means fresh pids constantly; heartbeat files
        # keyed by pid would proliferate.  A small pool of stable slot
        # ids (released when a task is harvested) keeps one heartbeat
        # file per concurrent worker lane instead.
        free_slots = list(range(workers))

        def harvest(proc, result_queue, task, started, _slot) -> Optional[List[SweepPointResult]]:
            now = time.monotonic()
            try:
                result = result_queue.get_nowait()
                proc.join()
                return result
            except queue_mod.Empty:
                pass
            if not proc.is_alive():
                # Dead without a result: give the queue feeder a moment
                # to flush, then declare a crash.
                try:
                    result = result_queue.get(timeout=0.25)
                    proc.join()
                    return result
                except queue_mod.Empty:
                    proc.join()
                    # Like the timeout branch: the batch's wall time is
                    # split across its points, not charged in full to
                    # every one of them.
                    return task.failure(
                        error=(
                            "worker process died without a result "
                            f"(exit code {proc.exitcode})"
                        ),
                        error_type="WorkerCrash",
                        elapsed_s=(now - started) / len(task.points),
                    )
            deadline = self.point_timeout_s * len(task.points)
            if now - started > deadline:
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover — SIGTERM ignored
                    proc.kill()
                    proc.join()
                return task.failure(
                    error=(
                        f"task exceeded its {deadline:g} s wall-clock "
                        "timeout and was killed"
                    ),
                    error_type="TimeoutError",
                    timed_out=True,
                    elapsed_s=(now - started) / len(task.points),
                )
            return None

        while pending or running:
            while pending and len(running) < workers:
                task = pending.pop(0)
                slot = free_slots.pop(0) if free_slots else -1
                if task.live is not None and slot >= 0:
                    task = replace(
                        task,
                        live=replace(task.live, worker_id=f"slot-{slot}"),
                    )
                result_queue = ctx.Queue(maxsize=1)
                proc = ctx.Process(
                    target=_run_point_to_queue,
                    args=(_run_task, task, result_queue),
                    daemon=True,
                )
                proc.start()
                running.append(
                    (proc, result_queue, task, time.monotonic(), slot)
                )
            still_running = []
            for entry in running:
                outcome = harvest(*entry)
                if outcome is None:
                    still_running.append(entry)
                else:
                    if entry[4] >= 0:
                        free_slots.append(entry[4])
                    yield from (
                        outcome
                        if isinstance(outcome, list)
                        else [outcome]
                    )
            running = still_running
            if running:
                time.sleep(0.02)

    def _notify(
        self, result: SweepPointResult, progress, tele: Optional[Telemetry] = None
    ) -> SweepPointResult:
        if tele is not None:
            tele.incr("points_ok" if result.ok else "points_failed")
            event = {
                "index": result.point.index,
                "benchmark": result.point.benchmark,
                "ok": result.ok,
                "elapsed_s": round(result.elapsed_s, 4),
                "attempt": result.attempts,
            }
            if result.timed_out:
                event["timed_out"] = True
            if result.note:
                event["note"] = result.note
            if not result.ok and result.error:
                event["error"] = result.error.splitlines()[0]
            tele.event("sweep_point", **event)
        if progress is not None:
            progress(result)
        return result


def run_sweep(
    benchmarks: Sequence[str],
    axes: Optional[Mapping[str, Sequence]] = None,
    base_config: CosimConfig = CosimConfig(),
    base_seed: int = 1,
    max_workers: Optional[int] = None,
    chunksize: int = 1,
    progress=None,
    telemetry: Optional[Telemetry] = None,
    **runner_kwargs,
) -> SweepResult:
    """Convenience wrapper: expand the grid and run it.

    Extra keyword arguments (``batch_size``, ``point_timeout_s``,
    ``max_attempts``, ``retry_backoff_s``, ``checkpoint_path``, ...)
    pass through to :class:`SweepRunner`.
    """
    points = expand_grid(benchmarks, axes, base_seed=base_seed)
    runner = SweepRunner(
        points, base_config, max_workers=max_workers, chunksize=chunksize,
        **runner_kwargs,
    )
    return runner.run(progress=progress, telemetry=telemetry)
