"""Design-space exploration service (``repro explore``).

One sweep answers "what do these N points look like"; the exploration
service answers the paper's actual question — *where is the
PDE-vs-area-vs-guardband trade-off frontier* — while doing as little
simulation as possible.  It layers three mechanisms on the hardened
:class:`~repro.sim.sweep.SweepRunner`:

1. **Config-hash result caching** (:class:`~repro.sim.store.ResultStore`).
   Every point of every round is keyed by the stable hash of its *full*
   resolved config plus its benchmark; a key already in the store is
   served from disk instead of simulated.  Repeated sub-configs across
   shards, resumed explorations and refinement rounds all collapse into
   one simulation each — a re-run of a finished exploration simulates
   nothing.

2. **Successive halving.**  Round 1 screens the whole grid at a short
   ``screen_cycles`` run length; each round promotes the most promising
   fraction (``1/eta``) to a longer run length, geometrically
   interpolated up to the full ``base_config.cycles`` in the final
   round.  Promotion is Pareto-rank based (frontier first), and the
   screening frontier itself is *always* promoted even when it exceeds
   the quota — halving must never drop a point that looks
   non-dominated, only the clearly dominated bulk.  The final round
   runs under ``base_config`` unchanged, so surviving points' metrics
   are bit-identical to an exhaustive ``repro sweep`` of the grid.

3. **A first-class frontier artifact.**  The result renders as a table
   and serializes to ``pareto.json``: objectives, per-round telemetry
   (cache hits, points simulated vs served, survivors), cache stats and
   the per-benchmark Pareto frontier over full-length metrics.

Sharding falls out of the cache: any number of ``repro explore``
processes pointed at disjoint benchmark/axis slices but one store
directory tree dedup against each other through the config-hash keys.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    pareto_front,
    pareto_ranks,
    render_pareto,
)
from repro.sim.cosim import CosimConfig
from repro.sim.store import ResultStore, point_key
from repro.sim.sweep import (
    SweepPoint,
    SweepPointResult,
    SweepRunner,
    _jsonable,
    expand_grid,
)
from repro.telemetry import Telemetry, config_hash
from repro.telemetry.live import LiveRun, atomic_write_json

#: Paper guardband: the supply floor below which timing is not safe.
DEFAULT_GUARDBAND_V = 0.8


def round_schedule(
    full_cycles: int, screen_cycles: int, rounds: int
) -> List[int]:
    """Per-round run lengths: geometric from screening to full.

    The last round is always exactly ``full_cycles`` (that is what
    makes survivors comparable to an exhaustive sweep); with one round
    there is no screening at all.
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if rounds == 1:
        return [full_cycles]
    if not 0 < screen_cycles < full_cycles:
        raise ValueError(
            f"screen_cycles must be in (0, {full_cycles}), "
            f"got {screen_cycles}"
        )
    ratio = full_cycles / screen_cycles
    schedule = [
        round(screen_cycles * ratio ** (r / (rounds - 1)))
        for r in range(rounds)
    ]
    schedule[-1] = full_cycles
    return schedule


@dataclass
class ExploreRound:
    """Telemetry of one successive-halving round."""

    number: int
    cycles: int
    warmup_cycles: int
    candidates: int
    served_from_cache: int = 0
    simulated: int = 0
    failed: int = 0
    promoted: int = 0

    @property
    def cache_hit_rate(self) -> float:
        return self.served_from_cache / self.candidates if self.candidates else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "round": self.number,
            "cycles": self.cycles,
            "warmup_cycles": self.warmup_cycles,
            "candidates": self.candidates,
            "served_from_cache": self.served_from_cache,
            "simulated": self.simulated,
            "failed": self.failed,
            "promoted": self.promoted,
            "cache_hit_rate": self.cache_hit_rate,
        }


@dataclass
class ExploreResult:
    """Everything one exploration produced, artifact-ready."""

    front: List[Dict[str, object]]
    evaluated: List[Dict[str, object]]
    rounds: List[ExploreRound]
    base_config: CosimConfig
    objectives: Sequence[Objective]
    guardband_v: float
    store_stats: Mapping[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def num_simulated(self) -> int:
        return sum(r.simulated for r in self.rounds)

    @property
    def num_served(self) -> int:
        return sum(r.served_from_cache for r in self.rounds)

    def to_dict(self) -> Dict[str, object]:
        """The ``pareto.json`` document."""
        return {
            "artifact": "pareto",
            "config_hash": config_hash(self.base_config),
            "guardband_v": self.guardband_v,
            "objectives": [
                {"name": o.name, "sense": o.sense} for o in self.objectives
            ],
            "elapsed_s": self.elapsed_s,
            "points_simulated": self.num_simulated,
            "points_served_from_cache": self.num_served,
            "rounds": [r.to_dict() for r in self.rounds],
            "cache": _jsonable(dict(self.store_stats)),
            "front_size": len(self.front),
            "front": _jsonable(self.front),
            "evaluated": _jsonable(self.evaluated),
        }

    def write_json(self, path) -> Path:
        """Atomically write ``pareto.json`` to ``path``."""
        return atomic_write_json(path, self.to_dict(), "checkpoint_write")

    def render(self) -> str:
        """The frontier table plus the exploration accounting lines."""
        lines = [
            render_pareto(
                self.front, self.objectives,
                title=f"Pareto frontier (guardband {self.guardband_v:g} V)",
            )
        ]
        for rnd in self.rounds:
            lines.append(
                f"round {rnd.number}: {rnd.candidates} candidates @ "
                f"{rnd.cycles} cycles -> {rnd.simulated} simulated, "
                f"{rnd.served_from_cache} cached "
                f"({rnd.cache_hit_rate:.0%} hit rate), "
                f"{rnd.failed} failed, {rnd.promoted} promoted"
            )
        lines.append(
            f"total: {self.num_simulated} simulated, {self.num_served} "
            f"served from cache, frontier {len(self.front)} points, "
            f"{self.elapsed_s:.1f}s"
        )
        return "\n".join(lines)


def _objective_row(
    result: SweepPointResult,
    round_base: CosimConfig,
    guardband_v: float,
) -> Dict[str, object]:
    """Flatten one successful point into a Pareto-comparable row."""
    config = result.point.config(round_base)
    metrics = result.metrics
    min_v = float(metrics["min_voltage_v"])
    return {
        "benchmark": result.point.benchmark,
        "index": result.point.index,
        "overrides": dict(result.point.overrides),
        "seed": result.point.seed,
        "cr_ivr_area_mm2": float(config.cr_ivr_area_mm2),
        "pde": float(metrics["pde"]),
        "min_voltage_v": min_v,
        "guardband_violation_v": max(0.0, guardband_v - min_v),
        "throughput_ipc": float(metrics["throughput_ipc"]),
    }


def _promote(
    rows: Sequence[Mapping[str, object]],
    eta: int,
    objectives: Sequence[Objective],
) -> List[int]:
    """Indices (``row["index"]``) surviving one halving round.

    Per benchmark: rank rows by non-dominated sorting, keep whole ranks
    until the ``ceil(n / eta)`` quota is met — but never cut into rank
    0, the screening frontier.  A partially admitted rank is filled in
    grid order, keeping promotion deterministic.
    """
    survivors: List[int] = []
    by_benchmark: Dict[str, List[Mapping[str, object]]] = {}
    for row in rows:
        by_benchmark.setdefault(str(row["benchmark"]), []).append(row)
    for group in by_benchmark.values():
        quota = math.ceil(len(group) / eta)
        ranks = pareto_ranks(group, objectives)
        chosen: List[Mapping[str, object]] = []
        for rank in range(max(ranks) + 1 if ranks else 0):
            layer = sorted(
                (row for row, r in zip(group, ranks) if r == rank),
                key=lambda row: row["index"],
            )
            if rank == 0 or len(chosen) + len(layer) <= quota:
                chosen.extend(layer)
            else:
                chosen.extend(layer[: max(0, quota - len(chosen))])
            if len(chosen) >= quota:
                break
        survivors.extend(int(row["index"]) for row in chosen)
    return sorted(survivors)


def run_exploration(
    benchmarks: Sequence[str],
    axes: Optional[Mapping[str, Sequence]] = None,
    base_config: CosimConfig = CosimConfig(),
    store_path="explore_store.jsonl",
    rounds: int = 2,
    eta: int = 2,
    screen_cycles: Optional[int] = None,
    guardband_v: float = DEFAULT_GUARDBAND_V,
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
    base_seed: int = 1,
    max_workers: Optional[int] = None,
    batch_size: int = 1,
    progress=None,
    telemetry: Optional[Telemetry] = None,
    live: Optional[LiveRun] = None,
    **runner_kwargs,
) -> ExploreResult:
    """Explore ``benchmarks`` x ``axes`` by cached successive halving.

    ``axes`` uses the sweep grid syntax (``CosimConfig`` field names,
    dotted for nested fields like ``controller.k2``).  ``screen_cycles``
    defaults to a quarter of the full run length.  Extra keyword
    arguments (``point_timeout_s``, ``max_attempts``, ...) pass through
    to every round's :class:`SweepRunner`; checkpointing is not among
    them — the result store *is* the persistence layer, at per-point
    rather than per-sweep granularity.

    ``live`` (a :class:`repro.telemetry.LiveRun`) publishes the round
    number, candidate count, cache hit rate and frontier size to the
    run directory's ``status.json`` as the exploration progresses, and
    passes through to each round's sweep so its workers heartbeat too.
    """
    if eta <= 1:
        raise ValueError(f"eta must be at least 2, got {eta}")
    if "checkpoint_path" in runner_kwargs:
        raise ValueError(
            "explorations persist through the result store, not sweep "
            "checkpoints; drop checkpoint_path"
        )
    if screen_cycles is None:
        screen_cycles = max(1, base_config.cycles // 4)
    schedule = round_schedule(base_config.cycles, screen_cycles, rounds)
    grid = expand_grid(benchmarks, axes, base_seed=base_seed)
    store = ResultStore(store_path)
    tele = telemetry if telemetry is not None and telemetry.enabled else None
    if tele is not None:
        tele.event(
            "explore_start", num_points=len(grid), rounds=rounds, eta=eta,
            schedule=schedule, store_entries=len(store),
        )

    if live is not None:
        reg = live.registry
        live.publisher.extra.setdefault("command", "explore")
        reg.gauge("explore_rounds_total").set(len(schedule))
        live_round = reg.gauge("explore_round")
        live_candidates = reg.gauge("explore_candidates")
        live_hit_rate = reg.gauge("explore_cache_hit_rate")
        live_front = reg.gauge("explore_frontier_size")
        live_simulated = reg.counter("explore_points_simulated")
        live_served = reg.counter("explore_points_served")

    start = time.perf_counter()
    candidates: List[SweepPoint] = list(grid)
    round_stats: List[ExploreRound] = []
    final_rows: List[Dict[str, object]] = []
    for number, cycles in enumerate(schedule, start=1):
        is_final = number == len(schedule)
        if is_final:
            round_base = base_config
        else:
            warmup = min(
                int(base_config.warmup_cycles * cycles / base_config.cycles),
                cycles - 1,
            )
            round_base = replace(
                base_config, cycles=cycles, warmup_cycles=max(0, warmup)
            )
        stats = ExploreRound(
            number=number, cycles=round_base.cycles,
            warmup_cycles=round_base.warmup_cycles,
            candidates=len(candidates),
        )
        if tele is not None:
            tele.event(
                "explore_round_start", round=number, cycles=round_base.cycles,
                candidates=len(candidates), final=is_final,
            )
        if live is not None:
            live_round.set(number)
            live_candidates.set(len(candidates))
            live.publisher.publish()

        results: Dict[int, SweepPointResult] = {}
        to_run: List[SweepPoint] = []
        for point in candidates:
            served = store.serve(point_key(point, round_base), point)
            if served is None:
                to_run.append(point)
                continue
            results[point.index] = served
            stats.served_from_cache += 1
            if progress is not None:
                progress(served)
        if to_run:
            sweep = SweepRunner(
                to_run, round_base, max_workers=max_workers,
                batch_size=batch_size, **runner_kwargs,
            ).run(progress=progress, telemetry=tele, live=live)
            for result in sweep.points:
                results[result.point.index] = result
                stats.simulated += 1
                store.put(point_key(result.point, round_base), result)
        stats.failed = sum(1 for r in results.values() if not r.ok)

        rows = [
            _objective_row(results[p.index], round_base, guardband_v)
            for p in candidates
            if results[p.index].ok
        ]
        if is_final:
            final_rows = sorted(
                rows, key=lambda row: (row["benchmark"], row["index"])
            )
            stats.promoted = 0
        else:
            surviving = set(_promote(rows, eta, objectives))
            candidates = [p for p in candidates if p.index in surviving]
            stats.promoted = len(candidates)
        round_stats.append(stats)
        if live is not None:
            live_simulated.inc(stats.simulated)
            live_served.inc(stats.served_from_cache)
            total = live_simulated.value + live_served.value
            live_hit_rate.set(
                live_served.value / total if total else 0.0
            )
            live.publisher.publish()
        if tele is not None:
            tele.event(
                "explore_round_done", round=number,
                served_from_cache=stats.served_from_cache,
                simulated=stats.simulated, failed=stats.failed,
                promoted=stats.promoted,
                cache_hit_rate=round(stats.cache_hit_rate, 4),
            )
        if not candidates and not is_final:
            raise RuntimeError(
                f"round {number} eliminated every candidate (all points "
                "failed?) — nothing left to promote"
            )

    # One frontier per workload: PDE/voltage levels are not comparable
    # across benchmarks, so dominance is judged within each benchmark
    # and the artifact carries the per-benchmark frontiers' union.
    front: List[Dict[str, object]] = []
    for benchmark in sorted({str(row["benchmark"]) for row in final_rows}):
        front.extend(
            pareto_front(
                [row for row in final_rows if row["benchmark"] == benchmark],
                objectives,
            )
        )
    elapsed = time.perf_counter() - start
    if live is not None:
        live_front.set(len(front))
        live.publisher.publish()
    result = ExploreResult(
        front=front,
        evaluated=final_rows,
        rounds=round_stats,
        base_config=base_config,
        objectives=tuple(objectives),
        guardband_v=guardband_v,
        store_stats=store.stats(),
        elapsed_s=elapsed,
    )
    if tele is not None:
        tele.add_time("explore", elapsed)
        tele.set_metrics({
            "points_simulated": result.num_simulated,
            "points_served_from_cache": result.num_served,
            "cache_hit_rate": round(
                result.num_served
                / max(1, result.num_served + result.num_simulated),
                4,
            ),
            "front_size": len(front),
            "rounds": len(round_stats),
        })
        tele.event(
            "explore_done", front_size=len(front),
            points_simulated=result.num_simulated,
            points_served_from_cache=result.num_served,
            elapsed_s=round(elapsed, 3),
        )
    return result
