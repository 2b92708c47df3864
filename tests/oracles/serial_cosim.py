"""The serial co-simulation loop, kept as the bit-identity oracle.

``repro.sim.cosim.run_cosim`` runs the shared batched loop at B=1.
This module keeps the one-scenario loop that loop replaced: a scalar
``observe`` + ``commands_for`` each cycle, ``SolverGuard`` over the
NumPy ``TransientSolver.step_n``, and both GPU setters every cycle.
Stock controller lanes run the per-SM scalar Algorithm 1
(:class:`tests.oracles.scalar_controller.ScalarController`), not the
library's controller bank.  It shares nothing with the batched loop
beyond the per-object models (GPU, netlist, fault injector), so the
equivalence suites compare ``run_cosim`` and ``run_cosim_batch``
against it byte for byte.  ``per_object_gpu`` swaps the GPU's C engine
for the per-object oracle GPU (``tests.oracles.per_object_gpu``), so the
GPU layer is checked too.

The body below is the former shipped loop verbatim; only its name, its
stock controller's class and its GPU engine switch changed.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.circuits import NumericalDivergence, SolverGuard, TransientSolver
from repro.config import SystemConfig
from repro.faults import chaos
from repro.gpu.gpu import GPU
from repro.gpu.kernels import KernelSpec
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters
from repro.sim.cosim import CosimConfig, CosimResult, _record_cosim_telemetry
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.traces import PowerTrace
from tests.oracles.per_object_gpu import PerObjectGPU
from tests.oracles.scalar_controller import ScalarController

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.telemetry import Telemetry


def run_cosim_reference(
    benchmark: str = "hotspot",
    config: CosimConfig = CosimConfig(),
    system: SystemConfig = SystemConfig(),
    params: PDNParameters = DEFAULT_PDN,
    kernel: Optional[KernelSpec] = None,
    telemetry: Optional["Telemetry"] = None,
    flight=None,
    per_object_gpu: bool = False,
) -> CosimResult:
    """Run one coupled GPU/PDN/controller simulation.

    ``benchmark`` picks a paper workload; pass ``kernel`` to run a
    custom :class:`KernelSpec` instead (with default memory behaviour).

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) records the
    per-stage wall-clock split (GPU model / transient solve /
    controller), solver and controller work counters, decimated
    per-cycle voltage/power channels, and headline metrics.  ``None``
    (the default) leaves the hot loop on its untimed fast path.

    ``flight`` (a :class:`repro.telemetry.FlightRecorder`) rides the
    loop and captures full-resolution windows around guardband onsets
    and safe-state edges.  One is created automatically whenever
    telemetry is enabled; pass ``False`` to suppress that, or your own
    recorder to control the window geometry.  The finalized recorder is
    attached as ``result.flight``.

    ``per_object_gpu`` runs the GPU on the per-object oracle
    (:class:`tests.oracles.per_object_gpu.PerObjectGPU`) instead of the
    C engine.
    """
    tele = telemetry if telemetry is not None and telemetry.enabled else None
    setup_start = perf_counter()
    if tele is not None:
        tele.event("cosim_start", benchmark=benchmark, cycles=config.cycles,
                   warmup_cycles=config.warmup_cycles, seed=config.seed)

    stack = system.stack
    gpu_class = PerObjectGPU if per_object_gpu else GPU
    if kernel is None:
        spec = get_benchmark(benchmark)
        gpu = gpu_class(
            spec.kernel, config=system, seed=config.seed,
            miss_ratio=spec.miss_ratio, jitter=spec.jitter,
        )
        name = spec.name
    else:
        gpu = gpu_class(kernel, config=system, seed=config.seed)
        name = kernel.name

    pdn = build_stacked_pdn(
        stack=stack, params=params, cr_ivr_area_mm2=config.cr_ivr_area_mm2
    )
    cycle_s = system.gpu.cycle_time_s
    solver = TransientSolver(pdn.circuit, dt=cycle_s / config.circuit_substeps)
    # Seed the circuit at a balanced operating point.
    nominal_current = (
        system.power.sm_peak_power_w * 0.5 / stack.sm_voltage
    )
    pdn.set_sm_currents(np.full(stack.num_sms, nominal_current))
    solver.initialize_dc()
    guard = SolverGuard(solver) if config.solver_guard else None
    # Chaos harness (repro.faults.chaos): pre-resolve the scheduled
    # cycles so an inactive run pays one None check per cycle.
    monkey = chaos.current()
    chaos_cycles = monkey.cycle_schedule() if monkey is not None else None

    injector = None
    if config.faults is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            config.faults, stack, pdn=pdn, solver=solver
        )
        if tele is not None:
            tele.event(
                "faults_armed", schedule=config.faults.name,
                num_events=len(config.faults), seed=config.faults.seed,
            )

    controller = None
    controller_power = 0.0
    if config.use_controller:
        if config.controller_object is not None:
            controller = config.controller_object
        else:
            controller = ScalarController(
                stack=stack,
                config=config.controller,
                actuation=config.actuation,
                dt_s=cycle_s,
            )
        from repro.core.overheads import ControllerOverheads

        controller_power = ControllerOverheads().power_w

    num = stack.num_sms
    # The droop flight recorder: always-on alongside telemetry (cost
    # gated by benchmarks/test_perf_observability.py), opt-in otherwise.
    if flight is None and tele is not None:
        from repro.telemetry.flight import FlightRecorder

        flight = FlightRecorder(
            num_sms=num,
            guardband_v=stack.min_safe_voltage,
            cycle_offset=-config.warmup_cycles,
        )
    elif flight is False:
        flight = None
    # Whether the controller exposes the safe-state flag the recorder
    # samples (duck-typed alternatives may not).
    flight_safe = flight is not None and hasattr(controller, "in_safe_state")

    # Vectorized SM-voltage readout: (top, bottom) node indices per SM.
    top_idx = np.empty(num, dtype=int)
    bot_idx = np.empty(num, dtype=int)
    bot_is_ground = np.zeros(num, dtype=bool)
    for sm in range(num):
        top, bottom = pdn.sm_terminals(sm)
        top_idx[sm] = solver.structure.node(top)
        if bottom == "0":
            bot_is_ground[sm] = True
            bot_idx[sm] = 0
        else:
            bot_idx[sm] = solver.structure.node(bottom)

    sm_voltages = np.empty((config.cycles, num))
    powers_rec = np.empty((config.cycles, num))
    supply_current = np.empty(config.cycles)
    dcc_powers = np.zeros(num)
    applied_id = -1  # the decision id applied last (ScalarController)
    voltages_now = np.full(num, stack.sm_voltage)
    shutoff_sms: List[int] = (
        stack.sms_in_layer(config.shutoff.layer) if config.shutoff else []
    )

    conductance_bias = params.sm_conductance * stack.sm_voltage
    total_cycles = config.warmup_cycles + config.cycles
    dcc_energy_accum = 0.0
    # All work counters are measured over the recorded window only:
    # each is snapshotted at the warmup boundary and subtracted at the
    # end, so warmup cycles never inflate fake-instruction counts or
    # throttle fractions (the Fig. 13/14 inputs).
    instructions_at_start = 0
    fakes_at_start = 0
    throttled_at_start = 0
    # Telemetry: stage accumulators.  ``timing`` gates five perf_counter
    # reads per cycle; with telemetry off the loop body is branch-only.
    timing = tele is not None
    decision = None  # last controller decision (flight recorder sample)
    divergence: Optional[NumericalDivergence] = None
    recorded_count = config.cycles
    t_gpu = t_circuit = t_controller = t_record = 0.0
    if timing:
        tele.add_time("setup", perf_counter() - setup_start)
        v_chan = tele.channel("min_sm_voltage_v")
        p_chan = tele.channel("total_power_w")
        d_chan = tele.channel("dcc_power_w")
        li_chan = tele.channel("worst_layer_imbalance_w")
    loop_start = perf_counter()
    for cycle in range(total_cycles):
        recording = cycle >= config.warmup_cycles
        if cycle == config.warmup_cycles:
            instructions_at_start = gpu.total_instructions()
            fakes_at_start = gpu.total_fake_instructions()
            if controller is not None:
                throttled_at_start = controller.throttled_cycles

        # Fault-event timing shares the shutoff convention: cycle 0 of
        # an event window is the end of warmup.
        recorded_cycle = cycle - config.warmup_cycles

        # 1. GPU cycle under the actuation currently in force.
        if timing:
            t0 = perf_counter()
        powers = gpu.step()
        if injector is not None:
            # Circuit faults mutate element values (one re-factorization
            # per activation edge, before this cycle's solve); process
            # variation scales the emitted powers *before* they become
            # currents or records, keeping the PDE ledger closed.
            injector.apply_circuit_faults(recorded_cycle)
            powers = injector.scale_powers(recorded_cycle, powers)
            scales = injector.frequency_scales(recorded_cycle)
            if scales is not None:
                gpu.set_frequency_scales(scales)
        if timing:
            t1 = perf_counter()
            t_gpu += t1 - t0

        # 2. Powers -> PDN currents.  Per the paper's convention each SM
        # is a time-varying *ideal* current source: I = P / V_nominal.
        # (Dividing by the instantaneous voltage would add the classic
        # constant-power negative resistance and destabilize the grid.)
        # The netlist's small-signal load conductance already draws
        # ~g*V per SM, so that bias is deducted from the source to keep
        # the total SM draw equal to P / V_nominal.
        currents = (powers + dcc_powers) / stack.sm_voltage - conductance_bias
        pdn.set_sm_currents(np.maximum(currents, 0.0))
        if recording:
            # The DCC power *applied* this cycle (last decision's
            # command, just injected as current above).  Captured before
            # the controller updates dcc_powers for the next cycle, so
            # mean_dcc_power_w ledgers what the PDN actually saw — not
            # the final cycle's never-applied command.
            dcc_applied_w = float(dcc_powers.sum())

        # 3. Circuit transient over one clock period.
        if chaos_cycles is not None and recorded_cycle in chaos_cycles:
            for event in monkey.take_cycle(recorded_cycle):
                # Lane-targeted events belong to run_cosim_batch; the
                # serial loop honours only untargeted poisoning.
                if event.action == "nan_poison" and event.lane is None:
                    solver._react_v[:] = np.nan
        if guard is not None:
            try:
                node_v = guard.step_cycle(
                    config.circuit_substeps, cycle=recorded_cycle
                )
            except NumericalDivergence as exc:
                # Structured diverged verdict: truncate the recording at
                # the last completed cycle and stop simulating.
                divergence = exc
                recorded_count = max(0, cycle - config.warmup_cycles)
                break
        else:
            for _ in range(config.circuit_substeps):
                node_v = solver.step()
        bottoms = np.where(bot_is_ground, 0.0, node_v[bot_idx])
        voltages_now = node_v[top_idx] - bottoms
        if timing:
            t2 = perf_counter()
            t_circuit += t2 - t1

        # Halted SMs (legacy shutoff event + scheduled layer shutoffs /
        # power gating) must not block the kernel-launch barrier.
        halted: set = set()
        if config.shutoff is not None and config.shutoff.active(recorded_cycle):
            halted.update(shutoff_sms)
        if injector is not None:
            halted.update(injector.halted_sms(recorded_cycle))
        if config.shutoff is not None or injector is not None:
            gpu.barrier_exempt = halted
        halted_idx = sorted(halted)

        # 4. Detection + control (commands apply after the loop latency).
        # Ownership contract: decision arrays belong to the controller
        # and are immutable once enqueued (commands_for caches a
        # throttle flag on that assumption) — every value retained or
        # mutated here is copied at this boundary.  widths is mutated
        # (halted SMs) so it is always copied; fakes is consumed
        # synchronously by set_fake_rates (which copies into the
        # engine); dcc is retained across cycles in dcc_powers, so it
        # is copied into the loop-owned buffer rather than aliased.
        if controller is not None:
            if injector is None:
                controller.observe(cycle, voltages_now)
                decision = controller.commands_for(cycle)
                widths = decision.issue_widths.copy()
                fakes = decision.fake_rates
                dcc = decision.dcc_powers_w
            else:
                # Architecture faults: the detectors see a corrupted
                # copy of the voltages (or nothing at all this cycle),
                # and jitter delays which enqueued decision is read.
                seen = injector.corrupt_sensors(recorded_cycle, voltages_now)
                if injector.observation_allowed(recorded_cycle):
                    controller.observe(cycle, seen)
                decision = controller.commands_for(
                    cycle - injector.extra_latency(recorded_cycle)
                )
                widths = decision.issue_widths.copy()
                fakes = decision.fake_rates
                dcc = decision.dcc_powers_w
                if injector.touches_actuation:
                    fakes = fakes.copy()
                    dcc = dcc.copy()
                    injector.distort_actuation(
                        recorded_cycle, widths, fakes, dcc
                    )
            if halted_idx:
                widths[halted_idx] = 0.0
            gpu.set_issue_widths(widths)
            gpu.set_fake_rates(fakes)
            np.copyto(dcc_powers, dcc)
            if (isinstance(controller, ScalarController)
                    and controller.active_id != applied_id):
                applied_id = controller.active_id
                controller.actuations_applied += 1
        elif config.shutoff is not None or injector is not None:
            widths = np.full(num, 2.0)
            if halted_idx:
                widths[halted_idx] = 0.0
            gpu.set_issue_widths(widths)
        if timing:
            t3 = perf_counter()
            t_controller += t3 - t2

        if flight is not None:
            flight.observe(
                voltages_now,
                decision,
                injector.active_kinds(recorded_cycle)
                if injector is not None
                else None,
                controller.in_safe_state if flight_safe else False,
            )

        if recording:
            k = cycle - config.warmup_cycles
            powers_rec[k] = powers
            sm_voltages[k] = voltages_now
            supply_current[k] = solver.vsource_current("vdd")
            dcc_energy_accum += dcc_applied_w
            if timing:
                v_chan.record(k, voltages_now.min())
                p_chan.record(k, powers.sum())
                d_chan.record(k, dcc_applied_w)
                layer_powers = powers.reshape(
                    stack.num_layers, stack.num_columns
                ).sum(axis=1)
                li_chan.record(
                    k, layer_powers.max() - layer_powers.mean()
                )
        if timing:
            t_record += perf_counter() - t3

    if timing:
        # Attribute the loop's residual (iteration overhead, warmup
        # bookkeeping, the timing reads themselves) to its own stage so
        # the stage sum reconciles with wall-clock time.
        loop_wall = perf_counter() - loop_start
        tele.add_time("gpu_model", t_gpu)
        tele.add_time("transient_solve", t_circuit)
        tele.add_time("controller", t_controller)
        tele.add_time("record", t_record)
        tele.add_time(
            "loop_other",
            max(0.0, loop_wall - t_gpu - t_circuit - t_controller - t_record),
        )

    if divergence is not None:
        sm_voltages = sm_voltages[:recorded_count]
        powers_rec = powers_rec[:recorded_count]
        supply_current = supply_current[:recorded_count]

    trace = PowerTrace(
        powers_rec, frequency_hz=system.gpu.sm_clock_hz, name=name
    )
    # Kernel accounting: a kernel is *completed* in the window when both
    # its launch and the next launch fall at or after the warmup
    # boundary, i.e. one completed-kernel interval per np.diff entry.
    # kernels_completed counts exactly those intervals, so it always
    # agrees with kernel_durations (a bare launch count would disagree
    # by one for the still-running kernel, and cycles_per_kernel()'s
    # guard would check the wrong population).
    launches = np.asarray(gpu.kernel_launch_cycles)
    durations = np.diff(launches[launches >= config.warmup_cycles])
    result = CosimResult(
        benchmark=name,
        power_trace=trace,
        sm_voltages=sm_voltages,
        supply_current=supply_current,
        stack=stack,
        instructions=gpu.total_instructions() - instructions_at_start,
        fake_instructions=gpu.total_fake_instructions() - fakes_at_start,
        throttled_cycles=(
            controller.throttled_cycles - throttled_at_start
            if controller is not None
            else 0
        ),
        controller_power_w=controller_power,
        kernels_completed=len(durations),
        mean_dcc_power_w=dcc_energy_accum / (
            config.cycles if divergence is None else max(1, recorded_count)
        ),
    )
    result.kernel_durations = durations
    if divergence is not None:
        info = divergence.forensics()
        info["benchmark"] = name
        result.divergence = info
    if injector is not None and result.num_cycles > 0:
        from repro.faults.injector import build_fault_report

        result.fault_report = build_fault_report(injector, result, controller)
    if flight is not None:
        if divergence is not None:
            flight.force_dump(
                "numerical_divergence",
                min_voltage_v=(
                    float("nan")
                    if divergence.worst_value is None
                    else float(divergence.worst_value)
                ),
            )
        flight.finalize()
        result.flight = flight
        if tele is not None:
            tele.set_section("flight", flight.summary())
    if tele is not None:
        with tele.timer("finalize"):
            _record_cosim_telemetry(
                tele, config, result, solver, controller, guard=guard
            )
    return result
