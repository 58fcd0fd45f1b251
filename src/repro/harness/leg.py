"""One run skeleton for every harness leg.

The paper puts every middleware through one test procedure (§III): deploy
the system, start staggered generators that publish every few seconds,
measure a steady-state window, and compute RTT statistics from same-node
timestamps.  :func:`run_leg` is that procedure.  Each leg function
(``narada_run``, ``rgma_run``, ``plog_run``, ``edge_point``,
``direct_point``, ``federation_run``, ``federation_broadcast_run``) is an
adapter: it hands ``run_leg`` a *build* generator holding only what differs
per middleware, in three phases, each ending in a ``yield``::

    def build(sim, scale):
        ...                                  # deploy the middleware
        fleet, book = yield Window(measure_since, fleet_config, vmstats)
        ...                                  # receivers, publisher fleet
        yield dict(lan=..., brokers=...)     # FaultScheduler targets
        ...                                  # read counters after the run
        yield dict(connections=..., ...)     # the leg's extra result fields

Between the phases ``run_leg`` arms the scenario onto the fleet config,
resolves and merges the fault plans, attaches the fault scheduler, runs to
``stop_at + drain``, stops the VmStat samplers, and computes the
:class:`LegResult` fields every leg shares.  Build generators keep each
leg's historical construction order, so every leg schedules exactly the
events it always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.cluster import VmStat
from repro.cluster.vmstat import VmStatSummary
from repro.core import RecordBook, rtt_stats
from repro.core.metrics import rtt_percentiles
from repro.faults import FaultScheduler
from repro.harness.scale import Scale
from repro.powergrid import FleetConfig
from repro.scenario.compiler import arm_scenario, merge_fault_plan
from repro.sim import Simulator
from repro.telemetry.context import current as _telemetry


@dataclass(kw_only=True)
class LegResult:
    """What every leg measures over its steady-state window."""

    book: RecordBook
    measure_since: float
    sent: int
    received: int
    mean_rtt_ms: float
    stddev_rtt_ms: float
    loss_rate: float
    rtts: Any  # np.ndarray of measured-window RTT seconds
    rtt_p50_ms: float
    rtt_p99_ms: float
    #: Human-readable fault injection log ("t=... kind target note").
    fault_log: list[str]
    #: Steady-state CPU idle and whole-run memory per sampled server node.
    vmstat: dict[str, VmStatSummary]


@dataclass
class Window:
    """A deployed leg's measurement window, handed to :func:`run_leg`."""

    measure_since: float
    #: The publisher fleet's config, before the scenario is armed onto it
    #: (``None`` for legs that drive their own publishers).
    fleet: Optional[FleetConfig] = None
    #: Server-node samplers, stopped when the run ends.
    vmstats: dict[str, VmStat] = field(default_factory=dict)


Build = Callable[[Simulator, Scale], Generator[Any, Any, None]]


def fleet_for(
    scale: Scale,
    measure_since: float,
    n_generators: int,
    creation_interval: float,
    **fields: Any,
) -> FleetConfig:
    """A publisher fleet that warms up per ``scale`` and publishes until
    the end of the measurement window."""
    return FleetConfig(
        n_generators=n_generators,
        creation_interval=creation_interval,
        warmup_min=scale.warmup[0],
        warmup_max=scale.warmup[1],
        duration=scale.duration,
        stop_at=measure_since + scale.duration,
        **fields,
    )


def watch_nodes(
    sim: Simulator, cluster: Any, names: tuple[str, ...], middleware: str
) -> dict[str, VmStat]:
    """VmStat samplers on the server nodes ``names``, plus telemetry
    samplers when a session is active."""
    vmstats = {name: VmStat(sim, cluster.node(name)) for name in names}
    tel = _telemetry()
    if tel is not None:
        for name in names:
            tel.sample_node(sim, cluster.node(name), middleware=middleware)
    return vmstats


def steady_state_summary(vm: VmStat, since: float) -> VmStatSummary:
    """CPU idle over the steady-state window; memory consumption (peak −
    bottom, the paper's definition) over the whole run — connection setup is
    where most memory is committed."""
    cpu = vm.summary(warmup=since)
    mem = vm.summary(warmup=0.0)
    return VmStatSummary(
        mean_cpu_idle_percent=cpu.mean_cpu_idle_percent,
        memory_consumption_bytes=mem.memory_consumption_bytes,
        samples=cpu.samples,
    )


def run_leg(
    build: Build,
    result_type: type,
    *,
    middleware: str,
    label: str,
    scale: Optional[Scale],
    seed: int,
    fault_plan: Any = None,
    scenario: Any = None,
    extra_drain: float = 0.0,
) -> Any:
    """Run one leg through the shared test procedure.

    ``result_type`` is the leg's :class:`LegResult` subclass; ``middleware``
    and ``label`` name the run to an active telemetry session.
    ``fault_plan`` is a :class:`repro.faults.FaultPlan` or a template
    callable ``(measure_since, duration) -> FaultPlan``; ``scenario`` a
    :class:`repro.scenario.Scenario` or template, which perturbs the fleet's
    publication rates and contributes its own fault fragment.
    ``extra_drain`` extends the drain past ``scale.drain``.
    """
    scale = scale or Scale.from_env()
    sim = Simulator(seed=seed)
    steps = build(sim, scale)
    window: Window = next(steps)
    since = window.measure_since
    fleet, compiled = arm_scenario(scenario, since, scale.duration, window.fleet)
    book = RecordBook()
    targets = steps.send((fleet, book))

    plan = fault_plan(since, scale.duration) if callable(fault_plan) else fault_plan
    plan = merge_fault_plan(compiled, plan)
    scheduler = None
    if plan is not None and len(plan):
        scheduler = FaultScheduler(sim, plan)
        scheduler.attach(**targets)

    sim.run(until=since + scale.duration + scale.drain + extra_drain)
    for vm in window.vmstats.values():
        vm.stop()
    extras = next(steps)

    stats = rtt_stats(book, since=since)
    rtts = book.rtts(since=since)
    p50, p99 = rtt_percentiles(rtts, (50, 99))
    tel = _telemetry()
    if tel is not None:
        tel.observe_run(book, middleware=middleware, measure_since=since, label=label)
    return result_type(
        book=book,
        measure_since=since,
        sent=stats.sent,
        received=stats.count,
        mean_rtt_ms=stats.mean_ms,
        stddev_rtt_ms=stats.stddev_ms,
        loss_rate=stats.loss_rate,
        rtts=rtts,
        rtt_p50_ms=p50,
        rtt_p99_ms=p99,
        fault_log=scheduler.render_log() if scheduler is not None else [],
        vmstat={
            name: steady_state_summary(vm, since)
            for name, vm in window.vmstats.items()
        },
        **extras,
    )
