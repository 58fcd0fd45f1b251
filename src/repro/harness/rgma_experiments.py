"""R-GMA experiments: Figs 10, 11, 12, 13, 14 and the warm-up loss result.

:func:`rgma_run` is the §III.F setup as a :func:`repro.harness.leg.run_leg`
adapter: generator clients create Primary Producers against the producer
servlet(s), publish a row every 10 s, and per-client-node subscribers poll
Consumer resources (with genid-range WHERE clauses) every 100 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.cluster import HydraCluster
from repro.core import ExperimentResult, percentile_curve, rtt_stats
from repro.harness.leg import LegResult, Window, fleet_for, run_leg, watch_nodes
from repro.harness.scale import Scale
from repro.powergrid import RgmaFleet, RgmaReceiver
from repro.rgma import RGMAConfig, RGMADeployment
from repro.transport.http import HttpClient

#: Generator client nodes (paper: two publish, two receive — §III.F.1).
PUBLISH_NODES = ("hydra5", "hydra6")
RECEIVE_NODES = ("hydra7", "hydra8")


@dataclass(kw_only=True)
class RgmaRunResult(LegResult):
    connections: int
    oom: bool
    refused: int
    #: Redelivered tuples the consumers suppressed (first delivery wins).
    duplicates: int = 0


def rgma_run(
    connections: int,
    *,
    distributed: bool = False,
    secondary_producer: bool = False,
    skip_warmup: bool = False,
    use_https: bool = False,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[RGMAConfig] = None,
    fault_plan: Any = None,
    scenario: Any = None,
) -> RgmaRunResult:
    """One §III.F test: ``connections`` Primary Producers, two subscribers.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan` or a template callable
    ``(measure_since, duration) -> FaultPlan``) arms link- and node-level
    fault injection; servlet stalls target the server nodes.  ``scenario``
    (a :class:`repro.scenario.Scenario` or template) additionally perturbs
    the producers' publication rates and merges its fault fragment in.
    """
    config = config or RGMAConfig()

    def build(sim, scale):
        cluster = HydraCluster(sim)
        transport = None
        if use_https:
            from repro.transport.tls import TlsTransport

            transport = TlsTransport(sim, cluster.lan)
        if distributed:
            deployment = RGMADeployment.distributed(sim, cluster, config)
            server_nodes = ("hydra1", "hydra2", "hydra3", "hydra4")
        else:
            deployment = RGMADeployment.single_server(
                sim, cluster, config, transport=transport
            )
            server_nodes = ("hydra1",)
        vmstats = watch_nodes(sim, cluster, server_nodes, "rgma")

        # Secondary producer (Fig 10): one SP on the (first) producer site; the
        # subscribers then read exclusively through it.
        if secondary_producer:
            http = HttpClient(
                sim,
                deployment.transport,
                cluster.node(RECEIVE_NODES[0]),
                deployment.producer_hosts[0],
                8080,
            )

            def create_sp():
                response = yield from http.request("/sp/create", {"table": "gridmon"}, 120)
                assert response.status == 200, response.body

            sim.run_process(create_sp())

        creation_span = connections * scale.creation_interval_rgma
        measure_since = sim.now + creation_span + scale.warmup[1] + config.mediation_period + 4.0
        fleet_config, book = yield Window(
            measure_since,
            fleet_for(
                scale,
                measure_since,
                connections,
                scale.creation_interval_rgma,
                client_nodes=PUBLISH_NODES,
                skip_warmup=skip_warmup,
            ),
            vmstats,
        )

        # Two subscribers, each taking one publisher node's genid block via a
        # WHERE clause (content-based filtering at the producers).
        receivers: list[RgmaReceiver] = []
        for k, node_name in enumerate(RECEIVE_NODES):
            lo, hi = fleet_config.id_range(k)
            if lo >= hi:
                continue
            receiver = RgmaReceiver(
                sim,
                cluster,
                deployment,
                node_name,
                select_sql=f"SELECT * FROM gridmon WHERE genid >= {lo} AND genid < {hi}",
                consumer_index=k,
                producer_type="secondary" if secondary_producer else "primary",
                poll_interval=config.poll_interval,
            )
            sim.run_process(receiver.start())
            receivers.append(receiver)

        fleet = RgmaFleet(sim, cluster, deployment, fleet_config, book)
        fleet.start()
        yield dict(lan=cluster.lan, cluster=cluster)

        for receiver in receivers:
            receiver.stop()
        yield dict(
            connections=connections,
            oom=fleet.stats.connections_refused > 0,
            refused=fleet.stats.connections_refused,
            duplicates=sum(r.duplicates for r in receivers),
        )

    return run_leg(
        build,
        RgmaRunResult,
        middleware="rgma",
        label=f"rgma{'_dist' if distributed else ''}[{connections}]",
        scale=scale,
        seed=seed,
        fault_plan=fault_plan,
        scenario=scenario,
        # The SP path adds its deliberate delay to every message: extend the
        # drain so republished tuples are observed.
        extra_drain=config.secondary_producer_delay + 10.0 if secondary_producer else 0.0,
    )


# ---------------------------------------------------------------- sweeps

SINGLE_SWEEP = (100, 200, 400, 600, 800)
DISTRIBUTED_SWEEP = (400, 600, 800, 1000)
SECONDARY_SWEEP = (50, 100, 200)


def run_scaling_sweep(
    connections: tuple[int, ...],
    distributed: bool,
    scale: Optional[Scale] = None,
    seed: int = 1,
    jobs: int = 1,
) -> dict[int, RgmaRunResult]:
    from repro.harness.parallel import sweep

    return sweep(
        __name__, "rgma_run", "connections", connections, jobs,
        distributed=distributed, scale=scale, seed=seed,
    )


def fig11(
    single: dict[int, RgmaRunResult], dist: dict[int, RgmaRunResult]
) -> ExperimentResult:
    """Fig 11: R-GMA RTT & STDDEV vs connections, single vs distributed."""
    result = ExperimentResult(
        "fig11",
        "R-GMA Primary Producer and Consumer tests",
        "concurrent connections",
        "millisecond",
    )
    for n, run in sorted(single.items()):
        if run.oom:
            result.note(
                f"single R-GMA server OOM at {n} connections "
                f"({run.refused} producers refused) — paper: 'one R-GMA "
                "server cannot accept 800 concurrent connections'"
            )
            continue
        result.add_point("RTT", n, run.mean_rtt_ms)
        result.add_point("STDDEV", n, run.stddev_rtt_ms)
    for n, run in sorted(dist.items()):
        if run.oom:
            result.note(f"distributed R-GMA OOM at {n} connections")
            continue
        result.add_point("RTT2", n, run.mean_rtt_ms)
        result.add_point("STDDEV2", n, run.stddev_rtt_ms)
    biggest = max((n for n, r in single.items() if not r.oom), default=None)
    if biggest is not None:
        frac = float((single[biggest].rtts <= 4.0).mean())
        result.note(
            f"single server at {biggest} connections: {frac:.1%} of messages "
            "within 4000 ms (paper: '99% of messages arrived within 4000 ms')"
        )
    return result


def fig12(single: dict[int, RgmaRunResult]) -> ExperimentResult:
    """Fig 12: single-server percentiles, 100-600 connections."""
    result = ExperimentResult(
        "fig12",
        "R-GMA Primary Producer and Consumer single server tests, percentile of RTT",
        "percentile",
        "millisecond",
    )
    for n, run in sorted(single.items()):
        if run.oom or n > 600:
            continue
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(str(n), pct, ms)
    return result


def fig13(
    single: dict[int, RgmaRunResult], dist: dict[int, RgmaRunResult]
) -> ExperimentResult:
    """Fig 13: CPU idle and memory, single vs distributed."""
    result = ExperimentResult(
        "fig13",
        "R-GMA Consumer tests, CPU idle and memory consumption",
        "concurrent connections",
        "CPU idle % / memory MB",
    )
    for n, run in sorted(single.items()):
        if run.oom:
            continue
        vm = run.vmstat["hydra1"]
        result.add_point("CPU", n, vm.mean_cpu_idle_percent)
        result.add_point("MEM", n, vm.memory_consumption_mb)
    for n, run in sorted(dist.items()):
        if run.oom:
            continue
        idles = [v.mean_cpu_idle_percent for v in run.vmstat.values()]
        mems = [v.memory_consumption_mb for v in run.vmstat.values()]
        result.add_point("CPU2", n, sum(idles) / len(idles))
        result.add_point("MEM2", n, sum(mems) / len(mems))
    return result


def fig14(dist: dict[int, RgmaRunResult]) -> ExperimentResult:
    """Fig 14: distributed percentiles, 400-1000 connections."""
    result = ExperimentResult(
        "fig14",
        "R-GMA distributed network tests, percentile of RTT",
        "percentile",
        "millisecond",
    )
    for n, run in sorted(dist.items()):
        if run.oom:
            continue
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(str(n), pct, ms)
    return result


def fig10(scale: Optional[Scale] = None, seed: int = 1) -> ExperimentResult:
    """Fig 10: Primary + Secondary Producer percentiles (50-200 conns).

    "The delays were up to 35 seconds" — the SP's deliberate 30 s republish
    delay plus the normal pipeline.
    """
    result = ExperimentResult(
        "fig10",
        "R-GMA Primary and Secondary Producer tests, percentile of RTT",
        "percentile",
        "second",
    )
    for n in SECONDARY_SWEEP:
        run = rgma_run(n, secondary_producer=True, scale=scale, seed=seed)
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(str(n), pct, ms / 1e3)  # the paper plots seconds
        result.note(
            f"{n} connections: mean RTT {run.mean_rtt_ms / 1e3:.1f} s "
            f"(loss {run.loss_rate:.2%})"
        )
    return result


def warmup_loss(scale: Optional[Scale] = None, seed: int = 1) -> ExperimentResult:
    """§III.F: '400 generators publishing data without waiting for the
    server to warm up ... loss rate was 0.17%'."""
    result = ExperimentResult(
        "rgma_warmup_loss",
        "R-GMA loss without producer warm-up wait",
        "case",
        "loss rate",
    )
    no_warm = rgma_run(400, skip_warmup=True, scale=scale, seed=seed)
    warm = rgma_run(400, skip_warmup=False, scale=scale, seed=seed)
    # Loss is counted over the WHOLE run (the paper counted every message,
    # including the pre-discovery ones).
    rows = []
    for label, run in (("no warm-up", no_warm), ("10-20 s warm-up", warm)):
        total_stats = rtt_stats(run.book, since=0.0)
        rows.append(
            [label, total_stats.sent, total_stats.count,
             f"{total_stats.loss_rate:.4%}"]
        )
        result.add_point(label, 0, total_stats.loss_rate)
    result.table = (["case", "sent", "received", "loss rate"], rows)
    result.note(
        "paper: 72,000 sent, 71,876 received, 0.17% loss without warm-up; "
        "zero loss with the 10-20 s warm-up wait"
    )
    return result
