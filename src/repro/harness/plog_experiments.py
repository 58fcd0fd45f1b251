"""Partitioned-log experiments: the third middleware candidate.

The paper's §V diagnosis is that neither measured system scales past a few
thousand generators: Narada's thread-per-connection broker hits its memory
wall near 4000 connections and the v1.1.3 DBN floods every event to every
broker; R-GMA's mediated SQL pipeline has second-scale process time.  These
experiments put a Kafka-style partitioned commit log (:mod:`repro.plog`) on
the same Hydra testbed, same workload, same metrics — and sweep *past* the
4000-connection wall to ask whether the §I soft-real-time requirement
(delivery within ~5 s, delays/loss under 0.5 %) holds at 10,000+
generators.

:func:`plog_run` is a :func:`repro.harness.leg.run_leg` adapter like
:func:`repro.harness.narada_experiments.narada_run`: same client nodes,
same staggered fleet, same steady-state measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster import HydraCluster
from repro.core import DedupIndex, ExperimentResult, percentile_curve
from repro.core.metrics import soft_realtime_compliance
from repro.harness.leg import LegResult, Window, fleet_for, run_leg, watch_nodes
from repro.harness.narada_experiments import CLIENT_NODES
from repro.harness.scale import Scale
from repro.plog import PlogConfig, PlogDeployment
from repro.powergrid import PlogFleet, PlogReceiver
from repro.transport import TcpTransport, UdpTransport

BROKER_NODES_SINGLE = ("hydra1",)
BROKER_NODES_SPREAD = ("hydra1", "hydra2", "hydra3", "hydra4")

#: Above this connection count the creation stagger is compressed so the
#: ramp-up phase stays bounded (the steady-state window is what we measure;
#: connection *count*, not arrival rate, is the independent variable).
CREATION_CAP_CONNECTIONS = 4000

#: Transport constructors by ``transport_kind``.
TRANSPORTS = {
    "tcp": TcpTransport,
    # Acked datagrams with zero baseline loss: the chaos experiments inject
    # loss through the LAN fault windows instead, so the no-fault phases of
    # a run stay clean.
    "udp": lambda sim, lan: UdpTransport(
        sim, lan, loss_probability=0.0, acked=True, rto=0.15, max_retries=1
    ),
}


@dataclass(kw_only=True)
class PlogRunResult(LegResult):
    """Everything one partitioned-log test run produces."""

    connections: int
    n_brokers: int
    oom: bool
    refused: int
    #: §I requirement at this load: (compliant, frac_late_or_lost, loss).
    compliant: bool
    frac_late_or_lost: float
    broker_stats: dict[str, Any] = field(default_factory=dict)
    duplicates: int = 0
    #: Redeliveries the shared (gen_id, seq) sink index absorbed
    #: (``dedup_receivers`` runs only).
    redeliveries: int = 0
    #: Producer batches the brokers' idempotence index discarded as
    #: duplicates of an already-appended (pid, seq) window.
    duplicate_batches: int = 0
    #: Offset commits the coordinator rejected for a stale generation.
    fenced_commits: int = 0
    #: Recovery counters (all zero without faults / recovery config).
    producer_retries: int = 0
    producer_reconnects: int = 0
    consumer_recoveries: int = 0
    #: Durability accounting over the measurement window: records whose
    #: produce *was acknowledged* (``t_after_send`` stamped by the ack
    #: machinery), and how many of those never reached a consumer.  With
    #: ``acks=all`` and a surviving in-sync replica, ``acked_lost`` must be
    #: zero even across a leader crash — the headline replication claim.
    acked: int = 0
    acked_lost: int = 0
    #: Replication / control-plane counters (zero when unreplicated).
    elections: int = 0
    coordinator_elections: int = 0
    isr_shrinks: int = 0
    isr_expands: int = 0
    records_replicated: int = 0
    coordinator_rejoins: int = 0
    #: ``(time, topic, partition, new_leader)`` per leader election — used
    #: by the determinism tests (same seed => identical log).
    election_log: list = field(default_factory=list)


def plog_run(
    connections: int,
    *,
    n_brokers: int = 1,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[PlogConfig] = None,
    deadline_s: float = 5.0,
    transport_kind: str = "tcp",
    fault_plan: Any = None,
    scenario: Any = None,
    dedup_receivers: bool = False,
) -> PlogRunResult:
    """One grid-monitoring test: ``connections`` generators against a
    partitioned-log deployment of ``n_brokers`` brokers, measured in steady
    state.

    ``fault_plan`` is either a :class:`repro.faults.FaultPlan` or a template
    callable ``(measure_since, duration) -> FaultPlan``; its events are
    armed against this run's LAN, brokers and consumers.  ``scenario`` (a
    :class:`repro.scenario.Scenario` or template) additionally perturbs the
    producers' publication rates and merges its fault fragment in.
    ``dedup_receivers`` gives all group members one shared ``(gen_id, seq)``
    index — the idempotent-sink half of exactly-once: post-rebalance replay
    of records a dead member already processed is absorbed as a
    redelivery, not a duplicate.
    """
    if transport_kind not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport_kind!r}")
    config = config or PlogConfig()
    broker_nodes = (
        BROKER_NODES_SPREAD[:n_brokers] if n_brokers > 1 else BROKER_NODES_SINGLE
    )

    def build(sim, scale):
        cluster = HydraCluster(sim)
        transport = TRANSPORTS[transport_kind](sim, cluster.lan)
        deployment = PlogDeployment(
            sim, cluster, transport, broker_hosts=broker_nodes, config=config
        )
        deployment.serve()
        vmstats = watch_nodes(sim, cluster, broker_nodes, "plog")

        creation_interval = scale.creation_interval_narada * min(
            1.0, CREATION_CAP_CONNECTIONS / max(1, connections)
        )
        creation_span = connections * creation_interval
        measure_since = sim.now + creation_span + scale.warmup[1] + 2.0
        fleet_config, book = yield Window(
            measure_since,
            fleet_for(
                scale,
                measure_since,
                connections,
                creation_interval,
                client_nodes=CLIENT_NODES,
            ),
            vmstats,
        )

        # One consumer-group member per client node ("data were received by
        # the node where they were sent", §III.E.2) — the coordinator splits
        # the topic's partitions evenly among them.
        dedup = DedupIndex() if dedup_receivers else None
        receivers = [
            PlogReceiver(sim, cluster, deployment, client_node, dedup=dedup)
            for client_node in CLIENT_NODES
        ]
        for receiver in receivers:
            receiver.start()

        fleet = PlogFleet(sim, cluster, deployment, fleet_config, book)
        fleet.start()
        yield dict(
            lan=cluster.lan,
            cluster=cluster,
            brokers=deployment.brokers,
            consumers=[r.consumer for r in receivers],
        )

        brokers = deployment.brokers
        compliant, frac_late, _loss = soft_realtime_compliance(
            book, deadline_s=deadline_s, since=measure_since
        )
        window = [r for r in book.records if r.t_before_send >= measure_since]
        refused = fleet.stats.connections_refused
        controller = deployment.controller
        yield dict(
            connections=connections,
            n_brokers=len(broker_nodes),
            oom=refused > 0,
            refused=refused,
            compliant=compliant,
            frac_late_or_lost=frac_late,
            broker_stats={
                b.name: {
                    "connections": b.stats.connections_accepted,
                    "produce_batches": b.stats.produce_batches,
                    "records_appended": b.stats.records_appended,
                    "records_fetched": b.stats.records_fetched,
                    "records_dropped": b.stats.records_dropped,
                    "duplicate_batches": b.stats.duplicate_batches,
                    "fetches": b.stats.fetches,
                    "threads_peak": b.jvm.threads_peak,
                    "heap_committed": b.jvm.committed_bytes,
                }
                for b in brokers
            },
            duplicates=sum(r.duplicates for r in receivers),
            redeliveries=sum(r.redeliveries for r in receivers),
            duplicate_batches=sum(b.stats.duplicate_batches for b in brokers),
            fenced_commits=sum(
                b.coordinator.fenced_commits
                for b in brokers
                if b.coordinator is not None
            ),
            producer_retries=sum(p.retries for p in fleet._producers),
            producer_reconnects=sum(p.reconnects for p in fleet._producers),
            consumer_recoveries=sum(
                r.consumer.fetch_retries
                + r.consumer.fetch_timeouts
                + r.consumer.reconnects
                for r in receivers
            ),
            acked=sum(1 for r in window if r.t_after_send is not None),
            acked_lost=sum(
                1
                for r in window
                if r.t_after_send is not None and r.t_received is None
            ),
            elections=controller.elections if controller else 0,
            coordinator_elections=controller.coordinator_elections if controller else 0,
            isr_shrinks=deployment.total_isr_shrinks(),
            isr_expands=deployment.total_isr_expands(),
            records_replicated=deployment.total_records_replicated(),
            coordinator_rejoins=sum(
                r.consumer.coordinator_rejoins for r in receivers
            ),
            election_log=list(controller.election_log) if controller else [],
        )

    return run_leg(
        build,
        PlogRunResult,
        middleware="plog",
        label=f"plog[{connections}x{len(broker_nodes)}]",
        scale=scale,
        seed=seed,
        fault_plan=fault_plan,
        scenario=scenario,
    )


# ----------------------------------------------------------- scaling sweeps

#: Single broker, swept straight through (and past) the Narada OOM wall.
SINGLE_SWEEP = (1000, 2000, 4000, 8000, 12000)
#: Four brokers, partitions spread round-robin over them.
SPREAD_SWEEP = (4000, 8000, 12000, 16000)


def run_scaling_sweep(
    connections: tuple[int, ...],
    n_brokers: int = 1,
    scale: Optional[Scale] = None,
    seed: int = 1,
    jobs: int = 1,
) -> dict[int, PlogRunResult]:
    from repro.harness.parallel import sweep

    return sweep(
        __name__, "plog_run", "connections", connections, jobs,
        n_brokers=n_brokers, scale=scale, seed=seed,
    )


def plog_scaling(
    single: dict[int, PlogRunResult], spread: dict[int, PlogRunResult]
) -> ExperimentResult:
    """RTT / STDDEV vs connections with the §I compliance verdict per load."""
    result = ExperimentResult(
        "plog_scaling",
        "Partitioned log: RTT and soft-real-time compliance vs connections",
        "concurrent connections",
        "millisecond",
    )
    headers = [
        "brokers", "connections", "RTT (ms)", "STDDEV (ms)", "loss rate",
        "late/lost", "SLA (<=5s, <0.5%)",
    ]
    rows: list[list[Any]] = []
    for label, prefix, sweep in (
        ("single broker", "", single),
        ("4-broker spread", "2", spread),
    ):
        for n, run in sorted(sweep.items()):
            if run.oom:
                result.note(
                    f"{label} OOM at {n} connections ({run.refused} refused)"
                )
                continue
            result.add_point("RTT" + prefix, n, run.mean_rtt_ms)
            result.add_point("STDDEV" + prefix, n, run.stddev_rtt_ms)
            rows.append([
                label, n, run.mean_rtt_ms, run.stddev_rtt_ms,
                f"{run.loss_rate:.4%}", f"{run.frac_late_or_lost:.4%}",
                "PASS" if run.compliant else "FAIL",
            ])
    result.table = (headers, rows)
    biggest = max(
        (n for n, r in single.items() if not r.oom and r.compliant),
        default=None,
    )
    if biggest is not None:
        run = single[biggest]
        threads = run.broker_stats["plog-hydra1"]["threads_peak"]
        result.note(
            f"single broker meets the §I soft-real-time requirement at "
            f"{biggest} connections with {threads} JVM threads — no "
            "thread-per-connection wall (Narada refuses connections near "
            "4000, paper §III.E.2)"
        )
    return result


def plog_percentiles(single: dict[int, PlogRunResult]) -> ExperimentResult:
    """Percentile-of-RTT curves (the Fig 8 analogue for the commit log)."""
    result = ExperimentResult(
        "plog_percentiles",
        "Partitioned log single broker, percentile of RTT",
        "percentile",
        "millisecond",
    )
    for n, run in sorted(single.items()):
        if run.oom:
            continue
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(str(n), pct, ms)
    result.note(
        "tails stay flat with connection count: fetch batching amortises "
        "per-message broker work that grows per-connection in Narada"
    )
    return result


def fig15_threeway(
    scale: Optional[Scale] = None,
    seed: int = 1,
    connections: int = 400,
) -> ExperimentResult:
    """Fig 15 extended: RTT = PRT + PT + SRT for all three middlewares.

    Delegates to :func:`repro.harness.decomposition.fig15_threeway`, which
    computes every decomposition from the telemetry span pipeline.  (Import
    is deferred: :mod:`repro.harness.decomposition` imports this module for
    :func:`plog_run`.)
    """
    from repro.harness import decomposition

    return decomposition.fig15_threeway(
        scale=scale, seed=seed, connections=connections
    )
