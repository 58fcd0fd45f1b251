"""NaradaBrokering experiments: Table II / Figs 3, 4, 6, 7, 8, 9.

:func:`narada_run` is the §III.E test as a :func:`repro.harness.leg.run_leg`
adapter: it deploys one broker or the 4-broker DBN, per-node subscribers
with id-range selectors and the staggered generator fleet; the shared
skeleton arms faults, runs the steady-state window and computes the RTT
statistics.  The figure builders assemble paper series from such runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster import HydraCluster
from repro.core import ExperimentResult, percentile_curve
from repro.core.metrics import within_threshold
from repro.harness.leg import LegResult, Window, fleet_for, run_leg, watch_nodes
from repro.harness.scale import Scale
from repro.jms import AckMode
from repro.narada import Broker, NaradaConfig, star_network
from repro.powergrid import NaradaFleet, NaradaReceiver
from repro.powergrid.workload import MONITORING_TOPIC
from repro.transport import NioTransport, TcpTransport, UdpTransport

BROKER_PORT = 5045
CLIENT_NODES = ("hydra5", "hydra6", "hydra7", "hydra8")
BROKER_NODES_SINGLE = ("hydra1",)
BROKER_NODES_DBN = ("hydra1", "hydra2", "hydra3", "hydra4")

#: Transport constructors by ``transport_kind``.
TRANSPORTS = {
    "tcp": TcpTransport,
    "nio": NioTransport,
    # JMS over UDP: transport-level ack with retransmission (§III.E.1).
    "udp": lambda sim, lan: UdpTransport(
        sim, lan, loss_probability=0.017, acked=True, rto=0.15, max_retries=1
    ),
    # Raw datagrams without the JMS ack protocol (the ablation_udp_ack row).
    "udp_raw": lambda sim, lan: UdpTransport(
        sim, lan, loss_probability=0.03, acked=False, rto=0.15, max_retries=0
    ),
}


@dataclass(kw_only=True)
class NaradaRunResult(LegResult):
    """Everything one test run produces."""

    connections: int
    oom: bool
    refused: int
    broker_stats: dict[str, Any] = field(default_factory=dict)
    #: Deliveries that escaped suppression and were counted twice.
    duplicates: int = 0
    #: Redeliveries the durable receivers' (gen_id, seq) index absorbed.
    redeliveries: int = 0
    #: Supervised-receiver reconnects (durable mode under faults).
    receiver_reconnects: int = 0
    #: Retained copies the broker replayed on durable re-subscribes.
    messages_replayed: int = 0


def narada_run(
    connections: int,
    *,
    dbn: bool = False,
    transport_kind: str = "tcp",
    ack_mode: int = AckMode.AUTO_ACKNOWLEDGE,
    payload_multiplier: int = 1,
    publish_interval: float = 10.0,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[NaradaConfig] = None,
    fault_plan: Any = None,
    scenario: Any = None,
    fleet_retry: Any = None,
    fleet_failover: bool = False,
    durable_receivers: bool = False,
) -> NaradaRunResult:
    """One §III.E test: ``connections`` generators against one broker or the
    4-broker DBN, measured in steady state.

    ``transport_kind`` names an entry of :data:`TRANSPORTS`.
    ``fault_plan`` (a :class:`repro.faults.FaultPlan` or a template callable
    ``(measure_since, duration) -> FaultPlan``) arms fault injection against
    this run; ``scenario`` (a :class:`repro.scenario.Scenario` or template)
    additionally perturbs the workload and merges its fault fragment in;
    ``fleet_retry``/``fleet_failover`` give the publishers retry-with-backoff
    and broker-failover recovery; ``durable_receivers`` makes every
    subscriber a *supervised durable* subscription — the broker retains
    delivered-but-unacked and offline messages for replay, the receiver
    reconnects and re-subscribes after connection loss (broker crash or its
    own), and a ``(gen_id, seq)`` index turns the replayed at-least-once
    stream into exactly-once processing.
    """
    if transport_kind not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport_kind!r}")
    config = config or NaradaConfig()
    broker_nodes = BROKER_NODES_DBN if dbn else BROKER_NODES_SINGLE

    def build(sim, scale):
        cluster = HydraCluster(sim)
        transport = TRANSPORTS[transport_kind](sim, cluster.lan)
        brokers: list[Broker] = []
        for i, node_name in enumerate(broker_nodes):
            broker = Broker(sim, cluster.node(node_name), f"broker{i + 1}", config)
            broker.serve(transport, BROKER_PORT)
            brokers.append(broker)
        if dbn:
            # The paper's unit controller (hub) + three leaves, via the shared
            # single-network builder (also the federation sweep's A/B leg).
            sim.run_process(star_network(sim, transport, brokers, hub_index=0))
        vmstats = watch_nodes(sim, cluster, broker_nodes, "narada")

        creation_span = connections * scale.creation_interval_narada
        measure_since = sim.now + creation_span + scale.warmup[1] + 2.0
        fleet_config, book = yield Window(
            measure_since,
            fleet_for(
                scale,
                measure_since,
                connections,
                scale.creation_interval_narada,
                publish_interval=publish_interval,
                payload_multiplier=payload_multiplier,
                client_nodes=CLIENT_NODES,
                retry=fleet_retry,
                failover=fleet_failover,
            ),
            vmstats,
        )

        # Per-client-node subscribers, each with an id-range selector covering
        # its own node's generators ("data were received by the node where they
        # were sent", §III.E.2).  In the DBN, publishers connect to *publishing*
        # brokers (the leaves) and subscribers to the *subscribing* broker (the
        # hub/unit controller) per Fig 5, so every event crosses the broker
        # network.
        subscriber_address = (broker_nodes[0], BROKER_PORT)
        if dbn:
            leaf_addresses = [(node, BROKER_PORT) for node in broker_nodes[1:]]
            publisher_addresses = [
                leaf_addresses[k % len(leaf_addresses)] for k in range(len(CLIENT_NODES))
            ]
        else:
            publisher_addresses = [subscriber_address] * len(CLIENT_NODES)
        receivers: list[NaradaReceiver] = []
        receivers_failed = 0
        for k, client_node in enumerate(CLIENT_NODES):
            lo, hi = fleet_config.id_range(k)
            if lo >= hi:
                continue
            receiver = NaradaReceiver(
                sim,
                cluster,
                transport,
                subscriber_address,
                client_node,
                MONITORING_TOPIC,
                selector=f"id >= {lo} AND id < {hi}",
                ack_mode=ack_mode,
                config=config,
                durable_name=f"durable.{client_node}" if durable_receivers else None,
                recover=durable_receivers,
                name=f"narada-recv.{client_node}",
            )
            if durable_receivers:
                # Supervised: start() is a long-running reconnect loop, not a
                # one-shot connect — run it as a background process.
                sim.process(receiver.start(), name=f"{receiver.name}.supervisor")
            else:
                try:
                    sim.run_process(receiver.start())
                except Exception:
                    receivers_failed += 1
                    continue
            receivers.append(receiver)

        fleet = NaradaFleet(
            sim,
            cluster,
            transport,
            publisher_addresses,
            fleet_config,
            book,
            config=config,
            topic=MONITORING_TOPIC,
        )
        fleet.start()
        yield dict(lan=cluster.lan, cluster=cluster, brokers=brokers, consumers=receivers)

        refused = fleet.stats.connections_refused
        yield dict(
            connections=connections,
            oom=refused > 0 or receivers_failed > 0,
            refused=refused,
            duplicates=sum(r.duplicates for r in receivers),
            redeliveries=sum(r.redeliveries for r in receivers),
            receiver_reconnects=sum(r.reconnects for r in receivers),
            messages_replayed=sum(b.stats.messages_replayed for b in brokers),
            broker_stats={
                b.name: {
                    "published": b.stats.messages_published,
                    "delivered": b.stats.messages_delivered,
                    "forwards_received": b.stats.forwards_received,
                    "forwarded": b.stats.messages_forwarded,
                    "replayed": b.stats.messages_replayed,
                    "threads_peak": b.jvm.threads_peak,
                }
                for b in brokers
            },
        )

    return run_leg(
        build,
        NaradaRunResult,
        middleware="narada",
        label=f"narada{'_dbn' if dbn else ''}[{connections}]",
        scale=scale,
        seed=seed,
        fault_plan=fault_plan,
        scenario=scenario,
    )


# --------------------------------------------------------- comparison tests

#: Table II: the six §III.E.1 comparison tests at 800 connections.
COMPARISON_TESTS: dict[str, dict[str, Any]] = {
    "UDP": dict(transport_kind="udp"),
    "UDP CLI": dict(transport_kind="udp", ack_mode=AckMode.CLIENT_ACKNOWLEDGE),
    "NIO": dict(transport_kind="nio"),
    "TCP": dict(transport_kind="tcp"),
    "Triple": dict(transport_kind="tcp", payload_multiplier=3),
    "80": dict(transport_kind="tcp", connections=80, publish_interval=1.0),
}

COMPARISON_CONNECTIONS = 800


def run_comparison_tests(
    scale: Optional[Scale] = None, seed: int = 1, jobs: int = 1
) -> dict[str, NaradaRunResult]:
    """All six Table II settings (shared by fig3, fig4 and the loss table)."""
    from repro.harness.parallel import map_points

    points = []
    for overrides in COMPARISON_TESTS.values():
        kwargs = dict(overrides)
        kwargs.setdefault("connections", COMPARISON_CONNECTIONS)
        kwargs.update(scale=scale, seed=seed)
        points.append(kwargs)
    results = map_points(__name__, "narada_run", points, jobs=jobs)
    return dict(zip(COMPARISON_TESTS, results))


def fig3(runs: dict[str, NaradaRunResult]) -> ExperimentResult:
    """Fig 3: RTT and STDDEV bars for the comparison tests."""
    result = ExperimentResult(
        "table2_fig3",
        "Narada comparison tests: Round-Trip Time and Standard Deviation",
        "test",
        "millisecond",
    )
    headers = ["test", "RTT (ms)", "STDDEV (ms)", "loss rate"]
    rows = []
    order_names = [
        n for n in ("UDP", "UDP CLI", "NIO", "Triple", "TCP", "80") if n in runs
    ]
    for order, name in enumerate(order_names):
        run = runs[name]
        rows.append(
            [name, run.mean_rtt_ms, run.stddev_rtt_ms, f"{run.loss_rate:.4%}"]
        )
        result.add_point("RTT", order, run.mean_rtt_ms)
        result.add_point("STDDEV", order, run.stddev_rtt_ms)
    result.table = (headers, rows)
    if "TCP" in runs and "UDP" in runs:
        tcp, udp = runs["TCP"], runs["UDP"]
        result.note(
            f"UDP mean RTT is {udp.mean_rtt_ms / tcp.mean_rtt_ms:.1f}x TCP's "
            "(JMS-over-UDP acknowledgement pathology, §III.E.1)"
        )
    return result


def fig4(runs: dict[str, NaradaRunResult]) -> ExperimentResult:
    """Fig 4: percentile of RTT (95-100%) per comparison test."""
    result = ExperimentResult(
        "fig4",
        "Narada comparison tests, percentile of RTT",
        "percentile",
        "millisecond",
    )
    for name in ("NIO", "TCP", "UDP", "Triple", "80"):
        if name not in runs:
            continue
        for pct, ms in percentile_curve(runs[name].rtts):
            result.add_point(name, pct, ms)
    return result


# ----------------------------------------------------------- scaling sweeps

SINGLE_SWEEP = (500, 1000, 2000, 3000, 4000)
DBN_SWEEP = (2000, 3000, 4000, 5000)


def run_scaling_sweep(
    connections: tuple[int, ...],
    dbn: bool,
    scale: Optional[Scale] = None,
    seed: int = 1,
    jobs: int = 1,
) -> dict[int, NaradaRunResult]:
    from repro.harness.parallel import sweep

    return sweep(
        __name__, "narada_run", "connections", connections, jobs,
        dbn=dbn, scale=scale, seed=seed,
    )


def fig7(
    single: dict[int, NaradaRunResult], dbn: dict[int, NaradaRunResult]
) -> ExperimentResult:
    """Fig 7: RTT & STDDEV vs connections, single broker vs DBN."""
    result = ExperimentResult(
        "fig7",
        "Narada tests, round-trip time and standard deviation",
        "concurrent connections",
        "millisecond",
    )
    for n, run in sorted(single.items()):
        if run.oom:
            result.note(
                f"single broker OOM at {n} connections "
                f"({run.refused} refused; threads peak "
                f"{run.broker_stats['broker1']['threads_peak']})"
            )
            continue
        result.add_point("RTT", n, run.mean_rtt_ms)
        result.add_point("STDDEV", n, run.stddev_rtt_ms)
    for n, run in sorted(dbn.items()):
        if run.oom:
            result.note(f"DBN OOM at {n} connections ({run.refused} refused)")
            continue
        if run.mean_rtt_ms > 1000 or run.loss_rate > 0.01:
            result.note(
                f"DBN data congestion at {n} connections (hub saturated): "
                "the v1.1.3 broadcast deficiency 'causes data congestion and "
                "limits its scalability' (paper §V)"
            )
            continue
        result.add_point("RTT2", n, run.mean_rtt_ms)
        result.add_point("STDDEV2", n, run.stddev_rtt_ms)
    # §III.E.2 headline: 99.8 % of messages within 100 ms.
    biggest_ok = max((n for n, r in single.items() if not r.oom), default=None)
    if biggest_ok is not None:
        frac = within_threshold(single[biggest_ok].rtts, 0.100)
        result.note(
            f"single broker at {biggest_ok} connections: "
            f"{frac:.1%} of messages within 100 ms"
        )
    return result


def fig6(
    single: dict[int, NaradaRunResult], dbn: dict[int, NaradaRunResult]
) -> ExperimentResult:
    """Fig 6: CPU idle and memory consumption vs connections."""
    result = ExperimentResult(
        "fig6",
        "Narada tests, CPU idle and memory consumption",
        "concurrent connections",
        "CPU idle % / memory MB",
    )
    for n, run in sorted(single.items()):
        if run.oom:
            continue
        vm = run.vmstat["hydra1"]
        result.add_point("CPU", n, vm.mean_cpu_idle_percent)
        result.add_point("MEM", n, vm.memory_consumption_mb)
    for n, run in sorted(dbn.items()):
        if run.oom:
            continue
        idles = [v.mean_cpu_idle_percent for v in run.vmstat.values()]
        mems = [v.memory_consumption_mb for v in run.vmstat.values()]
        result.add_point("CPU2", n, sum(idles) / len(idles))
        result.add_point("MEM2", n, sum(mems) / len(mems))
    return result


def fig8(single: dict[int, NaradaRunResult]) -> ExperimentResult:
    """Fig 8: single-broker percentile of RTT for 500-3000 connections."""
    result = ExperimentResult(
        "fig8",
        "Narada single server tests, percentile of RTT",
        "percentile",
        "millisecond",
    )
    for n, run in sorted(single.items()):
        if run.oom or n > 3000:
            continue
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(str(n), pct, ms)
    return result


def fig9(dbn: dict[int, NaradaRunResult]) -> ExperimentResult:
    """Fig 9: DBN percentile of RTT for 2000-4000 connections."""
    result = ExperimentResult(
        "fig9",
        "Narada DBN tests, percentile of RTT",
        "percentile",
        "millisecond",
    )
    for n, run in sorted(dbn.items()):
        if run.oom or n > 4000:
            continue
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(str(n), pct, ms)
    return result
