"""Edge-tier experiments: gateway scaling and gateway-crash recovery.

Two :func:`repro.harness.leg.run_leg` adapters:

* :func:`edge_point` — one run: a middleware deployment (Narada broker,
  R-GMA single-server site, or plog partitioned log) fed by a fixed
  publisher fleet, fronted by ``n_gateways`` :class:`EdgeGateway` nodes,
  polled by a client population of ``n_clients``.  The population is
  simulated as cohort-weighted poll processes (bounded process count at
  any scale — the gateway accounts parked memory per cohort weight), plus
  exactly one *stamping* client whose deliveries produce the RTT records.
* :func:`direct_point` — the no-edge baseline: the same publisher
  workload delivered to one native middleware subscriber.

The scaling headline: pooled upstream connections per broker stay
O(topics) — independent of the client population — while edge P99 RTT at
10k clients stays within a small factor of direct delivery.  The chaos
story (``edge_gateway_crash``): a gateway crash severs every parked poll,
clients fail over with a time cursor, and the surviving/restarted rings
replay the missed window exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import ExperimentResult, RecordBook
from repro.edge.client import EdgeClient
from repro.edge.config import EdgeConfig
from repro.edge.deployment import EdgeTier, gateway_node_names
from repro.edge.upstream import NaradaUpstream, PlogUpstream, RgmaUpstream
from repro.federation.deployment import FederationCluster
from repro.harness.leg import LegResult, Window, fleet_for, run_leg
from repro.harness.scale import Scale
from repro.narada import Broker, NaradaConfig
from repro.plog import PlogConfig, PlogDeployment
from repro.powergrid import (
    FleetConfig,
    NaradaFleet,
    NaradaReceiver,
    PlogFleet,
    PlogReceiver,
    RgmaFleet,
    RgmaReceiver,
)
from repro.powergrid.workload import MONITORING_TOPIC
from repro.rgma import RGMADeployment
from repro.sim import Simulator
from repro.telemetry.context import current as _telemetry
from repro.transport.tcp import TcpTransport

EDGE_MIDDLEWARES = ("narada", "rgma", "plog")

#: (clients, gateways) grids.  The bench/smoke grid proves population
#: independence (5x the clients, same pooled connections); the full grid
#: runs the issue's 10k -> 1M sweep over gateways x{1, 4, 16}.
EDGE_SWEEP = ((2_000, 1), (10_000, 1), (2_000, 4), (10_000, 4))
EDGE_SWEEP_FULL = tuple(
    (clients, gateways)
    for gateways in (1, 4, 16)
    for clients in (10_000, 100_000, 1_000_000)
)

#: Publisher workload (fixed: the population under study is subscribers).
N_PUBLISHERS = 40
PUBLISH_INTERVAL = 2.0

#: Cohort poll processes per gateway (plus the one stamping client).
COHORTS_PER_GATEWAY = 4

BROKER_NODE = "hydra1"
NARADA_PORT = 5045
CLIENT_NODES = ("ec0", "ec1", "ec2", "ec3")


@dataclass(kw_only=True)
class EdgeRunResult(LegResult):
    """Everything one edge run produces."""

    middleware: str
    n_clients: int
    n_gateways: int
    #: Pooled middleware connections held by the whole gateway tier at run
    #: end — the number that must stay O(topics), not O(clients).
    pooled_connections: int
    #: The no-edge equivalent: one middleware connection per client.
    baseline_connections: int
    #: Aggregated gateway stats.
    polls: int = 0
    long_polls_parked: int = 0
    polls_timed_out: int = 0
    polls_shed: int = 0
    catch_up_polls: int = 0
    truncated_reads: int = 0
    #: Stamping-client accounting (the exactly-once columns).
    client_received: int = 0
    client_redeliveries: int = 0
    client_duplicates: int = 0
    client_failovers: int = 0
    client_sheds: int = 0
    gateway_stats: dict[str, Any] = field(default_factory=dict)


@dataclass(kw_only=True)
class DirectRunResult(LegResult):
    """The no-edge baseline: native middleware delivery."""

    middleware: str


def _build_cluster(sim: Simulator, n_gateways: int) -> FederationCluster:
    names = tuple(f"hydra{i}" for i in range(1, 9))
    names += gateway_node_names(n_gateways)
    names += CLIENT_NODES
    return FederationCluster(sim, names)


def _build_middleware(
    sim: Simulator,
    cluster: FederationCluster,
    transport: TcpTransport,
    middleware: str,
    fleet_config: FleetConfig,
    book: RecordBook,
):
    """Deploy one middleware + its publisher fleet.

    Returns ``(topic, upstream, brokers, deployment)``: the topic string
    the edge tier subscribes, the upstream adapter factory, the
    fault-attachable broker list, and the deployment (for direct
    receivers)."""
    if middleware == "narada":
        config = NaradaConfig()
        broker = Broker(sim, cluster.node(BROKER_NODE), "broker1", config)
        broker.serve(transport, NARADA_PORT)
        fleet = NaradaFleet(
            sim,
            cluster,
            transport,
            [(BROKER_NODE, NARADA_PORT)] * len(fleet_config.client_nodes),
            fleet_config,
            book,
            config=config,
            topic=MONITORING_TOPIC,
        )
        fleet.start()
        upstream = NaradaUpstream(
            sim, transport, (BROKER_NODE, NARADA_PORT), config
        )
        return MONITORING_TOPIC.name, upstream, [broker], broker
    if middleware == "rgma":
        deployment = RGMADeployment.single_server(
            sim, cluster, node_name=BROKER_NODE, transport=transport
        )
        fleet = RgmaFleet(sim, cluster, deployment, fleet_config, book)
        fleet.start()
        upstream = RgmaUpstream(sim, deployment)
        return "gridmon", upstream, [], deployment
    if middleware == "plog":
        config = PlogConfig(partitions=8)
        deployment = PlogDeployment(
            sim, cluster, transport, broker_hosts=(BROKER_NODE,), config=config
        )
        deployment.serve()
        fleet = PlogFleet(sim, cluster, deployment, fleet_config, book)
        fleet.start()
        upstream = PlogUpstream(sim, deployment)
        return deployment.topic, upstream, list(deployment.brokers), deployment
    raise ValueError(f"unknown middleware {middleware!r}")


def _deploy(
    sim: Simulator, scale: Scale, n_gateways: int
) -> tuple[FederationCluster, TcpTransport, Window]:
    """The Hydra servers, ``n_gateways`` gateway nodes and the client nodes
    on one LAN, plus the fixed publisher workload's window and fleet."""
    cluster = _build_cluster(sim, n_gateways)
    transport = TcpTransport(sim, cluster.lan)
    creation_span = N_PUBLISHERS * scale.creation_interval_narada
    measure_since = sim.now + creation_span + scale.warmup[1] + 4.0
    fleet = fleet_for(
        scale,
        measure_since,
        N_PUBLISHERS,
        scale.creation_interval_narada,
        publish_interval=PUBLISH_INTERVAL,
        client_nodes=("hydra5", "hydra6", "hydra7", "hydra8"),
    )
    return cluster, transport, Window(measure_since, fleet)


def edge_point(
    n_clients: int,
    n_gateways: int,
    middleware: str = "narada",
    *,
    scale: Optional[Scale] = None,
    seed: int = 1,
    config: Optional[EdgeConfig] = None,
    fault_plan: Any = None,
    scenario: Any = None,
) -> EdgeRunResult:
    """One edge run: ``n_clients`` long-polling clients over ``n_gateways``
    gateways in front of ``middleware``.  ``scenario`` perturbs the
    publisher fleet's rates and merges its fault fragment into
    ``fault_plan``."""
    config = config or EdgeConfig()

    def build(sim, scale):
        cluster, transport, window = _deploy(sim, scale, n_gateways)
        fleet_config, book = yield window
        topic, upstream, brokers, _deployment = _build_middleware(
            sim, cluster, transport, middleware, fleet_config, book
        )

        tier = EdgeTier(
            sim, cluster, transport, upstream, n_gateways, (topic,), config=config
        )
        tier.start()

        tel = _telemetry()
        if tel is not None:
            tel.sample_node(sim, cluster.node(BROKER_NODE), middleware=middleware)
            for gateway in tier.gateways:
                tel.sample_node(sim, gateway.node, middleware="edge")

        # Client population: one stamping client homed on gateway 0 plus
        # cohort-weighted load clients spread over gateways and client nodes.
        stamper = EdgeClient(
            sim,
            transport,
            cluster.node(CLIENT_NODES[0]),
            tier.addresses,
            topic,
            config=config,
            name="edge-stamper",
            home=0,
            weight=1.0,
            stamping=True,
            middleware_label=middleware,
        )
        clients = [stamper]
        n_cohorts = COHORTS_PER_GATEWAY * n_gateways
        cohort_weight = max(0.0, (n_clients - 1) / n_cohorts)
        for k in range(n_cohorts):
            clients.append(
                EdgeClient(
                    sim,
                    transport,
                    cluster.node(CLIENT_NODES[k % len(CLIENT_NODES)]),
                    tier.addresses,
                    topic,
                    config=config,
                    name=f"edge-cohort{k}",
                    home=k % n_gateways,
                    weight=cohort_weight,
                    stamping=False,
                )
            )

        def start_clients() -> None:
            for client in clients:
                client.start()

        # Clients come up once the gateways are listening and subscribed.
        sim.call_at(sim.now + 1.0, start_clients)
        # Gateways first: ``broker:0`` in a plan targets gateway 0 (the
        # stamping client's home), per the gateway_outage template.
        yield dict(
            lan=cluster.lan, cluster=cluster, brokers=list(tier.gateways) + brokers
        )

        gateways = tier.gateways
        yield dict(
            middleware=middleware,
            n_clients=n_clients,
            n_gateways=n_gateways,
            pooled_connections=tier.total_upstream_connections(),
            baseline_connections=n_clients,
            polls=sum(g.stats.polls_received for g in gateways),
            long_polls_parked=sum(g.stats.long_polls_parked for g in gateways),
            polls_timed_out=sum(g.stats.polls_timed_out for g in gateways),
            polls_shed=sum(g.stats.polls_shed for g in gateways),
            catch_up_polls=sum(g.stats.catch_up_polls for g in gateways),
            truncated_reads=sum(g.stats.truncated_reads for g in gateways),
            client_received=stamper.stats.received,
            client_redeliveries=stamper.stats.redeliveries,
            client_duplicates=stamper.stats.duplicates,
            client_failovers=stamper.stats.failovers,
            client_sheds=stamper.stats.sheds,
            gateway_stats={
                g.name: {
                    "polls": g.stats.polls_received,
                    "parked_total": g.stats.long_polls_parked,
                    "timed_out": g.stats.polls_timed_out,
                    "shed": g.stats.polls_shed,
                    "events_in": g.stats.events_in,
                    "events_out": g.stats.events_out,
                    "upstream_connections": g.upstream_connections,
                }
                for g in gateways
            },
        )

    return run_leg(
        build,
        EdgeRunResult,
        middleware=middleware,
        label=f"edge[{middleware},c{n_clients},g{n_gateways}]",
        scale=scale,
        seed=seed,
        fault_plan=fault_plan,
        scenario=scenario,
    )


def direct_point(
    middleware: str = "narada",
    *,
    scale: Optional[Scale] = None,
    seed: int = 1,
) -> DirectRunResult:
    """The no-edge baseline: identical publisher workload, one native
    middleware subscriber stamping the records."""

    def build(sim, scale):
        cluster, transport, window = _deploy(sim, scale, n_gateways=0)
        fleet_config, book = yield window
        _topic, _upstream, _brokers, deployment = _build_middleware(
            sim, cluster, transport, middleware, fleet_config, book
        )
        if middleware == "narada":
            receiver = NaradaReceiver(
                sim,
                cluster,
                transport,
                (BROKER_NODE, NARADA_PORT),
                CLIENT_NODES[0],
                MONITORING_TOPIC,
                selector=None,
            )
            sim.run_process(receiver.start())
        elif middleware == "rgma":
            receiver = RgmaReceiver(sim, cluster, deployment, CLIENT_NODES[0])
            sim.run_process(receiver.start())
        else:
            receiver = PlogReceiver(
                sim, cluster, deployment, CLIENT_NODES[0], group="direct.monitor"
            )
            receiver.start()
        yield {}
        yield dict(middleware=middleware)

    return run_leg(
        build,
        DirectRunResult,
        middleware=middleware,
        label=f"edge_direct[{middleware}]",
        scale=scale,
        seed=seed,
    )


# ----------------------------------------------------------------- the sweep

def run_edge_sweep(
    points: tuple[tuple[int, int], ...],
    middleware: str,
    scale: Optional[Scale] = None,
    seed: int = 1,
    jobs: int = 1,
    config: Optional[EdgeConfig] = None,
) -> dict[tuple[int, int], EdgeRunResult]:
    """Run every ``(clients, gateways)`` point, optionally fanned out."""
    from repro.harness.parallel import map_points

    results = map_points(
        __name__,
        "edge_point",
        [
            dict(
                n_clients=c,
                n_gateways=g,
                middleware=middleware,
                scale=scale,
                seed=seed,
                config=config,
            )
            for c, g in points
        ],
        jobs=jobs,
    )
    return dict(zip(points, results))


def edge_scaling(
    sweep: dict[tuple[int, int], EdgeRunResult],
    direct: DirectRunResult,
    middleware: str = "narada",
) -> ExperimentResult:
    """Clients vs RTT percentiles and per-broker connection counts — the
    pooling headline against the no-edge baseline."""
    result = ExperimentResult(
        "edge_scaling",
        f"Edge gateway tier over {middleware}: clients 10k+ on pooled "
        "broker connections",
        "clients",
        "RTT (ms) / connections",
    )
    headers = [
        "clients",
        "gateways",
        "edge p50/p99 (ms)",
        "direct p50/p99 (ms)",
        "loss",
        "pooled conns",
        "no-edge conns",
        "parked",
        "shed",
    ]
    rows = []
    for (c, g), run in sorted(sweep.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        result.add_point(f"edge_p99_ms[g={g}]", c, run.rtt_p99_ms)
        result.add_point(f"pooled_connections[g={g}]", c, run.pooled_connections)
        rows.append(
            [
                c,
                g,
                f"{run.rtt_p50_ms:.1f}/{run.rtt_p99_ms:.1f}",
                f"{direct.rtt_p50_ms:.1f}/{direct.rtt_p99_ms:.1f}",
                f"{run.loss_rate:.2%}",
                run.pooled_connections,
                run.baseline_connections,
                run.long_polls_parked,
                run.polls_shed,
            ]
        )
    result.table = (headers, rows)

    by_gateways: dict[int, list[EdgeRunResult]] = {}
    for (c, g), run in sweep.items():
        by_gateways.setdefault(g, []).append(run)
    for g, runs in sorted(by_gateways.items()):
        runs = sorted(runs, key=lambda r: r.n_clients)
        if len(runs) >= 2:
            lo, hi = runs[0], runs[-1]
            result.note(
                f"{g} gateway(s): clients x{hi.n_clients / lo.n_clients:.0f} "
                f"({lo.n_clients} -> {hi.n_clients}), pooled connections "
                f"{lo.pooled_connections} -> {hi.pooled_connections} "
                "(population-independent, O(topics)) vs "
                f"{hi.baseline_connections} no-edge"
            )
    sample = min(
        (r for r in sweep.values()), key=lambda r: abs(r.n_clients - 10_000)
    )
    if direct.rtt_p99_ms > 0:
        result.note(
            f"edge P99 {sample.rtt_p99_ms:.1f} ms at {sample.n_clients} "
            f"clients = {sample.rtt_p99_ms / direct.rtt_p99_ms:.2f}x direct "
            f"{middleware} delivery ({direct.rtt_p99_ms:.1f} ms)"
        )
    result.meta["middleware"] = middleware
    result.meta["pooled_connections"] = {
        f"{c}x{g}": run.pooled_connections for (c, g), run in sorted(sweep.items())
    }
    result.meta["edge_p99_ms"] = {
        f"{c}x{g}": run.rtt_p99_ms for (c, g), run in sorted(sweep.items())
    }
    result.meta["loss"] = {
        f"{c}x{g}": run.loss_rate for (c, g), run in sorted(sweep.items())
    }
    result.meta["direct_p99_ms"] = direct.rtt_p99_ms
    result.meta["max_clients"] = max(c for c, _ in sweep)
    result.meta["max_pooled"] = max(r.pooled_connections for r in sweep.values())
    return result


def edge_gateway_crash(
    runs: dict[str, EdgeRunResult],
) -> ExperimentResult:
    """Gateway crash mid-window: dropped long-polls, failover, catch-up
    replay — loss and application-duplicate columns must both be zero."""
    result = ExperimentResult(
        "edge_gateway_crash",
        "Gateway crash: severed long-polls, time-cursor failover, ring replay",
        "middleware",
        "percent",
    )
    headers = [
        "middleware",
        "sent",
        "delivered",
        "loss",
        "dups",
        "redeliveries",
        "failovers",
        "timeouts/shed",
    ]
    rows = []
    for middleware, run in runs.items():
        duplicates_rate = run.client_duplicates / max(1, run.sent)
        result.add_point("loss", middleware, run.loss_rate)
        result.add_point("duplicates", middleware, duplicates_rate)
        rows.append(
            [
                middleware,
                run.sent,
                run.received,
                f"{run.loss_rate:.2%}",
                f"{duplicates_rate:.2%}",
                run.client_redeliveries,
                run.client_failovers,
                f"{run.polls_timed_out}/{run.polls_shed}",
            ]
        )
    result.table = (headers, rows)
    worst_loss = max(r.loss_rate for r in runs.values())
    worst_dups = max(r.client_duplicates for r in runs.values())
    total_redeliveries = sum(r.client_redeliveries for r in runs.values())
    result.note(
        f"worst loss {worst_loss:.2%}, {worst_dups} application duplicates "
        f"({total_redeliveries} redeliveries suppressed by cursor dedup) — "
        "every in-window message delivered exactly once through crash + "
        "failover + catch-up"
    )
    result.meta["loss"] = {m: r.loss_rate for m, r in runs.items()}
    result.meta["duplicates"] = {m: r.client_duplicates for m, r in runs.items()}
    result.meta["failovers"] = {m: r.client_failovers for m, r in runs.items()}
    return result


#: Load used by the gateway-crash chaos run: small enough to smoke quickly,
#: two gateways so the stamping client has somewhere to fail over to.
CRASH_CLIENTS = 500
CRASH_GATEWAYS = 2


def run_gateway_crash(
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: str = "gateway_outage",
) -> ExperimentResult:
    """Run the gateway-crash chaos scenario over all three middlewares."""
    from repro.faults.plan import named_plan

    template = named_plan(fault_plan)
    runs = {
        middleware: edge_point(
            CRASH_CLIENTS,
            CRASH_GATEWAYS,
            middleware,
            scale=scale,
            seed=seed,
            fault_plan=template,
        )
        for middleware in EDGE_MIDDLEWARES
    }
    result = edge_gateway_crash(runs)
    result.meta["fault_plan"] = fault_plan
    return result
