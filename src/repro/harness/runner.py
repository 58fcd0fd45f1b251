"""Experiment registry, sweep caching and the CLI entry point.

Several figures share the same underlying sweeps (Figs 6, 7, 8, 9 all read
the Narada scaling runs; Figs 11-14 the R-GMA ones; the plog figures the
partitioned-log ones), so every sweep goes through :func:`_cached`, which
keys it by one rule (:func:`_entry_key`): the function that builds it plus
the arguments it is called with.  The cache has two tiers:

* an in-process LRU (``SWEEP_CACHE_MAX`` entries; sweeps hold whole record
  books, so an unbounded cache would grow without limit when many
  (scale, seed) combinations run in one process, e.g. a benchmark
  session);
* a content-addressed on-disk tier (:mod:`repro.harness.cache`) keyed by
  the same key plus a code-version salt, so re-running a figure in a fresh
  process skips the sweep entirely.  The disk tier is bypassed while a
  telemetry session is active — a sweep loaded from disk carries no live
  spans, and ``--trace`` must see real ones.

``--no-cache`` disables both tiers; :func:`clear_cache` empties both.
Sweep points fan out over a process pool when ``--jobs``/``$REPRO_JOBS``
ask for it (:mod:`repro.harness.parallel`); results are identical to a
serial run by construction.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys
from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.cluster.hydra import HYDRA_SPEC
from repro.core import ExperimentResult
from repro.core.comparison import MiddlewareMeasurements, table_iii
from repro.faults import PLANS
from repro.harness import (
    chaos_experiments,
    decomposition,
    edge_experiments,
    federation_experiments,
    fleet_experiments,
    narada_experiments,
    plog_experiments,
    rgma_experiments,
    scenario_experiments,
)
from repro.harness.cache import DiskCache
from repro.harness.parallel import resolve_jobs
from repro.harness.scale import Scale
from repro.scenario import SCENARIOS
from repro.telemetry import context as tel_context

#: Max cached sweeps.  An ``all`` run creates 19 entries per (scale, seed) —
#: 1 comparison, 6 connection sweeps, 2 federation, 6 fleet, 2 edge and 2
#: scenario — so they do not all fit; older entries evict LRU-first.
SWEEP_CACHE_MAX = 8

_sweep_cache: "OrderedDict[tuple, Any]" = OrderedDict()


#: Never-reused tokens for telemetry sessions seen by the cache.  ``id()``
#: is not safe here: a freed session's address can be handed to the next
#: one, which would then satisfy lookups against the dead session's sweeps
#: (whose spans it does not hold).
_session_tokens = itertools.count(1)

#: Worker count sweep builders are called with (set per call by :func:`run`).
_jobs: int = 1

#: ``--no-cache`` switch: False bypasses both cache tiers entirely.
_cache_enabled: bool = True


def _session_token() -> Optional[int]:
    """The active telemetry session's token, or ``None`` outside a session.

    A sweep built outside a session carries no spans, and one built inside
    a session holds that session's spans, so the token is part of every
    memory-tier key.
    """
    tel = tel_context.current()
    if tel is None:
        return None
    token = getattr(tel, "_sweep_cache_token", None)
    if token is None:
        token = tel._sweep_cache_token = next(_session_tokens)
    return token


def _check_key_part(value: Any) -> None:
    """Raise ``TypeError`` unless ``value``'s ``repr`` is a stable key.

    A ``repr`` holding a memory address would differ in every process, so
    the disk tier would quietly never hit.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, tuple):
        for item in value:
            _check_key_part(item)
        return
    if (
        dataclasses.is_dataclass(value)
        and not isinstance(value, type)
        and value.__dataclass_params__.frozen
    ):
        for f in dataclasses.fields(value):
            _check_key_part(getattr(value, f.name))
        return
    raise TypeError(
        f"cannot key a cached sweep on {type(value).__name__} {value!r}: "
        "pass None, bool, int, float, str, a tuple of those or a frozen dataclass"
    )


def _entry_key(builder: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple:
    """The cache key of ``builder(*args, **kwargs)``.

    The builder's module and qualified name, its positional arguments, then
    its keyword arguments sorted by name — except ``jobs``, which changes
    how a sweep runs but never what it returns.  Frozen dataclasses such
    as :class:`Scale` enter as themselves: their ``repr`` names every
    field.  Module constants a builder reads are source code, which the
    disk tier's code salt covers.
    """
    arguments = args + tuple(sorted((k, v) for k, v in kwargs.items() if k != "jobs"))
    _check_key_part(arguments)
    return (builder.__module__, builder.__qualname__) + arguments


def _cached(builder: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``builder(*args, **kwargs)``, served from either cache tier if it can be."""
    key = _entry_key(builder, *args, **kwargs)
    if not _cache_enabled:
        return builder(*args, **kwargs)
    token = _session_token()
    mem_key = key + (token,)
    if mem_key in _sweep_cache:
        _sweep_cache.move_to_end(mem_key)
        return _sweep_cache[mem_key]
    # The disk tier only serves sessionless lookups: entries carry record
    # books but no spans, and an active --trace session must observe live
    # runs.  (Disk writes are skipped symmetrically so a traced run never
    # seeds the cache with data an untraced run would then trust.)
    disk = DiskCache() if token is None else None
    if disk is not None:
        value = disk.get(key)
        if value is not None:
            _store_in_memory(mem_key, value)
            return value
    value = builder(*args, **kwargs)
    if disk is not None:
        disk.put(key, value)
    _store_in_memory(mem_key, value)
    return value


def _store_in_memory(mem_key: tuple, value: Any) -> None:
    _sweep_cache[mem_key] = value
    while len(_sweep_cache) > SWEEP_CACHE_MAX:
        _sweep_cache.popitem(last=False)


def clear_cache() -> None:
    """Empty both cache tiers (the in-process LRU and the disk entries)."""
    _sweep_cache.clear()
    DiskCache().clear()


# ------------------------------------------------------------ shared sweeps

def _comparison_runs(scale: Scale, seed: int):
    return _cached(narada_experiments.run_comparison_tests, scale, seed, jobs=_jobs)


#: The cached connection sweeps several figures share: sweep kind ->
#: (experiment module, the name of its connection-count tuple, the leg's
#: topology argument).  The counts are read when the sweep runs, so a
#: patched module constant takes effect.
_SWEEPS = {
    "narada_single": (narada_experiments, "SINGLE_SWEEP", dict(dbn=False)),
    "narada_dbn": (narada_experiments, "DBN_SWEEP", dict(dbn=True)),
    "rgma_single": (rgma_experiments, "SINGLE_SWEEP", dict(distributed=False)),
    "rgma_distributed": (rgma_experiments, "DISTRIBUTED_SWEEP", dict(distributed=True)),
    "plog_single": (plog_experiments, "SINGLE_SWEEP", dict(n_brokers=1)),
    "plog_spread": (plog_experiments, "SPREAD_SWEEP", dict(n_brokers=4)),
}


def _sweep(kind: str, scale: Scale, seed: int):
    module, counts, topology = _SWEEPS[kind]
    return _cached(
        module.run_scaling_sweep,
        getattr(module, counts),
        scale=scale,
        seed=seed,
        jobs=_jobs,
        **topology,
    )


def _from_sweeps(figure: Callable[..., ExperimentResult], *kinds: str):
    """An experiment that renders ``figure`` from shared cached sweeps."""

    def experiment(scale: Scale, seed: int) -> ExperimentResult:
        return figure(*(_sweep(kind, scale, seed) for kind in kinds))

    return experiment


def _federation_leg(scale: Scale, seed: int, routing: str):
    """One cached federation sweep leg (``"routed"`` or ``"broadcast"``)."""
    counts = (
        federation_experiments.FEDERATION_SWEEP_FULL
        if scale.name == "full"
        else federation_experiments.FEDERATION_SWEEP
    )
    return _cached(
        federation_experiments.run_federation_sweep,
        counts, routing, scale, seed, jobs=_jobs,
    )


def _fleet_sweep(scale: Scale, seed: int, middleware: str, mode: str):
    """One cached fleet sweep leg (``"aggregate"`` or ``"process"``)."""
    return _cached(
        fleet_experiments.run_fleet_sweep,
        fleet_experiments.sweep_points(scale, mode),
        middleware, mode, scale, seed, jobs=_jobs,
    )


def _scored(outcomes: Callable[..., Any], scorecard: Callable[..., ExperimentResult]):
    """A scenario experiment whose scored legs are one cached sweep.

    ``scenario``/``fault_plan`` pass through untouched: when they are not
    given, the scenario module's own defaults apply.
    """

    def experiment(scale: Scale, seed: int, **options: Any) -> ExperimentResult:
        legs = _cached(outcomes, scale, seed, jobs=_jobs, **options)
        return scorecard(scale, seed, outcomes=legs, **options)

    return experiment


# ------------------------------------------------------- simple experiments

def _table1(scale: Scale, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        "table1", "Hardware specifications and software versions", "", ""
    )
    result.table = (
        ["CPU and memory", "OS and JVM", "Middleware"],
        [
            [
                f"{HYDRA_SPEC.cpu}, {HYDRA_SPEC.memory_bytes // 1024**3}GB",
                f"{HYDRA_SPEC.os}, {HYDRA_SPEC.jvm}",
                HYDRA_SPEC.middleware,
            ]
        ],
    )
    result.note(
        f"{HYDRA_SPEC.node_count} nodes, "
        f"{HYDRA_SPEC.lan_bandwidth_bps / 1e6:.0f} Mbps isolated LAN, "
        "observed transfer rate 7-8 MB/s"
    )
    return result


def _fig3(scale: Scale, seed: int) -> ExperimentResult:
    return narada_experiments.fig3(_comparison_runs(scale, seed))


def _fig4(scale: Scale, seed: int) -> ExperimentResult:
    return narada_experiments.fig4(_comparison_runs(scale, seed))


def _losses(scale: Scale, seed: int) -> ExperimentResult:
    runs = _comparison_runs(scale, seed)
    result = ExperimentResult(
        "losses", "Message loss rates (§III.E.1 and §III.F)", "case", "loss rate"
    )
    rows = []
    for name in ("UDP", "UDP CLI", "NIO", "TCP", "Triple", "80"):
        run = runs[name]
        rows.append([name, run.sent, run.received, f"{run.loss_rate:.4%}"])
    warm = rgma_experiments.warmup_loss(scale=scale, seed=seed)
    assert warm.table is not None
    rows.extend([[f"R-GMA {r[0]}", r[1], r[2], r[3]] for r in warm.table[1]])
    result.table = (["case", "sent", "received", "loss rate"], rows)
    result.note(
        "paper: UDP 0.06%, UDP CLI 0.03%, all TCP-family zero; R-GMA 0.17% "
        "without warm-up, zero with"
    )
    return result


def _table3(scale: Scale, seed: int) -> ExperimentResult:
    comparison = _comparison_runs(scale, seed)
    narada_single = _sweep("narada_single", scale, seed)
    narada_dbn = _sweep("narada_dbn", scale, seed)
    rgma_single = _sweep("rgma_single", scale, seed)
    rgma_dist = _sweep("rgma_distributed", scale, seed)

    def max_ok(sweep, extra_ok=lambda run: True):
        ok = [n for n, r in sweep.items() if not r.oom and extra_ok(r)]
        return max(ok) if ok else 0

    not_congested = lambda run: run.mean_rtt_ms < 1000 and run.loss_rate < 0.01

    narada_max_single = max_ok(narada_single)
    narada_max_dist = max_ok(narada_dbn, not_congested)
    # Mean RTT ratio over all common connection counts (a single point is
    # noisy; the paper compares the curves).
    common_ns = sorted(
        set(n for n in narada_single if not narada_single[n].oom)
        & set(n for n in narada_dbn if not narada_dbn[n].oom)
    )
    narada_ratio = sum(
        narada_dbn[n].mean_rtt_ms / narada_single[n].mean_rtt_ms for n in common_ns
    ) / len(common_ns)
    common_narada = common_ns[-1]
    narada_idle_ratio = (
        min(v.mean_cpu_idle_percent for v in narada_dbn[common_narada].vmstat.values())
        / max(1e-9, narada_single[common_narada].vmstat["hydra1"].mean_cpu_idle_percent)
    )
    narada = MiddlewareMeasurements(
        name="Narada",
        rtt_ms_light=comparison["TCP"].mean_rtt_ms,
        max_connections_single=narada_max_single,
        max_connections_distributed=max(narada_max_dist, narada_max_single),
        distributed_rtt_ratio=narada_ratio,
        distributed_idle_ratio=narada_idle_ratio,
    )

    common_rgma = max(
        set(n for n in rgma_single if not rgma_single[n].oom)
        & set(n for n in rgma_dist if not rgma_dist[n].oom)
    )
    rgma_ratio = (
        rgma_dist[common_rgma].mean_rtt_ms / rgma_single[common_rgma].mean_rtt_ms
    )
    rgma_idle_ratio = (
        min(v.mean_cpu_idle_percent for v in rgma_dist[common_rgma].vmstat.values())
        / max(1e-9, rgma_single[common_rgma].vmstat["hydra1"].mean_cpu_idle_percent)
    )
    rgma = MiddlewareMeasurements(
        name="R-GMA",
        rtt_ms_light=rgma_single[min(rgma_single)].mean_rtt_ms,
        max_connections_single=max_ok(rgma_single),
        max_connections_distributed=max_ok(rgma_dist),
        distributed_rtt_ratio=rgma_ratio,
        distributed_idle_ratio=rgma_idle_ratio,
    )

    result = ExperimentResult(
        "table3", "R-GMA and NaradaBrokering comparison", "", "rating"
    )
    result.table = table_iii(rgma, narada)
    result.note(
        "ratings derived from measured RTT / connection walls / "
        "distributed-vs-single ratios (repro.core.comparison)"
    )
    result.meta["narada"] = narada
    result.meta["rgma"] = rgma
    return result


def _federation_scaling(scale: Scale, seed: int) -> ExperimentResult:
    return federation_experiments.federation_scaling(
        _federation_leg(scale, seed, "routed"),
        _federation_leg(scale, seed, "broadcast"),
    )


def _fleet_scaling(scale: Scale, seed: int) -> ExperimentResult:
    from repro.powergrid.fleet_engine import FLEET_MIDDLEWARES

    return fleet_experiments.fleet_scaling(
        {mw: _fleet_sweep(scale, seed, mw, "aggregate") for mw in FLEET_MIDDLEWARES},
        {mw: _fleet_sweep(scale, seed, mw, "process") for mw in FLEET_MIDDLEWARES},
        scale=scale,
        seed=seed,
    )


def _edge_scaling(scale: Scale, seed: int) -> ExperimentResult:
    points = (
        edge_experiments.EDGE_SWEEP_FULL
        if scale.name == "full"
        else edge_experiments.EDGE_SWEEP
    )
    return edge_experiments.edge_scaling(
        _cached(edge_experiments.run_edge_sweep, points, "narada", scale, seed, jobs=_jobs),
        _cached(edge_experiments.direct_point, "narada", scale=scale, seed=seed),
        "narada",
    )


def _table3_extended(scale: Scale, seed: int) -> ExperimentResult:
    """Table III with a third row derived from the plog sweeps."""
    base = _table3(scale, seed)
    narada = base.meta["narada"]
    rgma = base.meta["rgma"]
    single = _sweep("plog_single", scale, seed)
    spread = _sweep("plog_spread", scale, seed)

    def max_ok(sweep):
        ok = [n for n, r in sweep.items() if not r.oom and r.compliant]
        return max(ok) if ok else 0

    common_ns = sorted(
        set(n for n in single if not single[n].oom)
        & set(n for n in spread if not spread[n].oom)
    )
    ratio = sum(
        spread[n].mean_rtt_ms / single[n].mean_rtt_ms for n in common_ns
    ) / len(common_ns)
    common = common_ns[-1]
    idle_ratio = (
        min(v.mean_cpu_idle_percent for v in spread[common].vmstat.values())
        / max(1e-9, single[common].vmstat["hydra1"].mean_cpu_idle_percent)
    )
    plog = MiddlewareMeasurements(
        name="Partitioned log",
        rtt_ms_light=single[min(single)].mean_rtt_ms,
        max_connections_single=max_ok(single),
        max_connections_distributed=max(max_ok(spread), max_ok(single)),
        distributed_rtt_ratio=ratio,
        distributed_idle_ratio=idle_ratio,
    )
    result = ExperimentResult(
        "table3_extended",
        "Table III extended with the partitioned commit log",
        "",
        "rating",
    )
    result.table = table_iii(rgma, narada, plog)
    result.note(
        f"plog single-broker compliance wall: {plog.max_connections_single} "
        f"connections (Narada: {narada.max_connections_single}; "
        f"R-GMA: {rgma.max_connections_single})"
    )
    result.meta["narada"] = narada
    result.meta["rgma"] = rgma
    result.meta["plog"] = plog
    return result


# ---------------------------------------------------------------- ablations

def _ablation_dbn_routing(scale: Scale, seed: int) -> ExperimentResult:
    """Broadcast flaw vs subscription-aware routing at a fixed load."""
    from repro.narada import NaradaConfig

    result = ExperimentResult(
        "ablation_dbn_routing",
        "DBN forwarding: v1.1.3 broadcast flaw vs subscription-aware routing",
        "mode",
        "millisecond",
    )
    rows = []
    for label, flaw in (("broadcast (v1.1.3)", True), ("routed (fixed)", False)):
        run = narada_experiments.narada_run(
            3000,
            dbn=True,
            scale=scale,
            seed=seed,
            config=NaradaConfig(broadcast_flaw=flaw),
        )
        forwards = sum(
            s["forwarded"] for s in run.broker_stats.values()
        )
        hub_idle = run.vmstat["hydra1"].mean_cpu_idle_percent
        rows.append([label, run.mean_rtt_ms, forwards, f"{hub_idle:.0f}%"])
        result.add_point(label, 0, run.mean_rtt_ms)
    result.table = (
        ["mode", "RTT (ms)", "inter-broker forwards", "hub CPU idle"], rows
    )
    result.note(
        "fixing the routing removes the unnecessary data flow the paper "
        "diagnosed and recovers DBN performance (paper §V future work)"
    )
    return result


def _ablation_udp_ack(scale: Scale, seed: int) -> ExperimentResult:
    """Per-message transport acking is what ruins JMS-over-UDP."""
    result = ExperimentResult(
        "ablation_udp_ack",
        "UDP with and without the JMS acknowledgement protocol",
        "mode",
        "millisecond",
    )
    rows = []
    runs = _comparison_runs(scale, seed)
    acked = runs["UDP"]
    rows.append(["acked (JMS requires it)", acked.mean_rtt_ms, f"{acked.loss_rate:.3%}"])
    raw = narada_experiments.narada_run(
        narada_experiments.COMPARISON_CONNECTIONS,
        transport_kind="udp_raw",
        scale=scale,
        seed=seed,
    )
    rows.append(["raw (no ack)", raw.mean_rtt_ms, f"{raw.loss_rate:.3%}"])
    result.table = (["mode", "RTT (ms)", "loss rate"], rows)
    result.note(
        "without acking, UDP latency matches TCP but loss is unacceptable; "
        "with acking, loss is small but RTT inflates (paper §III.E.1)"
    )
    for row in rows:
        result.add_point(row[0], 0, row[1])
    return result


def _ablation_rgma_mediator(scale: Scale, seed: int) -> ExperimentResult:
    """Remove the consumer-side processing cost: PT collapses."""
    from repro.core import decompose
    from repro.rgma import RGMAConfig

    result = ExperimentResult(
        "ablation_rgma_mediator",
        "R-GMA process time vs consumer per-tuple cost",
        "consumer_tuple_cpu (ms)",
        "PT (ms)",
    )
    rows = []
    for label, cfg in (
        ("gLite 3.0 (modelled)", RGMAConfig()),
        ("zero-cost mediator", RGMAConfig(consumer_tuple_cpu=0.0, stream_period=0.1)),
    ):
        run = rgma_experiments.rgma_run(200, scale=scale, seed=seed, config=cfg)
        phases = decompose(run.book, since=run.measure_since)
        rows.append([label, phases.prt_ms, phases.pt_ms, phases.srt_ms])
        result.add_point(label, 0, phases.pt_ms)
    result.table = (["config", "PRT (ms)", "PT (ms)", "SRT (ms)"], rows)
    result.note(
        "PT dominates R-GMA RTT and is a middleware property, not a network "
        "one — the paper's Fig 15 conclusion"
    )
    return result


def _ablation_aggregation(scale: Scale, seed: int) -> ExperimentResult:
    """Message quantity vs message size (the §IV RMM observation)."""
    runs = _comparison_runs(scale, seed)
    tcp, triple = runs["TCP"], runs["Triple"]
    result = ExperimentResult(
        "ablation_aggregation",
        "Message count vs byte volume (same payload rate)",
        "case",
        "millisecond",
    )
    result.table = (
        ["case", "msgs (measured window)", "RTT (ms)"],
        [
            ["1x payload @ 10 s", tcp.sent, tcp.mean_rtt_ms],
            ["3x payload @ 30 s (same bytes/s)", triple.sent, triple.mean_rtt_ms],
        ],
    )
    per_msg_penalty = triple.mean_rtt_ms - tcp.mean_rtt_ms
    result.note(
        "tripling payload while cutting message rate to 1/3 changes RTT by "
        f"only {per_msg_penalty:+.1f} ms: per-message overhead dominates "
        "per-byte cost, so aggregation (fewer, bigger messages) raises "
        "throughput — the RMM result the paper cites in §IV"
    )
    return result


def _ablation_rgma_https(scale: Scale, seed: int) -> ExperimentResult:
    """The encryption overhead the paper avoided (§III.F: 'We did not use
    HTTPS because of the encryption overhead').

    At the paper's message sizes the dominant TLS cost is the *handshake*
    (asymmetric crypto on a PIII), paid once per producer connection —
    exactly the resource-location-deadline concern §V raises.  Steady-state
    RTT moves far less, so the assertion-bearing measurement is producer
    setup time, with a bulk-transfer crypto throughput probe as the second
    axis; RTT is reported as context.
    """
    from repro.cluster import HydraCluster
    from repro.rgma import RGMADeployment
    from repro.sim import Simulator
    from repro.transport.tls import TlsTransport

    rows = []
    result = ExperimentResult(
        "ablation_rgma_https",
        "R-GMA over HTTP vs HTTPS",
        "protocol",
        "millisecond",
    )
    for label, https in (("HTTP (paper's choice)", False), ("HTTPS", True)):
        # Producer setup probe: 50 timed create() calls on a fresh server.
        sim = Simulator(seed=seed)
        cluster = HydraCluster(sim)
        transport = TlsTransport(sim, cluster.lan) if https else None
        deployment = RGMADeployment.single_server(
            sim, cluster, transport=transport
        )
        setup_times = []

        def probe():
            for i in range(50):
                client = deployment.producer_client(cluster.node("hydra5"), 0)
                t0 = sim.now
                yield from client.create("gridmon")
                setup_times.append(sim.now - t0)

        sim.run_process(probe())
        setup_ms = sum(setup_times) / len(setup_times) * 1e3
        server_busy = cluster.node("hydra1").cpu_busy_time

        # Steady-state context: the fleet experiment.
        run = rgma_experiments.rgma_run(
            200, use_https=https, scale=scale, seed=seed
        )
        rows.append([label, setup_ms, server_busy, run.mean_rtt_ms])
        result.add_point(label, 0, setup_ms)
    result.table = (
        ["protocol", "producer setup (ms)", "server CPU for 50 setups (s)",
         "steady-state RTT (ms)"],
        rows,
    )
    result.note(
        "the TLS handshake multiplies producer setup time and burns server "
        "CPU per connection — the §III.F overhead, and a direct instance of "
        "§V's 'locate resources within a predefined time limit' concern"
    )
    return result


def _ablation_web_services(scale: Scale, seed: int) -> ExperimentResult:
    """§III.D made measurable: SOAP publishing vs native JMS."""
    import numpy as np

    from repro.cluster import HydraCluster
    from repro.jms.destination import Topic
    from repro.narada import Broker, narada_connection_factory
    from repro.powergrid.generator import PowerGenerator
    from repro.powergrid.payload import narada_map_message
    from repro.sim import Simulator
    from repro.transport import TcpTransport
    from repro.webservices import SoapCodec, WsPublishProxy, WsPublisherClient

    topic = Topic("power.monitoring")
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    tcp = TcpTransport(sim, cluster.lan)
    broker = Broker(sim, cluster.node("hydra1"), "b")
    broker.serve(tcp, 5045)

    # End-to-end observer: when does each reading reach a subscriber?
    deliveries: dict[str, list[float]] = {"ws": [], "native": []}

    def subscribe():
        factory = narada_connection_factory(
            sim, tcp, cluster.node("hydra3"), "hydra1", 5045
        )
        conn = yield from factory.create_connection()
        conn.start()
        session = conn.create_session()
        yield from session.create_subscriber(
            topic,
            listener=lambda m: deliveries[m._path].append(sim.now - m._t0),
        )

    sim.run_process(subscribe())

    def build_proxy():
        factory = narada_connection_factory(
            sim, tcp, cluster.node("hydra2"), "hydra1", 5045
        )
        conn = yield from factory.create_connection()
        conn.start()
        return WsPublishProxy(sim, cluster.node("hydra2"), tcp, 8099, conn, topic)

    sim.run_process(build_proxy())
    gen = PowerGenerator(1, np.random.default_rng(seed))
    n = 50

    def stamped(path: str):
        message = narada_map_message(gen.sample(sim.now))
        message._path = path
        message._t0 = sim.now
        return message

    def ws_publish():
        client = WsPublisherClient(
            sim, tcp, cluster.node("hydra4"), "hydra2", 8099
        )
        times = []
        for _ in range(n):
            latency = yield from client.publish(stamped("ws"))
            times.append(latency)
            yield sim.timeout(0.05)
        return times

    ws_times = sim.run_process(ws_publish())

    def native_publish():
        factory = narada_connection_factory(
            sim, tcp, cluster.node("hydra4"), "hydra1", 5045
        )
        conn = yield from factory.create_connection()
        conn.start()
        pub = conn.create_session().create_publisher(topic)
        times = []
        for _ in range(n):
            message = stamped("native")
            t0 = sim.now
            yield from pub.publish(message)
            times.append(sim.now - t0)
            yield sim.timeout(0.05)
        return times

    native_times = sim.run_process(native_publish())
    sim.run(until=sim.now + 2.0)
    sample = narada_map_message(gen.sample(sim.now))
    sample.destination = topic
    expansion = SoapCodec().expansion_factor(sample)

    result = ExperimentResult(
        "ablation_web_services",
        "Why not Web Services (§III.D): SOAP proxy vs native JMS publish",
        "path",
        "millisecond",
    )
    ws_ms = sum(ws_times) / n * 1e3
    native_ms = sum(native_times) / n * 1e3
    ws_e2e = sum(deliveries["ws"]) / max(1, len(deliveries["ws"])) * 1e3
    native_e2e = (
        sum(deliveries["native"]) / max(1, len(deliveries["native"])) * 1e3
    )
    result.table = (
        ["path", "publish call (ms)", "end-to-end delivery (ms)"],
        [
            ["SOAP over HTTP via proxy", ws_ms, ws_e2e],
            ["native JMS", native_ms, native_e2e],
        ],
    )
    result.add_point("SOAP", 0, ws_e2e)
    result.add_point("native", 0, native_e2e)
    result.note(
        f"XML expands the monitoring payload {expansion:.1f}x; end-to-end "
        f"the SOAP path costs {ws_e2e / native_e2e:.1f}x native (publish "
        f"call: {ws_ms / native_ms:.0f}x, since SOAP waits a full HTTP "
        "round trip) — 'Web Services are known to be slow and not suitable "
        "for high performance scientific computing' (§III.D)"
    )
    return result


def _ablation_rgma_legacy_api(scale: Scale, seed: int) -> ExperimentResult:
    """The §III.F.3 discrepancy: the old Stream Producer / Archiver API
    measured in [11] versus the new Primary Producer / Consumer pipeline."""
    import numpy as np

    from repro.cluster import HydraCluster
    from repro.powergrid.payload import rgma_row
    from repro.powergrid.generator import PowerGenerator
    from repro.rgma import RGMADeployment
    from repro.rgma.stream_producer import LegacyDeployment, StreamProducerClient
    from repro.sim import Simulator

    n_producers = 100
    # -- legacy path --------------------------------------------------------
    sim = Simulator(seed=seed)
    cluster = HydraCluster(sim)
    deployment = RGMADeployment.single_server(sim, cluster)
    legacy = LegacyDeployment(deployment)
    from repro.transport.http import HttpClient

    http = HttpClient(
        sim, deployment.transport, cluster.node("hydra7"), "hydra1", 8080
    )

    def mk_archiver():
        response = yield from http.request(
            "/archiver/create", {"table": "gridmon", "where": None}, 140
        )
        return response.body["resource_id"]

    archiver_id = sim.run_process(mk_archiver())
    legacy_latencies: list[float] = []
    legacy.archiver_callback(
        archiver_id,
        lambda t: legacy_latencies.append(sim.now - t.meta["t_before_send"]),
    )

    def legacy_generator(i: int):
        client = StreamProducerClient(
            sim, deployment.transport, cluster.node("hydra5"), "hydra1", 8080
        )
        yield from client.create("gridmon")
        model = PowerGenerator(i, sim.rng.stream(f"lg.{i}"))
        yield sim.timeout(sim.rng.uniform("lg.warm", *scale.warmup))
        stop = sim.now + min(scale.duration, 60.0)
        while sim.now < stop:
            yield from client.insert(rgma_row(model.sample(sim.now)))
            yield sim.timeout(10.0)

    for i in range(n_producers):
        sim.process(legacy_generator(i))
    sim.run(until=scale.warmup[1] + min(scale.duration, 60.0) + 20.0)

    # -- new API at the same load -------------------------------------------
    new_run = rgma_experiments.rgma_run(n_producers, scale=scale, seed=seed)

    result = ExperimentResult(
        "ablation_rgma_legacy_api",
        "R-GMA old Stream Producer/Archiver API vs new PP/Consumer pipeline",
        "API generation",
        "millisecond",
    )
    legacy_ms = float(np.mean(legacy_latencies) * 1e3)
    result.table = (
        ["API", "mean RTT (ms)", "tuples"],
        [
            ["Stream Producer + Archiver (old, [11])", legacy_ms,
             len(legacy_latencies)],
            ["Primary Producer + Consumer (gLite 3.0)", new_run.mean_rtt_ms,
             new_run.received],
        ],
    )
    result.add_point("old API", 0, legacy_ms)
    result.add_point("new API", 0, new_run.mean_rtt_ms)
    result.note(
        "the old API streams tuples directly to archivers (no mediated "
        "consumer, no batch period, no poll loop) — reproducing why [11] "
        "'achieved high performance' where the paper's newer version did not"
    )
    return result


def _ablation_clock_skew(scale: Scale, seed: int) -> ExperimentResult:
    """Why the paper measured same-node round trips.

    "Data were received by the node where they were sent and there was no
    time synchronization problem" (§III.E.2); the distributed R-GMA test
    instead synchronised clocks with NTP (§III.F.1).  This ablation shows
    what cross-node timestamps would do to millisecond-scale RTTs under
    unsynchronised clocks vs NTP-disciplined ones.
    """
    import numpy as np

    run = narada_experiments.narada_run(400, scale=scale, seed=seed)
    true_rtts = run.rtts  # seconds; same-clock ground truth
    rng = np.random.default_rng(seed)

    result = ExperimentResult(
        "ablation_clock_skew",
        "Cross-node timestamping error vs clock discipline",
        "clock discipline",
        "millisecond",
    )
    rows: list[list] = [
        ["same node (paper's Narada method)", float(true_rtts.mean() * 1e3),
         0.0, "0%"],
    ]
    for label, skew_s in (
        ("NTP-synchronised (paper's R-GMA method)", 0.001),
        ("unsynchronised (drifted ~50 ms)", 0.050),
    ):
        # Per-(sender,receiver) pair offset, fixed for a run.
        offsets = rng.uniform(-skew_s, skew_s, size=8)
        pair = rng.integers(0, 8, size=true_rtts.size)
        apparent = true_rtts + offsets[pair]
        negative = float((apparent < 0).mean())
        rows.append(
            [label, float(apparent.mean() * 1e3),
             float(np.abs(apparent - true_rtts).mean() * 1e3),
             f"{negative:.0%}"]
        )
    result.table = (
        ["clocking", "apparent mean RTT (ms)", "mean |error| (ms)",
         "negative RTTs"],
        rows,
    )
    result.note(
        "a ~50 ms drift swamps Narada's millisecond RTTs entirely (many "
        "measurements go negative); NTP's ~1 ms residual is tolerable for "
        "R-GMA's second-scale RTTs but not for Narada's — hence the paper's "
        "same-node measurement design"
    )
    return result


# --------------------------------------------------------- experiment table

@dataclasses.dataclass(frozen=True)
class Experiment:
    """One registered experiment: what :func:`run` calls and ``--list`` shows."""

    fn: Callable[..., ExperimentResult]
    description: str
    #: Keyword options ``fn`` accepts beyond scale and seed: ``fault_plan``
    #: (``--fault-plan``) and ``scenario`` (``--scenario``).  Left out, the
    #: experiment's own default applies.
    options: tuple[str, ...] = ()


_FAULTS = ("fault_plan",)
_SCENARIO = ("fault_plan", "scenario")

EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(_table1, "Table I: hardware specifications and software versions"),
    "table2_fig3": Experiment(_fig3, "Table II / Fig 3: Narada comparison tests, RTT + STDDEV"),
    "fig4": Experiment(_fig4, "Fig 4: Narada comparison tests, percentile of RTT"),
    "fig6": Experiment(
        _from_sweeps(narada_experiments.fig6, "narada_single", "narada_dbn"),
        "Fig 6: Narada CPU idle and memory vs connections",
    ),
    "fig7": Experiment(
        _from_sweeps(narada_experiments.fig7, "narada_single", "narada_dbn"),
        "Fig 7: Narada RTT/STDDEV vs connections, single vs DBN",
    ),
    "fig8": Experiment(
        _from_sweeps(narada_experiments.fig8, "narada_single"),
        "Fig 8: Narada single-broker percentile of RTT",
    ),
    "fig9": Experiment(
        _from_sweeps(narada_experiments.fig9, "narada_dbn"),
        "Fig 9: Narada DBN percentile of RTT",
    ),
    "fig10": Experiment(rgma_experiments.fig10, "Fig 10: R-GMA percentile of RTT, light load"),
    "fig11": Experiment(
        _from_sweeps(rgma_experiments.fig11, "rgma_single", "rgma_distributed"),
        "Fig 11: R-GMA RTT/STDDEV vs connections",
    ),
    "fig12": Experiment(
        _from_sweeps(rgma_experiments.fig12, "rgma_single"),
        "Fig 12: R-GMA single-server percentile of RTT",
    ),
    "fig13": Experiment(
        _from_sweeps(rgma_experiments.fig13, "rgma_single", "rgma_distributed"),
        "Fig 13: R-GMA CPU idle and memory vs connections",
    ),
    "fig14": Experiment(
        _from_sweeps(rgma_experiments.fig14, "rgma_distributed"),
        "Fig 14: R-GMA distributed percentile of RTT",
    ),
    "fig15": Experiment(
        decomposition.fig15, "Fig 15: RTT decomposition (PRT/PT/SRT), R-GMA vs Narada"
    ),
    "losses": Experiment(_losses, "Message loss rates (§III.E.1 and §III.F)"),
    "rgma_warmup_loss": Experiment(
        rgma_experiments.warmup_loss, "R-GMA loss with and without the warm-up sleep"
    ),
    "table3": Experiment(_table3, "Table III: derived qualitative comparison"),
    "table3_extended": Experiment(
        _table3_extended, "Table III plus a partitioned-commit-log row"
    ),
    "plog_scaling": Experiment(
        _from_sweeps(plog_experiments.plog_scaling, "plog_single", "plog_spread"),
        "Partitioned log: RTT + §I SLA compliance to 16k connections",
    ),
    "plog_percentiles": Experiment(
        _from_sweeps(plog_experiments.plog_percentiles, "plog_single"),
        "Partitioned log: percentile of RTT per connection count",
    ),
    "fig15_threeway": Experiment(
        decomposition.fig15_threeway, "RTT decomposition for R-GMA, Narada and the plog"
    ),
    "fig15_federation": Experiment(
        decomposition.fig15_federation, "RTT decomposition on the federated broker tree"
    ),
    "fig15_edge": Experiment(
        decomposition.fig15_edge, "RTT decomposition through the long-poll gateway hop"
    ),
    "federation_scaling": Experiment(
        _federation_scaling, "Per-link traffic + RTT: routed tree vs broadcast DBN"
    ),
    "fleet_scaling": Experiment(
        _fleet_scaling, "Vectorized cohort fleets: 10^3-10^6 publishers, 3 middlewares"
    ),
    "edge_scaling": Experiment(
        _edge_scaling, "Edge tier: clients 10k+ pooled onto O(topics) connections"
    ),
    "edge_gateway_crash": Experiment(
        edge_experiments.run_gateway_crash,
        "Gateway crash: failover, ring replay, exactly-once",
        _FAULTS,
    ),
    "chaos_threeway": Experiment(
        chaos_experiments.chaos_threeway,
        "All three middlewares under one deterministic fault plan",
        _FAULTS,
    ),
    "chaos_durability": Experiment(
        chaos_experiments.chaos_durability,
        "Durable delivery parity: 0 loss AND 0 duplicates under faults",
        _FAULTS,
    ),
    "chaos_broker_failover": Experiment(
        chaos_experiments.chaos_broker_failover,
        "Plog broker crash: one-shot vs retry vs failover vs RF=2",
        _FAULTS,
    ),
    "chaos_replication": Experiment(
        chaos_experiments.chaos_replication,
        "Plog durability ladder under a broker crash: RF x acks",
        _FAULTS,
    ),
    "chaos_adaptive_backoff": Experiment(
        chaos_experiments.chaos_adaptive_backoff,
        "Plog retry: fixed vs RTT-adaptive backoff",
        _FAULTS,
    ),
    "scenario_threeway": Experiment(
        _scored(scenario_experiments.threeway_outcomes, scenario_experiments.scenario_threeway),
        "One grid scenario on all three middlewares, SLA scorecard",
        _SCENARIO,
    ),
    "scenario_edge_storm": Experiment(
        _scored(scenario_experiments.edge_outcomes, scenario_experiments.scenario_edge_storm),
        "One grid scenario through the edge tier, SLA scorecard",
        _SCENARIO,
    ),
    "ablation_dbn_routing": Experiment(
        _ablation_dbn_routing, "DBN broadcast flaw vs subscription-aware routing"
    ),
    "ablation_udp_ack": Experiment(_ablation_udp_ack, "UDP with and without the JMS ack protocol"),
    "ablation_rgma_mediator": Experiment(
        _ablation_rgma_mediator, "R-GMA process time vs consumer per-tuple cost"
    ),
    "ablation_aggregation": Experiment(
        _ablation_aggregation, "Message count vs byte volume at equal payload rate"
    ),
    "ablation_rgma_https": Experiment(_ablation_rgma_https, "R-GMA over HTTP vs HTTPS"),
    "ablation_web_services": Experiment(
        _ablation_web_services, "SOAP proxy publish vs native JMS (§III.D)"
    ),
    "ablation_rgma_legacy_api": Experiment(
        _ablation_rgma_legacy_api, "Old Stream Producer API vs new PP pipeline"
    ),
    "ablation_clock_skew": Experiment(
        _ablation_clock_skew, "Cross-node timestamp error vs clock discipline"
    ),
}

EXPERIMENT_IDS = tuple(EXPERIMENTS)


def list_experiments() -> str:
    """The ``--list`` text: one aligned line per registered experiment."""
    width = max(len(i) for i in EXPERIMENTS)
    return "\n".join(
        f"{experiment_id:<{width}}  {experiment.description}"
        for experiment_id, experiment in EXPERIMENTS.items()
    )


def run(
    experiment_id: str,
    scale: Optional[Scale | str] = None,
    seed: int = 1,
    fault_plan: Optional[str] = None,
    scenario: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: bool = True,
) -> ExperimentResult:
    """Run one experiment by id; returns its :class:`ExperimentResult`.

    ``scale`` is a :class:`Scale` or a preset name (default:
    :meth:`Scale.from_env`).  ``fault_plan`` selects a named fault schedule
    and ``scenario`` a scenario script, each an error for an experiment
    whose table entry does not list it; left out, the experiment's own
    default applies.  ``jobs`` fans the sweep points out over that many
    worker processes (default: ``$REPRO_JOBS``, else serial — results are
    identical either way); ``cache=False`` bypasses both sweep-cache tiers
    for this call.
    """
    global _jobs, _cache_enabled
    if not isinstance(scale, Scale):
        scale = Scale.from_env() if scale is None else Scale.named(scale)
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; choose from {EXPERIMENT_IDS}"
        ) from None
    options = {
        name: value
        for name, value in (("fault_plan", fault_plan), ("scenario", scenario))
        if value is not None
    }
    for name in options:
        if name not in experiment.options:
            accepting = sorted(i for i, e in EXPERIMENTS.items() if name in e.options)
            raise ValueError(
                f"--{name.replace('_', '-')} only applies to {', '.join(accepting)}, "
                f"not {experiment_id!r}"
            )
    if scenario is not None and scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    previous_jobs, _jobs = _jobs, resolve_jobs(jobs)
    previous_cache, _cache_enabled = _cache_enabled, _cache_enabled and cache
    try:
        return experiment.fn(scale=scale, seed=seed, **options)
    finally:
        _jobs = previous_jobs
        _cache_enabled = previous_cache


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate a table/figure from the paper."
    )
    parser.add_argument(
        "experiment",
        nargs="*",
        help=f"experiment id(s): {', '.join(EXPERIMENT_IDS)} or 'all'",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered experiment ids with descriptions and exit",
    )
    parser.add_argument("--scale", default=None, choices=["bench", "smoke", "full"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep points (default: $REPRO_JOBS, else "
        "the CPU count; 1 = serial; results are identical at any value)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the sweep cache (both the in-process and disk tiers)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        choices=sorted(PLANS),
        help="fault schedule for the chaos/scenario experiments",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        choices=sorted(SCENARIOS),
        help="scenario script for the scenario experiments",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record telemetry spans for the run(s) and write a JSONL trace",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the telemetry metrics / resource-sampler JSON summary",
    )
    args = parser.parse_args(argv)
    if args.list:
        print(list_experiments())
        return 0
    if not args.experiment:
        parser.error("no experiment ids given (use --list to see them)")
    ids = list(args.experiment)
    if ids == ["all"]:
        ids = list(EXPERIMENT_IDS)

    telemetry = None
    ctx: Any = contextlib.nullcontext()
    if args.trace or args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(label=" ".join(ids))
        ctx = tel_context.session(telemetry)
    jobs = resolve_jobs(args.jobs, default=os.cpu_count() or 1)
    flags = {"fault_plan": args.fault_plan, "scenario": args.scenario}
    with ctx:
        for experiment_id in ids:
            # Flags an experiment does not take are dropped for it, so one
            # command line can mix ids; run() rejects unknown ids.
            accepted = EXPERIMENTS[experiment_id].options if experiment_id in EXPERIMENTS else ()
            result = run(
                experiment_id,
                scale=args.scale,
                seed=args.seed,
                jobs=jobs,
                cache=not args.no_cache,
                **{name: value for name, value in flags.items() if name in accepted},
            )
            print(result.render())
            print()
    if telemetry is not None:
        from repro.telemetry.exporters import (
            metrics_tables,
            write_metrics_json,
            write_trace_jsonl,
        )

        print(metrics_tables(telemetry))
        if args.trace:
            n_spans = write_trace_jsonl(telemetry, args.trace)
            print(f"trace: {n_spans} spans -> {args.trace}")
        if args.metrics_out:
            write_metrics_json(telemetry, args.metrics_out)
            print(f"metrics: -> {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
