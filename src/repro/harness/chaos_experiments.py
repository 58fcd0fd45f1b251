"""Chaos experiments: the three middlewares under identical fault schedules.

The paper measures the systems on a quiet, isolated LAN; a production grid
is not quiet.  These experiments replay one deterministic
:class:`~repro.faults.FaultPlan` against all three middlewares — same
schedule, same seed, same workload — and ask two questions the paper could
not: how much monitoring data is *lost* under a fault window, and how long
delivery takes to *recover* once the fault clears (visible as the RTT tail,
p95–p100).

Every fault plan is a pure function of the measurement window and every
random draw comes from the kernel's named RNG streams, so one seed gives
bit-identical results run to run — asserting that is part of the test
suite (``tests/harness/test_chaos.py``).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import ExperimentResult, percentile_curve
from repro.core.metrics import rtt_percentiles, soft_realtime_compliance
from repro.faults import RetryPolicy, named_plan
from repro.harness.scale import Scale
from repro.plog import ACKS_ALL, PlogConfig

#: Shared load for the chaos legs: big enough that a fault window covers
#: hundreds of in-flight messages, small enough for the smoke preset.
CHAOS_CONNECTIONS = 200

#: The recovery policy under test: ~6.3 s of backoff budget, which fits
#: inside every scale preset's drain window.
CHAOS_RETRY = RetryPolicy(retries=6, backoff=0.1)

#: Failover legs use a shorter budget so a broker outage *outlasts* blind
#: retrying — that is what makes rerouting to a surviving broker visible.
FAILOVER_RETRY = RetryPolicy(retries=4, backoff=0.1)

#: The durability ladder needs the opposite: a budget that *outlasts* the
#: gauntlet's capped ~6 s broker outage (un-jittered worst case ~16 s of
#: backoff with the 5 s per-delay ceiling), because zero loss is asserted —
#: giving up is losing.
DURABILITY_RETRY = RetryPolicy(retries=8, backoff=0.1)


#: The RTT tail columns of every chaos table.
TAIL = (95, 99, 100)


def chaos_threeway(
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: str = "loss_burst",
    connections: int = CHAOS_CONNECTIONS,
) -> ExperimentResult:
    """Loss and RTT tail for all three middlewares under one fault plan.

    Four legs: Narada over acked UDP with publisher retry, R-GMA over its
    TCP servlet pipeline, and the partitioned log over acked UDP twice —
    once with the producer's one-shot legacy behaviour and once with
    retry-with-backoff — so the cost of the fault and the value of the
    recovery machinery are both on the table.
    """
    from repro.harness.narada_experiments import narada_run
    from repro.harness.plog_experiments import plog_run
    from repro.harness.rgma_experiments import rgma_run

    scale = scale or Scale.from_env()
    template = named_plan(fault_plan)

    legs: list[tuple[str, Any]] = []
    legs.append((
        "Narada (UDP, retry)",
        narada_run(
            connections,
            transport_kind="udp",
            scale=scale,
            seed=seed,
            fault_plan=template,
            fleet_retry=CHAOS_RETRY,
        ),
    ))
    legs.append((
        "R-GMA (TCP)",
        rgma_run(connections, scale=scale, seed=seed, fault_plan=template),
    ))
    plog_base = PlogConfig(consumer_recovery=True)
    legs.append((
        "Plog (UDP, no retry)",
        plog_run(
            connections,
            transport_kind="udp",
            scale=scale,
            seed=seed,
            config=plog_base,
            fault_plan=template,
        ),
    ))
    legs.append((
        "Plog (UDP, retry)",
        plog_run(
            connections,
            transport_kind="udp",
            scale=scale,
            seed=seed,
            config=plog_base.with_(producer_retry=CHAOS_RETRY),
            fault_plan=template,
        ),
    ))

    result = ExperimentResult(
        "chaos_threeway",
        f"Three middlewares under the {fault_plan!r} fault plan",
        "percentile",
        "millisecond",
    )
    rows = []
    for label, run in legs:
        p95, p99, p100 = rtt_percentiles(run.rtts, TAIL)
        compliant, frac_late, _loss = soft_realtime_compliance(
            run.book, deadline_s=5.0, since=run.measure_since
        )
        rows.append([
            label, run.sent, run.received, f"{run.loss_rate:.4%}",
            run.duplicates, p95, p99, p100, f"{frac_late:.4%}",
            "PASS" if compliant else "FAIL",
        ])
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(label, pct, ms)
    result.table = (
        ["system", "sent", "received", "loss rate", "duplicates",
         "p95 (ms)", "p99 (ms)", "p100 (ms)", "late/lost",
         "SLA (<=5s, <0.5%)"],
        rows,
    )
    plog_retry_run = legs[3][1]
    for line in plog_retry_run.fault_log:
        result.note(f"fault: {line}")
    result.note(
        f"plog producer recovery: {plog_retry_run.producer_retries} retries, "
        f"{plog_retry_run.producer_reconnects} reconnects, "
        f"{plog_retry_run.consumer_recoveries} consumer recoveries, "
        f"{plog_retry_run.duplicates} duplicate deliveries absorbed"
    )
    result.note(
        "retry-with-backoff converts producer-side datagram loss into "
        "latency (at-least-once + receiver dedup); Narada's push delivery "
        "cannot recover broker-to-subscriber datagrams, and R-GMA's "
        "TCP/servlet pipeline never loses to the burst but pays its usual "
        "second-scale process time"
    )
    result.meta["fault_plan"] = fault_plan
    result.meta["runs"] = {label: run for label, run in legs}
    return result


def chaos_durability(
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: str = "durability_gauntlet",
    connections: int = CHAOS_CONNECTIONS,
) -> ExperimentResult:
    """Exactly-once parity: both broker paths through the gauntlet.

    Three legs under one schedule — broker crash + consumer crash + client
    partition inside the measured window:

    * **Narada durable (TCP)** — durable subscriptions with broker-side
      retain-until-acknowledged replay (surviving the crash via the
      durable store), supervised subscribers that reconnect and
      re-subscribe, publisher retry, and a ``(gen_id, seq)`` receiver
      index that turns replay into exactly-once processing.
    * **R-GMA (TCP)** — the control: its pipeline has no broker or
      consumer process to kill (those fault legs are skipped against it),
      and TCP carries it through the partition.
    * **Plog idempotent (TCP, RF=2, acks=all)** — idempotent producers
      (broker-side (pid, seq) dedup across retries and leader failover),
      generation-fenced offset commits, consumer recovery, and a shared
      sink index absorbing post-rebalance replay.

    The verdict per leg is *zero loss AND zero duplicates* — stricter than
    the §I SLA, and the CI durability gate.
    """
    from repro.harness.narada_experiments import narada_run
    from repro.harness.plog_experiments import plog_run
    from repro.harness.rgma_experiments import rgma_run

    scale = scale or Scale.from_env()
    template = named_plan(fault_plan)

    legs: list[tuple[str, Any]] = []
    legs.append((
        "Narada durable (TCP, retry)",
        narada_run(
            connections,
            transport_kind="tcp",
            scale=scale,
            seed=seed,
            fault_plan=template,
            fleet_retry=DURABILITY_RETRY,
            durable_receivers=True,
        ),
    ))
    legs.append((
        "R-GMA (TCP)",
        rgma_run(connections, scale=scale, seed=seed, fault_plan=template),
    ))
    legs.append((
        "Plog idempotent (TCP, RF=2, acks=all)",
        plog_run(
            connections,
            n_brokers=4,
            scale=scale,
            seed=seed,
            config=PlogConfig(
                replication_factor=2,
                acks=ACKS_ALL,
                idempotent=True,
                producer_retry=DURABILITY_RETRY,
                consumer_recovery=True,
            ),
            fault_plan=template,
            dedup_receivers=True,
        ),
    ))

    result = ExperimentResult(
        "chaos_durability",
        f"Durable delivery parity under the {fault_plan!r} fault plan",
        "percentile",
        "millisecond",
    )
    rows = []
    for label, run in legs:
        p100 = rtt_percentiles(run.rtts, (100,))[0]
        redeliveries = getattr(run, "redeliveries", 0)
        clean = run.loss_rate == 0.0 and run.duplicates == 0
        rows.append([
            label, run.sent, run.received, f"{run.loss_rate:.2%}",
            run.duplicates, redeliveries, p100,
            "PASS" if clean else "FAIL",
        ])
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(label, pct, ms)
    result.table = (
        ["system", "sent", "received", "loss rate", "duplicates",
         "redeliveries", "p100 (ms)", "0 loss AND 0 dup"],
        rows,
    )
    narada_leg = legs[0][1]
    plog_leg = legs[2][1]
    for line in narada_leg.fault_log:
        result.note(f"fault (narada): {line}")
    for line in plog_leg.fault_log:
        result.note(f"fault (plog): {line}")
    result.note(
        f"narada durable machinery: {narada_leg.messages_replayed} retained "
        f"copies replayed, {narada_leg.redeliveries} redeliveries absorbed "
        f"by the (gen_id, seq) index, {narada_leg.receiver_reconnects} "
        "supervised reconnects"
    )
    result.note(
        f"plog exactly-once machinery: {plog_leg.duplicate_batches} "
        f"duplicate produce batches discarded by (pid, seq) dedup, "
        f"{plog_leg.redeliveries} post-rebalance redeliveries absorbed by "
        f"the sink index, {plog_leg.fenced_commits} stale-generation "
        f"commits fenced, {plog_leg.elections} leader elections, "
        f"{plog_leg.coordinator_elections} coordinator elections "
        f"({plog_leg.acked_lost} of {plog_leg.acked} acked records lost)"
    )
    result.note(
        "same at-least-once + dedup construction on both broker paths: "
        "Narada retains delivered-but-unacked copies for durable replay "
        "(only the JMS ack retires a copy), plog retries produce batches "
        "under an idempotent (pid, seq) window — in both, the replayed "
        "stream is collapsed back to exactly-once at the edge"
    )
    result.meta["fault_plan"] = fault_plan
    result.meta["runs"] = {label: run for label, run in legs}
    return result


def chaos_broker_failover(
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: str = "broker_outage",
    connections: int = CHAOS_CONNECTIONS,
) -> ExperimentResult:
    """Crash-and-restart one of four plog brokers; compare recovery modes.

    Four legs, same outage: legacy one-shot clients, retry-with-backoff
    against the dead broker, retry plus failover (reroute to partitions
    owned by surviving brokers), and replication (RF=2, ``acks=all``) with
    *no* producer retry at all — the leader election makes the outage
    invisible to durability: zero acknowledged records lost.  The RTT tail
    doubles as the recovery clock: records held up by the outage surface
    at p100.
    """
    from repro.harness.plog_experiments import plog_run

    scale = scale or Scale.from_env()
    template = named_plan(fault_plan)
    base = PlogConfig()

    configs = [
        ("one-shot (no recovery)", base),
        (
            "retry",
            base.with_(producer_retry=FAILOVER_RETRY, consumer_recovery=True),
        ),
        (
            "retry + failover",
            base.with_(
                producer_retry=FAILOVER_RETRY,
                consumer_recovery=True,
                failover=True,
            ),
        ),
        (
            "replicated (RF=2, acks=all, one-shot)",
            base.with_(
                replication_factor=2,
                acks=ACKS_ALL,
                consumer_recovery=True,
            ),
        ),
    ]
    result = ExperimentResult(
        "chaos_broker_failover",
        "Plog broker crash/restart: one-shot vs retry vs failover vs RF=2",
        "percentile",
        "millisecond",
    )
    rows = []
    last_run = None
    replicated_run = None
    for label, config in configs:
        run = plog_run(
            connections,
            n_brokers=4,
            scale=scale,
            seed=seed,
            config=config,
            fault_plan=template,
        )
        last_run = run
        if config.replication_factor > 1:
            replicated_run = run
        p95, p99, p100 = rtt_percentiles(run.rtts, TAIL)
        rows.append([
            label, run.sent, run.received, f"{run.loss_rate:.4%}",
            run.acked_lost, run.elections, p100, run.producer_retries,
            run.producer_reconnects, run.consumer_recoveries, run.duplicates,
        ])
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(label, pct, ms)
    result.table = (
        ["mode", "sent", "received", "loss rate", "acked lost", "elections",
         "p100 (ms)", "retries", "reconnects", "consumer recoveries",
         "duplicates"],
        rows,
    )
    if last_run is not None:
        for line in last_run.fault_log:
            result.note(f"fault: {line}")
    if replicated_run is not None:
        result.note(
            f"replicated leg: {replicated_run.elections} leader elections, "
            f"{replicated_run.coordinator_elections} coordinator elections, "
            f"{replicated_run.isr_shrinks} ISR shrinks / "
            f"{replicated_run.isr_expands} expands, "
            f"{replicated_run.acked_lost} acknowledged records lost "
            f"(of {replicated_run.acked} acked)"
        )
    result.note(
        "partition logs are durable, so records appended before the crash "
        "are served after restart; failover reroutes *new* records to "
        "surviving brokers instead of burning the retry budget against a "
        "dead one; with RF=2 and acks=all a surviving in-sync replica is "
        "elected leader, so no acknowledged record is lost even without "
        "producer retry"
    )
    result.meta["fault_plan"] = fault_plan
    result.meta["replicated_run"] = replicated_run
    return result


def chaos_replication(
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: str = "broker_outage",
    connections: int = CHAOS_CONNECTIONS,
) -> ExperimentResult:
    """Durability ladder under a broker crash: RF and acks swept upward.

    Four legs, same outage, all one-shot producers except the last:
    unreplicated baseline (records in the dead broker's partitions are
    unreadable until restart), RF=2 with ``acks=1`` (leader election keeps
    partitions *available* but the ack is a lie — records acked by the old
    leader and not yet replicated can vanish), RF=2 with ``acks=all`` (the
    headline property: zero acknowledged records lost), and RF=3 with
    ``acks=all`` plus producer retry (total loss also driven to ~zero —
    the unacked window is retried against the new leader).
    """
    from repro.harness.plog_experiments import plog_run

    scale = scale or Scale.from_env()
    template = named_plan(fault_plan)
    base = PlogConfig(consumer_recovery=True)

    configs = [
        ("RF=1 (one-shot)", base),
        (
            "RF=2, acks=1 (one-shot)",
            base.with_(replication_factor=2),
        ),
        (
            "RF=2, acks=all (one-shot)",
            base.with_(replication_factor=2, acks=ACKS_ALL),
        ),
        (
            "RF=3, acks=all + retry",
            base.with_(
                replication_factor=3,
                acks=ACKS_ALL,
                min_insync_replicas=2,
                producer_retry=CHAOS_RETRY,
            ),
        ),
    ]
    result = ExperimentResult(
        "chaos_replication",
        "Plog replication ladder under a broker crash: RF x acks",
        "percentile",
        "millisecond",
    )
    rows = []
    runs: dict[str, Any] = {}
    for label, config in configs:
        run = plog_run(
            connections,
            n_brokers=4,
            scale=scale,
            seed=seed,
            config=config,
            fault_plan=template,
        )
        runs[label] = run
        p95, p99, p100 = rtt_percentiles(run.rtts, TAIL)
        rows.append([
            label, run.sent, run.acked, run.received,
            f"{run.loss_rate:.4%}", run.acked_lost, run.elections,
            run.isr_shrinks, run.isr_expands, p100, run.producer_retries,
        ])
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(label, pct, ms)
    result.table = (
        ["mode", "sent", "acked", "received", "loss rate", "acked lost",
         "elections", "ISR shrinks", "ISR expands", "p100 (ms)", "retries"],
        rows,
    )
    sample = next(iter(runs.values()))
    for line in sample.fault_log:
        result.note(f"fault: {line}")
    acked_all = runs["RF=2, acks=all (one-shot)"]
    result.note(
        f"acks=all leg: {acked_all.acked_lost} of {acked_all.acked} "
        f"acknowledged records lost across {acked_all.elections} leader "
        "elections — the ack is only sent once every in-sync replica holds "
        "the record, so a single broker death cannot unsay it"
    )
    result.note(
        "acks=1 acks at the leader alone: records in the replication-lag "
        "window are acknowledged, then die with the leader — availability "
        "without the durability half of the contract"
    )
    result.meta["fault_plan"] = fault_plan
    result.meta["runs"] = runs
    return result


def chaos_adaptive_backoff(
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan: str = "latency_spike",
    connections: int = CHAOS_CONNECTIONS,
) -> ExperimentResult:
    """Fixed vs RTT-adaptive retry backoff under a latency spike.

    Both legs run the same retry budget with a deliberately tight
    ``produce_ack_timeout`` (60 ms — an SLA-tuned producer on a quiet
    LAN where acks normally take single-digit milliseconds).  The spike
    pushes ack round trips past that clock: the fixed policy then times
    out *every* attempt — including the retries — so each batch burns its
    whole retry budget and appends duplicates for the full fault window.
    The adaptive policy estimates the ack RTT (TCP-style SRTT/RTTVAR with
    RFC 6298 timeout backoff), so after a timeout or two its RTO climbs
    above the new RTT and the spurious retries stop.
    """
    from repro.harness.plog_experiments import plog_run

    scale = scale or Scale.from_env()
    template = named_plan(fault_plan)
    base = PlogConfig(consumer_recovery=True, produce_ack_timeout=0.06)

    configs = [
        (
            "fixed backoff",
            base.with_(producer_retry=CHAOS_RETRY),
        ),
        (
            "adaptive backoff (SRTT/RTTVAR)",
            base.with_(
                producer_retry=RetryPolicy(
                    retries=CHAOS_RETRY.retries,
                    backoff=CHAOS_RETRY.backoff,
                    adaptive=True,
                )
            ),
        ),
    ]
    result = ExperimentResult(
        "chaos_adaptive_backoff",
        "Plog producer retry: fixed vs RTT-adaptive backoff under latency",
        "percentile",
        "millisecond",
    )
    rows = []
    runs = {}
    for label, config in configs:
        run = plog_run(
            connections,
            transport_kind="udp",
            scale=scale,
            seed=seed,
            config=config,
            fault_plan=template,
        )
        runs[label] = run
        p95, p99, p100 = rtt_percentiles(run.rtts, TAIL)
        rows.append([
            label, run.sent, run.received, f"{run.loss_rate:.4%}",
            p95, p99, p100, run.producer_retries, run.duplicates,
        ])
        for pct, ms in percentile_curve(run.rtts):
            result.add_point(label, pct, ms)
    result.table = (
        ["policy", "sent", "received", "loss rate", "p95 (ms)", "p99 (ms)",
         "p100 (ms)", "retries", "duplicates"],
        rows,
    )
    sample = next(iter(runs.values()))
    for line in sample.fault_log:
        result.note(f"fault: {line}")
    fixed = runs["fixed backoff"]
    adaptive = runs["adaptive backoff (SRTT/RTTVAR)"]
    result.note(
        f"retries under the spike: fixed {fixed.producer_retries} "
        f"({fixed.duplicates} duplicates) vs adaptive "
        f"{adaptive.producer_retries} ({adaptive.duplicates} duplicates) — "
        "the RTO stretches with the observed ack RTT instead of firing on "
        "a constant clock"
    )
    result.meta["fault_plan"] = fault_plan
    result.meta["runs"] = runs
    return result
