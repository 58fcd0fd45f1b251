"""The benchmark's three workloads and the simulated outputs each one checks.

Every workload calls one public harness run function directly — the same
functions the tier-1 tests import — never a sweep function or
``map_points``, so neither the in-process sweep LRU nor the ``.repro-cache/``
disk tier can serve a timed leg.  Each leg is one serial simulation: no
``--jobs``, no threads.  Inside the simulation the generator fleet is an
open loop: every generator publishes every 10 simulated seconds whether or
not its earlier messages have been delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # the benchmark's driver imports this module without repro
    from repro.harness.scale import Scale


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a harness leg plus why it was chosen."""

    name: str
    why: str
    #: Packages under ``src/repro/`` doing the leg's work.
    stresses: tuple[str, ...]
    #: Packages the leg leaves idle: a change confined to them predicts no
    #: change on this workload.
    bypasses: tuple[str, ...]
    run: Callable[[int, "Scale"], Any]


def _narada_fanin(seed: int, scale: "Scale") -> Any:
    from repro.harness.narada_experiments import narada_run

    return narada_run(1000, transport_kind="tcp", scale=scale, seed=seed)


def _rgma_poll(seed: int, scale: "Scale") -> Any:
    from repro.harness.rgma_experiments import rgma_run

    return rgma_run(400, scale=scale, seed=seed)


def _plog_gauntlet(seed: int, scale: "Scale") -> Any:
    """The plog leg of ``chaos_durability``, inside a telemetry session."""
    from repro.faults import named_plan
    from repro.harness.chaos_experiments import CHAOS_CONNECTIONS, DURABILITY_RETRY
    from repro.harness.plog_experiments import plog_run
    from repro.plog import ACKS_ALL, PlogConfig
    from repro.telemetry import Telemetry
    from repro.telemetry.context import session

    with session(Telemetry(label="perfbench plog_gauntlet")):
        return plog_run(
            CHAOS_CONNECTIONS,
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
            fault_plan=named_plan("durability_gauntlet"),
            dedup_receivers=True,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="narada_fanin",
            why=(
                "Fig 7 point: 1000 generators on one Narada broker over TCP, "
                "8000 msgs; JMS wire sizing and selectors, broker fan-out and "
                "the kernel do the work"
            ),
            stresses=(
                "sim", "cluster", "transport", "jms", "narada", "powergrid",
                "harness",
            ),
            bypasses=("rgma", "plog", "faults", "telemetry"),
            run=_narada_fanin,
        ),
        Workload(
            name="rgma_poll",
            why=(
                "Fig 11 point: 400 R-GMA producers on one server, 3200 msgs; SQL "
                "INSERT parsing and servlet storage beside 100 ms consumer polls"
            ),
            stresses=("sim", "cluster", "transport", "rgma", "powergrid", "harness"),
            bypasses=("narada", "plog", "faults", "telemetry"),
            run=_rgma_poll,
        ),
        Workload(
            name="plog_gauntlet",
            why=(
                "plog leg of chaos_durability in a telemetry session: RF=2 acks=all "
                "idempotent log under broker+consumer crash and partition; the only "
                "workload running faults, dedup and telemetry"
            ),
            stresses=(
                "sim", "cluster", "transport", "plog", "powergrid", "core",
                "faults", "telemetry", "harness",
            ),
            bypasses=("narada", "rgma"),
            run=_plog_gauntlet,
        ),
    )
}

#: Packages some workload stresses: the layers whose ``<layer>.self_share``
#: the benchmark reports.  The others do no work on any leg.
MEASURED_LAYERS = tuple(sorted({p for w in WORKLOADS.values() for p in w.stresses}))


def outputs(result: Any, events_scheduled: int, sinks: list) -> dict[str, Any]:
    """The leg's deterministic simulated outputs, as compared run to run.

    ``sent``, ``received`` and ``lost`` cover the measured window and come
    from the run's record book.  ``sink_delivered`` is the receivers' own
    count of first deliveries over the whole run, warm-up included, and
    ``book_delivered`` the book's count of delivered records over the same
    span: two tallies kept by different code, which must agree.
    """
    import numpy as np

    rtts_ms = np.asarray(result.rtts, dtype=float) * 1e3
    p50, p99 = (float(np.percentile(rtts_ms, p)) for p in (50, 99))
    out: dict[str, Any] = {
        "sent": result.sent,
        "received": result.received,
        "lost": result.sent - result.received,
        "duplicates": result.duplicates,
        "loss_rate": result.loss_rate,
        "mean_rtt_ms": result.mean_rtt_ms,
        "rtt_p50_ms": p50,
        "rtt_p99_ms": p99,
        "events_scheduled": events_scheduled,
        "sink_delivered": sum(s.received - s.duplicates for s in sinks),
        "book_delivered": sum(1 for r in result.book.records if r.delivered),
    }
    if hasattr(result, "elections"):
        out["elections"] = result.elections
        out["acked_lost"] = result.acked_lost
    return out


def layer_counters(result: Any) -> dict[str, int]:
    """Counters the run function already returns, for the per-layer ledger."""
    brokers = getattr(result, "broker_stats", {}).values()
    return {
        "redeliveries": getattr(result, "redeliveries", 0),
        "duplicate_batches": getattr(result, "duplicate_batches", 0),
        "fetches": sum(b.get("fetches", 0) for b in brokers),
        "records_fetched": sum(b.get("records_fetched", 0) for b in brokers),
    }


def check_outputs(out: dict[str, Any]) -> list[str]:
    """Invariant violations in one leg's outputs (empty when correct)."""
    problems = []
    if out["sent"] <= 0:
        problems.append("nothing was sent in the measured window")
    if out["sink_delivered"] != out["book_delivered"]:
        problems.append(
            f"conservation: receivers counted {out['sink_delivered']} first"
            f" deliveries, the record book {out['book_delivered']}"
        )
    if out["lost"] or out["duplicates"]:
        problems.append(f"lost {out['lost']}, duplicates {out['duplicates']}")
    if out.get("acked_lost", 0):
        problems.append(f"acked_lost {out['acked_lost']}")
    return problems
