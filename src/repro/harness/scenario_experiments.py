"""Scenario experiments: one grid day, three middlewares, one scorecard.

``scenario_threeway`` replays one :mod:`repro.scenario` script — correlated
workload bursts *and* the infrastructure faults the same grid events
produce — against all three middlewares with identical seed and scale, and
scores each leg against the §I soft-real-time SLA: deadline-miss %, loss %,
duplicate %, and during-burst vs steady-state P99.  ``scenario_edge_storm``
drives the same script through the edge long-poll tier in front of each
middleware, asking whether the gateway fan-out holds the SLA when the grid
misbehaves.

Legs are independent simulations, so ``--jobs`` fans them out over
processes via :func:`repro.harness.parallel.map_points`; every leg function
here is module-level and takes only picklable arguments (scenario *names*,
not objects), and every number in the scorecard is rendered at fixed
precision, so one seed gives byte-identical scorecards, serial or parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core import ExperimentResult, percentile_curve
from repro.faults import RetryPolicy, named_plan
from repro.harness.scale import Scale
from repro.plog import ACKS_ALL, PlogConfig
from repro.scenario import (
    LegScore,
    burst_windows,
    named_scenario,
    score_leg,
    scorecard,
)

#: Shared load for the threeway legs: big enough that a regional burst
#: covers hundreds of in-flight messages, small enough for smoke.
SCENARIO_CONNECTIONS = 200

#: Publisher recovery for the Narada leg (same budget as the chaos legs).
SCENARIO_RETRY = RetryPolicy(retries=6, backoff=0.1)

#: The threeway legs, in scorecard order.
THREEWAY_LEGS = ("narada", "rgma", "plog")

#: Edge-storm population: long-poll clients / gateways per middleware leg.
EDGE_CLIENTS = 2000
EDGE_GATEWAYS = 2


@dataclass
class LegOutcome:
    """One leg's scorecard row plus its plot/annotation payload."""

    score: LegScore
    rtts: Any  # np.ndarray, measured-window RTT seconds
    fault_log: list[str]


def _score(
    label: str,
    run: Any,
    scenario_name: str,
    scale: Scale,
    duplicates: int,
) -> LegOutcome:
    """Score a finished run against the scenario's burst windows.

    The template is re-resolved with this run's *own* measurement window —
    warmup differs per middleware, so each leg's bursts sit at different
    absolute times but identical positions relative to its window.
    """
    concrete = named_scenario(scenario_name)(run.measure_since, scale.duration)
    score = score_leg(
        label,
        run.book,
        measure_since=run.measure_since,
        stop_at=run.measure_since + scale.duration,
        burst=burst_windows(concrete),
        duplicates=duplicates,
    )
    return LegOutcome(
        score=score,
        rtts=run.rtts,
        fault_log=list(run.fault_log),
    )


def threeway_leg(
    middleware: str,
    scenario_name: str,
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan_name: Optional[str] = None,
    connections: int = SCENARIO_CONNECTIONS,
) -> LegOutcome:
    """One middleware under one scenario (module-level: ``--jobs`` pickles it)."""
    scale = scale or Scale.from_env()
    template = named_scenario(scenario_name)
    fault_template = named_plan(fault_plan_name) if fault_plan_name else None
    if middleware == "narada":
        from repro.harness.narada_experiments import narada_run

        run = narada_run(
            connections,
            transport_kind="udp",
            scale=scale,
            seed=seed,
            scenario=template,
            fault_plan=fault_template,
            fleet_retry=SCENARIO_RETRY,
        )
        label = "Narada (UDP, retry)"
    elif middleware == "rgma":
        from repro.harness.rgma_experiments import rgma_run

        run = rgma_run(
            connections,
            scale=scale,
            seed=seed,
            scenario=template,
            fault_plan=fault_template,
        )
        label = "R-GMA (TCP)"
    elif middleware == "plog":
        from repro.harness.plog_experiments import plog_run

        # TCP + acks=all + one-shot producer: nothing is retried blind, so
        # the receivers must absorb zero duplicates even mid-burst — the
        # scorecard's shape gate.
        run = plog_run(
            connections,
            scale=scale,
            seed=seed,
            config=PlogConfig(acks=ACKS_ALL, consumer_recovery=True),
            scenario=template,
            fault_plan=fault_template,
        )
        label = "Plog (TCP, acks=all)"
    else:
        raise ValueError(f"unknown threeway leg {middleware!r}")
    return _score(label, run, scenario_name, scale, run.duplicates)


def edge_leg(
    middleware: str,
    scenario_name: str,
    scale: Optional[Scale] = None,
    seed: int = 1,
    fault_plan_name: Optional[str] = None,
    n_clients: int = EDGE_CLIENTS,
    n_gateways: int = EDGE_GATEWAYS,
) -> LegOutcome:
    """The same scenario through the edge tier in front of ``middleware``."""
    from repro.harness.edge_experiments import edge_point

    scale = scale or Scale.from_env()
    run = edge_point(
        n_clients,
        n_gateways,
        middleware,
        scale=scale,
        seed=seed,
        scenario=named_scenario(scenario_name),
        fault_plan=named_plan(fault_plan_name) if fault_plan_name else None,
    )
    label = f"edge/{middleware} ({n_clients}c, {n_gateways}g)"
    return _score(label, run, scenario_name, scale, run.client_duplicates)


def _build_result(
    experiment_id: str,
    title: str,
    outcomes: list[LegOutcome],
    scenario_name: str,
    fault_plan_name: Optional[str],
) -> ExperimentResult:
    result = ExperimentResult(experiment_id, title, "percentile", "millisecond")
    scores = [o.score for o in outcomes]
    headers, rows = scorecard(scores)
    result.table = (list(headers), [list(r) for r in rows])
    for outcome in outcomes:
        for pct, ms in percentile_curve(outcome.rtts):
            result.add_point(outcome.score.label, pct, ms)
        for line in outcome.fault_log:
            result.note(f"fault[{outcome.score.label}]: {line}")
    result.meta["scenario"] = scenario_name
    result.meta["fault_plan"] = fault_plan_name
    result.meta["scores"] = {s.label: s.to_dict() for s in scores}
    result.meta["scorecard"] = [list(r) for r in rows]
    return result


def threeway_outcomes(
    scale: Optional[Scale] = None,
    seed: int = 1,
    scenario: str = "storm_front",
    fault_plan: Optional[str] = None,
    jobs: int = 1,
    connections: int = SCENARIO_CONNECTIONS,
) -> list[LegOutcome]:
    """The three scored legs (the runner's cacheable sweep unit)."""
    from repro.harness.parallel import map_points

    scale = scale or Scale.from_env()
    return map_points(
        __name__,
        "threeway_leg",
        [
            dict(
                middleware=m,
                scenario_name=scenario,
                scale=scale,
                seed=seed,
                fault_plan_name=fault_plan,
                connections=connections,
            )
            for m in THREEWAY_LEGS
        ],
        jobs=jobs,
    )


def scenario_threeway(
    scale: Optional[Scale] = None,
    seed: int = 1,
    scenario: str = "storm_front",
    fault_plan: Optional[str] = None,
    jobs: int = 1,
    connections: int = SCENARIO_CONNECTIONS,
    outcomes: Optional[list[LegOutcome]] = None,
) -> ExperimentResult:
    """One scenario script, three middlewares, one SLA scorecard."""
    if outcomes is None:
        outcomes = threeway_outcomes(
            scale=scale,
            seed=seed,
            scenario=scenario,
            fault_plan=fault_plan,
            jobs=jobs,
            connections=connections,
        )
    result = _build_result(
        "scenario_threeway",
        f"Scenario {scenario!r} on all three middlewares",
        outcomes,
        scenario,
        fault_plan,
    )
    result.note(
        "each leg's bursts sit at identical positions relative to its own "
        "measurement window; scores compare like with like"
    )
    return result


def edge_outcomes(
    scale: Optional[Scale] = None,
    seed: int = 1,
    scenario: str = "alarm_storm",
    fault_plan: Optional[str] = None,
    jobs: int = 1,
) -> list[LegOutcome]:
    """The three scored edge legs (the runner's cacheable sweep unit)."""
    from repro.harness.edge_experiments import EDGE_MIDDLEWARES
    from repro.harness.parallel import map_points

    scale = scale or Scale.from_env()
    return map_points(
        __name__,
        "edge_leg",
        [
            dict(
                middleware=m,
                scenario_name=scenario,
                scale=scale,
                seed=seed,
                fault_plan_name=fault_plan,
            )
            for m in EDGE_MIDDLEWARES
        ],
        jobs=jobs,
    )


def scenario_edge_storm(
    scale: Optional[Scale] = None,
    seed: int = 1,
    scenario: str = "alarm_storm",
    fault_plan: Optional[str] = None,
    jobs: int = 1,
    outcomes: Optional[list[LegOutcome]] = None,
) -> ExperimentResult:
    """The scenario through the edge tier, per upstream middleware."""
    if outcomes is None:
        outcomes = edge_outcomes(
            scale=scale,
            seed=seed,
            scenario=scenario,
            fault_plan=fault_plan,
            jobs=jobs,
        )
    result = _build_result(
        "scenario_edge_storm",
        f"Scenario {scenario!r} through the edge tier",
        outcomes,
        scenario,
        fault_plan,
    )
    result.note(
        f"{EDGE_CLIENTS} long-poll clients over {EDGE_GATEWAYS} gateways "
        "per leg; duplicates counted at the stamping client"
    )
    return result

