"""Golden fingerprints of every harness leg at smoke scale.

Each case runs one public leg function (``narada_run``, ``rgma_run``,
``plog_run``, ``edge_point``, ``direct_point``, ``federation_run``,
``federation_broadcast_run``) with seed 1 and records:

* a SHA-256 over every record's ``(gen_id, seq, t_before_send,
  t_after_send, t_received)`` (legs whose result carries the record book)
  and one over the measured-window RTT array,
* the result's scalar fields, its fault log and its VmStat summaries,
* ``sim.events_scheduled`` of the run's simulator.

The fixture ``leg_golden.json`` pins those values, so a change to how a leg
is built, armed, run or collected that moves a single event shows up here.
A deliberate behaviour change re-records it::

    PYTHONPATH=src python tests/harness/test_leg_golden.py

Fields a result gains later are not compared; every recorded field must
keep its value.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.faults import FaultPlan, named_plan
from repro.harness.edge_experiments import direct_point, edge_point
from repro.harness.federation_experiments import (
    federation_broadcast_run,
    federation_run,
)
from repro.harness.narada_experiments import narada_run
from repro.harness.plog_experiments import plog_run
from repro.harness.rgma_experiments import rgma_run
from repro.harness.scale import Scale
from repro.scenario import named_scenario
from repro.sim import Simulator

FIXTURE = Path(__file__).with_name("leg_golden.json")
SMOKE = Scale.named("smoke")


def _fed_crash(measure_since: float, duration: float) -> FaultPlan:
    return FaultPlan().broker_crash(
        at=measure_since + 0.25 * duration, broker="fed1",
        restart_after=0.3 * duration,
    )


CASES: dict[str, Callable[[], Any]] = {
    "narada": lambda: narada_run(100, scale=SMOKE),
    "narada_dbn": lambda: narada_run(100, dbn=True, scale=SMOKE),
    "narada_loss_burst": lambda: narada_run(
        100, transport_kind="udp", scale=SMOKE,
        fault_plan=named_plan("loss_burst"),
    ),
    "narada_cascading_trip": lambda: narada_run(
        100, scale=SMOKE, scenario=named_scenario("cascading_trip"),
    ),
    "rgma": lambda: rgma_run(40, scale=SMOKE),
    "rgma_secondary": lambda: rgma_run(20, secondary_producer=True, scale=SMOKE),
    "rgma_loss_burst": lambda: rgma_run(
        40, scale=SMOKE, fault_plan=named_plan("loss_burst"),
    ),
    "plog": lambda: plog_run(100, scale=SMOKE),
    "plog_loss_burst": lambda: plog_run(
        100, transport_kind="udp", scale=SMOKE,
        fault_plan=named_plan("loss_burst"),
    ),
    "edge_narada": lambda: edge_point(200, 2, "narada", scale=SMOKE),
    "edge_rgma": lambda: edge_point(200, 1, "rgma", scale=SMOKE),
    "edge_plog": lambda: edge_point(200, 1, "plog", scale=SMOKE),
    "edge_loss_burst": lambda: edge_point(
        200, 2, "narada", scale=SMOKE, fault_plan=named_plan("loss_burst"),
    ),
    "direct_narada": lambda: direct_point("narada", scale=SMOKE),
    "direct_rgma": lambda: direct_point("rgma", scale=SMOKE),
    "direct_plog": lambda: direct_point("plog", scale=SMOKE),
    "federation": lambda: federation_run(3, scale=SMOKE),
    "federation_crash": lambda: federation_run(
        7, scale=SMOKE, fault_plan=_fed_crash, detect_interval=0.5,
    ),
    "federation_broadcast": lambda: federation_broadcast_run(3, scale=SMOKE),
}


def _plain(value: Any) -> Any:
    """``value`` as JSON-ready builtins (numpy scalars included)."""
    return value.item() if isinstance(value, np.generic) else value


def fingerprint(case: Callable[[], Any]) -> dict[str, Any]:
    """Run one case and reduce it to the values the fixture pins."""
    sims: list[Simulator] = []
    original = Simulator.run

    def run(sim: Simulator, until: Any = None) -> None:
        sims.append(sim)
        original(sim, until)

    Simulator.run = run  # type: ignore[method-assign]
    try:
        result = case()
    finally:
        Simulator.run = original  # type: ignore[method-assign]
    scalars = {
        name: _plain(value)
        for name, value in sorted(vars(result).items())
        if isinstance(value, (bool, int, float, str, np.generic))
    }
    out: dict[str, Any] = {
        "rtts_sha256": hashlib.sha256(
            np.asarray(result.rtts, dtype=float).tobytes()
        ).hexdigest(),
        "events_scheduled": sims[0].events_scheduled,
        "scalars": scalars,
    }
    if hasattr(result, "book"):
        digest = hashlib.sha256()
        for r in result.book.records:
            fields = (r.gen_id, r.seq, r.t_before_send, r.t_after_send, r.t_received)
            digest.update(repr(fields).encode())
        out["records_sha256"] = digest.hexdigest()
    if hasattr(result, "fault_log"):
        out["fault_log"] = list(result.fault_log)
    if hasattr(result, "vmstat"):
        out["vmstat"] = {
            node: [vm.mean_cpu_idle_percent, vm.memory_consumption_bytes, vm.samples]
            for node, vm in sorted(result.vmstat.items())
        }
    return out


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_leg_matches_golden_fingerprint(name, golden):
    want = golden[name]
    got = fingerprint(CASES[name])
    assert got["events_scheduled"] == want["events_scheduled"]
    assert got["rtts_sha256"] == want["rtts_sha256"]
    for field, value in want["scalars"].items():
        assert _same(got["scalars"].get(field), value), field
    for key in ("records_sha256", "fault_log", "vmstat"):
        if key in want:
            assert got[key] == want[key], key


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {name: fingerprint(case) for name, case in sorted(CASES.items())},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    sys.exit(0)
