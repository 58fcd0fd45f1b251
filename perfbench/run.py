"""Repo benchmark: host µs per delivered message, with a per-layer ledger.

    python3 perfbench/run.py --workload narada_fanin --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each leg runs in a fresh
interpreter (``perfbench/leg.py``), one at a time, so every leg pays the
same imports and its peak RSS is its own.  For ``--seconds`` the run
repeats timed legs, topped up with set-up probes, and reports medians:

* ``--trace 0`` prints the end-to-end metrics (``host_us_per_msg``,
  ``setup_s``, ``peak_rss_mb``, ``exactly_once_pct``);
* ``--trace 1`` first runs one leg under cProfile and prints the per-layer
  ledger (``<layer>.<metric>``), using untraced legs for the trace overhead.

Every leg's simulated outputs must be identical to every other leg's of the
run (same seed), equal to the outputs recorded in ``expected.json`` where
that seed was recorded, and must conserve messages with no loss and no
duplicates.  The last stdout line is one JSON object: ``correct``,
``attempted`` (messages sent), ``failed`` (lost or duplicated) and
``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import MEASURED_LAYERS, WORKLOADS, check_outputs  # noqa: E402

#: Hard ceiling on one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
EXPECTED = HERE / "expected.json"
#: Set-up samples a run aims for: every timed leg gives one, and set-up
#: probes (which stop at main-run entry) top up runs with few, long legs.
SETUP_SAMPLES = 9


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class LegError(RuntimeError):
    """A leg process failed or overran the run's time limit."""


class Runner:
    """Spawns leg processes serially, within the run's hard time limit."""

    def __init__(self, workload: str, seed: int):
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.started = _clock()

    def leg(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "leg.py"), *self.args, "--mode", mode]
        budget = RUN_LIMIT_S - (_clock() - self.started)
        if budget <= 0:
            raise LegError("run time limit reached")
        spawned = _clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise LegError(f"{mode} leg overran the run time limit") from None
        if proc.returncode != 0:
            raise LegError(f"{mode} leg exited with code {proc.returncode}")
        report = json.loads(stdout.strip().splitlines()[-1])
        report["setup_s"] = report["run_entered_at"] - spawned
        report["wall_s"] = _clock() - spawned
        return report


def compile_sources() -> bool:
    """Byte-compile up front, so no leg pays (or skips) compilation."""
    return all(
        compileall.compile_dir(str(d), quiet=1) for d in (ROOT / "src", HERE)
    )


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list, list, dict | None]:
    """Timed legs, set-up probes and (with ``trace``) one traced leg."""
    traced = runner.leg("trace") if trace else None
    deadline = runner.started + seconds
    legs: list[dict] = []
    probes: list[dict] = []
    while True:
        legs.append(runner.leg("time"))
        if not trace and len(legs) + len(probes) < SETUP_SAMPLES:
            probes.append(runner.leg("setup"))
        step = statistics.median(r["wall_s"] for r in legs)
        if probes:
            step += statistics.median(r["wall_s"] for r in probes)
        if _clock() + step > deadline:
            return legs, probes, traced


def check(workload: str, seed: int, reports: list[dict]) -> list[str]:
    """Problems with the legs' outputs; empty when every check passes."""
    problems = []
    first = reports[0]["outputs"]
    problems += check_outputs(first)
    for r in reports[1:]:
        if r["outputs"] != first:
            problems.append(f"{r['mode']} leg outputs differ from the first leg's")
    recorded = json.loads(EXPECTED.read_text()).get(workload, {})
    if str(seed) in recorded and recorded[str(seed)] != first:
        problems.append(f"outputs differ from those recorded for seed {seed}")
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(legs: list[dict], probes: list[dict]) -> dict:
    med = statistics.median
    sent = sum(r["outputs"]["sent"] for r in legs)
    failed = sum(r["outputs"]["lost"] + r["outputs"]["duplicates"] for r in legs)
    return {
        "host_us_per_msg": _metric(
            med(r["leg_s"] * 1e6 / r["outputs"]["received"] for r in legs), "us/msg"
        ),
        "setup_s": _metric(med(r["setup_s"] for r in legs + probes), "s"),
        "peak_rss_mb": _metric(med(r["peak_rss_mb"] for r in legs), "MB"),
        "exactly_once_pct": _metric(100.0 * (sent - failed) / sent, "%"),
    }


def per_layer(traced: dict, legs: list[dict]) -> dict:
    msgs = traced["outputs"]["received"]
    total = traced["profile_total_s"]
    calls = traced["entry_counts"]
    counters = traced["counters"]
    metrics = {
        f"{layer}.self_share": _metric(traced["layer_s"][layer] / total, "fraction")
        for layer in MEASURED_LAYERS
    }
    fetches = counters["fetches"]
    metrics.update({
        "sim.events_per_msg": _metric(traced["outputs"]["events_scheduled"] / msgs, "events/msg"),
        "cluster.execute_per_msg": _metric(calls["execute"] / msgs, "calls/msg"),
        "cluster.transmit_per_msg": _metric(calls["transmit"] / msgs, "calls/msg"),
        "jms.wire_size_per_msg": _metric(calls["wire_size"] / msgs, "calls/msg"),
        "jms.selector_evals_per_msg": _metric(calls["selector_evals"] / msgs, "calls/msg"),
        "rgma.sql_parse_per_msg": _metric(calls["sql_parse"] / msgs, "calls/msg"),
        "plog.fetches_per_msg": _metric(fetches / msgs, "fetches/msg"),
        "plog.records_per_fetch": _metric(
            counters["records_fetched"] / fetches if fetches else 0.0, "records/fetch"
        ),
        "plog.duplicate_batches": _metric(counters["duplicate_batches"], "count"),
        "core.redeliveries": _metric(counters["redeliveries"], "count"),
        "trace.overhead_ratio": _metric(
            traced["leg_s"] / statistics.median(r["leg_s"] for r in legs), "ratio"
        ),
    })
    return metrics


def commit() -> str | None:
    """The checkout's git commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git on the host
        return None
    return proc.stdout.strip() or None


def host() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "harness" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compile_sources():
        print("perfbench: byte-compiling the sources failed", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        legs, probes, traced = measure(runner, args.seconds, bool(args.trace))
    except LegError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    timed = legs + ([traced] if traced else [])
    problems = check(args.workload, args.seed, timed)
    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    metrics = per_layer(traced, legs) if traced else end_to_end(legs, probes)

    print(json.dumps({
        "host": host(),
        "leg_s": [r["leg_s"] for r in legs],
        "traced_leg_s": traced["leg_s"] if traced else None,
        "setup_s": [r["setup_s"] for r in legs + probes],
    }))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["outputs"]["sent"] for r in timed),
        "failed": sum(r["outputs"]["lost"] + r["outputs"]["duplicates"] for r in timed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
