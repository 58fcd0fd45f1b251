"""Tests of the repo benchmark itself: smoke-scale legs, one bench run (~1 min).

    PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ledger  # noqa: E402
import run as driver  # noqa: E402
from workloads import MEASURED_LAYERS, WORKLOADS, check_outputs  # noqa: E402


@functools.cache
def _leg(workload: str, mode: str) -> dict:
    """One smoke-scale leg in its own interpreter, as the benchmark runs it.

    In-process legs would inherit garbage from earlier tests' legs: closing
    a previous leg's abandoned generators runs their ``finally`` blocks,
    which the profiler would charge to that leg's layers.
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH / "leg.py"), "--workload", workload,
         "--seed", "1", "--mode", mode, "--scale", "smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in _benchmark_spec()[kind]}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_layer_map_covers_every_package():
    packages = {
        p.parent.name for p in (ROOT / "src" / "repro").glob("*/__init__.py")
    }
    assert set(ledger.LAYERS) == packages


def test_workloads_declare_real_layers():
    for w in WORKLOADS.values():
        assert set(w.stresses) <= set(ledger.LAYERS)
        assert set(w.bypasses) <= set(ledger.LAYERS)
        assert not set(w.stresses) & set(w.bypasses)
    assert [w["name"] for w in _benchmark_spec()["workloads"]] == list(WORKLOADS)


def test_attribute_charges_external_time_to_the_calling_layer():
    sim_fn = (str(ledger.SRC_REPRO / "sim" / "kernel.py"), 10, "run")
    rgma_fn = (str(ledger.SRC_REPRO / "rgma" / "sql.py"), 20, "_lex_sql")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/re/__init__.py", 5, "match")
    stats = {
        sim_fn: (1, 1, 2.0, 5.0, {}),
        rgma_fn: (1, 1, 1.0, 2.0, {}),
        heappush: (10, 10, 1.5, 1.5, {sim_fn: (10, 10, 1.5, 1.5)}),
        # An external Python helper called from two layers, split by the
        # self time recorded on each caller edge...
        helper: (4, 4, 0.8, 0.8, {sim_fn: (1, 1, 0.2, 0.2), rgma_fn: (3, 3, 0.6, 0.6)}),
        # ...and a builtin it calls, charged through it to the same layers.
        ("~", 0, "<method 'match' of 're.Pattern' objects>"): (
            4, 4, 0.4, 0.4, {helper: (4, 4, 0.4, 0.4)},
        ),
    }
    seconds = ledger.attribute(stats)
    assert seconds["sim"] == pytest.approx(2.0 + 1.5 + 0.2 + 0.1)
    assert seconds["rgma"] == pytest.approx(1.0 + 0.6 + 0.3)
    assert sum(seconds.values()) == pytest.approx(sum(s[2] for s in stats.values()))


def test_conservation_check_catches_a_miscount():
    out = {
        "sent": 10, "received": 10, "lost": 0, "duplicates": 0,
        "sink_delivered": 12, "book_delivered": 12,
    }
    assert check_outputs(out) == []
    problems = check_outputs({**out, "sink_delivered": 11})
    assert len(problems) == 1 and problems[0].startswith("conservation")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_leg_conserves_messages(workload):
    report = _leg(workload, "time")
    assert check_outputs(report["outputs"]) == []
    assert report["outputs"]["events_scheduled"] > report["outputs"]["sent"]
    assert report["outputs"]["sink_delivered"] >= report["outputs"]["received"] > 0
    assert report["leg_s"] > 0 and report["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_leg_ledger(workload):
    report = _leg(workload, "trace")
    layer_s = report["layer_s"]
    assert set(layer_s) == set(ledger.LAYERS)
    assert sum(layer_s.values()) == pytest.approx(report["profile_total_s"])
    assert min(layer_s.values()) >= 0.0
    # The traced leg simulates exactly what an untraced one does.
    assert report["outputs"] == _leg(workload, "time")["outputs"]
    assert (layer_s["rgma"] > 0) == (workload == "rgma_poll")
    assert (layer_s["plog"] > 0) == (workload == "plog_gauntlet")
    assert (layer_s["faults"] > 0) == (workload == "plog_gauntlet")
    assert report["entry_counts"]["execute"] > 0
    assert (report["entry_counts"]["sql_parse"] > 0) == (workload == "rgma_poll")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_metrics_match_the_declared_names_and_units(workload):
    timed = {**_leg(workload, "time"), "setup_s": 0.5}
    traced = _leg(workload, "trace")
    printed = {
        "end_to_end": driver.end_to_end([timed], []),
        "per_layer": driver.per_layer(traced, [timed]),
    }
    for kind, metrics in printed.items():
        assert {name: m["unit"] for name, m in metrics.items()} == _declared(kind)
    assert {
        name.split(".")[0] for name in _declared("per_layer") if name.endswith(".self_share")
    } == set(MEASURED_LAYERS)


def test_run_prints_a_correct_result():
    proc = _run(ROOT, "--workload", "rgma_poll", "--seed", "7", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("end_to_end")


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "narada_fanin", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
