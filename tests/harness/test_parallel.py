"""Parallel sweep execution and the two-tier sweep cache.

The headline guarantees:

* a sweep fanned out over worker processes is **byte-identical** to the
  serial sweep (record books pickle to the same bytes, figure tables
  match);
* every entry is keyed by one rule — the builder plus the arguments it
  is called with, ``jobs`` excepted;
* the in-memory tier is LRU-bounded;
* the disk tier is namespaced by those arguments and the code version,
  and ``clear_cache`` / ``cache=False`` really do bypass it.
"""

import dataclasses
import pickle

import pytest

from repro.harness import runner
from repro.harness.cache import DiskCache
from repro.harness.narada_experiments import run_scaling_sweep
from repro.harness.parallel import map_points, resolve_jobs
from repro.harness.scale import Scale
from repro.telemetry import Telemetry
from repro.telemetry import context as tel_context

#: Tiny scale: parallel tests run whole sweeps several times over.
TINY = Scale(
    name="tiny",
    duration=6.0,
    creation_interval_narada=0.005,
    creation_interval_rgma=0.005,
    warmup=(0.5, 1.0),
    drain=4.0,
)

SWEEP = (20, 40)


@pytest.fixture(autouse=True)
def clear_runner_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


# ------------------------------------------------------------- resolve_jobs

def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_then_default(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None, default=2) == 5
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs(None, default=2) == 2
    assert resolve_jobs(None) == 1


def test_resolve_jobs_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolve_jobs(0)


# -------------------------------------------------------------- determinism

def test_parallel_sweep_byte_identical_to_serial():
    serial = run_scaling_sweep(SWEEP, dbn=False, scale=TINY, seed=9, jobs=1)
    parallel = run_scaling_sweep(SWEEP, dbn=False, scale=TINY, seed=9, jobs=4)
    assert list(serial) == list(parallel) == list(SWEEP)
    for n in SWEEP:
        assert pickle.dumps(serial[n].book) == pickle.dumps(parallel[n].book)
        assert serial[n].mean_rtt_ms == parallel[n].mean_rtt_ms
        assert serial[n].vmstat == parallel[n].vmstat


def test_fig7_table_identical_serial_vs_parallel(monkeypatch):
    monkeypatch.setattr(
        "repro.harness.narada_experiments.SINGLE_SWEEP", SWEEP
    )
    monkeypatch.setattr(
        "repro.harness.narada_experiments.DBN_SWEEP", (30,)
    )
    serial = runner.run("fig7", scale=TINY, seed=9, jobs=1, cache=False)
    parallel = runner.run("fig7", scale=TINY, seed=9, jobs=3, cache=False)
    # The runner reads the sweep tuples when it runs, so the patch applies.
    assert [p.x for p in serial.series["RTT"]] == [20, 40]
    assert serial.series == parallel.series
    assert serial.notes == parallel.notes


def test_map_points_preserves_input_order():
    points = [
        dict(connections=n, scale=TINY, seed=9) for n in (40, 20, 30)
    ]
    results = map_points(
        "repro.harness.narada_experiments", "narada_run", points, jobs=3
    )
    assert [r.connections for r in results] == [40, 20, 30]


def test_parallel_merges_telemetry_like_serial():
    tel_parallel = Telemetry("parallel")
    with tel_context.session(tel_parallel):
        parallel = run_scaling_sweep(
            SWEEP, dbn=False, scale=TINY, seed=11, jobs=2
        )
    tel_serial = Telemetry("serial")
    with tel_context.session(tel_serial):
        serial = run_scaling_sweep(
            SWEEP, dbn=False, scale=TINY, seed=11, jobs=1
        )
    assert [s.to_dict() for s in tel_parallel.tracer.spans] == [
        s.to_dict() for s in tel_serial.tracer.spans
    ]
    # Spans re-bind to the *unpickled* books, so span-based decompositions
    # (fig15-style) keep working after fan-out.
    for n in SWEEP:
        spans = tel_parallel.spans_for_book(parallel[n].book)
        assert len(spans) == len(parallel[n].book.records)
        assert len(spans) == len(tel_serial.spans_for_book(serial[n].book))
    counters = lambda tel: {
        str(key): instrument.value
        for key, instrument in tel.metrics
        if instrument.kind == "counter"
    }
    assert counters(tel_parallel) == counters(tel_serial)
    assert len(tel_parallel.samplers) == len(tel_serial.samplers)
    assert [s.summary() for s in tel_parallel.samplers] == [
        s.summary() for s in tel_serial.samplers
    ]


# ------------------------------------------------------------- the key rule

def test_jobs_is_not_part_of_the_key():
    """``jobs=1`` and ``jobs=2`` share one entry: jobs never changes a sweep."""
    built = []

    def sweep(n, jobs=1):
        built.append(jobs)
        return n

    assert runner._cached(sweep, 5, jobs=1) == 5
    assert runner._cached(sweep, 5, jobs=2) == 5
    assert built == [1]
    assert runner._entry_key(sweep, 5, jobs=1) == runner._entry_key(sweep, 5, jobs=2)


def test_key_names_the_builder_and_its_arguments():
    def sweep(n, routing="routed", seed=1):
        return n

    def other(n, routing="routed", seed=1):
        return n

    key = runner._entry_key(sweep, 5, routing="routed", seed=1)
    assert key[:3] == (__name__, sweep.__qualname__, 5)
    assert key == runner._entry_key(sweep, 5, seed=1, routing="routed")
    assert key != runner._entry_key(sweep, 5, routing="broadcast", seed=1)
    assert key != runner._entry_key(sweep, 6, routing="routed", seed=1)
    assert key != runner._entry_key(other, 5, routing="routed", seed=1)


def test_key_rule_rejects_arguments_without_a_stable_repr():
    """A repr with a memory address would make the disk tier never hit."""

    @dataclasses.dataclass
    class Mutable:
        x: int = 0

    def sweep(arg):
        return arg

    for bad in ([20, 40], {"n": 1}, object(), Mutable(), (1, object())):
        with pytest.raises(TypeError, match="cannot key"):
            runner._cached(sweep, bad)
    assert runner._cached(sweep, ((1, 2), None, True, 0.5, "s", TINY)) is not None


# ------------------------------------------------------------ memory tier

def test_memory_tier_is_lru_bounded(monkeypatch):
    monkeypatch.setattr(runner, "SWEEP_CACHE_MAX", 2)
    # An active session makes _cached skip the disk tier, isolating the LRU.
    with tel_context.session(Telemetry("lru")):
        calls = []

        def build(tag):
            calls.append(tag)
            return tag

        # a, b, a (hit; refreshes a), c (evicts b), a (still cached), b (rebuilt)
        for tag in ("a", "b", "a", "c", "a", "b"):
            assert runner._cached(build, tag) == tag
        assert calls == ["a", "b", "c", "b"]


def test_cache_disabled_calls_builder_every_time(monkeypatch):
    monkeypatch.setattr(runner, "_cache_enabled", False)
    calls = []
    for _ in range(2):
        runner._cached(lambda: calls.append(1))
    assert len(calls) == 2


# -------------------------------------------------------------- disk tier

def test_disk_tier_survives_memory_clear():
    built = []

    def build(value):
        built.append(value)
        return {"value": value}

    assert runner._cached(build, 42) == {"value": 42}
    runner._sweep_cache.clear()  # drop the memory tier only
    assert runner._cached(build, 42) == {"value": 42}
    assert built == [42]  # second lookup came from disk


def test_fault_plan_namespaces_disk_entries():
    """A fault-plan sweep must never satisfy a fault-free lookup."""
    built = []

    def leg(seed, fault_plan=None):
        built.append(fault_plan)
        return fault_plan or "clean"

    assert runner._cached(leg, 5, fault_plan="loss_burst") == "loss_burst"
    runner._sweep_cache.clear()  # force both lookups to the disk tier
    assert runner._cached(leg, 5) == "clean"
    # ... while the same plan does hit its own entry.
    runner._sweep_cache.clear()
    assert runner._cached(leg, 5, fault_plan="loss_burst") == "loss_burst"
    assert built == ["loss_burst", None]


def test_telemetry_session_bypasses_disk_tier():
    """Disk entries carry no live spans, so --trace runs must not use them."""
    built = []

    def leg(seed):
        built.append(seed)
        return len(built)

    assert runner._cached(leg, 3) == 1  # seeds the disk
    runner._sweep_cache.clear()
    with tel_context.session(Telemetry("probe")):
        assert runner._cached(leg, 3) == 2  # built live
    # Sessionless lookups still see the sessionless entry.
    runner._sweep_cache.clear()
    assert runner._cached(leg, 3) == 1


def test_clear_cache_empties_both_tiers():
    def leg(seed):
        return "warm"

    runner._cached(leg, 7)
    assert DiskCache().get(runner._entry_key(leg, 7)) == "warm"
    runner.clear_cache()
    assert runner._sweep_cache == {}
    assert DiskCache().get(runner._entry_key(leg, 7)) is None


def test_corrupt_disk_entry_is_a_miss():
    cache = DiskCache()
    key = ("corrupt", 1)
    cache.put(key, "good")
    cache.path_for(key).write_bytes(b"\x80garbage")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()  # dropped, not retried forever


def test_scale_cache_key_distinguishes_same_name():
    """Scales enter the key as themselves, so every field namespaces both
    tiers: a hand-built scale reusing a preset name, or one differing only
    in ``drain``, never shares an entry."""
    built = []

    def sweep(scale, seed=1):
        built.append(scale)
        return scale.drain

    bench = Scale.bench()
    fast = Scale("bench", 1.0, 0.01, 0.01, (0.1, 0.2), 1.0)
    drained = dataclasses.replace(bench, drain=bench.drain + 1.0)
    key = runner._entry_key(sweep, bench)
    assert key == runner._entry_key(sweep, Scale.bench())
    for other in (fast, drained):
        assert runner._entry_key(sweep, other) != key
        assert DiskCache().path_for(runner._entry_key(sweep, other)) != DiskCache().path_for(key)
    # Memory tier: three entries, three builds.
    assert [runner._cached(sweep, s) for s in (bench, drained, fast)] == [20.0, 21.0, 1.0]
    # Disk tier: each scale finds its own entry.
    runner._sweep_cache.clear()
    assert [runner._cached(sweep, s) for s in (bench, drained, fast)] == [20.0, 21.0, 1.0]
    assert built == [bench, drained, fast]
