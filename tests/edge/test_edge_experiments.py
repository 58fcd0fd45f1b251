"""Experiment-level tests: pooling, determinism, cache keys, chaos."""

import pytest

from repro.edge import EdgeConfig
from repro.harness import edge_experiments, runner
from repro.harness.cache import DiskCache
from repro.harness.scale import Scale


def smoke():
    return Scale.smoke()


def test_edge_point_happy_path_pools_connections():
    run = edge_experiments.edge_point(2000, 2, "narada", scale=smoke(), seed=3)
    assert run.loss_rate == 0.0
    assert run.client_duplicates == 0
    # The headline: population-independent upstream fan-in.
    assert run.pooled_connections <= 2 * len(("gridmon",)) + 2
    assert run.pooled_connections < run.n_clients / 100
    assert run.baseline_connections == 2000
    assert run.long_polls_parked > 0


def test_edge_point_is_deterministic():
    a = edge_experiments.edge_point(1000, 2, "narada", scale=smoke(), seed=5)
    b = edge_experiments.edge_point(1000, 2, "narada", scale=smoke(), seed=5)
    assert a.rtts.tolist() == b.rtts.tolist()
    assert a.sent == b.sent and a.received == b.received
    assert a.pooled_connections == b.pooled_connections


def test_run_edge_sweep_parallel_matches_serial():
    points = ((500, 1), (500, 2))
    serial = edge_experiments.run_edge_sweep(
        points, "narada", scale=smoke(), seed=9, jobs=1
    )
    fanned = edge_experiments.run_edge_sweep(
        points, "narada", scale=smoke(), seed=9, jobs=2
    )
    for point in points:
        assert serial[point].rtts.tolist() == fanned[point].rtts.tolist()
        assert serial[point].sent == fanned[point].sent
        assert serial[point].gateway_stats == fanned[point].gateway_stats


def test_sweep_cache_key_folds_gateway_topology():
    def key(points, middleware, **kwargs):
        return runner._entry_key(
            edge_experiments.run_edge_sweep, points, middleware, smoke(), 1, **kwargs
        )

    def path(k):
        return DiskCache().path_for(k)

    points = ((1000, 1), (1000, 4))
    base = key(points, "narada")
    # Different gateway count at the same client count -> different key.
    assert path(base) != path(key(((1000, 2), (1000, 4)), "narada"))
    # Different middleware -> different key.
    assert path(base) != path(key(points, "plog"))
    # Re-tuned gateway config (a frozen dataclass argument) -> different key.
    tuned = EdgeConfig(replay_capacity=8192)
    assert path(base) != path(key(points, "narada", config=tuned))
    # Same inputs -> identical (hashable) key.
    assert base == key(points, "narada")
    assert hash(base) == hash(key(points, "narada"))


def test_edge_scaling_reports_pooling_meta():
    sweep = edge_experiments.run_edge_sweep(
        ((500, 1), (2000, 1)), "narada", scale=smoke(), seed=2
    )
    direct = edge_experiments.direct_point("narada", scale=smoke(), seed=2)
    result = edge_experiments.edge_scaling(sweep, direct, "narada")
    assert result.meta["max_clients"] == 2000
    assert result.meta["max_pooled"] <= 4
    assert result.meta["pooled_connections"]["500x1"] == result.meta[
        "pooled_connections"
    ]["2000x1"]
    assert all(loss == 0.0 for loss in result.meta["loss"].values())


def test_gateway_crash_is_exactly_once():
    result = edge_experiments.run_gateway_crash(
        scale=smoke(), seed=4, fault_plan="gateway_outage"
    )
    assert set(result.meta["loss"]) == set(edge_experiments.EDGE_MIDDLEWARES)
    assert all(loss == 0.0 for loss in result.meta["loss"].values())
    assert all(d == 0 for d in result.meta["duplicates"].values())
    # The stamping client actually failed over during the outage.
    assert all(f >= 1 for f in result.meta["failovers"].values())


@pytest.mark.slow
def test_million_clients_sixteen_gateways():
    """The full-scale headline point: 1M clients, upstream fan-in stays
    O(gateways x topics).  Minutes of wall clock — deselected by default."""
    run = edge_experiments.edge_point(
        1_000_000, 16, "narada", scale=smoke(), seed=1
    )
    assert run.loss_rate == 0.0
    assert run.pooled_connections <= 16 * 2
    assert run.baseline_connections == 1_000_000
