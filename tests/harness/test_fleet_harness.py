"""Fleet harness acceptance: sweep-cache folding, sweep legs and the
fleet_scaling result shape (incl. the agreement + zoom gates)."""

import pytest

from repro.harness import runner
from repro.harness.cache import DiskCache
from repro.harness.fleet_experiments import (
    AGREEMENT_RTOL,
    COHORT_SIZE,
    fleet_scaling,
    run_fleet_sweep,
    sweep_points,
    zoom_check,
)
from repro.harness.scale import Scale
from repro.powergrid.fleet_engine import FLEET_MIDDLEWARES, verify_agreement

SMOKE = Scale.smoke()
POINTS = (200, 400)


def _sweep_key(middleware="narada", mode="aggregate", points=POINTS,
               scale=SMOKE, seed=1, **kwargs):
    return runner._entry_key(run_fleet_sweep, points, middleware, mode, scale, seed, **kwargs)


# ------------------------------------------------------------ cache keying

def test_disk_cache_separates_aggregate_from_process():
    """The satellite's regression: an aggregate-mode entry must never
    satisfy a per-process lookup (or vice versa)."""
    cache = DiskCache()
    assert cache.path_for(_sweep_key(mode="aggregate")) != cache.path_for(
        _sweep_key(mode="process")
    )


def test_disk_cache_separates_cohort_and_model_parameters():
    cache = DiskCache()
    base = cache.path_for(_sweep_key())
    assert cache.path_for(_sweep_key(cohort_size=COHORT_SIZE)) != cache.path_for(
        _sweep_key(cohort_size=1024)
    )
    assert base != cache.path_for(_sweep_key(middleware="plog"))
    assert base != cache.path_for(_sweep_key(points=(200,)))
    assert base != cache.path_for(_sweep_key(seed=2))


def test_runner_fleet_key_folds_points_middleware_and_mode(monkeypatch):
    """The runner's fleet legs are keyed by points, middleware and mode; the
    default cohort width and the service models are module constants,
    covered by the disk tier's code salt."""
    monkeypatch.setattr(runner, "_cached", runner._entry_key)  # leg -> its key
    key = runner._fleet_sweep(SMOKE, 1, "narada", "aggregate")
    assert key == _sweep_key(points=sweep_points(SMOKE, "aggregate"))
    assert key != runner._fleet_sweep(SMOKE, 1, "narada", "process")
    assert key != runner._fleet_sweep(SMOKE, 1, "plog", "aggregate")


# ------------------------------------------------------------- sweep legs

def test_run_fleet_sweep_returns_point_keyed_outcomes():
    sweep = run_fleet_sweep(POINTS, "narada", "aggregate", scale=SMOKE)
    assert set(sweep) == set(POINTS)
    for n, outcome in sweep.items():
        assert outcome.n_publishers == n
        assert outcome.published > 0


def test_zoom_check_verifies_and_returns_both():
    plain, zoomed = zoom_check("narada", 300, SMOKE, zoom=(64, 128))
    assert plain.mode == "aggregate"
    assert zoomed.mode == "aggregate+zoom"
    verify_agreement(plain, zoomed, rtol=AGREEMENT_RTOL)


# ----------------------------------------------------------- result shape

def test_fleet_scaling_result_shape_and_gates():
    aggregate = {
        mw: run_fleet_sweep(POINTS, mw, "aggregate", scale=SMOKE)
        for mw in FLEET_MIDDLEWARES
    }
    process = {
        mw: run_fleet_sweep(POINTS[:1], mw, "process", scale=SMOKE)
        for mw in FLEET_MIDDLEWARES
    }
    result = fleet_scaling(aggregate, process, scale=SMOKE, zoom=(16, 48))
    assert result.experiment_id == "fleet_scaling"
    headers, rows = result.table
    # 2 aggregate + 1 process rows per middleware
    assert len(rows) == 3 * len(FLEET_MIDDLEWARES)
    for mw in FLEET_MIDDLEWARES:
        assert f"{mw} aggregate" in result.series
        assert f"{mw} process" in result.series
        assert result.meta["agreement"][mw][POINTS[0]] is True
        assert result.meta["zoom_ok"][mw] is True
    assert set(result.meta["speedup_per_publisher"]) == set(FLEET_MIDDLEWARES)


def test_fleet_scaling_raises_on_disagreement():
    sweep = run_fleet_sweep(POINTS[:1], "narada", "aggregate", scale=SMOKE)
    n = POINTS[0]
    import dataclasses
    tampered = {n: dataclasses.replace(sweep[n], lost=sweep[n].lost + 1)}
    with pytest.raises(AssertionError, match="disagree"):
        fleet_scaling(
            {"narada": sweep}, {"narada": tampered}, scale=SMOKE, zoom=None
        )


# ----------------------------------------------------------- registration

def test_runner_registers_fleet_scaling():
    assert "fleet_scaling" in runner.EXPERIMENTS
    assert runner.EXPERIMENTS["fleet_scaling"].description


def test_sweep_points_per_mode():
    agg = sweep_points(SMOKE, "aggregate")
    proc = sweep_points(SMOKE, "process")
    assert max(agg) == 1_000_000
    assert set(proc) <= set(agg)  # every reference point has an aggregate twin
