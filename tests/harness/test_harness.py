"""Tests for the experiment harness at reduced (test-sized) loads.

The full sweeps run in benchmarks/; here we check the machinery: runs
complete, records are produced, figures assemble, shapes hold at small N.
"""

import pytest

from repro.harness.narada_experiments import narada_run
from repro.harness.rgma_experiments import rgma_run
from repro.harness.scale import Scale
from repro.harness import runner

SMOKE = Scale.smoke()


@pytest.fixture(autouse=True)
def clear_runner_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


# ------------------------------------------------------------------- narada
def test_narada_run_produces_steady_state_records():
    run = narada_run(100, scale=SMOKE, seed=3)
    assert not run.oom
    assert run.sent > 0
    assert run.received == run.sent
    assert 0.5 < run.mean_rtt_ms < 50


def test_narada_run_udp_slower_than_tcp():
    tcp = narada_run(100, transport_kind="tcp", scale=SMOKE, seed=3)
    udp = narada_run(100, transport_kind="udp", scale=SMOKE, seed=3)
    assert udp.mean_rtt_ms > tcp.mean_rtt_ms


def test_narada_run_dbn_crosses_network():
    run = narada_run(80, dbn=True, scale=SMOKE, seed=3)
    assert run.received == run.sent
    total_forwards = sum(
        s["forwarded"] for s in run.broker_stats.values()
    )
    assert total_forwards > 0  # events crossed the BNM


def test_narada_oom_wall_reproduced_when_budget_small():
    from repro.narada import NaradaConfig

    config = NaradaConfig(native_budget_bytes=50 * 256 * 1024)  # 50 threads
    run = narada_run(100, scale=SMOKE, seed=3, config=config)
    assert run.oom
    assert run.refused > 0


def test_scale_presets():
    assert Scale.named("full").duration == 1800.0
    assert Scale.named("bench").duration < 200
    with pytest.raises(ValueError):
        Scale.named("nope")


# -------------------------------------------------------------------- rgma
def test_rgma_run_produces_records():
    run = rgma_run(20, scale=SMOKE, seed=3)
    assert not run.oom
    assert run.sent > 0
    assert run.loss_rate < 0.05
    assert 100 < run.mean_rtt_ms < 4000


def test_rgma_distributed_faster_than_single_at_same_load():
    single = rgma_run(60, scale=SMOKE, seed=3)
    dist = rgma_run(60, distributed=True, scale=SMOKE, seed=3)
    assert dist.mean_rtt_ms < single.mean_rtt_ms


def test_rgma_secondary_producer_adds_delay():
    run = rgma_run(10, secondary_producer=True, scale=SMOKE, seed=3)
    assert run.received > 0
    assert run.mean_rtt_ms > 29_000  # the 30 s republish delay


def test_rgma_skip_warmup_loses_first_tuples():
    # Warm-up must exceed the mediation period for the clean case — exactly
    # the paper's point: "each thread must wait for a short time (5 ~ 10
    # seconds) before publishing data otherwise data will probably be lost".
    scale = Scale(
        name="test", duration=30.0, creation_interval_narada=0.01,
        creation_interval_rgma=0.01, warmup=(5.0, 7.0), drain=10.0,
    )
    lossy = rgma_run(60, skip_warmup=True, scale=scale, seed=3)
    clean = rgma_run(60, skip_warmup=False, scale=scale, seed=3)
    from repro.core import rtt_stats

    lossy_total = rtt_stats(lossy.book, since=0.0)
    clean_total = rtt_stats(clean.book, since=0.0)
    assert lossy_total.loss_rate > 0
    assert clean_total.loss_rate == 0


# ------------------------------------------------------------------ runner
def test_runner_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        runner.run("fig99")


def test_runner_table1():
    result = runner.run("table1", scale="smoke")
    assert result.table is not None
    text = result.render()
    assert "Pentium III" in text
    assert "NaradaBrokering" in text


def test_runner_fig15_decomposition_shape():
    result = runner.run("fig15", scale="smoke")
    assert result.table is not None
    rows = {row[0]: row[1:] for row in result.table[1]}
    rgma_prt, rgma_pt, rgma_srt, rgma_rtt = rows["RGMA"]
    narada_rtt = rows["Narada"][3]
    # Paper Fig 15: R-GMA's PT dominates; Narada's phases are all short.
    assert rgma_pt > rgma_prt and rgma_pt > rgma_srt
    assert rgma_rtt > 50 * narada_rtt


def test_runner_cache_reuses_sweeps(monkeypatch):
    calls = {"n": 0}
    from repro.harness import narada_experiments as ne

    original = ne.run_comparison_tests

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(ne, "run_comparison_tests", counting)
    monkeypatch.setattr(
        ne, "COMPARISON_TESTS", {"TCP": dict(transport_kind="tcp")}
    )
    monkeypatch.setattr(ne, "COMPARISON_CONNECTIONS", 40)
    runner.run("table2_fig3", scale="smoke", seed=5)
    runner.run("fig4", scale="smoke", seed=5)
    assert calls["n"] == 1  # second figure reused the cached sweep


def test_runner_main_cli(capsys, monkeypatch):
    from repro.harness import narada_experiments as ne

    rc = runner.main(["table1", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "table1" in out


def test_experiment_ids_cover_design_inventory():
    """Every experiment in DESIGN.md §4 has a registered id."""
    for required in (
        "table1", "table2_fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "losses",
        "table3", "table3_extended", "plog_scaling", "plog_percentiles",
        "fig15_threeway",
    ):
        assert required in runner.EXPERIMENT_IDS


def test_runner_list_flag(capsys):
    rc = runner.main(["--list"])
    out = capsys.readouterr().out
    assert rc == 0
    for experiment_id in runner.EXPERIMENT_IDS:
        assert experiment_id in out
    assert "Partitioned log" in out  # descriptions, not just ids


def test_runner_every_id_has_a_description():
    assert all(e.description for e in runner.EXPERIMENTS.values())


def test_runner_rejects_a_scale_that_is_not_a_preset():
    """The package quickstart once passed ``scale=0.25``: the error must
    name the presets instead of failing deep inside a sweep."""
    for bad in (0.25, "huge"):
        with pytest.raises(ValueError, match="bench, smoke, full"):
            runner.run("fig7", scale=bad, cache=False)


def test_runner_no_args_errors(capsys):
    with pytest.raises(SystemExit):
        runner.main([])


def test_runner_fig15_threeway_shape():
    result = runner.run("fig15_threeway", scale="smoke")
    rows = {row[0]: row[1:] for row in result.table[1]}
    assert set(rows) == {"RGMA", "Narada", "Plog"}
    plog_prt, plog_pt, plog_srt, plog_rtt = rows["Plog"]
    rgma_rtt = rows["RGMA"][3]
    # The plog's RTT is linger-dominated: tens of ms — an order of magnitude
    # above Narada but two below R-GMA's mediated SQL pipeline.
    assert rows["Narada"][3] < plog_rtt < rgma_rtt
    assert plog_prt > plog_srt  # the produce ack includes the linger
