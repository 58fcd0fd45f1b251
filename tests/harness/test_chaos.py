"""Chaos experiment family: registration, plan plumbing, and (slow) the
acceptance properties — loss under faults, recovery, and bit-identical
same-seed reruns."""

import inspect

import pytest

from repro.faults import PLANS, named_plan
from repro.harness import runner
from repro.harness.scale import Scale

CHAOS_IDS = {
    "chaos_threeway",
    "chaos_durability",
    "chaos_broker_failover",
    "chaos_replication",
    "chaos_adaptive_backoff",
    "edge_gateway_crash",
}


def test_chaos_experiments_are_registered():
    """Each takes ``--fault-plan`` only, and its own ``fault_plan`` default
    (what run() falls back to) is a library plan."""
    chaos = {i for i, e in runner.EXPERIMENTS.items() if e.options == ("fault_plan",)}
    assert chaos == CHAOS_IDS
    for experiment_id in chaos:
        assert experiment_id in runner.list_experiments()
        fn = runner.EXPERIMENTS[experiment_id].fn
        assert inspect.signature(fn).parameters["fault_plan"].default in PLANS


def test_fault_plan_is_rejected_for_non_chaos_experiments():
    with pytest.raises(ValueError, match="only applies to chaos"):
        runner.run("table1", scale="smoke", fault_plan="loss_burst")


def test_chaos_experiment_rejects_unknown_plan_before_running():
    with pytest.raises(ValueError, match="unknown fault plan"):
        runner.run("chaos_threeway", scale="smoke", fault_plan="bogus")


def test_cli_exposes_fault_plan_choices():
    with pytest.raises(SystemExit):
        runner.main(["chaos_threeway", "--fault-plan", "bogus"])
    assert runner.main(["--list"]) == 0


@pytest.mark.slow
def test_same_seed_chaos_runs_are_bit_identical():
    """Acceptance: identical fault schedule + seed => identical results."""
    import numpy as np

    from repro.faults import RetryPolicy
    from repro.harness.plog_experiments import plog_run
    from repro.plog import PlogConfig

    config = PlogConfig().with_(
        producer_retry=RetryPolicy(retries=4, backoff=0.1),
        consumer_recovery=True,
    )
    scale = Scale.named("smoke")

    def one_run():
        return plog_run(
            100,
            transport_kind="udp",
            scale=scale,
            seed=9,
            config=config,
            fault_plan=named_plan("loss_burst"),
        )

    a, b = one_run(), one_run()
    assert a.sent == b.sent
    assert a.received == b.received
    assert a.loss_rate == b.loss_rate
    assert a.producer_retries == b.producer_retries
    assert np.array_equal(a.rtts, b.rtts)
    assert a.fault_log == b.fault_log


@pytest.mark.slow
def test_chaos_threeway_smoke_acceptance():
    """Acceptance: loss burst is visible without retry, healed with it."""
    result = runner.run("chaos_threeway", scale="smoke")
    header, rows = result.table
    assert len(rows) == 4
    runs = result.meta["runs"]
    assert runs["Plog (UDP, no retry)"].loss_rate > 0.0
    assert runs["Plog (UDP, retry)"].loss_rate < 0.005
    assert runs["R-GMA (TCP)"].loss_rate == 0.0
    assert any(line.startswith("fault:") for line in result.notes)


@pytest.mark.slow
def test_chaos_broker_failover_ordering():
    """Recovery machinery strictly improves loss: one-shot > retry > failover."""
    result = runner.run("chaos_broker_failover", scale="smoke")
    header, rows = result.table
    losses = [float(row[3].rstrip("%")) / 100.0 for row in rows]
    assert losses[0] > losses[1] > losses[2] or (
        losses[0] > losses[1] and losses[2] == 0.0
    )
    assert losses[2] < 0.005


def test_all_plans_resolve():
    for name in PLANS:
        template = named_plan(name)
        plan = template(100.0, 30.0)
        assert len(plan) >= 1
