"""Scenario experiment family: registration, CLI plumbing, and (slow) the
acceptance properties — byte-identical same-seed scorecards and the plog
acks=all zero-duplicate guarantee."""

import pytest

from repro.harness import runner, scenario_experiments
from repro.harness.edge_experiments import EDGE_MIDDLEWARES
from repro.harness.scale import Scale
from repro.scenario import SCENARIOS


def test_scenario_experiments_are_registered():
    for experiment_id in runner.SCENARIO_EXPERIMENTS:
        assert experiment_id in runner.EXPERIMENTS
        assert experiment_id in runner.DESCRIPTIONS
        assert experiment_id in runner.list_experiments()


def test_scenario_flag_is_rejected_for_other_experiments():
    with pytest.raises(ValueError, match="--scenario only applies"):
        runner.run("table1", scale="smoke", scenario="storm_front")
    with pytest.raises(ValueError, match="--scenario only applies"):
        runner.run("chaos_threeway", scale="smoke", scenario="storm_front")


def test_scenario_experiment_rejects_unknown_scenario_before_running():
    with pytest.raises(ValueError, match="unknown scenario"):
        runner.run("scenario_threeway", scale="smoke", scenario="heat_dome")


def test_fault_plan_is_accepted_by_scenario_experiments_only_if_known():
    with pytest.raises(ValueError, match="unknown fault plan"):
        runner.run("scenario_threeway", scale="smoke", fault_plan="bogus")


def test_cli_exposes_scenario_choices():
    with pytest.raises(SystemExit):
        runner.main(["scenario_threeway", "--scenario", "heat_dome"])


def test_scenario_cache_key_is_stable_and_structure_sensitive():
    a = scenario_experiments.scenario_cache_key("storm_front")
    b = scenario_experiments.scenario_cache_key("storm_front")
    c = scenario_experiments.scenario_cache_key("alarm_storm")
    assert a == b
    assert a != c
    assert a[0] == "storm_front"


def test_default_scenarios_are_in_the_library():
    for experiment_id, default in runner._SCENARIO_DEFAULT.items():
        assert experiment_id in runner.SCENARIO_EXPERIMENTS
        assert default in SCENARIOS
    for name, template in SCENARIOS.items():
        assert template(0.0, 1.0).name == name


@pytest.mark.parametrize(
    "leg, middleware",
    [("threeway_leg", m) for m in scenario_experiments.THREEWAY_LEGS]
    + [("edge_leg", m) for m in EDGE_MIDDLEWARES],
)
def test_every_leg_reports_its_fault_log(leg, middleware):
    """cascading_trip partitions client regions on every leg, so every leg's
    outcome carries the fault log its scorecard notes are rendered from."""
    size = dict(connections=40) if leg == "threeway_leg" else dict(n_clients=100)
    outcome = getattr(scenario_experiments, leg)(
        middleware, "cascading_trip", scale=Scale.named("smoke"), **size
    )
    assert outcome.fault_log


@pytest.mark.slow
def test_same_seed_scorecards_are_byte_identical():
    """Acceptance: same scenario + seed => byte-identical scorecard."""
    a = runner.run("scenario_threeway", scale="smoke", seed=3)
    b = runner.run("scenario_threeway", scale="smoke", seed=3)
    assert a.meta["scorecard"] == b.meta["scorecard"]
    assert a.table == b.table


@pytest.mark.slow
def test_plog_acks_all_leg_has_zero_duplicates():
    """Acceptance: the plog acks=all leg delivers exactly-once."""
    result = runner.run("scenario_threeway", scale="smoke")
    plog = result.meta["scores"]["Plog (TCP, acks=all)"]
    assert plog["duplicates"] == 0
    assert plog["duplicate_pct"] == 0.0
    # The scorecard row renders the same guarantee.
    headers, rows = result.table[0], result.meta["scorecard"]
    dup_col = headers.index("dup")
    (plog_row,) = [r for r in rows if r[0] == "Plog (TCP, acks=all)"]
    assert plog_row[dup_col] == "0.000%"


@pytest.mark.slow
def test_scorecard_shape_matches_the_leg_set():
    result = runner.run("scenario_threeway", scale="smoke")
    rows = result.meta["scorecard"]
    assert rows == result.table[1]
    assert len(rows) == len(scenario_experiments.THREEWAY_LEGS)
    assert result.meta["scenario"] == "storm_front"
