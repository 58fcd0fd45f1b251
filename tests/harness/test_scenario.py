"""Scenario experiment family: registration, CLI plumbing, and (slow) the
acceptance properties — byte-identical same-seed scorecards and the plog
acks=all zero-duplicate guarantee."""

import inspect

import pytest

from repro.harness import cache, runner, scenario_experiments
from repro.harness.edge_experiments import EDGE_MIDDLEWARES
from repro.harness.scale import Scale
from repro.scenario import SCENARIOS

SMOKE = Scale.smoke()


def test_scenario_experiments_are_registered():
    scenario = {i for i, e in runner.EXPERIMENTS.items() if "scenario" in e.options}
    assert scenario == {"scenario_threeway", "scenario_edge_storm"}
    for experiment_id in scenario:
        assert "fault_plan" in runner.EXPERIMENTS[experiment_id].options
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


def test_scenario_cache_key_is_stable_and_structure_sensitive(monkeypatch):
    """The scored legs are keyed by scenario name and fault plan; the
    library's structure is source code, so a template edit changes the disk
    tier's code salt and with it every path."""
    outcomes = scenario_experiments.threeway_outcomes

    def key(**options):
        return runner._entry_key(outcomes, SMOKE, 1, **options)

    storm = key(scenario="storm_front")
    assert storm == key(scenario="storm_front")
    assert storm != key(scenario="alarm_storm")
    assert ("scenario", "storm_front") in storm
    assert storm != key(scenario="storm_front", fault_plan="loss_burst")
    before = cache.DiskCache().path_for(storm)
    monkeypatch.setattr(cache, "_code_salt", "library edited")
    assert cache.DiskCache().path_for(storm) != before


def test_default_scenarios_are_in_the_library():
    """Each scenario experiment's legs and scorecard default to the same
    library scenario (the only place that default is written)."""
    for legs, card in (
        (scenario_experiments.threeway_outcomes, scenario_experiments.scenario_threeway),
        (scenario_experiments.edge_outcomes, scenario_experiments.scenario_edge_storm),
    ):
        default = inspect.signature(legs).parameters["scenario"].default
        assert default in SCENARIOS
        assert inspect.signature(card).parameters["scenario"].default == default
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
