"""The populations sweep axis: grid expansion, cost model, determinism.

Mirrors the delay-skew starvation regression from the work-stealing PR,
but with a *real* whale: a point whose background population makes it
genuinely expensive.  Without the population term in ``estimate_cost``
the queue planner would schedule the whale last and serialize the sweep
behind it.
"""

import json

import pytest

from repro.runner import (
    CampaignStore,
    QueuePlanner,
    SweepRunner,
    SweepSpec,
    estimate_cost,
    run_point,
)


def population_spec(**overrides):
    params = dict(
        name="popaxis", base_seed=5, seeds=(0,),
        techniques=("overt-http",), topologies=("censored-as",),
        loss_rates=(0.0,), retry_policies=("single-shot",),
        populations=(120, 0), duration=20.0,
    )
    params.update(overrides)
    return SweepSpec(**params)


def canonical(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


class TestGridExpansion:
    def test_populations_axis_multiplies_the_grid(self):
        spec = population_spec(loss_rates=(0.0, 0.02))
        assert len(spec) == 4
        points = spec.points()
        assert [p.population for p in points] == [120, 0, 120, 0]

    def test_populations_fastest_varying(self):
        spec = population_spec(retry_policies=("single-shot", "retry-3"))
        points = spec.points()
        # retry varies slower than population
        assert [(p.retry, p.population) for p in points] == [
            ("single-shot", 120), ("single-shot", 0),
            ("retry-3", 120), ("retry-3", 0),
        ]

    def test_empty_axis_keeps_legacy_grid(self):
        legacy = population_spec(populations=())
        assert len(legacy) == 1
        assert legacy.points()[0].population == 0

    def test_population_in_spec_dict_and_hash(self):
        spec = population_spec()
        assert spec.as_dict()["populations"] == [120, 0]
        assert spec.content_hash() != population_spec(populations=(60, 0)).content_hash()

    def test_three_node_topology_rejected(self):
        with pytest.raises(ValueError, match="populations axis"):
            SweepSpec(name="bad", topologies=("three-node",),
                      populations=(100,))

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            population_spec(populations=(-1,))

    def test_zero_only_populations_allowed_on_three_node(self):
        """An all-zero axis attaches no gateways, so any topology works."""
        spec = SweepSpec(name="zeros", topologies=("three-node",),
                         populations=(0,))
        assert spec.points()[0].population == 0


class TestCostModel:
    def test_population_raises_point_cost(self):
        spec = population_spec()
        whale, cheap = spec.points()
        assert whale.population == 120
        assert estimate_cost(whale) > estimate_cost(cheap)

    def test_large_population_dominates_point_cost(self):
        spec = population_spec(populations=(1000, 0))
        whale, cheap = spec.points()
        assert estimate_cost(whale) > 2 * estimate_cost(cheap)

    def test_queue_orders_population_whale_first(self):
        spec = population_spec(loss_rates=(0.0, 0.02))
        ordered = QueuePlanner().order(spec.points())
        populations = [p.population for p in ordered]
        assert populations[:2] == [120, 120]


class TestPointExecution:
    @pytest.fixture(scope="class")
    def whale_record(self):
        spec = population_spec(populations=(60,), duration=6.0)
        return run_point(spec.points()[0].as_dict(), in_process=True)

    def test_rows_carry_population_and_background_bytes(self, whale_record):
        rows = whale_record["records"]
        assert rows
        for row in rows:
            assert row["population"] == 60
            assert row["background_bytes"] > 0

    def test_zero_population_point_keeps_zero_columns(self):
        spec = population_spec(populations=(0,), duration=6.0)
        record = run_point(spec.points()[0].as_dict(), in_process=True)
        for row in record["records"]:
            assert row["population"] == 0
            assert row["background_bytes"] == 0


class TestStarvationRegression:
    def test_population_whale_does_not_starve_other_workers(self, tmp_path):
        """With work stealing, the population whale (grid index 0) pins
        one worker while the other drains every cheap point; journal
        completion order is the observable proof.  A cost-model
        regression that prices population points like their empty
        siblings shards cheap points behind the whale instead."""
        spec = population_spec(populations=(900, 0, 0, 0), duration=20.0)
        store = CampaignStore(str(tmp_path / "pop.journal.jsonl"),
                              spec.content_hash())
        report = SweepRunner(spec, workers=2, store=store).run()
        store.close()

        with open(store.path, "r", encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh.read().splitlines()]
        completion_order = [e["index"] for e in entries if e["kind"] == "point"]
        assert sorted(completion_order) == list(range(len(spec)))
        assert completion_order[-1] == 0, (
            f"population whale did not finish last: completion order "
            f"{completion_order} — cheap points starved behind it"
        )
        # scheduling skew must never change results
        clean = SweepRunner(spec, serial=True).run()
        assert canonical(report) == canonical(clean)


class TestDispatchDeterminism:
    """Serial and pooled sweeps over a population axis must stay
    byte-identical — the tiered-fidelity generator preserves the runner's
    headline purity property."""

    @pytest.fixture(scope="class")
    def spec(self):
        return population_spec(populations=(80, 0), duration=8.0)

    @pytest.fixture(scope="class")
    def serial_reference(self, spec):
        return canonical(SweepRunner(spec, serial=True).run())

    def test_workers2_byte_identical(self, spec, serial_reference):
        report = SweepRunner(spec, workers=2).run()
        assert canonical(report) == serial_reference
