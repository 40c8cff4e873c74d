"""Unit tests for sweep specs and shard planning."""

import json

import pytest

from repro.censor import censor_families
from repro.core.measurement import RetryPolicy
from repro.netsim.impairment import mix_seed
from repro.runner import SweepPoint, SweepSpec, parse_retry_policy


class TestRetryPolicyParsing:
    def test_single_shot(self):
        policy = parse_retry_policy("single-shot")
        assert policy.max_attempts == 1

    def test_retry_n(self):
        policy = parse_retry_policy("retry-5")
        assert policy.max_attempts == 5
        assert policy.retries_enabled

    @pytest.mark.parametrize("bad", ["retry-x", "retry-1", "sometimes", "retry-"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_retry_policy(bad)


class TestSweepSpecGrid:
    def _spec(self, **overrides):
        params = dict(
            name="t", base_seed=3, seeds=(0, 1), loss_rates=(0.0, 0.05),
            retry_policies=("single-shot", "retry-3"),
        )
        params.update(overrides)
        return SweepSpec(**params)

    def test_grid_size_is_axis_product(self):
        spec = self._spec()
        assert len(spec) == 8
        assert len(spec.points()) == 8

    def test_indices_are_contiguous_grid_order(self):
        points = self._spec().points()
        assert [p.index for p in points] == list(range(8))
        # seeds is the slowest axis, retry_policies the fastest
        assert points[0].seed == 0 and points[0].retry == "single-shot"
        assert points[1].retry == "retry-3"
        assert points[4].seed == 1

    def test_sim_seed_derived_via_mix_seed(self):
        spec = self._spec()
        for point in spec.points():
            assert point.sim_seed == mix_seed(3, point.seed, point.index)

    def test_points_are_pure_function_of_spec(self):
        assert self._spec().points() == self._spec().points()

    def test_point_dict_round_trip(self):
        point = self._spec().points()[5]
        assert SweepPoint.from_dict(point.as_dict()) == point
        json.dumps(point.as_dict())  # JSON-ready

    def test_retry_policy_materializes(self):
        point = self._spec().points()[1]
        assert isinstance(point.retry_policy(), RetryPolicy)
        assert point.retry_policy().max_attempts == 3

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError, match="unknown technique"):
            self._spec(techniques=("warp",))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            self._spec(topologies=("star",))

    def test_three_node_rejects_non_scan_techniques(self):
        with pytest.raises(ValueError, match="three-node"):
            self._spec(techniques=("spam",), topologies=("three-node",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            self._spec(seeds=())

    def test_bad_loss_rate_rejected(self):
        with pytest.raises(ValueError, match="loss rate"):
            self._spec(loss_rates=(1.5,))

    def test_bad_fail_mode_rejected(self):
        with pytest.raises(ValueError, match="fail mode"):
            self._spec(inject_failures={0: "shrug"})

    def test_inject_failures_land_on_points(self):
        spec = self._spec(inject_failures={2: "exception"})
        points = spec.points()
        assert points[2].fail == "exception"
        assert all(p.fail == "" for p in points if p.index != 2)

    def test_unknown_mapping_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_mapping({"name": "x", "warp_factor": 9})


class TestVantageAxis:
    def _spec(self, **overrides):
        params = dict(
            name="v", base_seed=3, seeds=(0, 1),
            topologies=("censored-as",),
            retry_policies=("single-shot",),
        )
        params.update(overrides)
        return SweepSpec(**params)

    def test_empty_vantages_keeps_legacy_grid(self):
        legacy = self._spec()
        assert len(legacy) == 2
        assert all(p.vantage == "" for p in legacy.points())

    def test_vantages_multiply_the_grid_as_fastest_axis(self):
        spec = self._spec(vantages=("censored", "clean"))
        points = spec.points()
        assert len(points) == 4
        assert [p.vantage for p in points] == [
            "censored", "clean", "censored", "clean",
        ]

    def test_unknown_vantage_rejected(self):
        with pytest.raises(ValueError, match="unknown vantage"):
            self._spec(vantages=("sideways",))

    def test_censored_vantage_needs_censored_as_topology(self):
        with pytest.raises(ValueError, match="censored-as"):
            SweepSpec(topologies=("three-node",),
                      vantages=("censored", "clean"))

    def test_vantage_name_prefers_the_axis_value(self):
        spec = self._spec(vantages=("clean",), censored=True)
        (p1, p2) = spec.points()
        assert p1.vantage_name() == "clean"
        assert not p1.effective_censored()
        assert not p2.effective_censored()

    def test_legacy_vantage_name_follows_censored_flag(self):
        censored_pt = self._spec(censored=True).points()[0]
        open_pt = self._spec(censored=False).points()[0]
        assert censored_pt.vantage_name() == "censored"
        assert censored_pt.effective_censored()
        assert open_pt.vantage_name() == "clean"
        assert not open_pt.effective_censored()

    def test_three_node_is_always_the_clean_vantage(self):
        point = SweepSpec(seeds=(0,)).points()[0]
        assert point.topology == "three-node"
        assert point.vantage_name() == "clean"
        assert not point.effective_censored()

    def test_vantages_change_the_content_hash(self):
        assert (self._spec().content_hash()
                != self._spec(vantages=("censored", "clean")).content_hash())

    def test_vantage_round_trips_through_dicts(self):
        spec = self._spec(vantages=("censored", "clean"))
        clone = SweepSpec.from_mapping(spec.as_dict())
        assert clone.points() == spec.points()
        point = spec.points()[1]
        assert SweepPoint.from_dict(point.as_dict()) == point


class TestCensorAxis:
    def _spec(self, **overrides):
        params = dict(
            name="c", base_seed=3, seeds=(0,),
            topologies=("censored-as",),
            retry_policies=("single-shot",),
            vantages=("censored", "clean"),
        )
        params.update(overrides)
        return SweepSpec(**params)

    def test_empty_censors_keeps_legacy_grid(self):
        legacy = self._spec()
        assert len(legacy) == 2
        assert all(p.censor == "" for p in legacy.points())
        assert all(p.censor_name() == "gfc" for p in legacy.points())

    def test_censors_multiply_the_grid_as_fastest_axis(self):
        spec = self._spec(censors=("gfc", "throttler"))
        points = spec.points()
        assert len(spec) == 4
        assert [(p.vantage, p.censor) for p in points] == [
            ("censored", "gfc"), ("censored", "throttler"),
            ("clean", "gfc"), ("clean", "throttler"),
        ]

    def test_unknown_censor_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown censor"):
            self._spec(censors=("firewall-9000",))

    def test_unknown_censor_rejected_at_spec_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad", "topologies": ["censored-as"],
            "vantages": ["censored", "clean"],
            "censors": ["firewall-9000"],
        }))
        with pytest.raises(ValueError, match="unknown censor"):
            SweepSpec.load(str(path))

    def test_every_registered_family_is_a_valid_axis_value(self):
        spec = self._spec(censors=censor_families())
        assert len(spec) == 2 * len(censor_families())
        assert {p.censor for p in spec.points()} == set(censor_families())

    def test_censors_need_censored_as_topology(self):
        with pytest.raises(ValueError, match="censored-as"):
            SweepSpec(topologies=("three-node",), censors=("gfc",))

    def test_censors_change_the_content_hash(self):
        assert (self._spec().content_hash()
                != self._spec(censors=("gfc",)).content_hash())

    def test_censor_round_trips_through_dicts(self):
        spec = self._spec(censors=("gfc", "geoblocker"))
        clone = SweepSpec.from_mapping(spec.as_dict())
        assert clone.points() == spec.points()
        point = spec.points()[1]
        assert SweepPoint.from_dict(point.as_dict()) == point

    def test_sim_seed_ignores_the_censor_name_beyond_index(self):
        # Per-point seeds come from (base_seed, seed, index) alone, so a
        # point's simulation is a pure function of the spec.
        spec = self._spec(censors=("gfc", "throttler"))
        for point in spec.points():
            assert point.sim_seed == mix_seed(3, point.seed, point.index)


class TestSpecLoading:
    def test_load_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "fromjson", "seeds": [0, 1], "loss_rates": [0.0, 0.05],
        }))
        spec = SweepSpec.load(str(path))
        assert spec.name == "fromjson"
        assert len(spec) == 4

    def test_load_toml(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841 (py3.11+)
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "fromtoml"\nseeds = [0, 1, 2]\n'
            'retry_policies = ["single-shot", "retry-3"]\n'
        )
        spec = SweepSpec.load(str(path))
        assert spec.name == "fromtoml"
        assert len(spec) == 6

    def test_as_dict_round_trips_through_mapping(self):
        spec = SweepSpec(name="rt", seeds=(0, 2), inject_failures={1: "exit"})
        clone = SweepSpec.from_mapping(spec.as_dict())
        assert clone.points() == spec.points()
