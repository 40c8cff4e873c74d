"""Tests for the benchmark's own code: spans, layers, workloads, checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import copy
import os

import pytest

import repro.runner.worker as worker
import spans
from campaign import failed_points, run_campaign
from layers import TIME_LAYERS, install, layer_calls, layer_metrics
from repro.packets.ip import IPPacket
from repro.runner import SweepSpec
from repro.runner.worker import run_point
from spans import SpanRecorder, self_times
from workloads import WORKLOADS, campaign_spec


def small_spec(workload, seed=3):
    """Campaign 0 of ``workload`` cut to one seed-axis value."""
    mapping = dict(campaign_spec(workload, seed, 0))
    mapping["seeds"] = [0]
    return SweepSpec.from_mapping(mapping)


# -- self time -----------------------------------------------------------------


def test_self_times_of_a_nested_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = self_times(starts, ends, parents)
    assert list(own) == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == ends[0] - starts[0]


def test_recorder_nests_spans_and_marks_points(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    recorder = SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None)

    def inner():
        leaf()
        leaf()

    def generate():
        yield 1
        leaf()
        yield 2

    inner = recorder.wrap("inner", inner)
    generate = recorder.wrap("gen", generate)

    def point():
        inner()
        assert list(generate()) == [1, 2]

    recorder.wrap("point", point, marks_point=True)()
    names = [recorder.names[code] for code in recorder.codes]
    # three generator resumptions: yield 1, leaf + yield 2, StopIteration
    assert names == ["point", "inner", "leaf", "leaf", "gen", "gen", "leaf", "gen"]
    assert list(recorder.parents) == [-1, 0, 1, 1, 0, 0, 5, 0]
    assert list(recorder.points) == [0] * 8
    totals = recorder.totals()
    assert totals["leaf"][0] == 3
    root_time = recorder.ends[0] - recorder.starts[0]
    assert sum(own for _calls, own in totals.values()) == root_time


def test_recorder_restores_every_attribute():
    originals = {
        name: vars(IPPacket)[name] for name in ("to_bytes", "from_bytes")
    }
    with SpanRecorder() as recorder:
        layer_of = install(recorder)
        assert vars(IPPacket)["to_bytes"] is not originals["to_bytes"]
        assert isinstance(vars(IPPacket)["from_bytes"], classmethod)
    assert {name: vars(IPPacket)[name] for name in originals} == originals
    assert worker.run_point is run_point
    assert all(layer in TIME_LAYERS for layer in layer_of.values() if layer)


# -- the wrappers against real campaigns -----------------------------------------


def traced_campaign(spec, prefix):
    with SpanRecorder() as recorder:
        layer_of = install(recorder)
        result = run_campaign(spec, prefix)
    return result, recorder, layer_of


def test_tracing_leaves_outputs_unchanged(tmp_path):
    spec = small_spec("tapped_population")
    plain = run_campaign(spec, os.path.join(tmp_path, "plain"))
    traced, recorder, layer_of = traced_campaign(spec, os.path.join(tmp_path, "traced"))
    assert plain.failed == traced.failed == 0
    assert plain.report_sha256 == traced.report_sha256
    assert plain.records_sha256 == traced.records_sha256

    seconds, calls = layer_metrics(recorder, layer_of, traced.wall_s)
    assert sum(seconds.values()) == pytest.approx(traced.wall_s, rel=1e-9)
    assert seconds["other.self_s"] >= 0
    used = layer_calls(calls, layer_of)
    for layer in (
        "rules.self_s", "censor.self_s", "surveillance.self_s", "flows.self_s", "traffic.self_s"
    ):
        assert used.get(layer, 0) > 0


def test_lossy_scan_never_enters_the_tap_layers(tmp_path):
    _result, recorder, layer_of = traced_campaign(
        small_spec("lossy_scan"), os.path.join(tmp_path, "scan")
    )
    calls = {name: count for name, (count, _own) in recorder.totals().items()}
    used = layer_calls(calls, layer_of)
    for layer in ("rules.self_s", "censor.self_s", "surveillance.self_s", "flows.self_s"):
        assert used.get(layer, 0) == 0
    assert used["impairment.self_s"] == used["netsim.transmit_s"] > 0


# -- workload generation -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workloads_are_a_pure_function_of_the_seed(workload):
    def grid(seed, campaign):
        spec = SweepSpec.from_mapping(campaign_spec(workload, seed, campaign))
        return [point.as_dict() for point in spec.points()]

    assert grid(7, 0) == grid(7, 0)
    assert grid(7, 1) == grid(7, 1)
    assert grid(7, 0) != grid(8, 0)
    assert grid(7, 0) != grid(7, 1)
    seeds = [set(campaign_spec(workload, 7, c)["seeds"]) for c in range(3)]
    assert not (seeds[0] & seeds[1] or seeds[1] & seeds[2])


# -- output checks --------------------------------------------------------------------


def test_output_checks_flag_each_violation():
    spec = small_spec("tapped_population")
    record = run_point(spec.points()[0].as_dict(), in_process=True)
    report = {
        "points": [record],
        "summary": {"records": {"conserved": True}},
    }
    assert failed_points(report) == set()

    failed = dict(record, status="failed")
    assert failed_points(dict(report, points=[failed])) == {record["index"]}

    leaky = copy.deepcopy(record)
    link = next(iter(leaky["report"]["links"].values()))
    link["ab"]["conserved"] = False
    assert failed_points(dict(report, points=[leaky])) == {record["index"]}

    short = dict(record, records=record["records"][1:])
    assert failed_points(dict(report, points=[short])) == {record["index"]}

    unconserved = dict(report, summary={"records": {"conserved": False}})
    assert failed_points(unconserved) == {record["index"]}
