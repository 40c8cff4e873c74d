"""The benchmark's two run modes over one workload.

:func:`timed_run` measures the end-to-end metrics with tracing off;
:func:`traced_run` measures the per-layer split.  Both return the result
object ``run.py`` prints as its last line.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional

from campaign import CampaignResult, run_campaign
from layers import TIME_LAYERS, LedgerCounts, install, layer_calls, layer_metrics
from repro.runner import SweepSpec
from repro.runner.worker import run_point
from spans import SpanRecorder
from workloads import campaign_spec

__all__ = ["Bench", "timed_run", "traced_run"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: where a traced run writes its spans.
OUT_ROOT = os.path.join(HERE, "_out")

#: cold set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: a cold set-up that runs longer than this is killed and fails the run.
COLDSTART_TIMEOUT_S = 120
#: points the tail percentile must leave beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "point_p50_s": "s",
    "point_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_per_packet"):
        return "count/packet"
    return "count"


def tail(values: List[float]) -> tuple:
    """(value, percentile) of the highest percentile with ten points beyond."""
    ordered = sorted(values)
    count = len(ordered)
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def spec(self, campaign: int) -> SweepSpec:
        return SweepSpec.from_mapping(campaign_spec(self.workload, self.seed, campaign))

    def spec_file(self) -> str:
        """Campaign 0's spec, written where the cold set-up loads it."""
        path = os.path.join(self.workdir, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(campaign_spec(self.workload, self.seed, 0), fh)
        return path

    def cold_setup(self, spec_path: str) -> float:
        """Wall time of a fresh interpreter's import, spec load, grid
        expansion and warm-up point."""
        command = [sys.executable, os.path.join(HERE, "coldstart.py"), spec_path]
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL) as child:
            # A blocking wait returns the moment the child exits; a wait
            # with a timeout polls, which would round the time up to 50 ms.
            watchdog = threading.Timer(COLDSTART_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                code = child.wait()
            finally:
                watchdog.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
        return elapsed

    def warm_up(self) -> None:
        """Run campaign 0's first point once, untimed, in this process."""
        point = self.spec(0).points()[0]
        if run_point(point.as_dict(), in_process=True)["status"] != "ok":
            raise RuntimeError(f"warm-up point of {self.workload} failed")

    def campaigns(
        self,
        seconds: Optional[float] = None,
        count: Optional[int] = None,
        on_record: Optional[Callable[[Mapping[str, object]], None]] = None,
        between: Optional[Callable[[float], None]] = None,
    ) -> List[CampaignResult]:
        """Run campaigns 0, 1, ... — ``count`` of them, or until ``seconds``
        of campaign wall time have passed and the tail has its points.

        Each campaign starts from a collected heap; ``between`` is called
        with the campaign wall time spent so far after each campaign.
        """
        results: List[CampaignResult] = []
        spent = 0.0
        points = 0
        while (len(results) < count) if count is not None else (
            spent < seconds or points <= TAIL_BEYOND
        ):
            index = len(results)
            gc.collect()
            result = run_campaign(
                self.spec(index), os.path.join(self.workdir, f"c{index}"), on_record
            )
            results.append(result)
            spent += result.wall_s
            points += result.points
            if between is not None:
                between(spent)
        return results


def end_to_end(results: List[CampaignResult]) -> Dict[str, float]:
    point_s = [seconds for result in results for seconds in result.point_s]
    tail_s, percentile = tail(point_s)
    return {
        "points_per_s": sum(r.points for r in results) / sum(r.wall_s for r in results),
        "point_p50_s": statistics.median(point_s),
        "point_tail_s": tail_s,
        "tail_percentile": percentile,
        "points": len(point_s),
    }


def print_summary(
    bench: Bench, results: List[CampaignResult], figures: Mapping[str, float]
) -> None:
    attempted = sum(r.points for r in results)
    failed = sum(r.failed for r in results)
    print(f"workload {bench.workload}  seed {bench.seed}  campaigns {len(results)}"
          f"  points {attempted}  failed {failed}"
          f"  failed_point_share {failed / attempted:.4f}")
    print(f"  points_per_s   {figures['points_per_s']:.4f} 1/s")
    print(f"  point_p50_s    {figures['point_p50_s']:.6f} s")
    print(f"  point_tail_s   {figures['point_tail_s']:.6f} s"
          f"  (p{figures['tail_percentile']:.2f} of {figures['points']} points,"
          f" {TAIL_BEYOND} beyond)")
    print(f"  report_sha256  {results[0].report_sha256}  (campaign 0)")
    print(f"  records_sha256 {results[0].records_sha256}  (campaign 0)")


def timed_run(bench: Bench) -> dict:
    spec_path = bench.spec_file()
    setups: List[float] = []

    def sample_setup(spent: float) -> None:
        # Spread the cold set-ups over the run, so that they see the same
        # host as the campaigns do rather than one moment of it.
        if len(setups) < SETUP_SAMPLES and spent >= bench.seconds * len(setups) / SETUP_SAMPLES:
            setups.append(bench.cold_setup(spec_path))

    bench.warm_up()
    results = bench.campaigns(seconds=bench.seconds, between=sample_setup)
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.cold_setup(spec_path))
    figures = end_to_end(results)
    metrics = {
        "points_per_s": figures["points_per_s"],
        "point_p50_s": figures["point_p50_s"],
        "point_tail_s": figures["point_tail_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print_summary(bench, results, figures)
    print(f"  setup_s        {metrics['setup_s']:.4f} s"
          f"  (median of {SETUP_SAMPLES} cold processes)")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    attempted = sum(r.points for r in results)
    failed = sum(r.failed for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }


def traced_run(bench: Bench) -> dict:
    bench.warm_up()
    untraced = bench.campaigns(seconds=bench.seconds / 2)
    ledger = LedgerCounts()
    with SpanRecorder() as recorder:
        layer_of = install(recorder)
        traced = bench.campaigns(count=len(untraced), on_record=ledger.add)
    untraced_wall = sum(r.wall_s for r in untraced)
    traced_wall = sum(r.wall_s for r in traced)
    seconds, calls = layer_metrics(recorder, layer_of, traced_wall)
    per_layer_calls = layer_calls(calls, layer_of)

    # Tracing must not change the program's outputs.
    failed = sum(r.failed for r in untraced) + sum(r.failed for r in traced)
    for plain, wrapped in zip(untraced, traced):
        if (plain.report_sha256, plain.records_sha256) != (
            wrapped.report_sha256, wrapped.records_sha256
        ):
            failed += wrapped.points

    metrics: Dict[str, float] = dict(seconds)
    metrics.update(ledger.metrics())
    metrics["netsim.hops"] = calls["repro.netsim.link.Link.transmit"]
    metrics["obs.inc_calls"] = calls["repro.obs.metrics.Counter.inc"]
    metrics["tracing.wall_s"] = traced_wall
    metrics["tracing.overhead_share"] = traced_wall / untraced_wall - 1.0

    os.makedirs(OUT_ROOT, exist_ok=True)
    spans_path = recorder.write(
        os.path.join(OUT_ROOT, f"spans-{bench.workload}.zip")
    )

    print_summary(bench, untraced, end_to_end(untraced))
    print(f"traced: wall {traced_wall:.4f} s over the same {len(traced)} campaigns"
          f" (untraced {untraced_wall:.4f} s, overhead"
          f" {metrics['tracing.overhead_share']:+.1%}); {len(recorder)} spans"
          f" -> {os.path.relpath(spans_path, ROOT)}")
    print(f"  {'layer':<22}{'self_s':>12}{'share':>9}{'calls':>12}")
    for layer in TIME_LAYERS + ("other.self_s",):
        print(f"  {layer:<22}{seconds[layer]:>12.4f}{seconds[layer] / traced_wall:>9.2%}"
              f"{per_layer_calls.get(layer, ''):>12}")
    print(f"  {'sum':<22}{sum(seconds.values()):>12.4f}"
          f"{sum(seconds.values()) / traced_wall:>9.2%}")
    attempted = sum(r.points for r in untraced) + sum(r.points for r in traced)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(metrics.items())
        },
    }
