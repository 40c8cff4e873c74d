"""The layers the traced run splits a campaign's wall time into.

:data:`ENTRY_POINTS` names each public entry point the traced run wraps,
where it is looked up at call time (a function imported by name into
another module is patched in that module), and the layer metric its self
time counts toward.  The ``*_s`` layer metrics partition the traced wall
time: every span name maps to exactly one of them, except the
``run_point`` spans, which only mark which sweep point a span belongs
to — their self time (technique set-up, result serialisation) is left in
``other.self_s`` with the time no span covers.

:class:`LedgerCounts` reads the per-layer counts from the ledgers each
point record already carries (simulator stats, link accounting, the
metrics snapshot, the surveillance summary), so nothing is counted twice.
"""

from __future__ import annotations

import importlib
from typing import Dict, Mapping, Optional, Tuple

from campaign import counter_total
from spans import SpanRecorder

__all__ = [
    "ENTRY_POINTS", "TIME_LAYERS", "LedgerCounts", "install", "layer_calls",
    "layer_metrics",
]

#: (module, attribute path, layer metric) — ``None`` marks the point span.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("repro.netsim.engine", "Simulator.run", "netsim.self_s"),
    ("repro.netsim.link", "Link.transmit", "netsim.transmit_s"),
    ("repro.netsim.impairment", "ImpairedPath.traverse", "impairment.self_s"),
    ("repro.rules.engine", "RuleEngine.process", "rules.self_s"),
    ("repro.rules.engine", "RuleEngine.process_batch", "rules.self_s"),
    ("repro.surveillance.system", "SurveillanceSystem.process", "surveillance.self_s"),
    ("repro.surveillance.system", "SurveillanceSystem.flush", "surveillance.self_s"),
    ("repro.netsim.flows", "FlowFidelityEngine.submit", "flows.self_s"),
    ("repro.traffic.population", "PopulationTraffic.start", "traffic.self_s"),
    ("repro.traffic.population", "_FlowTemplate.materialize", "traffic.self_s"),
    ("repro.obs.metrics", "Counter.inc", "obs.self_s"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs.self_s"),
    ("repro.obs.metrics", "MetricsRegistry.merge", "obs.self_s"),
    ("repro.packets.ip", "IPPacket.to_bytes", "packets.serialize_s"),
    ("repro.packets.ip", "IPPacket.from_bytes", "packets.parse_s"),
    ("repro.runner.worker", "build_environment", "core.env_build_s"),
    ("repro.runner.worker", "build_three_node", "core.env_build_s"),
    ("repro.runner.worker", "assess_risk", "core.risk_s"),
    ("repro.runner.worker", "run_report", "analysis.report_s"),
    ("repro.runner.runner", "run_report", "analysis.report_s"),
    ("repro.runner.worker", "rows_from_point", "results.rows_s"),
    ("repro.runner.runner", "write_records", "results.rows_s"),
    ("repro.runner.store", "CampaignStore.append", "runner.journal_s"),
    ("repro.runner.runner", "SweepRunner.run", "runner.merge_s"),
    ("repro.runner.worker", "run_point", None),
)

#: Every censor family's ``process`` counts toward this layer; the
#: families are read from the censor registry when tracing starts.
CENSOR_LAYER = "censor.self_s"

#: The time layers, in print order; with ``other.self_s`` they sum to
#: the traced wall time.
TIME_LAYERS: Tuple[str, ...] = (
    "netsim.self_s", "netsim.transmit_s", "impairment.self_s", "rules.self_s",
    "censor.self_s", "surveillance.self_s", "flows.self_s", "traffic.self_s",
    "obs.self_s", "packets.serialize_s", "packets.parse_s", "core.env_build_s",
    "core.risk_s", "analysis.report_s", "results.rows_s", "runner.journal_s",
    "runner.merge_s",
)


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def install(recorder: SpanRecorder) -> Dict[str, Optional[str]]:
    """Wrap every entry point; return span name -> layer metric."""
    from repro.censor.registry import CENSOR_FAMILIES

    layer_of: Dict[str, Optional[str]] = {}
    for module, path, layer in ENTRY_POINTS:
        owner, attr = _resolve(module, path)
        name = f"{module}.{path}"
        recorder.patch(owner, attr, name, marks_point=layer is None)
        layer_of[name] = layer
    # Patch ``process`` where it is defined: a family that inherits it is
    # traced through its base, and a base is patched once.
    owners = []
    for family in CENSOR_FAMILIES.values():
        owner = next(cls for cls in family.__mro__ if "process" in vars(cls))
        if owner not in owners:
            owners.append(owner)
    for owner in owners:
        name = f"{owner.__module__}.{owner.__qualname__}.process"
        recorder.patch(owner, "process", name)
        layer_of[name] = CENSOR_LAYER
    return layer_of


class LedgerCounts:
    """Per-layer counts summed over point records."""

    def __init__(self) -> None:
        self.events = 0
        self.queue_high_water = 0
        self.link_offered = 0
        self.link_lost = 0
        self.rule_packets = 0
        self.rule_candidates = 0
        self.rule_skips = 0
        self.censor_events = 0
        self.bytes_seen = 0
        self.bytes_retained = 0
        self.flows_aggregate = 0
        self.flows_expanded = 0

    def add(self, record: Mapping[str, object]) -> None:
        """Fold one ``status == "ok"`` point record in."""
        report = record["report"]
        simulator = report["simulator"]
        self.events += simulator["events_fired"]
        self.queue_high_water = max(
            self.queue_high_water, simulator["queue_depth_high_water"]
        )
        for link in report.get("links", {}).values():
            for direction, entry in link.items():
                if direction != "conserved":
                    self.link_offered += entry["packets_offered"]
                    self.link_lost += entry["packets_lost"]
        metrics = report["metrics"]
        self.rule_packets += counter_total(metrics, "rules_packets_total")
        self.rule_candidates += counter_total(
            metrics, "rules_candidates_evaluated_total"
        )
        self.rule_skips += counter_total(metrics, "rules_prefilter_skips_total")
        self.flows_aggregate += counter_total(
            metrics, "population_flows_total", tier="aggregate"
        )
        self.flows_expanded += counter_total(
            metrics, "population_flows_total", tier="expanded"
        )
        self.censor_events += record.get("censor_events", 0)
        surveillance = report.get("surveillance")
        if surveillance is not None:
            self.bytes_seen += surveillance["bytes_seen"]
            self.bytes_retained += surveillance["bytes_retained_content"]

    def metrics(self) -> Dict[str, float]:
        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        return {
            "netsim.events": self.events,
            "netsim.queue_high_water": self.queue_high_water,
            "impairment.drop_ratio": ratio(self.link_lost, self.link_offered),
            "rules.packets": self.rule_packets,
            "rules.candidates_per_packet": ratio(
                self.rule_candidates, self.rule_packets
            ),
            "rules.prefilter_skip_ratio": ratio(
                self.rule_skips, self.rule_candidates
            ),
            "censor.events": self.censor_events,
            "surveillance.retained_ratio": ratio(
                self.bytes_retained, self.bytes_seen
            ),
            "flows.expanded_share": ratio(
                self.flows_expanded, self.flows_aggregate + self.flows_expanded
            ),
        }


def layer_metrics(
    recorder: SpanRecorder, layer_of: Mapping[str, Optional[str]], wall_s: float
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Split ``wall_s`` into the time layers; also return span-name calls.

    ``other.self_s`` is the wall time no layer span covers: the gaps
    outside every root span plus the self time of the point spans.
    """
    seconds = {layer: 0.0 for layer in TIME_LAYERS}
    calls: Dict[str, int] = {}
    for name, (count, own) in recorder.totals().items():
        calls[name] = count
        layer = layer_of[name]
        if layer is not None:
            seconds[layer] += own
    seconds["other.self_s"] = wall_s - sum(seconds.values())
    return seconds, calls


def layer_calls(calls: Mapping[str, int], layer_of: Mapping[str, Optional[str]]) -> Dict[str, int]:
    """Layer metric -> calls into its entry points."""
    out: Dict[str, int] = {}
    for name, count in calls.items():
        layer = layer_of[name]
        if layer is not None:
            out[layer] = out.get(layer, 0) + count
    return out

