"""Acceptance: observability is deterministic and conserves packets.

Two properties the obs layer must hold for its exports to be trustworthy
evidence rather than decoration:

1. **Same seed => byte-identical exports.**  The trace JSONL and the
   metrics report of two identical instrumented runs must match byte for
   byte — any hash-ordering or wall-clock leak breaks this immediately.
2. **Conservation cross-check.**  The registry's per-link counters are
   read from each link's ledger (``DirectionStats`` plus its drop-reason
   tallies) at flush time.  On an impaired 1000-port scan they must
   agree exactly, direction by direction, drop for drop.
3. **The pull contract.**  Reading the ledger at flush time must give
   what counting every packet into the registry gave: the same values
   and the same label rows, at any read, across shared registries and
   after an environment is gone.
"""

import gc
import weakref

from repro.analysis import run_report
from repro.core import MeasurementContext, RetryPolicy, ScanMeasurement, ScanTarget
from repro.netsim import (
    Duplication,
    IndependentLoss,
    WebServer,
    build_three_node,
    burst_loss_profile,
)
from repro.obs import MetricsRegistry, Tracer, canonical_json, use_registry, use_tracer


def instrumented_scan(seed=29, port_count=1000, duration=600.0):
    """One fully instrumented impaired scan; returns (topo, registry, tracer)."""
    registry = MetricsRegistry()
    tracer = Tracer()
    with use_registry(registry), use_tracer(tracer):
        topo = build_three_node(seed=seed)
        WebServer(topo.server)
        topo.network.impair_all_links(
            burst_loss_profile(marginal=0.05, mean_burst_length=5.0, jitter=0.001)
        )
        ctx = MeasurementContext(
            client=topo.client,
            retry_policy=RetryPolicy(max_attempts=5, timeout=1.0),
        )
        technique = ScanMeasurement(
            ctx,
            [ScanTarget(topo.server.ip, [80], "server")],
            port_count=port_count,
            probe_interval=0.005,
            timeout=1.0,
        )
    tracer.bind_clock(lambda: topo.sim.now)
    technique.start()
    topo.sim.run(until=topo.sim.now + duration)
    assert technique.done
    tracer.finalize()
    return topo, registry, tracer


class TestSameSeedDeterminism:
    def test_trace_and_metrics_exports_are_byte_identical(self, tmp_path):
        exports = []
        for run in ("a", "b"):
            topo, registry, tracer = instrumented_scan(
                seed=29, port_count=120, duration=300.0
            )
            trace_path = tracer.write_jsonl(str(tmp_path / f"{run}.trace.jsonl"))
            report = run_report(
                registry=registry, sim=topo.sim, links=topo.network.links
            )
            exports.append(
                (open(trace_path, "rb").read(), canonical_json(report))
            )
        (trace_a, report_a), (trace_b, report_b) = exports
        assert trace_a  # non-trivial: the runs actually traced something
        assert trace_a == trace_b
        assert report_a == report_b


class TestConservationCrossCheck:
    def test_registry_counters_equal_direction_stats_on_1000_port_scan(self):
        topo, registry, _ = instrumented_scan(seed=29, port_count=1000)

        offered = registry.get("link_packets_offered_total")
        carried = registry.get("link_packets_carried_total")
        dropped = registry.get("link_packets_dropped_total")
        duplicated = registry.get("link_packets_duplicated_total")
        assert offered is not None and dropped is not None

        # Sum drop rows per (link, direction); remember which models dropped.
        drops_by_direction = {}
        reasons = set()
        for (link, direction, reason), count in dropped.labelled():
            drops_by_direction[(link, direction)] = (
                drops_by_direction.get((link, direction), 0) + count
            )
            reasons.add(reason)

        checked = 0
        total_lost = 0
        for link in topo.network.links:
            name = f"{link.a.name}<->{link.b.name}"
            for direction, stats in link.stats.items():
                key = (name, direction)
                assert offered.value(key) == stats.packets_offered
                assert carried.value(key) == stats.packets_carried
                assert duplicated.value(key) == stats.packets_duplicated
                assert drops_by_direction.get(key, 0) == stats.packets_lost
                total_lost += stats.packets_lost
                checked += 1

        assert checked >= 4  # at least two links, both directions
        # The path really was hostile, and the drops name their impairment
        # model — not the flat legacy loss knob.
        assert total_lost > 0
        assert reasons and "legacy_loss" not in reasons

    def test_run_report_folds_all_sections(self):
        topo, registry, _ = instrumented_scan(seed=29, port_count=50, duration=120.0)
        report = run_report(
            registry=registry, sim=topo.sim, links=topo.network.links
        )
        assert set(report) == {"metrics", "simulator", "links"}
        assert report["simulator"]["events_fired"] > 0
        assert "tcp_retransmitted_segments_total" in report["metrics"]["instruments"]
        for entry in report["links"].values():
            assert entry["conserved"] is True


LINK_COUNTERS = (
    "link_packets_offered_total",
    "link_packets_carried_total",
    "link_packets_dropped_total",
    "link_packets_duplicated_total",
    "link_bytes_carried_total",
)


def expected_link_rows(links, into=None):
    """What counting every packet into the registry records for ``links``:
    counter name -> {label row: value}, a row only where a count moved."""
    rows = into if into is not None else {name: {} for name in LINK_COUNTERS}

    def add(name, labels, value):
        if value:
            rows[name][labels] = rows[name].get(labels, 0) + value

    for link in links:
        name = f"{link.a.name}<->{link.b.name}"
        for direction, stats in link.stats.items():
            key = (name, direction)
            add("link_packets_offered_total", key, stats.packets_offered)
            add("link_packets_carried_total", key, stats.packets_carried)
            add("link_packets_duplicated_total", key, stats.packets_duplicated)
            if stats.packets_carried:
                add("link_bytes_carried_total", key, stats.bytes_carried)
            for reason, count in link.drops[direction].items():
                add("link_packets_dropped_total", key + (reason,), count)
    return rows


def registry_link_rows(registry):
    return {name: dict(registry.get(name).labelled()) for name in LINK_COUNTERS}


def impaired_scan(registry, seed, port_count=80):
    """An instrumented scan over a lossy, duplicating path; returns the topology."""
    with use_registry(registry):
        topo = build_three_node(seed=seed)
        WebServer(topo.server)
        topo.network.impair_all_links(
            burst_loss_profile(
                marginal=0.05, mean_burst_length=3.0, duplicate_probability=0.05
            )
        )
        technique = ScanMeasurement(
            MeasurementContext(
                client=topo.client,
                retry_policy=RetryPolicy(max_attempts=3, timeout=1.0),
            ),
            [ScanTarget(topo.server.ip, [80], "server")],
            port_count=port_count,
            probe_interval=0.005,
            timeout=1.0,
        )
    technique.start()
    return topo


class TestPullContract:
    def test_shared_registry_sums_a_dropped_environment(self):
        registry = MetricsRegistry()
        first = impaired_scan(registry, seed=3)
        first.sim.run(until=60.0)
        # Read nothing before dropping it: the first environment's counts
        # have never been folded into the registry.
        expected = expected_link_rows(first.network.links)
        gone = weakref.ref(first.network.links[0])
        del first
        gc.collect()
        assert gone() is None

        second = impaired_scan(registry, seed=4)
        second.sim.run(until=60.0)
        expected_link_rows(second.network.links, into=expected)

        rows = registry_link_rows(registry)
        assert rows == expected
        assert rows["link_packets_dropped_total"]
        assert rows["link_packets_duplicated_total"]
        snapshot = registry.snapshot()["instruments"]
        for name in LINK_COUNTERS:
            assert snapshot[name]["values"] == [
                [list(labels), value] for labels, value in sorted(expected[name].items())
            ]

    def test_reads_between_runs_equal_direction_stats(self):
        registry = MetricsRegistry()
        topo = impaired_scan(registry, seed=5)
        for until in (0.05, 0.4, 3.0, 60.0):
            topo.sim.run(until=until)
            assert registry_link_rows(registry) == expected_link_rows(
                topo.network.links
            )
        # Reading again without new traffic adds nothing.
        assert registry_link_rows(registry) == expected_link_rows(topo.network.links)

    def test_quiet_direction_has_no_row(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            topo = build_three_node(seed=6)
            WebServer(topo.server)
            uplink = topo.network.links[0]
            toward_server = uplink.direction_from(topo.client)
            uplink.impair([IndependentLoss(0.3)], direction=toward_server)
            downlink = topo.network.links[1]
            downlink.impair(
                [Duplication(0.5)], direction=downlink.direction_from(topo.server)
            )
            technique = ScanMeasurement(
                MeasurementContext(client=topo.client),
                [ScanTarget(topo.server.ip, [80], "server")],
                port_count=40,
                probe_interval=0.005,
                timeout=1.0,
            )
        technique.start()
        topo.sim.run(until=30.0)

        rows = registry_link_rows(registry)
        assert rows == expected_link_rows(topo.network.links)
        dropped = {labels[:2] for labels in rows["link_packets_dropped_total"]}
        duplicated = set(rows["link_packets_duplicated_total"])
        # Only the lossy direction dropped; only the duplicating one duplicated.
        assert dropped == {("client<->s1", toward_server)}
        assert duplicated == {("s1<->server", downlink.direction_from(topo.server))}
        assert {labels[2] for labels in rows["link_packets_dropped_total"]} == {
            "IndependentLoss"
        }

    def test_account_flow_traffic_is_counted(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            topo = build_three_node(seed=7)
        link = topo.network.links[0]
        link.account_flow(12, 9000, "ab")
        assert registry.get("link_packets_offered_total").value(
            ("client<->s1", "ab")
        ) == 12
        link.account_flow(3, 1500, "ab")
        link.account(60, "ba")
        rows = registry_link_rows(registry)
        assert rows == expected_link_rows(topo.network.links)
        assert rows["link_bytes_carried_total"] == {
            ("client<->s1", "ab"): 10500,
            ("client<->s1", "ba"): 60,
        }
        assert rows["link_packets_carried_total"][("client<->s1", "ab")] == 15
        assert rows["link_packets_dropped_total"] == {}
