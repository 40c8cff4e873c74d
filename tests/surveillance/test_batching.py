"""The passive tap's micro-batching must be invisible to every observer.

``SurveillanceSystem.process`` buffers packets and runs the pipeline over
them in arrival-order batches; these tests pin the contract down: batch
size must never change any stored record or counter, partially filled
buffers must drain on any query (including reads through the metrics
registry's flush hooks), and the byte-accounting properties must always
reflect every packet the tap was handed.
"""

from repro.core.evaluation import build_environment
from repro.netsim.middlebox import TapContext
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.packets import ACK, IPPacket, PSH, SYN, TCPSegment, UDPDatagram
from repro.surveillance import SurveillanceSystem, TrafficClass

HTTP_REQUEST = b"GET / HTTP/1.1\r\nHost: twitter.com\r\nUser-Agent: t\r\n\r\n"


def _tcp(src, dst, sport, dport, seq, flags, payload=b""):
    return IPPacket(
        src=src, dst=dst,
        payload=TCPSegment(sport=sport, dport=dport, seq=seq,
                           flags=flags, payload=payload),
    )


def build_trace():
    """A deterministic mixed trace: one interest-alert HTTP flow (split
    across segments so reassembly matters), p2p noise, DNS, filler."""
    packets = []
    now = 0.0

    def emit(packet):
        nonlocal now
        packets.append((packet, now))
        now += 0.01

    # HTTP flow from HOME_NET to a censored host: full handshake (the
    # interest rules require flow:established), then the request split
    # into small segments so reassembly matters.
    client, server = "10.1.0.5", "93.184.216.34"
    emit(_tcp(client, server, 43000, 80, 100, SYN))
    emit(_tcp(server, client, 80, 43000, 500, SYN | ACK))
    emit(_tcp(client, server, 43000, 80, 101, ACK))
    seq = 101
    for start in range(0, len(HTTP_REQUEST), 7):
        chunk = HTTP_REQUEST[start:start + 7]
        emit(_tcp(client, server, 43000, 80, seq, PSH | ACK, chunk))
        seq += len(chunk)

    # Interleaved p2p traffic (classified by port, discarded by MVR).
    for i in range(6):
        emit(_tcp("10.1.0.7", "203.0.113.9", 51000 + i, 6881, 5,
                  PSH | ACK, b"p2p-chunk-%d" % i))

    # DNS queries and filler UDP.
    for i in range(4):
        emit(IPPacket(src="10.1.0.5", dst="8.8.8.8",
                      payload=UDPDatagram(sport=52000 + i, dport=53,
                                          payload=b"\x00" * 12)))
    for i in range(5):
        emit(IPPacket(src="10.1.0.8", dst="198.51.100.2",
                      payload=UDPDatagram(sport=53000, dport=9999,
                                          payload=b"filler")))
    return packets


def _feed(surv, trace):
    for packet, when in trace:
        assert surv.process(packet, TapContext(None, None, when)).name == "PASS"


def _fingerprint(surv):
    """Everything observable: counters, retention records, alert stream."""
    return {
        "summary": surv.summary(),
        "alerts": [(s.time, s.alert.sid, s.alert.src) for s in surv.store.alerts],
        "engine_alerts": [(a.time, a.sid) for a in surv.engine.alerts],
        "discarded": dict(surv.discarded_by_class),
        "retained": dict(surv.retained_by_class),
        "content": [(r.time, r.src, r.size) for r in surv.store.content],
    }


class TestBatchInvariance:
    def test_batch_size_does_not_change_results(self):
        trace = build_trace()
        fingerprints = []
        for batch_size in (1, 4, 32, 1000):
            surv = SurveillanceSystem()
            surv.batch_size = batch_size
            _feed(surv, trace)
            fingerprints.append(_fingerprint(surv))
        assert fingerprints[0]["engine_alerts"], "trace must fire rules"
        for other in fingerprints[1:]:
            assert other == fingerprints[0]

    def test_replay_preserves_arrival_order(self):
        surv = SurveillanceSystem()
        surv.batch_size = 1000  # everything drains in one flush
        _feed(surv, build_trace())
        times = [record.time for record in surv.store.content]
        assert times == sorted(times)


class TestPartialBufferDraining:
    def test_query_flushes_pending_packets(self):
        surv = SurveillanceSystem()  # batch_size 32 > trace below
        trace = build_trace()[:5]
        _feed(surv, trace)
        assert surv._batch, "packets should still be buffered"
        assert surv.store.bytes_seen == 0  # pipeline has not run yet
        summary = surv.summary()  # any query drains the buffer
        assert not surv._batch
        assert summary["packets_seen"] == 5
        assert summary["bytes_seen"] > 0

    def test_accounting_properties_flush(self):
        surv = SurveillanceSystem()
        _feed(surv, [( _tcp("10.0.0.7", "203.0.113.9", 51000, 6881, 5,
                            PSH | ACK, b"p2p"), 0.0)])
        assert surv._batch
        assert surv.discarded_by_class[TrafficClass.P2P] > 0
        assert surv.bytes_discarded > 0
        assert not surv._batch

    def test_registry_read_drains_buffer(self):
        """The metrics registry's flush hooks make mvr_* counters exact
        even when a batch boundary has not been reached."""
        registry = MetricsRegistry()
        with use_registry(registry):
            surv = SurveillanceSystem()
            trace = build_trace()[:7]
            _feed(surv, trace)
            assert surv._batch
            counter = registry.get("mvr_packets_ingested_total")
            assert counter is not None and counter.total() == 7
            assert not surv._batch

    def test_registry_snapshot_drains_buffer(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            surv = SurveillanceSystem()
            _feed(surv, build_trace()[:3])
            assert surv._batch
            snapshot = registry.snapshot()
            assert not surv._batch
            values = snapshot["instruments"]["mvr_packets_ingested_total"]["values"]
            assert sum(value for _labels, value in values) == 3


def _population_store(batch_size, users=300, duration=3.0, seed=3):
    """A censored-AS population run with the MVR at ``batch_size``."""
    env = build_environment(censored=True, seed=seed, synthetic_users=users)
    surv = env.surveillance
    surv.batch_size = batch_size
    env.population.start(duration)
    env.run(duration=duration + 2.0)
    summary = surv.summary()
    store = surv.store
    return {
        "summary": summary,
        "content": [
            (r.time, r.src, r.dst, r.size, r.summary) for r in store.content
        ],
        "alerts": [
            (s.time, s.alert.sid, s.alert.src, s.alert.dst, s.user, s.origin_ip)
            for s in store.alerts
        ],
        "flows": [
            (key, f.first_seen, f.last_seen, f.packets, f.bytes)
            for key, f in store.flows.items()
        ],
    }


class TestPopulationBatchInvariance:
    def test_batch_size_one_equals_default_on_a_population_run(self):
        """Routers downstream of the tap decrement the buffered packet's
        TTL before the batch runs; the retained summaries must still
        carry the TTL the tap saw."""
        default = _population_store(SurveillanceSystem.batch_size)
        single = _population_store(1)
        assert default["content"], "the run must retain content"
        assert any("ttl=" in row[4] for row in default["content"])
        for key in ("summary", "content", "alerts", "flows"):
            assert single[key] == default[key], key
