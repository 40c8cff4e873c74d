"""The process-wide shared automaton cache and its copy-on-write contract.

Sweep workers persist across points and rebuild identical rulesets per
point; ``shared_automaton`` turns every rebuild after the first into a
dict lookup.  Sharing is only sound if (a) scans never mutate a
finalized automaton, and (b) an engine that *extends* its ruleset
replaces the shared instance instead of editing it under its siblings —
with a version that still invalidates saved stream-scan states.
"""

import pytest

from repro.rules import DEFAULT_VARIABLES, RuleEngine, parse_ruleset
from repro.rules.multipattern import (
    MultiPatternAutomaton,
    StreamScanState,
    clear_automaton_cache,
    shared_automaton,
)
from repro.rules.rulesets import censor_ruleset_text, mvr_detection_ruleset_text

EXTRA_RULE = (
    'alert tcp any any -> any 8081 '
    '(msg:"CACHE cowtest"; content:"cowtest-needle"; sid:990001;)'
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_automaton_cache()
    yield
    clear_automaton_cache()


def censor_rules():
    return parse_ruleset(censor_ruleset_text(), dict(DEFAULT_VARIABLES))


class TestSharedAutomaton:
    def test_same_ruleset_shares_one_instance(self):
        first = shared_automaton(censor_rules())
        second = shared_automaton(censor_rules())
        assert first is second
        assert first.shared

    def test_cache_key_is_the_literal_set(self):
        """Two textually different rulesets with identical content
        literals share an automaton — matching depends on literals only."""
        base = parse_ruleset(
            'alert tcp any any -> any 80 (msg:"a"; content:"needle-x"; sid:1;)',
            {},
        )
        reordered = parse_ruleset(
            'alert tcp any any -> any 443 (msg:"b"; content:"needle-x"; sid:2;)',
            {},
        )
        assert shared_automaton(base) is shared_automaton(reordered)

    def test_distinct_literal_sets_do_not_collide(self):
        censor = shared_automaton(censor_rules())
        mvr = shared_automaton(
            parse_ruleset(mvr_detection_ruleset_text(), dict(DEFAULT_VARIABLES))
        )
        assert censor is not mvr

    def test_returned_automaton_is_finalized(self):
        automaton = shared_automaton(censor_rules())
        assert automaton.version >= 1
        assert automaton.ensure_ready() == automaton.version  # no re-finalize

    def test_clear_reports_and_empties(self):
        shared_automaton(censor_rules())
        assert clear_automaton_cache() == 1
        assert clear_automaton_cache() == 0
        rebuilt = shared_automaton(censor_rules())
        assert rebuilt.shared

    def test_scan_matches_naive_reference(self):
        automaton = shared_automaton(censor_rules())
        for haystack in (
            b"GET / HTTP/1.1\r\nHost: twitter.com\r\n\r\n",
            b"no signatures at all " * 20,
            b"\x13BitTorrent protocol" + b"\x00" * 48,
        ):
            assert automaton.scan(haystack) == automaton.naive_present(haystack)


class TestEngineIntegration:
    def test_engines_from_same_text_share(self):
        text = censor_ruleset_text()
        first = RuleEngine.from_text(text, variables=DEFAULT_VARIABLES)
        second = RuleEngine.from_text(text, variables=DEFAULT_VARIABLES)
        assert first._mp is second._mp

    def test_add_rules_copies_before_writing(self):
        text = censor_ruleset_text()
        extender = RuleEngine.from_text(text, variables=DEFAULT_VARIABLES)
        bystander = RuleEngine.from_text(text, variables=DEFAULT_VARIABLES)
        original = extender._mp
        known_before = original.known_ids()

        extender.add_rules(EXTRA_RULE)

        assert extender._mp is not original, "shared automaton extended in place"
        assert not extender._mp.shared
        assert bystander._mp is original
        assert original.known_ids() == known_before

    def test_replacement_covers_the_full_ruleset(self):
        extender = RuleEngine.from_text(
            censor_ruleset_text(), variables=DEFAULT_VARIABLES
        )
        extender.add_rules(EXTRA_RULE)
        haystack = b"GET /cowtest-needle HTTP/1.1\r\nHost: twitter.com\r\n\r\n"
        present = extender._mp.scan(haystack)
        assert present == extender._mp.naive_present(haystack)
        assert len(extender._mp) > len(shared_automaton(censor_rules()))

    def test_replacement_version_invalidates_saved_stream_states(self):
        """A per-flow scan state saved against the shared automaton must
        compare stale against the private replacement, or stale ``present``
        sets would be extended silently."""
        extender = RuleEngine.from_text(
            censor_ruleset_text(), variables=DEFAULT_VARIABLES
        )
        stale = StreamScanState(extender._mp.ensure_ready(), content_version=0)
        extender.add_rules(EXTRA_RULE)
        assert extender._mp.ensure_ready() > stale.automaton_version

    def test_second_extension_stays_private_and_incremental(self):
        extender = RuleEngine.from_text(
            censor_ruleset_text(), variables=DEFAULT_VARIABLES
        )
        extender.add_rules(EXTRA_RULE)
        replacement = extender._mp
        extender.add_rules(
            'alert tcp any any -> any 8082 '
            '(msg:"CACHE two"; content:"second-needle"; sid:990002;)'
        )
        assert extender._mp is replacement  # private now; extended in place

    def test_cached_engine_still_alerts(self):
        """End to end: a second engine built from the cache detects the
        same traffic the first does."""
        from repro.packets import ACK, IPPacket, PSH, SYN, TCPSegment

        def tcp(src, dst, sport, dport, flags, seq=0, ack=0, payload=b""):
            return IPPacket(src=src, dst=dst, payload=TCPSegment(
                sport=sport, dport=dport, seq=seq, ack=ack,
                flags=flags, payload=payload,
            ))

        text = censor_ruleset_text()
        RuleEngine.from_text(text, variables=DEFAULT_VARIABLES)  # warm
        engine = RuleEngine.from_text(text, variables=DEFAULT_VARIABLES)
        client, server = "10.1.0.5", "203.0.113.10"
        alerts = []
        alerts += engine.process(tcp(client, server, 40000, 80, SYN, seq=100), 0.0)
        alerts += engine.process(
            tcp(server, client, 80, 40000, SYN | ACK, seq=500, ack=101), 0.01
        )
        alerts += engine.process(
            tcp(client, server, 40000, 80, ACK, seq=101, ack=501), 0.02
        )
        alerts += engine.process(
            tcp(client, server, 40000, 80, PSH | ACK, seq=101, ack=501,
                payload=b"GET / HTTP/1.1\r\nHost: twitter.com\r\n\r\n"),
            0.03,
        )
        assert alerts, "cached-automaton engine raised no alerts"


class TestAutomatonSharedFlagDefault:
    def test_privately_built_automatons_are_not_shared(self):
        automaton = MultiPatternAutomaton()
        automaton.add_rules(censor_rules())
        assert not automaton.shared
