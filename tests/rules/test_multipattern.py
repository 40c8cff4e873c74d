"""The multipattern automaton's contract: exact hits, never a superset.

The prefilter is only sound if :meth:`MultiPatternAutomaton.scan` reports
*precisely* the literals present in a haystack — a missed literal would
silently drop alerts, an invented one merely wastes work.  Hypothesis
drives the automaton with adversarial literal sets (overlapping needles,
shared prefixes/suffixes, case-sensitive and nocase members of the same
folded pattern) over small and large one-shot haystacks, long filler
runs like the population traffic's bodies, and the incremental chunked
stream scan (whose overlap resume must catch literals straddling chunk
ends), always comparing against the one-``in``-per-literal reference
semantics.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rules import RuleEngine, parse_rule
from repro.rules.multipattern import (
    MultiPatternAutomaton,
    anchor_literal_id,
    intern_literal,
    literal_of,
    required_literal_ids,
)

# A deliberately tiny alphabet so random needles overlap, nest, and share
# prefixes constantly — the hard cases for failure links and output
# collapsing.  Mixed case exercises folding + raw confirmation.
ALPHABET = list(b"abAB")
HAY_ALPHABET = list(b"abABcd")

needles = st.lists(
    st.sampled_from(ALPHABET), min_size=1, max_size=5
).map(bytes)

#: (needle, nocase) pairs honouring the parser contract: nocase needles
#: arrive pre-lowered (``ContentOption.needle()`` lowers them once).
literals = st.lists(
    st.tuples(needles, st.booleans()).map(
        lambda pair: (pair[0].lower(), True) if pair[1] else (pair[0], False)
    ),
    min_size=1,
    max_size=12,
)

haystacks = st.lists(
    st.sampled_from(HAY_ALPHABET), min_size=0, max_size=80
).map(bytes)

#: one-shot haystacks well past the small-haystack strategy's 80 bytes
LARGE_MIN = 257
LARGE_MAX = 456

large_haystacks = st.lists(
    st.sampled_from(HAY_ALPHABET), min_size=LARGE_MIN, max_size=LARGE_MAX
).map(bytes)


def _build(literal_pairs):
    automaton = MultiPatternAutomaton()
    for needle, nocase in literal_pairs:
        automaton.add_literal(needle, nocase)
    return automaton


def _reference(automaton, haystack):
    """What every strategy must report: one ``in`` per known literal."""
    lowered = haystack.lower()
    return {
        lid
        for lid in automaton.known_ids()
        if literal_of(lid)[0] in (lowered if literal_of(lid)[1] else haystack)
    }


class TestScanExactness:
    @settings(max_examples=300, deadline=None)
    @given(literals, haystacks)
    def test_dfa_scan_equals_naive_in(self, literal_pairs, haystack):
        automaton = _build(literal_pairs)
        assert automaton.scan(haystack) == _reference(automaton, haystack)

    @settings(max_examples=60, deadline=None)
    @given(literals, large_haystacks)
    def test_large_haystack_path_equals_naive_in(self, literal_pairs, haystack):
        assert LARGE_MIN <= len(haystack) <= LARGE_MAX
        automaton = _build(literal_pairs)
        assert automaton.scan(haystack) == _reference(automaton, haystack)

    @settings(max_examples=150, deadline=None)
    @given(literals, haystacks, st.integers(min_value=1, max_value=7))
    def test_chunked_stream_scan_equals_one_shot(
        self, literal_pairs, haystack, step
    ):
        """Resumable scanning over a growing buffer sees cross-chunk
        matches and reports the same set as one scan of the final buffer."""
        automaton = _build(literal_pairs)
        present = set()
        scanned = 0
        for end in range(step, len(haystack) + step, step):
            buffer = haystack[:end]
            automaton.scan_chunk(buffer.lower(), buffer, scanned, present)
            scanned = len(buffer)
        assert present == _reference(automaton, haystack)

    @settings(max_examples=100, deadline=None)
    @given(literals, literals, haystacks)
    def test_midlife_extension_rescans_correctly(
        self, first, second, haystack
    ):
        """add_literal after a scan extends the automaton; the next scan
        reflects the union and bumps the version (stream-state fencing)."""
        automaton = _build(first)
        automaton.scan(haystack)
        version_before = automaton.ensure_ready()
        known_before = automaton.known_ids()
        for needle, nocase in second:
            automaton.add_literal(needle, nocase)
        grew = not (automaton.known_ids() <= known_before)
        assert automaton.scan(haystack) == _reference(automaton, haystack)
        if grew:
            # a genuine extension re-finalized; the stream-state fence
            # (the version ensure_ready reports) must have moved past
            # every saved StreamScanState
            assert automaton.ensure_ready() > version_before


#: Population traffic bodies are long runs of one byte: web 0x20, SMTP
#: 0x41, video 0x56; ``f`` stands in for a filler that starts a literal.
FILLER_BYTES = (0x20, 0x41, 0x56, ord("f"))
MSS = 1460


@st.composite
def filler_runs(draw):
    """(literal pairs, haystack, splice spans) over long single-byte runs.

    Literals start with filler bytes, so the search stops at many run
    positions where no whole literal matches.  Spliced copies may be
    re-cased, which exercises case-sensitive confirmation.
    """
    fills = [bytes([byte]) for byte in FILLER_BYTES]
    literal_pairs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(fills),
                st.integers(min_value=0, max_value=3),
                st.lists(st.sampled_from(list(b"xyXY. ")), max_size=4).map(bytes),
                st.booleans(),
            ).map(
                lambda t: (
                    ((t[0] * (1 + t[1]) + t[2]).lower(), True)
                    if t[3]
                    else (t[0] * (1 + t[1]) + t[2], False)
                )
            ),
            min_size=1,
            max_size=8,
        )
    )
    haystack = bytearray()
    spans = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        haystack += draw(st.sampled_from(fills)) * draw(
            st.integers(min_value=0, max_value=2500)
        )
        needle = draw(st.sampled_from(literal_pairs))[0]
        if draw(st.booleans()):
            needle = needle.upper()
        spans.append((len(haystack), len(haystack) + len(needle)))
        haystack += needle
    haystack += draw(st.sampled_from(fills)) * draw(
        st.integers(min_value=0, max_value=2500)
    )
    return literal_pairs, bytes(haystack), spans


class TestFillerRuns:
    @settings(max_examples=80, deadline=None)
    @given(filler_runs())
    def test_one_shot_scan_equals_naive_present(self, case):
        literal_pairs, haystack, _spans = case
        automaton = _build(literal_pairs)
        assert automaton.scan(haystack) == automaton.naive_present(haystack)

    @settings(max_examples=80, deadline=None)
    @given(filler_runs(), st.lists(st.integers(min_value=1, max_value=MSS), max_size=12))
    def test_chunked_stream_scan_equals_naive_present(self, case, sizes):
        """Segments of at most one MSS, with a cut inside every spliced
        literal so each one straddles two chunks."""
        literal_pairs, haystack, spans = case
        automaton = _build(literal_pairs)
        cuts = {(start + end) // 2 for start, end in spans if end - start > 1}
        at = 0
        for size in sizes:
            at += size
            cuts.add(at)
        ends = []
        previous = 0
        for cut in sorted(c for c in cuts if 0 < c < len(haystack)) + [len(haystack)]:
            while cut - previous > MSS:
                previous += MSS
                ends.append(previous)
            ends.append(cut)
            previous = cut
        present = set()
        scanned = 0
        for end in ends:
            buffer = haystack[:end]
            automaton.scan_chunk(buffer.lower(), buffer, scanned, present)
            scanned = end
        assert present == automaton.naive_present(haystack)


class TestEmptyLiteral:
    def test_empty_needle_is_rejected(self):
        """An empty literal would match at every position; the parser
        never produces one, so the automaton refuses it outright."""
        automaton = MultiPatternAutomaton()
        for nocase in (True, False):
            with pytest.raises(ValueError):
                automaton.add_literal(b"", nocase)
        assert len(automaton) == 0
        assert automaton.scan(b"") == automaton.naive_present(b"") == set()


class TestOverlappingLiterals:
    def test_nested_and_overlapping_needles_all_hit(self):
        automaton = MultiPatternAutomaton()
        ids = {
            needle: automaton.add_literal(needle, False)
            for needle in (b"ab", b"bab", b"abab", b"b")
        }
        present = automaton.scan(b"xabab")
        assert present == set(ids.values())

    def test_case_variants_are_distinct_ids(self):
        automaton = MultiPatternAutomaton()
        sensitive = automaton.add_literal(b"Host", False)
        folded = automaton.add_literal(b"host", True)
        assert sensitive != folded
        assert automaton.scan(b"xx Host yy") == {sensitive, folded}
        assert automaton.scan(b"xx HOST yy") == {folded}
        assert automaton.scan(b"xx host yy") == {folded}


class TestRuleCaches:
    def test_required_ids_and_anchor(self):
        rule = parse_rule(
            'alert tcp any any -> any 80 (msg:"t"; content:"short"; '
            'content:"a-much-longer-literal"; '
            'content:!"an-even-longer-negated-literal"; sid:990001;)'
        )
        required = required_literal_ids(rule)
        anchor = anchor_literal_id(rule)
        assert required == {
            intern_literal(b"short", False),
            intern_literal(b"a-much-longer-literal", False),
        }
        # the longest *non-negated* content anchors the rule
        assert anchor == intern_literal(b"a-much-longer-literal", False)
        # cached on the rule object (hot path does attribute access only)
        assert rule._mp_required is required
        assert rule._mp_anchor == anchor
        # a nocase anchor is interned lowered, as a nocase literal
        mixed = parse_rule(
            'alert tcp any any -> any 80 (msg:"t"; content:"MiXeD"; nocase; '
            'sid:990003;)'
        )
        assert anchor_literal_id(mixed) == intern_literal(b"mixed", True)

    def test_negated_only_rule_has_no_required_ids(self):
        rule = parse_rule(
            'alert udp any any -> any 53 (msg:"t"; content:!"benign"; '
            'dsize:>0; sid:990002;)'
        )
        assert required_literal_ids(rule) is None
        assert anchor_literal_id(rule) is None


class TestStreamRewriteFencing:
    def test_last_policy_rewrite_is_rescanned(self):
        """A retransmission that rewrites buffered bytes (overlap policy
        "last") must invalidate the saved scan state — the multipattern
        engine has to alert exactly like the naive scan on the new
        content."""
        text = 'alert tcp any any -> any 80 (msg:"evil"; content:"evil"; sid:990010;)'
        fast = RuleEngine.from_text(text, overlap_policy="last")
        naive = RuleEngine.from_text(text, overlap_policy="last",
                                     use_index=False)
        from repro.packets import ACK, IPPacket, PSH, TCPSegment

        def seg(payload, seq):
            return IPPacket(
                src="10.0.0.1", dst="10.0.0.2",
                payload=TCPSegment(sport=40000, dport=80, seq=seq,
                                   flags=PSH | ACK, payload=payload),
            )

        for when, packet in [(0.0, seg(b"good", 100)), (0.1, seg(b"evil", 100))]:
            assert [a.sid for a in fast.process(packet, when)] == \
                [a.sid for a in naive.process(packet, when)]
        assert [a.sid for a in fast.alerts] == [990010]


def _seg(payload, seq, sport=40000):
    from repro.packets import ACK, IPPacket, PSH, TCPSegment

    return IPPacket(
        src="10.0.0.1", dst="10.0.0.2",
        payload=TCPSegment(sport=sport, dport=80, seq=seq,
                           flags=PSH | ACK, payload=payload),
    )


class TestEngineAddRules:
    """Each indexed engine owns its automaton; ``add_rules`` extends it in
    place, and the version fence makes saved stream scans start over."""

    BASE = 'alert tcp any any -> any 80 (msg:"evil"; content:"evil"; sid:990020;)'
    EXTRA = ('alert tcp any any -> any 80 '
             '(msg:"late"; content:"late-needle"; sid:990021;)')

    def test_add_rules_extends_the_private_automaton_in_place(self):
        engine = RuleEngine.from_text(self.BASE)
        sibling = RuleEngine.from_text(self.BASE)
        automaton = engine._mp
        assert automaton is not sibling._mp
        known_before = automaton.known_ids()
        engine.add_rules(self.EXTRA)
        assert engine._mp is automaton
        assert automaton.known_ids() == known_before | {
            intern_literal(b"late-needle", False)
        }
        assert sibling._mp.known_ids() == known_before
        haystack = b"an evil late-needle here"
        assert automaton.scan(haystack) == automaton.naive_present(haystack)

    def test_saved_stream_state_is_rescanned_after_add_rules(self):
        engine = RuleEngine.from_text(self.BASE)
        engine.process(_seg(b"x" * 64, 100), 0.0)
        flow = next(iter(engine.reassembler.flows.values()))
        stale = flow.mp_states["c2s"]
        engine.add_rules(self.EXTRA)
        assert engine._mp.ensure_ready() > stale.automaton_version

    def test_flow_straddling_add_rules_alerts_like_the_oracle(self):
        """The new literal sits far before the saved scan end, so only a
        rescan from byte 0 — not the overlap resume — can find it."""
        fast = RuleEngine.from_text(self.BASE)
        oracle = RuleEngine.from_text(self.BASE, use_index=False)
        first = b"late-needle" + b"." * 200
        before = _seg(first, 100)
        after = _seg(b"tail", 100 + len(first))
        for engine in (fast, oracle):
            assert engine.process(before, 0.0) == []
            engine.add_rules(self.EXTRA)
        fired = [a.sid for a in fast.process(after, 0.1)]
        assert fired == [a.sid for a in oracle.process(after, 0.1)]
        assert fired == [990021]
