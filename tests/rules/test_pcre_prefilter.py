"""Literal-alternation pcres in the multipattern prefilter.

A pcre such as ``/viagra|casino/i`` can only match where one of its
alternatives occurs, so the engine may skip the rule (and its regex)
when none of them is among the present literals.  These tests pin down
which pcres qualify, that a qualifying rule is revived once and in
ruleset order, that the ``rules_prefilter_skips_total`` counter keeps
counting content rules only, and — as a Hypothesis property over TCP
streams and UDP datagrams — that the engine raises exactly the alerts
of the ``use_index=False`` reference scan, which runs every pcre.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.packets import ACK, IPPacket, PSH, SYN, TCPSegment, UDPDatagram
from repro.rules import RuleEngine, parse_rule
from repro.rules.matcher import PcreOption
from repro.rules.multipattern import (
    MultiPatternAutomaton,
    anyof_literal_ids,
    intern_literal,
    pcre_literal_alternatives,
    required_literal_ids,
)


def _alternatives(text):
    return pcre_literal_alternatives(PcreOption.parse(text))


def _rule(options, proto="tcp", port="25", sid=995000):
    return parse_rule(
        f'alert {proto} any any -> any {port} (msg:"t"; {options} sid:{sid};)'
    )


class TestExtractor:
    def test_nocase_alternation_is_lowered(self):
        assert _alternatives("/viagra|WINNER|100% guaranteed/i") == (
            (b"viagra", True),
            (b"winner", True),
            (b"100% guaranteed", True),
        )

    def test_case_sensitive_alternation_keeps_case(self):
        assert _alternatives("/Foo|bar/") == ((b"Foo", False), (b"bar", False))

    def test_single_literal_qualifies(self):
        assert _alternatives("/casino/s") == ((b"casino", False),)

    @pytest.mark.parametrize(
        "text",
        [
            "/a.b/", "/^ab/", "/ab$/", "/a*b/", "/a+b/", "/ab?/", "/a{2}/",
            "/a}b/", "/[ab]/", "/a]b/", "/(ab)/", r"/a\db/",
        ],
    )
    def test_metacharacters_disqualify(self, text):
        assert _alternatives(text) is None

    def test_escaped_bar_disqualifies(self):
        assert _alternatives(r"/a\|b/") is None
        rule = _rule(r'pcre:"/wire\|transfer/";')
        assert rule.pcres[0].matches(b"wire|transfer")
        assert anyof_literal_ids(rule) is None

    @pytest.mark.parametrize("text", ["/a||b/", "/|a/", "/a|/", "/|/", "//"])
    def test_empty_alternative_disqualifies(self, text):
        assert _alternatives(text) is None

    def test_inline_flag_disqualifies(self):
        assert _alternatives("/(?i)casino/") is None

    def test_verbose_mode_disqualifies(self):
        # under re.VERBOSE the space is not literal: "cheapmeds" matches
        pcre = PcreOption(regex=re.compile(b"cheap meds", re.VERBOSE))
        assert pcre.matches(b"cheapmeds")
        assert pcre_literal_alternatives(pcre) is None

    def test_negated_pcre_disqualifies(self):
        assert _alternatives("!/casino/i") is None
        rule = _rule('pcre:"!/casino/i";')
        assert rule.pcres[0].negated
        assert anyof_literal_ids(rule) is None

    def test_rule_with_content_gets_no_anyof_set(self):
        rule = _rule('content:"MAIL FROM"; pcre:"/casino|viagra/i";')
        assert required_literal_ids(rule) is not None
        assert anyof_literal_ids(rule) is None

    def test_negated_content_leaves_the_pcre_filterable(self):
        rule = _rule('content:!"benign"; pcre:"/casino|viagra/i";')
        assert required_literal_ids(rule) is None
        assert anyof_literal_ids(rule) == {
            intern_literal(b"casino", True),
            intern_literal(b"viagra", True),
        }

    def test_first_literal_pcre_supplies_the_set(self):
        rule = _rule('pcre:"/ca.ino/"; pcre:"/Viagra|pills/";')
        assert anyof_literal_ids(rule) == {
            intern_literal(b"Viagra", False),
            intern_literal(b"pills", False),
        }

    def test_set_is_cached_on_the_rule(self):
        rule = _rule('pcre:"/casino|viagra/i";')
        ids = anyof_literal_ids(rule)
        assert rule._mp_anyof is ids
        assert anyof_literal_ids(rule) is ids

    def test_non_literal_rule_caches_none(self):
        rule = _rule('pcre:"/ca.ino/";')
        assert anyof_literal_ids(rule) is None
        assert rule._mp_anyof is None


class TestAutomaton:
    def test_alternatives_join_the_automaton(self):
        rules = [_rule('pcre:"/Zebra|quokka/i";', sid=995101)]
        automaton = MultiPatternAutomaton()
        automaton.add_rules(rules)
        assert automaton.known_ids() == anyof_literal_ids(rules[0])
        assert automaton.scan(b"a QUOKKA here") == {intern_literal(b"quokka", True)}
        plain = MultiPatternAutomaton()
        plain.add_rules([_rule('pcre:"/Zebra|qu.kka/i";', sid=995102)])
        assert plain.known_ids() == frozenset()


class _CountingPcre:
    """Stands in for a rule's PcreOption and counts regex runs."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def matches(self, data):
        self.calls += 1
        return self.inner.matches(data)


SMTP_RULES = "\n".join([
    'alert tcp any any -> any 25 (msg:"spam"; pcre:"/viagra|WINNER|cheap meds/i"; '
    'flow:to_server,established; sid:995201;)',
    'alert tcp any any -> any 25 (msg:"mail"; content:"MAIL FROM"; nocase; '
    'flow:to_server,established; sid:995202;)',
    'alert tcp any any -> any 25 (msg:"any data"; dsize:>0; sid:995203;)',
])


def _tcp(src, dst, sport, dport, flags, seq=0, payload=b""):
    return IPPacket(src=src, dst=dst,
                    payload=TCPSegment(sport=sport, dport=dport, seq=seq,
                                       flags=flags, payload=payload))


def _smtp_trace(segments):
    client, server = "10.3.0.1", "198.51.100.25"
    trace = [
        (0.0, _tcp(client, server, 41000, 25, SYN, seq=99)),
        (0.01, _tcp(server, client, 25, 41000, SYN | ACK, seq=499)),
        (0.02, _tcp(client, server, 41000, 25, ACK, seq=100)),
    ]
    seq = 100
    for index, chunk in enumerate(segments):
        trace.append((0.1 + index * 0.01,
                      _tcp(client, server, 41000, 25, PSH | ACK, seq=seq, payload=chunk)))
        seq += len(chunk)
    return trace


def _keys(alerts):
    return [(round(a.time, 6), a.sid, a.src, a.dst, a.sport, a.dport) for a in alerts]


class TestEngineFilter:
    def _engines(self, text=SMTP_RULES, sid=995201):
        fast = RuleEngine.from_text(text)
        naive = RuleEngine.from_text(text, use_index=False)
        spies = []
        for engine in (fast, naive):
            rule = engine.rule_by_sid(sid)
            spy = _CountingPcre(rule.pcres[0])
            rule.pcres[0] = spy
            spies.append(spy)
        return fast, naive, spies

    def test_spam_free_stream_never_runs_the_regex(self):
        fast, naive, (fast_spy, naive_spy) = self._engines()
        segments = [b"HELO relay.example\r\n", b"MAIL FROM:<a@example.org>\r\n",
                    b"RCPT TO:<b@example.net>\r\n", b"DATA\r\n", b"hello there\r\n"]
        trace = _smtp_trace(segments)
        for when, packet in trace:
            assert _keys(fast.process(packet, when)) == _keys(naive.process(packet, when))
        assert naive_spy.calls == len(segments)
        assert fast_spy.calls == 0
        assert 995202 in {a.sid for a in fast.alerts}

    def test_regex_runs_once_a_literal_arrives(self):
        fast, naive, (fast_spy, _naive_spy) = self._engines()
        trace = _smtp_trace([b"MAIL FROM:<a@x>\r\n", b"buy vIa", b"gra now\r\n", b"more\r\n"])
        for when, packet in trace:
            assert _keys(fast.process(packet, when)) == _keys(naive.process(packet, when))
        # the literal completes in the third segment; from then on every
        # segment re-runs the regex (the rule already fired once per flow)
        assert fast_spy.calls == 2
        assert [a.sid for a in fast.alerts].count(995201) == 1

    def test_rule_revived_by_two_alternatives_is_evaluated_once(self):
        fast, naive, (fast_spy, _naive_spy) = self._engines()
        trace = _smtp_trace([b"WINNER! cheap meds and viagra\r\n"])
        alerts = []
        for when, packet in trace:
            got = fast.process(packet, when)
            assert _keys(got) == _keys(naive.process(packet, when))
            alerts.extend(got)
        assert fast_spy.calls == 1
        # ruleset order: spam pcre (995201) before the dsize rule (995203)
        assert [a.sid for a in alerts] == [995201, 995203]

    def test_oracle_runs_every_pcre(self):
        _fast, naive, (_fast_spy, naive_spy) = self._engines()
        trace = _smtp_trace([b"a\r\n", b"b\r\n", b"c\r\n"])
        for when, packet in trace:
            naive.process(packet, when)
        assert naive_spy.calls == 3

    def test_prefilter_skip_counter_counts_content_rules_only(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = RuleEngine.from_text(SMTP_RULES)
        trace = _smtp_trace([b"HELO x\r\n", b"no spam here\r\n"])
        for when, packet in trace:
            engine.process(packet, when)
        engine.flush_obs()
        skips = registry.get("rules_prefilter_skips_total").total()
        # only the content rule (995202) was ever skipped: once per packet
        # on port 25 (five packets, none containing "mail from"); the
        # spam pcre was skipped on every one of them too, uncounted
        assert skips == len(trace)


# -- equivalence with the reference scan ----------------------------------------

#: literal alternatives, no regex metacharacter among them
VOCAB = ["viagra", "Winner", "cheap meds", "casino", "wire transfer", "100% sure",
         "quokka", "ZEBRA", "ab", "abab"]
FILLER = b"abcdeqz WXYZ0189%\r\n"

PROPERTY_RULES = "\n".join([
    'alert tcp any any -> any 25 (msg:"tcp i"; pcre:"/viagra|Winner|cheap meds|100% sure/i"; '
    'flow:to_server,established; sid:996001;)',
    'alert tcp any any -> any 25 (msg:"tcp cs"; pcre:"/casino|ZEBRA|abab/"; sid:996002;)',
    'alert tcp any any -> any 25 (msg:"tcp content"; content:"quokka"; nocase; sid:996003;)',
    'alert tcp any any -> any any (msg:"tcp regex"; pcre:"/wire.transfer/i"; sid:996004;)',
    'alert tcp any any -> any 25 (msg:"tcp empty alt"; pcre:"/zzz||qqq/"; sid:996005;)',
    'alert udp any any -> any 53 (msg:"udp i"; pcre:"/casino|quokka|ab/i"; sid:996011;)',
    'alert udp any any -> any 53 (msg:"udp cs"; pcre:"/Winner|ZEBRA/"; '
    'threshold: type both, track by_src, count 2, seconds 60; sid:996012;)',
    'alert udp any any -> any 53 (msg:"udp negated"; pcre:"!/viagra/i"; dsize:>3; sid:996013;)',
])


def _recase(word, mask):
    return bytes(
        ch ^ 0x20 if (mask >> i) & 1 and chr(ch).isalpha() else ch
        for i, ch in enumerate(word)
    )


@st.composite
def spliced_haystacks(draw):
    """Filler runs with re-cased alternatives (and their prefixes) spliced
    in; returns the haystack and the spans of the spliced pieces."""
    out = bytearray()
    spans = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        out += draw(st.binary(max_size=12).map(
            lambda raw: bytes(FILLER[b % len(FILLER)] for b in raw)))
        word = draw(st.sampled_from(VOCAB)).encode()
        if draw(st.booleans()):
            word = word[: draw(st.integers(min_value=1, max_value=len(word)))]
        word = _recase(word, draw(st.integers(min_value=0, max_value=2**16 - 1)))
        spans.append((len(out), len(out) + len(word)))
        out += word
    return bytes(out), spans


@st.composite
def stream_cuts(draw):
    """A haystack cut into segments, with a cut forced inside a splice."""
    haystack, spans = draw(spliced_haystacks())
    cuts = set(draw(st.lists(st.integers(min_value=1, max_value=max(1, len(haystack) - 1)),
                             max_size=6)))
    for start, end in spans:
        if end - start > 1:
            cuts.add(draw(st.integers(min_value=start + 1, max_value=end - 1)))
    bounds = [0] + sorted(c for c in cuts if 0 < c < len(haystack)) + [len(haystack)]
    return [haystack[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def _udp(src, payload, sport):
    return IPPacket(src=src, dst="192.0.2.53",
                    payload=UDPDatagram(sport=sport, dport=53, payload=payload))


def _property_trace(streams, datagrams):
    trace = []
    now = 0.0
    for flow, segments in enumerate(streams):
        client, port = f"10.4.0.{flow + 1}", 42000 + flow
        server = "198.51.100.25"
        trace.append((now, _tcp(client, server, port, 25, SYN, seq=99)))
        trace.append((now + 0.001, _tcp(server, client, 25, port, SYN | ACK, seq=499)))
        trace.append((now + 0.002, _tcp(client, server, port, 25, ACK, seq=100)))
        seq = 100
        for chunk in segments:
            now += 0.01
            trace.append((now, _tcp(client, server, port, 25, PSH | ACK,
                                    seq=seq, payload=chunk)))
            seq += len(chunk)
        now += 0.1
    for index, (haystack, _spans) in enumerate(datagrams):
        now += 0.01
        trace.append((now, _udp(f"10.5.0.{index % 3 + 1}", haystack, 50000 + index)))
    return trace


def _engine_pair():
    reference = RuleEngine.from_text(PROPERTY_RULES, use_index=False)
    fast = RuleEngine.from_text(PROPERTY_RULES)
    return reference, fast


class TestEquivalence:
    def test_property_ruleset_filters_what_it_should(self):
        _reference, fast = _engine_pair()
        filterable = {rule.sid for rule in fast.rules if rule._mp_anyof is not None}
        assert filterable == {996001, 996002, 996011, 996012}

    @settings(max_examples=120, deadline=None)
    @given(st.lists(stream_cuts(), min_size=1, max_size=3),
           st.lists(spliced_haystacks(), max_size=6))
    def test_alerts_equal_reference_scan(self, streams, datagrams):
        reference, fast = _engine_pair()
        for when, packet in _property_trace(streams, datagrams):
            expected = _keys(reference.process(packet, when))
            assert _keys(fast.process(packet, when)) == expected
        assert _keys(fast.alerts) == _keys(reference.alerts)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(stream_cuts(), min_size=1, max_size=3),
           st.lists(spliced_haystacks(), max_size=6))
    def test_batched_alerts_equal_reference_scan(self, streams, datagrams):
        reference, fast = _engine_pair()
        trace = _property_trace(streams, datagrams)
        expected = [_keys(reference.process(packet, when)) for when, packet in trace]
        got = fast.process_batch([p for _w, p in trace], [w for w, _p in trace])
        assert [_keys(alerts) for alerts in got] == expected

    def test_spliced_alternatives_fire_on_both_protocols(self):
        """The property's traces reach the filtered rules (a fixed example,
        so the property cannot pass by never matching)."""
        reference, fast = _engine_pair()
        # "caSINO" misses the case-sensitive rule; "cas|ino" across a cut hits
        streams = [[b"xx vIA", b"GRA yy caSINO cas", b"ino"]]
        # datagrams 0 and 3 share a source: the threshold (count 2) trips
        datagrams = [(b"Winner", []), (b"..QUOKKA..", []), (b"x", []), (b"Winner", [])]
        for when, packet in _property_trace(streams, datagrams):
            assert _keys(fast.process(packet, when)) == _keys(reference.process(packet, when))
        fired = {a.sid for a in fast.alerts}
        assert {996001, 996002, 996005, 996011, 996012} <= fired
