"""Ruleset-wide multi-pattern matching: one compiled literal prefilter.

Real IDSes do not test each rule's content literals independently — Snort
feeds *every* fast-pattern literal in the ruleset into one multi-pattern
search (Aho–Corasick / hyperscan) and runs a single pass over the payload;
the hits select which rules are worth full evaluation.  This module is that
layer for the reproduction's engine.

Design:

- **Global literal interning.**  Every distinct ``(needle, nocase)`` pair
  in any ruleset gets one process-wide integer id
  (:func:`intern_literal`).  Rule objects cache the frozenset of ids their
  non-negated contents require (:func:`required_literal_ids`) and a single
  representative *anchor* id (:func:`anchor_literal_id`, the longest
  needle — the rarest literal, mirroring Snort's fast-pattern choice).
  Ids are global so a Rule shared by two engines means the same thing in
  both automatons.

- **Compiled alternation.**  The distinct case-folded literals are
  compiled into one ``re`` alternation, longest first.  Its ``search``
  runs in C and stops only at positions where some folded literal
  starts; there the literals bucketed under that first byte are
  confirmed with ``startswith``.  A folded literal carries every member
  literal as a distinct id: ``nocase`` members (already stored lowered
  by the rule parser) hit whenever their folded form occurs, and
  case-sensitive members are confirmed against the raw haystack with
  ``haystack.startswith(needle, at)``.  The reported hit set is therefore
  exactly ``{id : needle in haystack}`` (lowered haystack for nocase
  ids), never a superset, and one pass over the folded payload serves
  both cases.

- **Overlap resume for streams.**  TCP rules match against the
  reassembled stream, which only grows (the ``"last"`` overlap policy can
  rewrite it, which bumps the flow's ``content_version`` and forces a
  rescan).  Any literal that ends past the ``scanned`` bytes seen so far
  starts at or after ``scanned - maxlen + 1``, so
  :meth:`MultiPatternAutomaton.scan_chunk` resumes there and each stream
  byte is searched at most ``maxlen`` times per flow lifetime, not once
  per packet.  One-shot and stream scans share the same search loop.

- **One automaton per engine.**  Each indexed :class:`RuleEngine` builds
  its own automaton, and :meth:`RuleEngine.add_rules` extends it in
  place.  A cold build is a literal walk plus one ``re.compile``, and
  ``re`` itself caches the compiled alternation, so engines rebuilt per
  sweep point over the same ruleset pay little for it.

- **Version fence.**  ``version`` increments on every finalize (the
  first scan after literals were added).  Saved :class:`StreamScanState`
  ``present`` sets carry the version they were built under, so a ruleset
  extension invalidates them and the stream is rescanned from byte 0.

Soundness of the prefilter: every non-negated ``content`` must occur
somewhere in the haystack for its rule to fire (``offset``/``depth`` only
narrow the window), so a rule whose required ids are not all present can
be skipped without evaluating headers or options.  A rule with no
non-negated content but a non-negated pcre that is a pure literal
alternation (``/viagra|casino/i``: no regex metacharacter, no empty
alternative) gets an *any-of* set instead (:func:`anyof_literal_ids`):
the regex can only match where one of its alternatives occurs (lowered
under ``/i``, whose bytes semantics fold ASCII exactly like
``bytes.lower``), so the rule can be skipped when none of them is
present.  Both filters are necessary conditions only — a surviving rule
still runs every option, its regex included.  Rules with neither
(header-only, negated-only, pcre-only with a real regex) are never
filtered.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = [
    "MultiPatternAutomaton",
    "StreamScanState",
    "intern_literal",
    "literal_table_size",
    "required_literal_ids",
    "anchor_literal_id",
    "pcre_literal_alternatives",
    "anyof_literal_ids",
]

# -- global literal interning --------------------------------------------------

#: process-wide ``(needle, nocase) -> literal id``; ids are stable for the
#: process lifetime so rules shared between engines agree on meaning.
_LITERAL_IDS: Dict[Tuple[bytes, bool], int] = {}
#: id -> (needle, nocase), for introspection and naive cross-checks
_LITERALS: List[Tuple[bytes, bool]] = []


def intern_literal(needle: bytes, nocase: bool) -> int:
    """Process-wide id for a content literal (deduped across rulesets)."""
    key = (needle, nocase)
    lid = _LITERAL_IDS.get(key)
    if lid is None:
        lid = len(_LITERALS)
        _LITERAL_IDS[key] = lid
        _LITERALS.append(key)
    return lid


def literal_of(lid: int) -> Tuple[bytes, bool]:
    """The ``(needle, nocase)`` pair behind an interned id."""
    return _LITERALS[lid]


def literal_table_size() -> int:
    return len(_LITERALS)


def required_literal_ids(rule) -> Optional[FrozenSet[int]]:
    """Interned ids of every literal ``rule`` needs present, cached on the rule.

    Returns None for rules with no non-negated, non-empty content — those
    can never be literal-filtered.
    """
    ids = getattr(rule, "_mp_required", False)
    if ids is False:
        required = [
            content
            for content in rule.contents
            if not content.negated and content.pattern
        ]
        if not required:
            ids = None
        else:
            ids = frozenset(
                intern_literal(content.needle(), content.nocase)
                for content in required
            )
        rule._mp_required = ids
    return ids


def anchor_literal_id(rule) -> Optional[int]:
    """The rule's representative literal id: its longest required needle.

    The longest literal is the least likely to occur by chance, so bucketing
    a rule under it minimizes spurious candidate revivals (the same
    heuristic behind Snort's fast-pattern selection).
    """
    anchor = getattr(rule, "_mp_anchor", False)
    if anchor is False:
        best = None
        for content in rule.contents:
            if content.negated or not content.pattern:
                continue
            if best is None or len(content.pattern) > len(best.pattern):
                best = content
        anchor = (
            None if best is None else intern_literal(best.needle(), best.nocase)
        )
        rule._mp_anchor = anchor
    return anchor


_NO_IDS: FrozenSet[int] = frozenset()

#: bytes that make a pcre alternative more than a plain literal (``|`` is
#: the alternation split itself)
_PCRE_META = frozenset(b"\\.^$*+?{}[]()")


def pcre_literal_alternatives(pcre) -> Optional[Tuple[Tuple[bytes, bool], ...]]:
    """The ``(needle, nocase)`` literals a pcre is an alternation of, or None.

    Only a non-negated pattern whose ``|``-split alternatives are all
    non-empty and free of regex metacharacters qualifies: it matches
    exactly where one alternative occurs.  An escape (``\\|``), a group
    or inline flag (``(?i)``), a class or quantifier, and an empty
    alternative (``a||b`` matches everywhere) all disqualify it, as does
    verbose mode, where whitespace in the pattern is not literal.
    """
    if pcre.negated or pcre.regex.flags & re.VERBOSE:
        return None
    alternatives = pcre.regex.pattern.split(b"|")
    for alternative in alternatives:
        if not alternative or not _PCRE_META.isdisjoint(alternative):
            return None
    if pcre.regex.flags & re.IGNORECASE:
        return tuple((alternative.lower(), True) for alternative in alternatives)
    return tuple((alternative, False) for alternative in alternatives)


def anyof_literal_ids(rule) -> Optional[FrozenSet[int]]:
    """Ids of which at least one must be present for ``rule`` to fire.

    Only rules without required content literals get one (a content rule
    is already filtered by its anchor): the literals of the rule's first
    pcre that :func:`pcre_literal_alternatives` accepts.  Cached on the
    rule as ``_mp_anyof``; None when the rule has no such pcre.
    """
    ids = getattr(rule, "_mp_anyof", False)
    if ids is False:
        ids = None
        if required_literal_ids(rule) is None:
            for pcre in rule.pcres:
                literals = pcre_literal_alternatives(pcre)
                if literals is not None:
                    ids = frozenset(
                        intern_literal(needle, nocase) for needle, nocase in literals
                    )
                    break
        rule._mp_anyof = ids
    return ids


def _rule_literal_ids(rule) -> FrozenSet[int]:
    """Every literal id the prefilter must see for ``rule``, caches warmed."""
    required = required_literal_ids(rule)
    anchor_literal_id(rule)
    anyof = anyof_literal_ids(rule)
    if anyof is not None:
        return anyof
    return required or _NO_IDS


# -- the automaton -------------------------------------------------------------


class StreamScanState:
    """Per-flow-direction resumable scan position.

    ``present`` accumulates the literal ids seen in the first ``scanned``
    bytes of the stream buffer (monotone while the buffer only appends,
    which is exactly when the state is reusable).
    """

    __slots__ = ("automaton_version", "content_version", "scanned", "present")

    def __init__(self, automaton_version: int, content_version: int) -> None:
        self.automaton_version = automaton_version
        self.content_version = content_version
        self.scanned = 0
        self.present: set = set()


class MultiPatternAutomaton:
    """A compiled multi-literal search over one engine's content literals.

    Built lazily: :meth:`add_literal`/:meth:`add_rules` extend the literal
    table and mark it dirty; the first scan after an extension recompiles
    the alternation and first-byte buckets.  ``version`` increments on
    every finalize so saved stream states from an older automaton are
    detected and rescanned.
    """

    def __init__(self) -> None:
        #: folded literal -> list of (lid, needle, case_sensitive) members
        self._groups: Dict[bytes, List[Tuple[int, bytes, bool]]] = {}
        #: compiled alternation's bound ``search``, rebuilt by _finalize()
        self._search = None
        #: first folded byte -> ((folded, members), ...) confirmed there
        self._buckets: Dict[int, tuple] = {}
        #: longest folded literal; streams resume ``maxlen - 1`` bytes back
        self._maxlen = 0
        self._dirty = True
        self.version = 0
        #: every interned id this automaton contains
        self._known_ids: set = set()

    # -- construction ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._known_ids)

    def known_ids(self) -> FrozenSet[int]:
        return frozenset(self._known_ids)

    def add_literal(self, needle: bytes, nocase: bool) -> int:
        """Register one literal; returns its global id.

        Raises ValueError for an empty needle: it would match at every
        position, and ``content:""`` never reaches here from the parser.
        """
        if not needle:
            raise ValueError("multipattern literals must be non-empty")
        lid = intern_literal(needle, nocase)
        if lid in self._known_ids:
            return lid
        self._known_ids.add(lid)
        folded = needle if nocase else needle.lower()
        # nocase needles are pre-lowered, so folded == needle for them and
        # no raw confirmation is needed; case-sensitive members confirm
        # against the raw haystack at the match position.
        self._groups.setdefault(folded, []).append((lid, needle, not nocase))
        self._dirty = True
        return lid

    def add_rules(self, rules: Iterable) -> None:
        """Register every required and any-of literal of ``rules``
        (idempotent; warms the per-rule caches)."""
        for rule in rules:
            for lid in _rule_literal_ids(rule):
                self.add_literal(*literal_of(lid))

    def _finalize(self) -> None:
        """Recompile the alternation and the first-byte buckets."""
        folded_all = sorted(self._groups, key=lambda folded: (-len(folded), folded))
        buckets: Dict[int, list] = {}
        for folded in folded_all:
            buckets.setdefault(folded[0], []).append(
                (folded, tuple(self._groups[folded]))
            )
        self._buckets = {byte: tuple(group) for byte, group in buckets.items()}
        self._search = (
            re.compile(b"|".join(map(re.escape, folded_all))).search
            if folded_all
            else None
        )
        self._maxlen = len(folded_all[0]) if folded_all else 0
        self._dirty = False
        self.version += 1

    # -- scanning --------------------------------------------------------------

    def ensure_ready(self) -> int:
        """Finalize if dirty; returns the current automaton version.

        Callers holding :class:`StreamScanState` must compare versions
        *after* this call — a finalize bumps the version and invalidates
        every saved ``present`` set.
        """
        if self._dirty:
            self._finalize()
        return self.version

    def scan(self, haystack: bytes, lowered: Optional[bytes] = None) -> set:
        """Exact present-literal ids for a one-shot haystack.

        ``lowered`` may be passed when the caller already folded the
        haystack (the engine's MatchContext shares one folded copy).
        """
        present: set = set()
        if not self._groups or not haystack:
            return present
        if self._dirty:
            self._finalize()
        if lowered is None:
            lowered = haystack.lower()
        self._search_from(lowered, haystack, 0, present)
        return present

    def scan_chunk(
        self, lowered: bytes, haystack: bytes, scanned: int, present: set
    ) -> None:
        """Extend a stream scan to the whole buffer, adding hits to ``present``.

        ``present`` must already hold every literal occurring in the first
        ``scanned`` bytes; ``lowered``/``haystack`` are the *full* buffer
        snapshots.  Only a literal that ends past ``scanned`` can be new,
        so the search resumes ``maxlen - 1`` bytes before it, which also
        catches literals straddling the previous end.
        """
        if self._dirty:
            self._finalize()
        if self._search is None:
            return
        self._search_from(
            lowered, haystack, max(0, scanned - self._maxlen + 1), present
        )

    def _search_from(
        self, lowered: bytes, haystack: bytes, pos: int, present: set
    ) -> None:
        search = self._search
        buckets = self._buckets
        match = search(lowered, pos)
        while match is not None:
            at = match.start()
            for folded, members in buckets[lowered[at]]:
                if lowered.startswith(folded, at):
                    for lid, needle, confirm in members:
                        if not confirm or haystack.startswith(needle, at):
                            present.add(lid)
            match = search(lowered, at + 1)

    # -- reference implementation (tests cross-check against this) -------------

    def naive_present(self, haystack: bytes, lowered: Optional[bytes] = None) -> set:
        """The semantics :meth:`scan` must reproduce: per-literal ``in``."""
        if lowered is None:
            lowered = haystack.lower()
        present = set()
        for lid in self._known_ids:
            needle, nocase = literal_of(lid)
            if needle in (lowered if nocase else haystack):
                present.add(lid)
        return present
