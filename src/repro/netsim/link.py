"""Point-to-point links: latency, per-direction impairments, accounting.

A link carries packets in both directions, but real paths are rarely
symmetric — loss, queueing, and jitter differ per direction.  Each
direction therefore owns its own impairment pipeline (seeded RNG stream
included) and its own statistics, so analyses can report uplink and
downlink loss separately and tests can assert packet conservation
(offered = delivered − duplicated-extra + lost) per direction.

Those statistics, plus a per-direction drop-reason tally, are the only
per-packet accounting.  With a metrics registry installed, the
``link_*_total`` counters are read from them whenever the registry
flushes (:class:`_LinkCounters`).
"""

from __future__ import annotations

import random
import weakref
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

from ..obs.metrics import active_or_none
from .impairment import (
    DELIVER_CLEAN,
    ImpairedPath,
    ImpairmentModel,
    PacketFate,
    mix_seed,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

__all__ = ["Link", "DirectionStats"]

#: Direction labels: "ab" is a->b (from ``Link.a`` toward ``Link.b``).
DIRECTIONS = ("ab", "ba")


class DirectionStats:
    """Per-direction packet/byte accounting.

    ``packets_offered`` counts transmission attempts entering the link;
    ``packets_carried`` counts delivered copies (duplicates included);
    ``packets_duplicated`` counts the *extra* copies only.  Conservation:
    ``offered == carried - duplicated + lost``.
    """

    __slots__ = (
        "packets_offered",
        "packets_carried",
        "packets_lost",
        "packets_duplicated",
        "bytes_carried",
    )

    def __init__(self) -> None:
        self.packets_offered = 0
        self.packets_carried = 0
        self.packets_lost = 0
        self.packets_duplicated = 0
        self.bytes_carried = 0

    @property
    def conserved(self) -> bool:
        return self.packets_offered == (
            self.packets_carried - self.packets_duplicated + self.packets_lost
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "packets_offered": self.packets_offered,
            "packets_carried": self.packets_carried,
            "packets_lost": self.packets_lost,
            "packets_duplicated": self.packets_duplicated,
            "bytes_carried": self.bytes_carried,
        }

    def __repr__(self) -> str:
        return (
            f"DirectionStats(offered={self.packets_offered}, "
            f"carried={self.packets_carried}, lost={self.packets_lost}, "
            f"dup={self.packets_duplicated})"
        )


class _LinkCounters:
    """Reads one link's ledger into the registry's ``link_*_total`` counters.

    The link keeps only its :class:`DirectionStats` and drop-reason
    tallies; at every registry flush :meth:`fold` adds what changed since
    the previous fold.  A label row appears when its count first moves,
    as it would had every packet been counted into the registry, so the
    registry agrees with ``DirectionStats`` by construction.  This object
    holds the ledger, not the link, so it can still fold after the link
    is collected.
    """

    def __init__(
        self,
        registry,
        name: str,
        stats: Dict[str, DirectionStats],
        drops: Dict[str, Dict[str, int]],
    ) -> None:
        self.offered = registry.counter(
            "link_packets_offered_total",
            "Transmission attempts entering a link direction",
            ("link", "direction"),
        )
        self.carried = registry.counter(
            "link_packets_carried_total",
            "Delivered copies (duplicates included) per link direction",
            ("link", "direction"),
        )
        # The help text is part of every metrics snapshot, so it keeps its
        # original wording (which still names a drop reason no link emits
        # any more) to leave snapshot bytes unchanged.
        self.dropped = registry.counter(
            "link_packets_dropped_total",
            "Drops per link direction, labeled by the impairment that "
            "dropped (or legacy_loss for the flat loss knob)",
            ("link", "direction", "reason"),
        )
        self.duplicated = registry.counter(
            "link_packets_duplicated_total",
            "Extra delivered copies per link direction",
            ("link", "direction"),
        )
        self.bytes = registry.counter(
            "link_bytes_carried_total",
            "Bytes delivered per link direction (duplicates included)",
            ("link", "direction"),
        )
        self.name = name
        self.stats = stats
        self.drops = drops
        #: direction -> (offered, carried, duplicated, bytes) at the last fold
        self.folded: Dict[str, Tuple[int, int, int, int]] = {
            direction: (0, 0, 0, 0) for direction in DIRECTIONS
        }
        self.folded_drops: Dict[str, Dict[str, int]] = {
            direction: {} for direction in DIRECTIONS
        }

    def fold(self) -> None:
        for direction in DIRECTIONS:
            stats = self.stats[direction]
            now = (
                stats.packets_offered,
                stats.packets_carried,
                stats.packets_duplicated,
                stats.bytes_carried,
            )
            offered, carried, duplicated, size = (
                current - before
                for current, before in zip(now, self.folded[direction])
            )
            self.folded[direction] = now
            labels = (self.name, direction)
            if offered:
                self.offered.inc(labels, offered)
            if carried or size:  # bytes move with carried copies: one row each
                self.carried.inc(labels, carried)
                self.bytes.inc(labels, size)
            if duplicated:
                self.duplicated.inc(labels, duplicated)
            folded_drops = self.folded_drops[direction]
            for reason, count in self.drops[direction].items():
                delta = count - folded_drops.get(reason, 0)
                if delta:
                    self.dropped.inc((self.name, direction, reason), delta)
                    folded_drops[reason] = count


class Link:
    """A bidirectional link between two nodes.

    Without impairments, delivery is FIFO per direction (the event queue
    breaks ties in scheduling order).  Impairment pipelines may drop,
    delay (reordering), or duplicate packets per direction; the TCP
    stack's retransmission and in-order delivery logic covers the rest.

    The link's ledger is ``stats`` (per-direction :class:`DirectionStats`)
    plus ``drops`` (per-direction drop counts by reason).  Nothing else is
    counted per packet: with a metrics registry installed, the
    ``link_*_total`` counters are read from that ledger whenever the
    registry flushes.
    """

    def __init__(
        self,
        a: "Node",
        b: "Node",
        latency: float = 0.001,
        seed: int = 0,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.a = a
        self.b = b
        self.latency = latency
        self.seed = seed
        self.stats: Dict[str, DirectionStats] = {
            direction: DirectionStats() for direction in DIRECTIONS
        }
        #: direction -> drop reason -> drops, keyed by the class name of
        #: the impairment model that dropped.  Sums to each direction's
        #: ``packets_lost``.
        self.drops: Dict[str, Dict[str, int]] = {
            direction: {} for direction in DIRECTIONS
        }
        self._rng: Dict[str, random.Random] = {
            direction: random.Random(mix_seed(seed, index))
            for index, direction in enumerate(DIRECTIONS)
        }
        self._paths: Dict[str, Optional[ImpairedPath]] = {
            direction: None for direction in DIRECTIONS
        }
        obs = active_or_none()
        if obs is not None:
            counters = _LinkCounters(
                obs, f"{a.name}<->{b.name}", self.stats, self.drops
            )
            obs.on_flush(counters.fold)
            # The registry holds that hook weakly.  The finalizer holds it
            # strongly for as long as this link lives, then hands it to the
            # registry for one last fold at its next flush.
            weakref.finalize(self, obs.flush_once, counters.fold)

    # -- impairment configuration -------------------------------------------

    def impair(
        self,
        models: Sequence[ImpairmentModel],
        direction: str = "both",
    ) -> "Link":
        """Install an impairment pipeline (cloned per direction).

        ``direction`` is ``"ab"``, ``"ba"``, or ``"both"``.  Models are
        cloned so each direction gets pristine state, and each pipeline
        draws from its own deterministic RNG stream.
        """
        for d in self._directions(direction):
            self._paths[d] = ImpairedPath(
                [model.clone() for model in models], rng=self._rng[d]
            )
        return self

    def clear_impairment(self, direction: str = "both") -> None:
        for d in self._directions(direction):
            self._paths[d] = None

    def impairment(self, direction: str) -> Optional[ImpairedPath]:
        return self._paths[direction]

    @staticmethod
    def _directions(direction: str) -> Iterable[str]:
        if direction == "both":
            return DIRECTIONS
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be 'ab', 'ba', or 'both', not {direction!r}")
        return (direction,)

    # -- topology helpers ----------------------------------------------------

    def other_end(self, node: "Node") -> "Node":
        """The node on the far side of ``node``."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not attached to this link")

    def direction_from(self, node: "Node") -> str:
        """The direction label for traffic sent by ``node``."""
        if node is self.a:
            return "ab"
        if node is self.b:
            return "ba"
        raise ValueError(f"{node!r} is not attached to this link")

    def connects(self, a: "Node", b: "Node") -> bool:
        return {self.a, self.b} == {a, b}

    # -- transmission ---------------------------------------------------------

    def transmit(self, size: int, now: float, direction: str) -> PacketFate:
        """Rule on one packet entering the link; update the ledger.

        Returns the packet's fate: empty delays = dropped, otherwise one
        extra delay per delivered copy (on top of ``latency``).
        """
        stats = self.stats[direction]
        stats.packets_offered += 1
        path = self._paths[direction]
        if path is None:
            stats.packets_carried += 1
            stats.bytes_carried += size
            return DELIVER_CLEAN
        fate = path.traverse(size, now)
        copies = len(fate.delays)
        if not copies:
            stats.packets_lost += 1
            self._tally_drop(direction, path.last_drop_reason or "impairment")
            return fate
        stats.packets_carried += copies
        if copies > 1:
            stats.packets_duplicated += copies - 1
        stats.bytes_carried += size * copies
        return fate

    def _tally_drop(self, direction: str, reason: str) -> None:
        drops = self.drops[direction]
        drops[reason] = drops.get(reason, 0) + 1

    def account_flow(self, packets: int, size: int, direction: str) -> None:
        """Record an aggregate flow's traversal: ``packets`` packets and
        ``size`` total wire bytes cross this direction in one ledger entry.

        The flow-level fast path for population traffic far from any tap:
        no per-packet events, no impairment pipeline (aggregate flows are
        by definition unobserved, so their loss cannot change any tap
        observable), but the :class:`DirectionStats` conservation
        invariant still holds — everything offered is carried.
        """
        stats = self.stats[direction]
        stats.packets_offered += packets
        stats.packets_carried += packets
        stats.bytes_carried += size

    def account(self, size: int, direction: str = "ab") -> None:
        """Record an externally-decided delivery (legacy hook)."""
        self.account_flow(1, size, direction)

    # -- aggregate accounting (both directions) ------------------------------

    @property
    def bytes_carried(self) -> int:
        return sum(stats.bytes_carried for stats in self.stats.values())

    @property
    def packets_carried(self) -> int:
        return sum(stats.packets_carried for stats in self.stats.values())

    @property
    def packets_lost(self) -> int:
        return sum(stats.packets_lost for stats in self.stats.values())

    @property
    def packets_offered(self) -> int:
        return sum(stats.packets_offered for stats in self.stats.values())

    @property
    def packets_duplicated(self) -> int:
        return sum(stats.packets_duplicated for stats in self.stats.values())

    def __repr__(self) -> str:
        return f"Link({self.a.name} <-> {self.b.name}, {self.latency * 1000:.1f}ms)"
