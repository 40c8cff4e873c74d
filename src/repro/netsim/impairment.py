"""Composable, seeded network-impairment models.

Real measurement platforms run over hostile paths: bursty loss, jitter,
reordering, duplication, and saturated bottlenecks.  The paper's
inference techniques read *absence* of replies as censorship, so a
simulator that only models a lossless FIFO wire cannot exercise the one
confound every deployment faces — separating a censor's silent drop from
ordinary packet loss.  This module supplies that hostile substrate.

Design:

- An :class:`ImpairmentModel` makes one per-packet :class:`Decision`
  (drop, extra delay, extra copies).  Models are tiny state machines;
  every random draw comes from the RNG the pipeline hands them, never
  from global state, so runs are reproducible for a given seed.
- An :class:`ImpairedPath` composes models into a per-direction pipeline
  with its own deterministic RNG stream.  A packet dropped by any stage
  is *gone*: later stages never see it, so duplication can never
  duplicate a dropped packet (a property the test suite checks).
- :class:`Link` owns two independent paths (one per direction) so
  asymmetric paths — e.g. a clean uplink with a congested downlink —
  are expressible.

All extra delays are non-negative: impairments may hold a packet back
(which is how reordering arises under the engine's (time, seq) total
order) but can never schedule it into the past.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "Decision",
    "NO_EFFECT",
    "DROP",
    "ONE_EXTRA_COPY",
    "PacketFate",
    "ImpairmentModel",
    "IndependentLoss",
    "GilbertElliottLoss",
    "LatencyJitter",
    "Reordering",
    "Duplication",
    "BandwidthLimit",
    "ImpairedPath",
    "burst_loss_profile",
    "mix_seed",
]


def mix_seed(*parts: int) -> int:
    """Deterministically mix integers into a 64-bit seed.

    Used to derive per-link, per-direction RNG streams from the
    simulation seed without consuming the simulator's own RNG (which
    would perturb every downstream draw).  Pure arithmetic — never
    Python's randomized ``hash``.
    """
    state = 0x9E3779B97F4A7C15
    for part in parts:
        state ^= (part & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B9
        state = (state * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return state


@dataclass(frozen=True)
class Decision:
    """One model's ruling on one packet.

    Frozen, so the common rulings can be shared: models return
    :data:`NO_EFFECT`, :data:`DROP` and :data:`ONE_EXTRA_COPY` instead of
    allocating a decision per packet.
    """

    drop: bool = False
    extra_delay: float = 0.0
    extra_copies: int = 0


NO_EFFECT = Decision()
DROP = Decision(drop=True)
ONE_EXTRA_COPY = Decision(extra_copies=1)


class PacketFate:
    """The pipeline's combined ruling: per-copy extra delays.

    ``delays`` holds one non-negative extra delay per delivered copy; an
    empty tuple means the packet was dropped.  ``delays[0]`` is the
    primary copy, further entries are duplicates.
    """

    __slots__ = ("delays",)

    def __init__(self, delays: Tuple[float, ...]) -> None:
        self.delays = delays

    @property
    def dropped(self) -> bool:
        return not self.delays

    @property
    def copies(self) -> int:
        return len(self.delays)

    def __repr__(self) -> str:
        if self.dropped:
            return "PacketFate(dropped)"
        return f"PacketFate(delays={self.delays})"


#: Shared fate for the lossless fast path (no allocation per packet).
DELIVER_CLEAN = PacketFate((0.0,))
DROPPED = PacketFate(())


class ImpairmentModel:
    """Base class: stateless config plus (optionally) per-path state.

    Subclasses implement :meth:`decide`; models holding state (burst
    machines, queues) also override :meth:`reset` so :meth:`clone`
    hands each link direction a fresh instance.
    """

    def decide(self, size: int, now: float, rng: random.Random) -> Decision:
        raise NotImplementedError

    def reset(self) -> None:
        """Return mutable state to its initial value (default: none)."""

    def clone(self) -> "ImpairmentModel":
        """A fresh instance with identical config and pristine state."""
        duplicate = copy.deepcopy(self)
        duplicate.reset()
        return duplicate


class IndependentLoss(ImpairmentModel):
    """Bernoulli per-packet loss (the legacy ``Link(loss=...)`` model)."""

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.rate = rate

    def decide(self, size: int, now: float, rng: random.Random) -> Decision:
        if self.rate > 0.0 and rng.random() < self.rate:
            return DROP
        return NO_EFFECT

    def __repr__(self) -> str:
        return f"IndependentLoss({self.rate})"


class GilbertElliottLoss(ImpairmentModel):
    """Two-state (good/bad) burst-loss channel (Gilbert–Elliott).

    In the *good* state packets drop with ``loss_good``; in the *bad*
    state with ``loss_bad``.  Transitions happen per packet, and —
    because a chain that only advances per packet would freeze a burst
    indefinitely on an idle link, making every sparse retry face the
    in-burst loss rate no matter how long it backs off — also per
    ``burst_timescale`` seconds of idle wall time, as if a background
    process were clocking the chain at one packet per timescale.  Dense
    traffic (inter-packet gap below the timescale) sees the exact
    classical per-packet chain.  ``burst_timescale=0`` disables the
    decay and restores the frozen-chain behaviour.

    The stationary marginal loss rate (with the default 0/1 loss
    levels) is ``p_enter / (p_enter + p_exit)``.
    """

    def __init__(
        self,
        p_enter_burst: float,
        p_exit_burst: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        burst_timescale: float = 0.02,
    ) -> None:
        for name, p in (
            ("p_enter_burst", p_enter_burst),
            ("p_exit_burst", p_exit_burst),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if burst_timescale < 0.0:
            raise ValueError("burst_timescale must be non-negative")
        self.p_enter_burst = p_enter_burst
        self.p_exit_burst = p_exit_burst
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.burst_timescale = burst_timescale
        self._in_burst = False
        self._last_now: Optional[float] = None

    @classmethod
    def from_marginal(
        cls,
        marginal: float,
        mean_burst_length: float = 5.0,
        burst_timescale: float = 0.02,
    ) -> "GilbertElliottLoss":
        """Configure for a target marginal loss rate and mean burst length."""
        if not 0.0 <= marginal < 1.0:
            raise ValueError("marginal loss must be in [0, 1)")
        if mean_burst_length < 1.0:
            raise ValueError("mean burst length must be >= 1 packet")
        p_exit = 1.0 / mean_burst_length
        p_enter = marginal * p_exit / (1.0 - marginal) if marginal else 0.0
        return cls(
            p_enter_burst=min(p_enter, 1.0),
            p_exit_burst=p_exit,
            burst_timescale=burst_timescale,
        )

    @property
    def marginal_loss(self) -> float:
        """Stationary loss rate implied by the configuration."""
        p_enter, p_exit = self.p_enter_burst, self.p_exit_burst
        if p_enter + p_exit == 0.0:
            return self.loss_good
        pi_bad = p_enter / (p_enter + p_exit)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def reset(self) -> None:
        self._in_burst = False
        self._last_now = None

    def _advance_idle(self, now: float, rng: random.Random) -> None:
        """Clock the chain through the idle gap since the last packet.

        Uses the closed-form k-step transition of the two-state chain
        (one RNG draw regardless of gap length): after k steps the
        burst probability relaxes toward the stationary ``pi_bad`` with
        geometric factor ``(1 - p_enter - p_exit)**k``.
        """
        if self.burst_timescale <= 0.0:
            return
        if self._last_now is None:
            self._last_now = now
            return
        steps = int((now - self._last_now) / self.burst_timescale)
        if steps <= 0:
            return
        # Advance by whole steps only; the fractional remainder carries
        # over so sub-timescale gaps still accumulate.
        self._last_now += steps * self.burst_timescale
        total = self.p_enter_burst + self.p_exit_burst
        if total == 0.0:
            return
        pi_bad = self.p_enter_burst / total
        shrink = (1.0 - total) ** steps
        if self._in_burst:
            p_bad = pi_bad + shrink * (1.0 - pi_bad)
        else:
            p_bad = pi_bad - shrink * pi_bad
        self._in_burst = rng.random() < p_bad

    def decide(self, size: int, now: float, rng: random.Random) -> Decision:
        self._advance_idle(now, rng)
        loss = self.loss_bad if self._in_burst else self.loss_good
        drop = loss > 0.0 and rng.random() < loss
        if self._in_burst:
            if rng.random() < self.p_exit_burst:
                self._in_burst = False
        elif rng.random() < self.p_enter_burst:
            self._in_burst = True
        return DROP if drop else NO_EFFECT

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(enter={self.p_enter_burst:.4f}, "
            f"exit={self.p_exit_burst:.4f})"
        )


class LatencyJitter(ImpairmentModel):
    """Uniform extra delay in ``[0, max_jitter]`` per packet."""

    def __init__(self, max_jitter: float) -> None:
        if max_jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.max_jitter = max_jitter

    def decide(self, size: int, now: float, rng: random.Random) -> Decision:
        if self.max_jitter == 0.0:
            return NO_EFFECT
        return Decision(extra_delay=rng.uniform(0.0, self.max_jitter))

    def __repr__(self) -> str:
        return f"LatencyJitter({self.max_jitter})"


class Reordering(ImpairmentModel):
    """Hold a fraction of packets back so successors overtake them.

    With probability ``probability`` a packet is delayed by a uniform
    draw from ``delay_range`` — long enough that later packets (with
    smaller or no extra delay) arrive first.  Under the engine's
    (time, seq) total order this is the only way packets reorder; no
    event is ever scheduled in the past.
    """

    def __init__(
        self, probability: float, delay_range: Tuple[float, float] = (0.01, 0.05)
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        low, high = delay_range
        if low < 0 or high < low:
            raise ValueError("delay_range must be 0 <= low <= high")
        self.probability = probability
        self.delay_range = (low, high)

    def decide(self, size: int, now: float, rng: random.Random) -> Decision:
        if self.probability and rng.random() < self.probability:
            return Decision(extra_delay=rng.uniform(*self.delay_range))
        return NO_EFFECT

    def __repr__(self) -> str:
        return f"Reordering(p={self.probability}, range={self.delay_range})"


class Duplication(ImpairmentModel):
    """Deliver an extra copy of a packet with some probability."""

    def __init__(self, probability: float, copy_delay: float = 0.0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if copy_delay < 0:
            raise ValueError("copy_delay must be non-negative")
        self.probability = probability
        self.copy_delay = copy_delay

    def decide(self, size: int, now: float, rng: random.Random) -> Decision:
        if self.probability and rng.random() < self.probability:
            return ONE_EXTRA_COPY
        return NO_EFFECT

    def __repr__(self) -> str:
        return f"Duplication(p={self.probability})"


class BandwidthLimit(ImpairmentModel):
    """A serialization bottleneck with a finite queue.

    Packets queue behind one another at ``bytes_per_sec``; when the
    backlog exceeds ``max_queue_bytes`` the arriving packet is dropped
    (tail-drop truncation — the bandwidth-delay product made concrete).
    """

    def __init__(self, bytes_per_sec: float, max_queue_bytes: int = 65536) -> None:
        if bytes_per_sec <= 0:
            raise ValueError("bytes_per_sec must be positive")
        if max_queue_bytes <= 0:
            raise ValueError("max_queue_bytes must be positive")
        self.bytes_per_sec = bytes_per_sec
        self.max_queue_bytes = max_queue_bytes
        self._busy_until = 0.0

    def reset(self) -> None:
        self._busy_until = 0.0

    def decide(self, size: int, now: float, rng: random.Random) -> Decision:
        backlog_bytes = max(0.0, self._busy_until - now) * self.bytes_per_sec
        if backlog_bytes + size > self.max_queue_bytes:
            return DROP
        start = max(now, self._busy_until)
        self._busy_until = start + size / self.bytes_per_sec
        return Decision(extra_delay=self._busy_until - now)

    def __repr__(self) -> str:
        return f"BandwidthLimit({self.bytes_per_sec:.0f} B/s)"


class ImpairedPath:
    """One direction of a link: an ordered model pipeline plus RNG.

    The pipeline short-circuits on the first drop, so no stage can act
    on a packet another stage already discarded — in particular, a
    dropped packet is never duplicated and never consumes queue space
    in stages it did not reach.
    """

    def __init__(
        self, models: Sequence[ImpairmentModel], rng: Optional[random.Random] = None,
        seed: int = 0,
    ) -> None:
        self.models: List[ImpairmentModel] = list(models)
        self.rng = rng if rng is not None else random.Random(seed)
        #: Class name of the model that dropped the most recently dropped
        #: packet (``None`` before the first drop) — the link reads it
        #: right after a :data:`DROPPED` fate to tally the drop reason
        #: without threading a return channel through every model.
        self.last_drop_reason: Optional[str] = None

    def traverse(self, size: int, now: float) -> PacketFate:
        """Rule on one packet; returns its fate (drop / delays per copy)."""
        total_delay = 0.0
        extra_copies = 0
        copy_spacing = 0.0
        rng = self.rng
        for model in self.models:
            decision = model.decide(size, now, rng)
            if decision.drop:
                self.last_drop_reason = type(model).__name__
                return DROPPED
            total_delay += decision.extra_delay
            if decision.extra_copies:
                extra_copies += decision.extra_copies
                copy_spacing = getattr(model, "copy_delay", 0.0)
        if not extra_copies:
            if total_delay == 0.0:
                return DELIVER_CLEAN
            return PacketFate((total_delay,))
        delays = [total_delay]
        for index in range(extra_copies):
            delays.append(total_delay + copy_spacing * (index + 1))
        return PacketFate(tuple(delays))

    def __repr__(self) -> str:
        return f"ImpairedPath({self.models})"


def burst_loss_profile(
    marginal: float = 0.05,
    mean_burst_length: float = 5.0,
    jitter: float = 0.0,
    reorder_probability: float = 0.0,
    duplicate_probability: float = 0.0,
    burst_timescale: float = 0.02,
) -> List[ImpairmentModel]:
    """A ready-made hostile-path recipe: burst loss plus optional extras.

    The returned models are templates — :meth:`Link.impair` clones them
    per direction, so one profile can season a whole topology.
    """
    models: List[ImpairmentModel] = [
        GilbertElliottLoss.from_marginal(
            marginal, mean_burst_length, burst_timescale=burst_timescale
        )
    ]
    if jitter:
        models.append(LatencyJitter(jitter))
    if reorder_probability:
        models.append(Reordering(reorder_probability))
    if duplicate_probability:
        models.append(Duplication(duplicate_probability))
    return models
