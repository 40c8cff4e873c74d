"""Censor families beyond the reference GFC model.

Each family reproduces a concretely *measured* enforcement style from
the censorship-measurement literature, behind the shared
:class:`~.registry.CensorModel` contract, so the sweep grid can ask the
ROADMAP's question directly: which safety technique survives which
censor family?

- :class:`BidirectionalResidualCensor` (``"bidirectional-residual"``) —
  Turkmenistan-style blocking (arXiv:2304.04835): enforcement in *both*
  flow directions, forged RSTs injected toward client and server on the
  triggering SYN, and a residual penalty measured in minutes rather
  than the GFC's ~90 seconds.
- :class:`ThrottlingCensor` (``"throttler"``) — censorship as
  degradation: flows classified by SNI/Host/keyword are squeezed
  through a deterministic rate shaper
  (:class:`~repro.netsim.impairment.BandwidthLimit`) instead of being
  dropped or reset.  The censor never emits a clean block signal, which
  is exactly the confound that stresses the retry/confidence layer.
- :class:`GeoBlocker` (``"geoblocker"``) — endpoint/prefix-scoped
  silent drops with an allowlist direction, the protocol-agnostic
  border blocking ProtoScan measures (arXiv:2508.07194).

Every family goes inert under a disabled policy (the clean-vantage
contract), derives no state from global RNG or the wall clock, and logs
:class:`~.registry.CensorEvent` ground truth for the accuracy score.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..netsim.impairment import BandwidthLimit
from ..netsim.middlebox import Action, TapContext
from ..packets import IPPacket, flow_of
from ..packets.addressing import compile_network, ip_to_int
from ..rules import DEFAULT_VARIABLES, RuleEngine
from ..rules.rulesets import censor_ruleset_text
from .gfw import GreatFirewall
from .policy import CensorshipPolicy
from .registry import CensorModel, register_censor

__all__ = ["BidirectionalResidualCensor", "ThrottlingCensor", "GeoBlocker"]


@register_censor("bidirectional-residual", provenance="arXiv:2304.04835")
class BidirectionalResidualCensor(GreatFirewall):
    """Turkmenistan-style bidirectional blocking with long residual state.

    Extends the GFC model in the three ways the Turkmenistan study
    measured: blocked addresses are enforced whichever side of the
    border they appear on (src as well as dst), a SYN toward a blocked
    endpoint draws forged RSTs to *both* endpoints instead of a silent
    drop, and a triggered flow stays killed for minutes
    (``residual_seconds``, default 600) rather than the GFC's ~90 s.
    """

    def __init__(
        self,
        policy: Optional[CensorshipPolicy] = None,
        residual_seconds: float = 600.0,
        **gfw_params: object,
    ) -> None:
        super().__init__(policy, **gfw_params)
        if residual_seconds <= 0:
            raise ValueError("residual_seconds must be positive")
        self.residual_seconds = residual_seconds
        # The policy's residual window is the knob the GFC machinery
        # already honours; stretch it to this family's minutes-long
        # penalty (the policy object is per-environment, never shared).
        self.policy.residual_block_seconds = residual_seconds

    def set_policy(self, policy: CensorshipPolicy) -> None:
        super().set_policy(policy)
        self.policy.residual_block_seconds = self.residual_seconds

    def _address_blocked(self, packet: IPPacket, addr: str) -> bool:
        """Whether ``addr`` (either end of ``packet``) is policy-blocked."""
        if addr in self.policy.blocked_ips:
            return True
        if packet.tcp is not None:
            port = packet.tcp.sport if addr == packet.src else packet.tcp.dport
            return self.policy.endpoint_is_blocked(addr, port)
        if packet.udp is not None:
            port = packet.udp.sport if addr == packet.src else packet.udp.dport
            return self.policy.endpoint_is_blocked(addr, port)
        return False

    def process(self, packet: IPPacket, ctx: TapContext) -> Action:
        if self.policy.ip_blocking and packet.frag_offset == 0:
            # Direction-insensitive enforcement: a reply *from* a blocked
            # endpoint is dropped just like traffic toward it.
            if self._address_blocked(packet, packet.src):
                self.ip_drops += 1
                self._record(
                    ctx.now, "ip", packet, f"bidirectional null-route {packet.src}"
                )
                return Action.DROP
            if self._address_blocked(packet, packet.dst):
                self.ip_drops += 1
                if packet.tcp is not None and packet.tcp.is_syn:
                    self._forge_bidirectional_rsts(packet, ctx)
                    directed = flow_of(packet)
                    if directed is not None:
                        self._killed_flows[directed.canonical()] = (
                            ctx.now + self.residual_seconds
                        )
                    self._record(
                        ctx.now, "ip", packet,
                        f"bidirectional reset {packet.dst}",
                    )
                else:
                    self._record(
                        ctx.now, "ip", packet,
                        f"bidirectional null-route {packet.dst}",
                    )
                return Action.DROP
        return super().process(packet, ctx)

    def _forge_bidirectional_rsts(self, packet: IPPacket, ctx: TapContext) -> None:
        """Answer a SYN with forged RSTs toward client *and* server."""
        from ..packets import ACK, RST, TCPSegment

        segment = packet.tcp
        to_client = IPPacket(
            src=packet.dst,
            dst=packet.src,
            payload=TCPSegment(
                sport=segment.dport, dport=segment.sport,
                seq=0, ack=segment.seq + 1, flags=RST | ACK,
            ),
        )
        to_server = IPPacket(
            src=packet.src,
            dst=packet.dst,
            payload=TCPSegment(
                sport=segment.sport, dport=segment.dport,
                seq=segment.seq + 1, flags=RST,
            ),
        )
        ctx.inject(to_client, tag=self.name)
        ctx.inject(to_server, tag=self.name)
        self.rst_injections += 2


@register_censor("throttler")
class ThrottlingCensor(CensorModel):
    """Censorship as degradation: classified flows are shaped, not blocked.

    Flows whose content matches the policy's keyword/Host/SNI
    signatures — or whose far endpoint the policy lists — are squeezed
    through a per-flow deterministic
    :class:`~repro.netsim.impairment.BandwidthLimit`: packets queue
    behind one another at ``bytes_per_sec`` and are tail-dropped once
    ``max_queue_bytes`` of backlog accumulates.  Surviving packets are
    re-injected after their queueing delay, so the client experiences a
    saturated path: slow responses, sporadic loss, eventual timeouts —
    but never an RST, a forged answer, or a clean refusal.  That
    absence of any block *signal* is the point: it stresses the
    measurement's retry/confidence layer with a censor whose
    enforcement is statistically indistinguishable from congestion.
    """

    def __init__(
        self,
        policy: Optional[CensorshipPolicy] = None,
        variables: Optional[Dict[str, str]] = None,
        bytes_per_sec: float = 512.0,
        max_queue_bytes: int = 2048,
        stream_depth: int = 8192,
    ) -> None:
        super().__init__(policy)
        if bytes_per_sec <= 0:
            raise ValueError("bytes_per_sec must be positive")
        if max_queue_bytes <= 0:
            raise ValueError("max_queue_bytes must be positive")
        self._variables = dict(variables or DEFAULT_VARIABLES)
        self.bytes_per_sec = bytes_per_sec
        self.max_queue_bytes = max_queue_bytes
        self.stream_depth = stream_depth
        self.throttle_drops = 0
        self.throttled_packets = 0
        #: canonical flow key -> this flow's dedicated shaper state
        self._shapers: Dict[object, BandwidthLimit] = {}
        self._engine = self._build_engine()

    def _build_engine(self) -> RuleEngine:
        keywords = self.policy.keywords if self.policy.keyword_filtering else ()
        domains = self.policy.blocked_domains if self.policy.http_host_filtering else ()
        if not keywords and not domains:
            return RuleEngine(
                rules=[], variables=self._variables,
                stream_depth=self.stream_depth, obs_label="censor",
            )
        return RuleEngine.from_text(
            censor_ruleset_text(keywords, domains),
            variables=self._variables, stream_depth=self.stream_depth,
            obs_label="censor",
        )

    def set_policy(self, policy: CensorshipPolicy) -> None:
        super().set_policy(policy)
        self._engine = self._build_engine()

    def _endpoint_classified(self, packet: IPPacket) -> bool:
        """Whether either endpoint is on the policy's shaping list."""
        if not self.policy.ip_blocking:
            return False
        if packet.src in self.policy.blocked_ips or packet.dst in self.policy.blocked_ips:
            return True
        if packet.tcp is not None:
            return (
                self.policy.endpoint_is_blocked(packet.dst, packet.tcp.dport)
                or self.policy.endpoint_is_blocked(packet.src, packet.tcp.sport)
            )
        if packet.udp is not None:
            return (
                self.policy.endpoint_is_blocked(packet.dst, packet.udp.dport)
                or self.policy.endpoint_is_blocked(packet.src, packet.udp.sport)
            )
        return False

    def process(self, packet: IPPacket, ctx: TapContext) -> Action:
        directed = flow_of(packet)
        key = directed.canonical() if directed is not None else None

        if key is not None and key not in self._shapers:
            classified = self._endpoint_classified(packet)
            detail = f"endpoint-classified {packet.dst}"
            if not classified:
                # Content classification rides the same signature engine
                # the GFC uses; a reject/drop alert marks the flow for
                # shaping instead of triggering an injection.
                for alert in self._engine.process(packet, ctx.now):
                    if alert.action in ("reject", "drop"):
                        classified = True
                        detail = alert.msg
                        break
            if classified:
                self._shapers[key] = BandwidthLimit(
                    self.bytes_per_sec, self.max_queue_bytes
                )
                self._record(ctx.now, "throttle", packet, f"classified: {detail}")

        shaper = self._shapers.get(key) if key is not None else None
        if shaper is None:
            return Action.PASS
        decision = shaper.decide(packet.wire_length(), ctx.now, rng=None)
        if decision.drop:
            self.throttle_drops += 1
            self._record(ctx.now, "throttle", packet, "queue overflow")
            return Action.DROP
        self.throttled_packets += 1
        if decision.extra_delay > 0:
            # Hold the packet back for its queueing delay: drop the
            # in-flight copy and re-originate it from the tap's node.
            # The censor tap skips its own injections (Middlebox
            # contract), so the delayed copy is not re-shaped.
            ctx.inject(packet, tag=self.name, delay=decision.extra_delay)
            return Action.DROP
        return Action.PASS

    def reset_counters(self) -> None:
        super().reset_counters()
        self.throttle_drops = 0
        self.throttled_packets = 0
        self._shapers.clear()


@register_censor("geoblocker", provenance="arXiv:2508.07194")
class GeoBlocker(CensorModel):
    """Prefix-scoped silent drops with an allowlist direction.

    The border blocking ProtoScan measures: everything toward a blocked
    prefix is discarded at the border regardless of protocol or port —
    no resets, no forged answers, just packets that never arrive.
    ``direction`` picks the enforced side (``"outbound"`` drops traffic
    *toward* blocked prefixes, ``"inbound"`` traffic *from* them,
    ``"both"`` either); the unenforced direction is the allowlist
    direction, and ``allow_prefixes`` exempts specific client ranges
    entirely (the whitelisted-scanner behaviour such deployments show).
    Policy-listed addresses (``blocked_ips``/``blocked_endpoints``) are
    enforced too, as host-granular prefixes.
    """

    DIRECTIONS = ("outbound", "inbound", "both")

    def __init__(
        self,
        policy: Optional[CensorshipPolicy] = None,
        blocked_prefixes: Sequence[str] = ("203.0.113.0/28",),
        allow_prefixes: Sequence[str] = (),
        direction: str = "outbound",
    ) -> None:
        super().__init__(policy)
        if direction not in self.DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r} (choose from {self.DIRECTIONS})"
            )
        self.direction = direction
        self.blocked_prefixes: Tuple[str, ...] = tuple(blocked_prefixes)
        self.allow_prefixes: Tuple[str, ...] = tuple(allow_prefixes)
        self._blocked_nets: List[Tuple[int, int]] = [
            compile_network(prefix) for prefix in self.blocked_prefixes
        ]
        self._allow_nets: List[Tuple[int, int]] = [
            compile_network(prefix) for prefix in self.allow_prefixes
        ]
        self.geo_drops = 0

    def _in_blocked(self, addr: str) -> bool:
        value = ip_to_int(addr)
        if any(value & mask == network for network, mask in self._blocked_nets):
            return True
        return addr in self.policy.blocked_ips

    def _allowlisted(self, addr: str) -> bool:
        value = ip_to_int(addr)
        return any(value & mask == network for network, mask in self._allow_nets)

    def _port_blocked(self, packet: IPPacket, addr: str) -> bool:
        if packet.tcp is not None:
            port = packet.tcp.sport if addr == packet.src else packet.tcp.dport
        elif packet.udp is not None:
            port = packet.udp.sport if addr == packet.src else packet.udp.dport
        else:
            return False
        return (addr, port) in self.policy.blocked_endpoints

    def process(self, packet: IPPacket, ctx: TapContext) -> Action:
        if not self.policy.ip_blocking:
            return Action.PASS
        if self._allowlisted(packet.src) or self._allowlisted(packet.dst):
            return Action.PASS
        if self.direction in ("outbound", "both"):
            if self._in_blocked(packet.dst) or self._port_blocked(packet, packet.dst):
                self.geo_drops += 1
                self._record(ctx.now, "geo", packet, f"prefix drop -> {packet.dst}")
                return Action.DROP
        if self.direction in ("inbound", "both"):
            if self._in_blocked(packet.src) or self._port_blocked(packet, packet.src):
                self.geo_drops += 1
                self._record(ctx.now, "geo", packet, f"prefix drop <- {packet.src}")
                return Action.DROP
        return Action.PASS

    def reset_counters(self) -> None:
        super().reset_counters()
        self.geo_drops = 0
