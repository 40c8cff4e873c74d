"""The network: nodes, links, routing, and hop-by-hop packet forwarding.

Routing uses shortest-path hop tables computed once after topology
construction: for every (node, destination) pair the table holds the
link to send on, its direction label and the next node, so forwarding a
packet one hop is a table lookup plus :meth:`Link.transmit`.  Forwarding
applies, at every transit node: SAV (routers), TTL decrement with ICMP
time-exceeded (routers), then each attached tap in order — the same
pipeline a packet crosses on the paper's OVS switch with its censor and
MVR Snort instances.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..packets import IPPacket
from .engine import Simulator
from .impairment import ImpairmentModel, mix_seed
from .link import Link
from .middlebox import Action, TapContext
from .node import Host, Node
from .stack import NetworkStack

__all__ = ["Network"]


def _ip_to_int(ip: str) -> int:
    """Dotted-quad IPv4 → 32-bit integer (raises ValueError on junk)."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {ip!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"not an IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


class Network:
    """A simulated internetwork bound to a :class:`Simulator`.

    Routes are rebuilt lazily (on the next :meth:`originate` after the
    topology changes) into a hop table, so forwarding a packet one hop
    costs a lookup of ``(link, direction, next node)`` plus the link's
    :meth:`~Link.transmit`; per-packet accounting lives in the links'
    ledgers, never in the network.
    """

    def __init__(self, sim: Simulator, default_latency: float = 0.001) -> None:
        self.sim = sim
        self.default_latency = default_latency
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self._adjacency: Dict[str, List[Link]] = {}
        self._ip_owner: Dict[str, Host] = {}
        #: node -> destination host (or node) -> (link, direction label,
        #: next node): the first hop of the routed path.
        self._hops: Dict[Node, Dict[Node, Tuple[Link, str, Node]]] = {}
        self._routes_dirty = True
        self.dropped_no_route = 0
        #: Prefix routes: (mask, network, prefix_len, gateway host), kept
        #: longest-prefix-first.  Lets population traffic address millions
        #: of synthetic users without a Host object per user — anything in
        #: the prefix is delivered to (or materialized from) the gateway.
        self._prefix_routes: List[Tuple[int, int, int, Host]] = []
        self._prefix_cache: Dict[str, Optional[Host]] = {}
        #: (src_name, dst_name) -> does the routed path cross any tap?
        #: The fidelity boundary for population traffic; invalidated on
        #: route rebuilds and tap attachment.
        self._tap_path_cache: Dict[Tuple[str, str], bool] = {}

    # -- topology construction ----------------------------------------------

    def add(self, node: Node) -> Node:
        """Attach a node; hosts get a protocol stack bound to the simulator."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        node.network = self
        self.nodes[node.name] = node
        self._adjacency[node.name] = []
        if isinstance(node, Host):
            if node.ip in self._ip_owner:
                raise ValueError(f"duplicate host IP: {node.ip}")
            self._ip_owner[node.ip] = node
            node.stack = NetworkStack(node, self.sim)
        self._routes_dirty = True
        return node

    def connect(
        self, a: Node, b: Node, latency: Optional[float] = None, loss: float = 0.0
    ) -> Link:
        """Create a bidirectional link between two attached nodes."""
        for node in (a, b):
            if node.name not in self.nodes:
                raise ValueError(f"{node.name} is not attached to this network")
        link = Link(
            a,
            b,
            latency if latency is not None else self.default_latency,
            loss=loss,
            # Each link gets its own RNG stream derived from the simulation
            # seed and its ordinal, so impairments are deterministic without
            # consuming (and thereby perturbing) the simulator's shared rng.
            seed=mix_seed(self.sim.seed, len(self.links)),
        )
        self.links.append(link)
        self._adjacency[a.name].append(link)
        self._adjacency[b.name].append(link)
        self._routes_dirty = True
        return link

    def impair_all_links(
        self, models: Sequence[ImpairmentModel], direction: str = "both"
    ) -> None:
        """Install an impairment profile on every link (cloned per direction).

        The blunt instrument for "make the whole network hostile" — e.g.
        running the full evaluation scenario under 5% burst loss.
        """
        for link in self.links:
            link.impair(models, direction=direction)

    def host(self, name: str) -> Host:
        """Look up a host by name (raises KeyError with a clear message)."""
        node = self.nodes.get(name)
        if not isinstance(node, Host):
            raise KeyError(f"no host named {name!r}")
        return node

    def add_prefix_route(self, cidr: str, gateway: Host) -> None:
        """Deliver every address inside ``cidr`` to ``gateway``.

        Exact host IPs always win over prefixes, and longer prefixes win
        over shorter ones.  Registration order breaks prefix-length ties
        deterministically (first registered wins).
        """
        network, sep, length = cidr.partition("/")
        if not sep:
            raise ValueError(f"prefix route needs CIDR notation, got {cidr!r}")
        prefix_len = int(length)
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {cidr!r}")
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0
        net_int = _ip_to_int(network)
        if net_int & ~mask & 0xFFFFFFFF:
            raise ValueError(f"host bits set in prefix route: {cidr!r}")
        if gateway.name not in self.nodes:
            raise ValueError(f"{gateway.name} is not attached to this network")
        self._prefix_routes.append((mask, net_int, prefix_len, gateway))
        self._prefix_routes.sort(key=lambda entry: -entry[2])
        self._prefix_cache.clear()

    def owner_of(self, ip: str) -> Optional[Host]:
        """The host owning ``ip`` (exact, then longest prefix), or None."""
        owner = self._ip_owner.get(ip)
        if owner is not None or not self._prefix_routes:
            return owner
        try:
            return self._prefix_cache[ip]
        except KeyError:
            pass
        resolved: Optional[Host] = None
        try:
            ip_int = _ip_to_int(ip)
        except ValueError:
            ip_int = None
        if ip_int is not None:
            for mask, net_int, _length, gateway in self._prefix_routes:
                if ip_int & mask == net_int:
                    resolved = gateway
                    break
        self._prefix_cache[ip] = resolved
        return resolved

    def _build_routes(self) -> None:
        """All-pairs hop tables via BFS (uniform edge weight).

        A neighbour's hop is the first link in the source's adjacency
        list that reaches it; every farther node inherits the hop of the
        node it was discovered from.
        """
        self._hops = {}
        for source in self.nodes.values():
            table: Dict[Node, Tuple[Link, str, Node]] = {}
            visited = {source}
            queue = deque([source])
            while queue:
                current = queue.popleft()
                for link in self._adjacency[current.name]:
                    neighbor = link.other_end(current)
                    if neighbor in visited:
                        continue
                    visited.add(neighbor)
                    table[neighbor] = (
                        (link, link.direction_from(source), neighbor)
                        if current is source
                        else table[current]
                    )
                    queue.append(neighbor)
            self._hops[source] = table
        self._routes_dirty = False
        self._tap_path_cache.clear()

    # -- path analysis (the tiered-fidelity boundary) ------------------------

    def path_nodes(self, src_name: str, dst_name: str) -> List[str]:
        """Node names along the routed path, endpoints included."""
        if self._routes_dirty:
            self._build_routes()
        path = [src_name]
        current = self.nodes[src_name]
        destination = self.nodes.get(dst_name)
        while current is not destination:
            hop = self._hops[current].get(destination)
            if hop is None:
                raise ValueError(f"no route from {src_name} to {dst_name}")
            current = hop[2]
            path.append(current.name)
        return path

    def path_crosses_tap(self, src_name: str, dst_name: str) -> bool:
        """Does the routed path cross any node carrying a tap?

        This is the fidelity decision for population traffic: flows on
        tap-free paths advance as aggregate events; flows that would be
        observed must be expanded to byte-accurate packets.  Results are
        cached per (src, dst) pair; the cache is dropped whenever routes
        are rebuilt or a tap is attached, so the answer is always current.
        """
        if self._routes_dirty:
            self._build_routes()
        key = (src_name, dst_name)
        try:
            return self._tap_path_cache[key]
        except KeyError:
            pass
        crosses = any(
            self.nodes[name].taps for name in self.path_nodes(src_name, dst_name)
        )
        self._tap_path_cache[key] = crosses
        return crosses

    def _invalidate_tap_paths(self) -> None:
        """Called by ``Node.add_tap``: tap placement changed underneath us."""
        self._tap_path_cache.clear()

    # -- forwarding ----------------------------------------------------------

    def originate(self, packet: IPPacket, at: Node, delay: float = 0.0) -> None:
        """Introduce a packet into the network at ``at``.

        Used both by hosts sending traffic and by taps injecting packets
        mid-path (censor RSTs, poisoned DNS answers).
        """
        if self._routes_dirty:
            self._build_routes()
        self.sim.at_uncancellable(delay, lambda: self._forward_from(packet, at))

    def _forward_from(self, packet: IPPacket, node: Node) -> None:
        """Send ``packet`` one hop from ``node`` toward its destination."""
        owner = self.owner_of(packet.dst)
        if owner is None:
            self.dropped_no_route += 1
            return
        if owner is node:
            owner.deliver(packet)
            return
        hop = self._hops[node].get(owner)
        if hop is None:
            self.dropped_no_route += 1
            return
        link, direction, next_node = hop
        sim = self.sim
        delays = link.transmit(packet.wire_length(), sim.now, direction).delays
        if not delays:
            return
        # Hop events are fire-and-forget (nothing ever cancels an in-flight
        # packet), so the uncancellable fast path skips Timer allocation.
        sim.at_uncancellable(
            link.latency + delays[0], lambda: self._arrive(packet, next_node)
        )
        for extra in delays[1:]:
            # Duplicate copies get their own packet object: downstream
            # routers mutate TTL in place, so copies must not share state.
            duplicate = packet.copy()
            duplicate.metadata.update(packet.metadata)
            sim.at_uncancellable(
                link.latency + extra,
                lambda p=duplicate: self._arrive(p, next_node),
            )

    def _find_link(self, a_name: str, b_name: str) -> Link:
        for link in self._adjacency[a_name]:
            if link.other_end(self.nodes[a_name]).name == b_name:
                return link
        raise RuntimeError(f"no link between {a_name} and {b_name}")

    def _arrive(self, packet: IPPacket, node: Node) -> None:
        """Process a packet arriving at ``node`` and keep forwarding it."""
        node.packets_seen += 1
        if isinstance(node, Host):
            node.deliver(packet)
            return

        # Routers: source-address validation, then TTL handling.
        if getattr(node, "decrements_ttl", False):
            if not node.sav_permits(packet):  # type: ignore[attr-defined]
                node.sav_drops += 1  # type: ignore[attr-defined]
                node.packets_dropped += 1
                return
            packet.ttl -= 1
            if packet.ttl <= 0:
                node.ttl_drops += 1  # type: ignore[attr-defined]
                node.packets_dropped += 1
                if getattr(node, "send_time_exceeded", False):
                    self._emit_time_exceeded(packet, node)
                return

        # Taps, in attachment order (censor before/after MVR is topology
        # configuration, matching the paper's two Snort instances).
        taps = node.taps
        if taps:
            ctx = TapContext(self, node, self.sim.now)
            for tap in taps:
                if (
                    packet.metadata.get("injected_by") == getattr(tap, "name", None)
                    and not tap.sees_own_injections()
                ):
                    continue
                action = tap.process(packet, ctx)
                if action is Action.DROP:
                    node.packets_dropped += 1
                    return

        self._forward_from(packet, node)

    def _emit_time_exceeded(self, packet: IPPacket, node: Node) -> None:
        from ..packets import ICMPMessage

        # Routers have no address of their own in this model; the error is
        # attributed to the router by name in metadata for diagnostics.
        reply = IPPacket(
            src=packet.dst,  # stand-in: model lacks router interface IPs
            dst=packet.src,
            payload=ICMPMessage.time_exceeded(packet.to_bytes()),
        )
        reply.metadata["time_exceeded_at"] = node.name
        reply.metadata["injected_by"] = f"router:{node.name}"
        self.originate(reply, node)

    # -- introspection --------------------------------------------------------

    def total_bytes_carried(self) -> int:
        return sum(link.bytes_carried for link in self.links)

    def total_packets_carried(self) -> int:
        return sum(link.packets_carried for link in self.links)
