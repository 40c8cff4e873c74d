"""Tests for lossy links and per-direction accounting."""

import pytest

from repro.analysis import link_report
from repro.netsim import (
    Duplication,
    GilbertElliottLoss,
    Host,
    IndependentLoss,
    LatencyJitter,
    Network,
    Simulator,
)
from repro.packets import IPPacket, UDPDatagram


def lossy_pair(loss):
    sim = Simulator(seed=4)
    net = Network(sim)
    a = net.add(Host("a", "10.0.0.1"))
    b = net.add(Host("b", "10.0.0.2"))
    net.connect(a, b).impair([IndependentLoss(loss)])
    return sim, net, a, b


class TestLossyLinks:
    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            IndependentLoss(1.0)
        with pytest.raises(ValueError):
            IndependentLoss(-0.1)

    def test_zero_loss_delivers_everything(self):
        sim, net, a, b = lossy_pair(0.0)
        got = []
        b.stack.add_sniffer(lambda p: got.append(p) if p.udp else None)
        for index in range(100):
            a.send_ip(IPPacket(src=a.ip, dst=b.ip,
                               payload=UDPDatagram(sport=1, dport=index + 1)))
        sim.run()
        # 100 datagrams + ICMP replies; count only the datagrams.
        assert len(got) == 100

    def test_loss_rate_approximately_respected(self):
        sim, net, a, b = lossy_pair(0.3)
        got = []
        b.stack.add_sniffer(lambda p: got.append(p) if p.udp else None)
        b.stack.udp_listen(7, lambda *args: None)  # swallow silently
        for _ in range(500):
            a.send_ip(IPPacket(src=a.ip, dst=b.ip,
                               payload=UDPDatagram(sport=1, dport=7)))
        sim.run()
        delivered_fraction = len(got) / 500
        assert 0.6 < delivered_fraction < 0.8
        assert net.links[0].packets_lost == 500 - len(got)

    def test_loss_surfaces_as_tcp_timeout(self):
        """Without retransmission, a lost handshake packet = timeout."""
        sim, net, a, b = lossy_pair(0.9)
        def acceptor(conn):
            conn.handler = lambda e, d: None
        b.stack.tcp_listen(80, acceptor)
        events = []
        for _ in range(10):
            a.stack.tcp_connect(
                b.ip, 80, lambda e, d: events.append(e), timeout=0.5, retransmit=False
            )
        sim.run()
        assert "timeout" in events


class TestPerDirectionAccounting:
    """Conservation: offered == carried - duplicated-extra + lost, per
    direction, under any impairment mix."""

    def _blast(self, models):
        sim = Simulator(seed=11)
        net = Network(sim)
        a = net.add(Host("a", "10.0.0.1"))
        b = net.add(Host("b", "10.0.0.2"))
        link = net.connect(a, b)
        link.impair(models)
        b.stack.udp_listen(7, lambda *args: None)
        a.stack.udp_listen(7, lambda *args: None)
        for _ in range(300):
            a.send_ip(IPPacket(src=a.ip, dst=b.ip,
                               payload=UDPDatagram(sport=7, dport=7)))
        for _ in range(200):
            b.send_ip(IPPacket(src=b.ip, dst=a.ip,
                               payload=UDPDatagram(sport=7, dport=7)))
        sim.run()
        return link

    def test_conservation_under_loss_and_duplication(self):
        link = self._blast(
            [
                GilbertElliottLoss.from_marginal(0.1, mean_burst_length=3.0),
                LatencyJitter(0.002),
                Duplication(0.1, copy_delay=0.001),
            ]
        )
        for direction in ("ab", "ba"):
            stats = link.stats[direction]
            assert stats.packets_offered > 0
            assert stats.conserved
            assert stats.packets_offered == (
                stats.packets_carried - stats.packets_duplicated + stats.packets_lost
            )
        # The mix really exercised both failure modes.
        assert link.packets_lost > 0
        assert link.packets_duplicated > 0

    def test_directions_account_independently(self):
        link = self._blast([GilbertElliottLoss.from_marginal(0.2)])
        assert link.stats["ab"].packets_offered == 300
        assert link.stats["ba"].packets_offered == 200
        assert link.packets_offered == 500

    def test_link_report_exposes_per_direction_stats(self):
        link = self._blast([GilbertElliottLoss.from_marginal(0.15)])
        report = link_report([link])
        entry = report["a<->b"]
        assert entry["conserved"] is True
        for direction in ("ab", "ba"):
            assert entry[direction]["conserved"] is True
            assert 0.0 < entry[direction]["loss_rate"] < 1.0
