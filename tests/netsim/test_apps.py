"""Unit tests for the DNS/HTTP/SMTP application servers and clients."""

import pytest

from repro.netsim import (
    DNSServer,
    Host,
    MailServer,
    Network,
    Simulator,
    WebServer,
    Zone,
    build_three_node,
    http_get,
    resolve,
    send_mail,
)
from repro.netsim.impairment import Decision, ImpairmentModel
from repro.packets import EmailMessage, QTYPE_A, QTYPE_MX


@pytest.fixture
def topo():
    return build_three_node(seed=5)


class TestZone:
    def test_lookup_a(self):
        zone = Zone().add_a("example.com", "1.2.3.4")
        records = zone.lookup("example.com", QTYPE_A)
        assert [str(r.data) for r in records] == ["1.2.3.4"]

    def test_lookup_case_insensitive(self):
        zone = Zone().add_a("Example.COM", "1.2.3.4")
        assert zone.lookup("example.com", QTYPE_A)

    def test_cname_followed_for_a(self):
        zone = Zone().add_cname("www.example.com", "example.com").add_a("example.com", "1.2.3.4")
        records = zone.lookup("www.example.com", QTYPE_A)
        datas = [str(r.data) for r in records]
        assert "1.2.3.4" in datas

    def test_knows(self):
        zone = Zone().add_mx("example.com", "mail.example.com")
        assert zone.knows("example.com")
        assert not zone.knows("other.com")

    def test_names(self):
        zone = Zone().add_a("b.com", "1.1.1.1").add_a("a.com", "2.2.2.2")
        assert zone.names() == ["a.com", "b.com"]


class TestDNSServer:
    def test_a_resolution(self, topo):
        DNSServer(topo.server, Zone().add_a("example.com", "9.9.9.9"))
        results = []
        resolve(topo.client, topo.server.ip, "example.com", callback=results.append)
        topo.run()
        assert results[0].status == "ok"
        assert results[0].addresses == ["9.9.9.9"]

    def test_mx_resolution(self, topo):
        DNSServer(topo.server, Zone().add_mx("example.com", "mail.example.com", preference=5))
        results = []
        resolve(topo.client, topo.server.ip, "example.com", qtype=QTYPE_MX,
                callback=results.append)
        topo.run()
        assert results[0].mx == [(5, "mail.example.com")]

    def test_nxdomain(self, topo):
        DNSServer(topo.server, Zone().add_a("example.com", "9.9.9.9"))
        results = []
        resolve(topo.client, topo.server.ip, "missing.example", callback=results.append)
        topo.run()
        assert results[0].status == "nxdomain"

    def test_nodata_for_known_name_wrong_type(self, topo):
        DNSServer(topo.server, Zone().add_a("example.com", "9.9.9.9"))
        results = []
        resolve(topo.client, topo.server.ip, "example.com", qtype=QTYPE_MX,
                callback=results.append)
        topo.run()
        assert results[0].status == "nodata"

    def test_timeout_when_no_server(self, topo):
        results = []
        resolve(topo.client, topo.server.ip, "example.com", callback=results.append,
                timeout=0.5)
        topo.run()
        # No DNS server bound: closed UDP port -> ICMP unreachable -> timeout
        assert results[0].status == "timeout"

    def test_truncated_query_is_ignored(self, topo):
        server = DNSServer(topo.server, Zone().add_a("e.com", "1.1.1.1"))
        payload = bytes.fromhex("8237073fe4fdccb4dcbd63f8005b96cd")
        topo.client.stack.udp_send(topo.server.ip, 53, payload)
        topo.run()
        assert server.queries_served == 0
        # The server still answers well-formed queries afterwards.
        results = []
        resolve(topo.client, topo.server.ip, "e.com", callback=results.append)
        topo.run()
        assert results[0].addresses == ["1.1.1.1"]

    def test_query_counter(self, topo):
        server = DNSServer(topo.server, Zone().add_a("e.com", "1.1.1.1"))
        for _ in range(3):
            resolve(topo.client, topo.server.ip, "e.com", callback=lambda r: None)
        topo.run()
        assert server.queries_served == 3


class _DropFirst(ImpairmentModel):
    """Deterministically drop the first ``count`` packets, pass the rest."""

    def __init__(self, count):
        self.count = count

    def decide(self, size, now, rng):
        if self.count > 0:
            self.count -= 1
            return Decision(drop=True)
        return Decision()


class TestResolverRetransmission:
    """A stub resolver re-sends lost queries; one dropped datagram must
    not surface as a lookup timeout (which the techniques would read as
    censorship)."""

    def _pair(self):
        sim = Simulator(seed=8)
        net = Network(sim)
        client = net.add(Host("client", "10.0.0.1"))
        server = net.add(Host("server", "10.0.0.2"))
        link = net.connect(client, server, latency=0.005)
        return sim, link, client, server

    def test_lost_query_is_retransmitted(self):
        sim, link, client, server = self._pair()
        dns = DNSServer(server, Zone().add_a("e.com", "1.1.1.1"))
        link.impair([_DropFirst(1)], direction=link.direction_from(client))
        results = []
        resolve(client, server.ip, "e.com", callback=results.append, timeout=3.0)
        sim.run(until=10.0)
        assert results[0].status == "ok"
        assert results[0].addresses == ["1.1.1.1"]
        assert dns.queries_served == 1  # only the retransmitted try arrived

    def test_exhausted_retries_stay_within_the_timeout_budget(self):
        sim, link, client, server = self._pair()
        DNSServer(server, Zone().add_a("e.com", "1.1.1.1"))
        link.impair([_DropFirst(100)], direction=link.direction_from(client))
        done_at = []

        def record(result):
            done_at.append((sim.now, result.status))

        resolve(client, server.ip, "e.com", callback=record, timeout=3.0, retries=2)
        sim.run(until=10.0)
        # The budget is split across tries, not multiplied by them.
        assert done_at == [(pytest.approx(3.0), "timeout")]

    def test_zero_retries_restores_the_single_shot_lookup(self):
        sim, link, client, server = self._pair()
        dns = DNSServer(server, Zone().add_a("e.com", "1.1.1.1"))
        link.impair([_DropFirst(1)], direction=link.direction_from(client))
        results = []
        resolve(client, server.ip, "e.com", callback=results.append,
                timeout=1.0, retries=0)
        sim.run(until=10.0)
        assert results[0].status == "timeout"
        assert dns.queries_served == 0


class TestWebServer:
    def test_get_default_page(self, topo):
        WebServer(topo.server, default_body="<html>default</html>")
        results = []
        http_get(topo.client, topo.server.ip, "example.com", "/", callback=results.append)
        topo.run()
        assert results[0].ok
        assert b"default" in results[0].response.body

    def test_get_specific_page(self, topo):
        server = WebServer(topo.server)
        server.add_page("/about", "<html>about us</html>")
        results = []
        http_get(topo.client, topo.server.ip, "example.com", "/about",
                 callback=results.append)
        topo.run()
        assert b"about us" in results[0].response.body

    def test_request_log_and_counter(self, topo):
        server = WebServer(topo.server)
        http_get(topo.client, topo.server.ip, "h.com", "/x", callback=lambda r: None)
        topo.run()
        assert server.requests_served == 1
        assert server.request_log[0].path == "/x"
        assert server.request_log[0].host == "h.com"

    def test_timeout_against_dead_ip(self, topo):
        results = []
        http_get(topo.client, "203.0.113.250", "dead.com", callback=results.append,
                 timeout=0.5)
        topo.run()
        assert results[0].status == "timeout"

    def test_elapsed_recorded(self, topo):
        WebServer(topo.server)
        results = []
        http_get(topo.client, topo.server.ip, "h.com", callback=results.append)
        topo.run()
        assert results[0].elapsed > 0


class TestMailServer:
    def test_delivery(self, topo):
        server = MailServer(topo.server)
        message = EmailMessage("a@b.com", "c@d.com", "subject", "body text")
        results = []
        send_mail(topo.client, topo.server.ip, message, callback=results.append)
        topo.run()
        assert results[0].status == "delivered"
        assert len(server.mailbox) == 1
        assert server.mailbox[0].subject == "subject"
        assert server.mailbox[0].body == "body text"

    def test_delivery_stages_recorded(self, topo):
        MailServer(topo.server)
        results = []
        send_mail(topo.client, topo.server.ip,
                  EmailMessage("a@b.com", "c@d.com", "s", "b"), callback=results.append)
        topo.run()
        assert results[0].stage == "quit"
        codes = [r.code for r in results[0].replies]
        assert 220 in codes and 354 in codes and 221 in codes

    def test_timeout_against_dead_ip(self, topo):
        results = []
        send_mail(topo.client, "203.0.113.250",
                  EmailMessage("a@b.com", "c@d.com", "s", "b"),
                  callback=results.append, timeout=0.5)
        topo.run()
        assert results[0].status == "timeout"
        assert results[0].stage == "connect"

    def test_session_counter(self, topo):
        server = MailServer(topo.server)
        for _ in range(2):
            send_mail(topo.client, topo.server.ip,
                      EmailMessage("a@b.com", "c@d.com", "s", "b"), callback=lambda r: None)
        topo.run()
        assert server.sessions == 2
