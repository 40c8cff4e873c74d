"""Integration tests for the GreatFirewall middlebox over the simulator."""

import pytest

from repro.censor import CensorshipPolicy, GreatFirewall
from repro.netsim import (
    DNSServer,
    WebServer,
    Zone,
    build_censored_as,
    http_get,
    resolve,
)
from repro.packets import QTYPE_MX, QTYPE_TXT


@pytest.fixture
def world():
    topo = build_censored_as(seed=2, population_size=3)
    gfw = GreatFirewall()
    topo.border_router.add_tap(gfw)
    zone = Zone()
    for domain, ip in topo.domains.items():
        zone.add_a(domain, ip)
    zone.add_mx("twitter.com", "mail.twitter.com")
    zone.add_a("mail.twitter.com", topo.blocked_mail.ip)
    DNSServer(topo.dns_server, zone)
    WebServer(topo.blocked_web, default_body="<html>site</html>")
    WebServer(topo.control_web, default_body="<html>control</html>")
    return topo, gfw


class TestHTTPHostFiltering:
    def test_blocked_host_reset(self, world):
        topo, gfw = world
        results = []
        http_get(topo.measurement_client, topo.blocked_web.ip, "twitter.com",
                 callback=results.append)
        topo.run()
        assert results[0].status == "reset"
        assert gfw.rst_injections >= 1
        assert gfw.events_by_mechanism("http_host")

    def test_control_host_passes(self, world):
        topo, gfw = world
        results = []
        http_get(topo.measurement_client, topo.control_web.ip, "example.org",
                 callback=results.append)
        topo.run()
        assert results[0].ok
        assert gfw.events == []

    def test_block_page_mode(self, world):
        topo, gfw = world
        gfw.policy.http_block_page = True
        results = []
        http_get(topo.measurement_client, topo.blocked_web.ip, "twitter.com",
                 callback=results.append)
        topo.run()
        assert results[0].ok
        assert results[0].response.status == 403


class TestKeywordFiltering:
    def test_keyword_in_path_reset(self, world):
        topo, gfw = world
        results = []
        http_get(topo.measurement_client, topo.control_web.ip, "example.org",
                 "/falun", callback=results.append)
        topo.run()
        assert results[0].status == "reset"
        assert gfw.events_by_mechanism("keyword")

    def test_keyword_case_insensitive(self, world):
        topo, gfw = world
        results = []
        http_get(topo.measurement_client, topo.control_web.ip, "example.org",
                 "/FALUN-info", callback=results.append)
        topo.run()
        assert results[0].status == "reset"

    def test_residual_blocking_same_flow_pair(self, world):
        topo, gfw = world
        results = []
        http_get(topo.measurement_client, topo.control_web.ip, "example.org",
                 "/falun", callback=results.append)
        topo.run()
        assert gfw.residual_drops >= 1  # retransmissions/later packets punished

    def test_disabled_keyword_filtering(self, world):
        topo, gfw = world
        gfw.set_policy(CensorshipPolicy(keyword_filtering=False,
                                        http_host_filtering=False,
                                        dns_poisoning=False, ip_blocking=False))
        results = []
        http_get(topo.measurement_client, topo.control_web.ip, "example.org",
                 "/falun", callback=results.append)
        topo.run()
        assert results[0].ok


class TestDNSPoisoning:
    def test_a_query_poisoned(self, world):
        topo, gfw = world
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "twitter.com",
                callback=results.append)
        topo.run()
        assert results[0].addresses == [gfw.policy.poison_ip]
        assert gfw.dns_injections == 1

    def test_mx_query_poisoned_with_a_record(self, world):
        topo, gfw = world
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "twitter.com",
                qtype=QTYPE_MX, callback=results.append)
        topo.run()
        assert results[0].addresses == [gfw.policy.poison_ip]
        assert results[0].mx == []

    def test_subdomain_poisoned(self, world):
        topo, gfw = world
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "mail.twitter.com",
                callback=results.append)
        topo.run()
        assert results[0].addresses == [gfw.policy.poison_ip]

    def test_control_domain_clean(self, world):
        topo, gfw = world
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "example.org",
                callback=results.append)
        topo.run()
        assert results[0].addresses == [topo.control_web.ip]
        assert gfw.dns_injections == 0

    def test_poisoning_can_be_disabled(self, world):
        topo, gfw = world
        gfw.policy.dns_poisoning = False
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "twitter.com",
                callback=results.append)
        topo.run()
        assert results[0].addresses == [topo.blocked_web.ip]


class TestMalformedDNS:
    def test_truncated_query_passes_the_tap(self, world):
        topo, gfw = world
        payload = bytes.fromhex("8237073fe4fdccb4dcbd63f8005b96cd")
        topo.measurement_client.stack.udp_send(topo.dns_server.ip, 53, payload)
        topo.run()
        assert gfw.dns_injections == 0
        assert topo.dns_server.packets_seen >= 1


class TestIPBlocking:
    def test_null_route_times_out(self, world):
        topo, gfw = world
        gfw.policy.blocked_ips.add(topo.control_web.ip)
        results = []
        http_get(topo.measurement_client, topo.control_web.ip, "anything.com",
                 callback=results.append, timeout=0.5)
        topo.run()
        assert results[0].status == "timeout"
        assert gfw.ip_drops >= 1

    def test_rst_endpoint_forges_refusal(self, world):
        topo, gfw = world
        gfw.policy.rst_endpoints.add((topo.control_web.ip, 80))
        results = []
        http_get(topo.measurement_client, topo.control_web.ip, "anything.com",
                 callback=results.append)
        topo.run()
        assert results[0].status == "reset"


class TestBlockedResolverEndpoint:
    def test_udp_to_blocked_endpoint_null_routed(self, world):
        # A resolver scan against a blocked (ip, port) endpoint: the UDP
        # query must be dropped via endpoint_is_blocked, not only when the
        # bare IP appears in blocked_ips.
        topo, gfw = world
        gfw.policy.blocked_endpoints.add((topo.dns_server.ip, 53))
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "example.org",
                callback=results.append, timeout=0.5)
        topo.run()
        assert results[0].status == "timeout"
        assert gfw.ip_drops >= 1
        assert gfw.events_by_mechanism("ip")

    def test_other_port_on_same_ip_unaffected(self, world):
        topo, gfw = world
        gfw.policy.blocked_endpoints.add((topo.dns_server.ip, 5353))
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "example.org",
                callback=results.append)
        topo.run()
        assert results[0].ok
        assert gfw.ip_drops == 0


class TestPoisonQtypeScope:
    QTYPE_AAAA = 28

    def test_aaaa_query_not_poisoned(self, world):
        topo, gfw = world
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "twitter.com",
                qtype=self.QTYPE_AAAA, callback=results.append)
        topo.run()
        # The zone has no AAAA record, so the honest answer is NODATA --
        # and crucially the injector stays silent.
        assert results[0].status == "nodata"
        assert results[0].addresses == []
        assert gfw.dns_injections == 0

    def test_txt_query_not_poisoned(self, world):
        topo, gfw = world
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "twitter.com",
                qtype=QTYPE_TXT, callback=results.append)
        topo.run()
        assert results[0].status == "nodata"
        assert gfw.dns_injections == 0


class TestCounters:
    def test_reset_counters(self, world):
        topo, gfw = world
        results = []
        resolve(topo.measurement_client, topo.dns_server.ip, "twitter.com",
                callback=results.append)
        topo.run()
        assert gfw.dns_injections == 1
        gfw.reset_counters()
        assert gfw.dns_injections == 0
        assert gfw.events == []
