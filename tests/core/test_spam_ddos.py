"""Tests for Method #2 (spam) and Method #3 (DDoS) measurements."""

import pytest

from repro.core import DDoSMeasurement, SpamMeasurement, Verdict
from repro.core.evaluation import build_environment
from repro.netsim import IndependentLoss


class TestSpamMeasurement:
    def test_poisoned_mx_detected(self):
        env = build_environment(censored=True, seed=30, population_size=4)
        technique = SpamMeasurement(env.ctx, ["twitter.com", "example.org"])
        technique.start()
        env.run(duration=30.0)
        verdicts = {r.target: r.verdict for r in technique.results}
        assert verdicts["twitter.com"] is Verdict.DNS_POISONED
        assert verdicts["example.org"] is Verdict.ACCESSIBLE

    def test_open_network_delivers_spam(self):
        env = build_environment(censored=False, seed=30, population_size=4)
        technique = SpamMeasurement(env.ctx, ["twitter.com"])
        technique.start()
        env.run(duration=30.0)
        assert technique.results[0].verdict is Verdict.ACCESSIBLE
        assert technique.results[0].detail == "spam delivered end-to-end"
        # The message really landed in the target's mailbox.
        assert env.servers["blocked_mail"].mailbox

    def test_evidence_stage_recorded(self):
        env = build_environment(censored=True, seed=30, population_size=4)
        technique = SpamMeasurement(env.ctx, ["twitter.com"])
        technique.start()
        env.run(duration=30.0)
        assert technique.results[0].evidence["stage"] == "mx"

    def test_smtp_ip_blocking_detected(self):
        env = build_environment(censored=True, seed=30, population_size=4)
        env.censor.policy.dns_poisoning = False
        env.censor.policy.blocked_ips.add(env.topo.blocked_mail.ip)
        technique = SpamMeasurement(env.ctx, ["twitter.com"])
        technique.start()
        env.run(duration=30.0)
        result = technique.results[0]
        assert result.verdict is Verdict.BLOCKED_TIMEOUT
        assert result.evidence["stage"] == "smtp"

    def test_lookup_only_mode(self):
        env = build_environment(censored=False, seed=30, population_size=4)
        technique = SpamMeasurement(env.ctx, ["twitter.com"], deliver_message=False)
        technique.start()
        env.run(duration=30.0)
        assert technique.results[0].verdict is Verdict.ACCESSIBLE
        assert technique.results[0].detail == "SMTP connect succeeded"
        assert not env.servers["blocked_mail"].mailbox

    def test_delivered_message_scores_as_spam(self):
        """Figure 2's premise end-to-end: what lands in the mailbox is spam."""
        from repro.spamfilter import SPAM_THRESHOLD, SpamScorer

        env = build_environment(censored=False, seed=30, population_size=4)
        technique = SpamMeasurement(env.ctx, ["twitter.com"])
        technique.start()
        env.run(duration=30.0)
        message = env.servers["blocked_mail"].mailbox[0]
        assert SpamScorer().score(message) >= SPAM_THRESHOLD

    def test_full_campaign_evades_surveillance(self):
        from repro.core.evaluation import BLOCKED_TARGETS_FULL, CONTROL_TARGETS_FULL

        env = build_environment(censored=True, seed=30, population_size=4)
        technique = SpamMeasurement(
            env.ctx, list(BLOCKED_TARGETS_FULL) + CONTROL_TARGETS_FULL
        )
        technique.start()
        env.run(duration=60.0)
        assert env.surveillance.attributed_alerts_for_user("measurer") == []


class TestDDoSMeasurement:
    def test_reset_censorship_characterized(self):
        env = build_environment(censored=True, seed=31, population_size=4)
        env.censor.policy.dns_poisoning = False
        technique = DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=20)
        technique.start()
        env.run(duration=60.0)
        result = technique.results[0]
        assert result.verdict is Verdict.BLOCKED_RST
        assert result.samples == 20
        assert result.evidence["samples"]["reset"] >= 10

    def test_accessible_target(self):
        env = build_environment(censored=True, seed=31, population_size=4)
        technique = DDoSMeasurement(env.ctx, ["example.org"], requests_per_target=15)
        technique.start()
        env.run(duration=60.0)
        result = technique.results[0]
        assert result.verdict is Verdict.ACCESSIBLE
        assert result.evidence["samples"]["ok"] == 15

    def test_dns_stage_poisoning_short_circuits(self):
        env = build_environment(censored=True, seed=31, population_size=4)
        technique = DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=10)
        technique.start()
        env.run(duration=60.0)
        assert technique.results[0].verdict is Verdict.DNS_POISONED
        assert technique.results[0].evidence["stage"] == "dns"

    def test_null_route_characterized_as_timeout(self):
        env = build_environment(censored=True, seed=31, population_size=4)
        env.censor.policy.dns_poisoning = False
        env.censor.policy.keyword_filtering = False
        env.censor.policy.http_host_filtering = False
        env.censor.policy.blocked_ips.add(env.topo.blocked_web.ip)
        technique = DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=8)
        technique.start()
        env.run(duration=120.0)
        assert technique.results[0].verdict is Verdict.BLOCKED_TIMEOUT

    def test_flood_classified_and_discarded(self):
        """Evasion: the burst trips the DDoS detection, so the MVR discards
        it and suppresses attribution."""
        env = build_environment(censored=True, seed=31, population_size=4)
        env.censor.policy.dns_poisoning = False
        technique = DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=30)
        technique.start()
        env.run(duration=60.0)
        assert env.surveillance.attributed_alerts_for_user("measurer") == []
        assert env.surveillance.discarded_by_class.get("ddos", 0) > 0

    def test_block_page_characterized(self):
        env = build_environment(censored=True, seed=31, population_size=4)
        env.censor.policy.dns_poisoning = False
        env.censor.policy.http_block_page = True
        technique = DDoSMeasurement(env.ctx, ["twitter.com"], requests_per_target=10)
        technique.start()
        env.run(duration=60.0)
        assert technique.results[0].verdict is Verdict.HTTP_BLOCKPAGE


class TestDDoSUnderLoss:
    def _lossy_env(self, censored, seed=33):
        env = build_environment(censored=censored, seed=seed, population_size=4)
        for link in env.topo.network.links:
            if link.connects(env.topo.border_router, env.topo.transit_router):
                link.impair([IndependentLoss(0.10)])
        return env

    def test_high_threshold_still_detects_real_censorship(self):
        """Censorship fails ~every sample, so even a 0.8 threshold trips."""
        env = self._lossy_env(censored=True)
        env.censor.policy.dns_poisoning = False
        technique = DDoSMeasurement(env.ctx, ["twitter.com"],
                                    requests_per_target=25,
                                    blocked_fraction_threshold=0.8)
        technique.start()
        env.run(duration=120.0)
        assert technique.results[0].blocked

    def test_high_threshold_tolerates_loss(self):
        """Stochastic loss stays under the 0.8 threshold: no false block."""
        env = self._lossy_env(censored=False)
        technique = DDoSMeasurement(env.ctx, ["weather.gov"],
                                    requests_per_target=25,
                                    blocked_fraction_threshold=0.8)
        technique.start()
        env.run(duration=120.0)
        assert technique.results[0].verdict is Verdict.ACCESSIBLE

    def test_dns_retry_recovers_lost_query(self):
        env = self._lossy_env(censored=False, seed=35)
        # Make the loss brutal for DNS but allow retries to get through.
        technique = DDoSMeasurement(env.ctx, ["example.org"],
                                    requests_per_target=5, dns_retries=5)
        technique.start()
        env.run(duration=120.0)
        assert technique.results[0].verdict is Verdict.ACCESSIBLE
