"""Unit tests for DNS message encoding/decoding."""

import pytest

from repro.packets import (
    DNSMessage,
    DNSQuestion,
    DNSRecord,
    QTYPE_A,
    QTYPE_CNAME,
    QTYPE_MX,
    QTYPE_NS,
    QTYPE_TXT,
    RCODE_NXDOMAIN,
    RCODE_OK,
    qtype_name,
)


class TestQueryEncoding:
    def test_query_round_trip(self):
        query = DNSMessage.query("www.example.com", qtype=QTYPE_A, txid=0x1234)
        parsed = DNSMessage.from_bytes(query.to_bytes())
        assert parsed.txid == 0x1234
        assert not parsed.is_response
        assert parsed.question.name == "www.example.com"
        assert parsed.question.qtype == QTYPE_A
        assert parsed.recursion_desired

    def test_name_case_normalized(self):
        query = DNSMessage.query("WwW.Example.COM")
        parsed = DNSMessage.from_bytes(query.to_bytes())
        assert parsed.question.name == "www.example.com"

    def test_trailing_dot_stripped(self):
        query = DNSMessage.query("example.com.")
        parsed = DNSMessage.from_bytes(query.to_bytes())
        assert parsed.question.name == "example.com"

    def test_label_too_long_raises(self):
        with pytest.raises(ValueError):
            DNSMessage.query("a" * 64 + ".com").to_bytes()


class TestResponses:
    def test_reply_echoes_txid_and_question(self):
        query = DNSMessage.query("example.com", txid=77)
        reply = query.reply(answers=[DNSRecord("example.com", QTYPE_A, "1.2.3.4")])
        parsed = DNSMessage.from_bytes(reply.to_bytes())
        assert parsed.txid == 77
        assert parsed.is_response
        assert parsed.question.name == "example.com"
        assert parsed.a_records() == ["1.2.3.4"]

    def test_nxdomain_rcode(self):
        query = DNSMessage.query("nosuch.example")
        reply = query.reply(rcode=RCODE_NXDOMAIN)
        parsed = DNSMessage.from_bytes(reply.to_bytes())
        assert parsed.rcode == RCODE_NXDOMAIN
        assert parsed.answers == []

    def test_mx_record_round_trip(self):
        reply = DNSMessage(
            txid=1,
            is_response=True,
            answers=[DNSRecord("example.com", QTYPE_MX, (10, "mail.example.com"))],
        )
        parsed = DNSMessage.from_bytes(reply.to_bytes())
        assert parsed.mx_records() == [(10, "mail.example.com")]

    def test_ns_and_cname_round_trip(self):
        reply = DNSMessage(
            txid=2,
            is_response=True,
            answers=[
                DNSRecord("example.com", QTYPE_NS, "ns1.example.com"),
                DNSRecord("www.example.com", QTYPE_CNAME, "example.com"),
            ],
        )
        parsed = DNSMessage.from_bytes(reply.to_bytes())
        assert parsed.answers[0].data == "ns1.example.com"
        assert parsed.answers[1].data == "example.com"

    def test_txt_round_trip(self):
        reply = DNSMessage(
            txid=3,
            is_response=True,
            answers=[DNSRecord("example.com", QTYPE_TXT, "v=spf1 -all")],
        )
        parsed = DNSMessage.from_bytes(reply.to_bytes())
        assert parsed.answers[0].data == "v=spf1 -all"

    def test_multiple_answers(self):
        reply = DNSMessage(
            txid=4,
            is_response=True,
            answers=[
                DNSRecord("example.com", QTYPE_A, "1.1.1.1"),
                DNSRecord("example.com", QTYPE_A, "2.2.2.2"),
            ],
        )
        parsed = DNSMessage.from_bytes(reply.to_bytes())
        assert parsed.a_records() == ["1.1.1.1", "2.2.2.2"]

    def test_authority_and_additional_sections(self):
        message = DNSMessage(
            txid=5,
            is_response=True,
            authority=[DNSRecord("example.com", QTYPE_NS, "ns1.example.com")],
            additional=[DNSRecord("ns1.example.com", QTYPE_A, "9.9.9.9")],
        )
        parsed = DNSMessage.from_bytes(message.to_bytes())
        assert len(parsed.authority) == 1
        assert len(parsed.additional) == 1
        assert parsed.additional[0].data == "9.9.9.9"


class TestCompression:
    def test_decode_compressed_name(self):
        # Hand-built message with a compression pointer in the answer name.
        # Header: txid=1, response, 1 question, 1 answer.
        import struct

        header = struct.pack("!HHHHHH", 1, 0x8180, 1, 1, 0, 0)
        qname = b"\x07example\x03com\x00"
        question = qname + struct.pack("!HH", QTYPE_A, 1)
        # Answer name is a pointer to offset 12 (start of qname).
        answer = b"\xc0\x0c" + struct.pack("!HHIH", QTYPE_A, 1, 300, 4) + bytes(
            [1, 2, 3, 4]
        )
        parsed = DNSMessage.from_bytes(header + question + answer)
        assert parsed.answers[0].name == "example.com"
        assert parsed.answers[0].data == "1.2.3.4"

    def test_compression_loop_rejected(self):
        import struct

        header = struct.pack("!HHHHHH", 1, 0x8180, 1, 0, 0, 0)
        # A name that points at itself.
        question = b"\xc0\x0c" + struct.pack("!HH", QTYPE_A, 1)
        with pytest.raises(ValueError):
            DNSMessage.from_bytes(header + question)


class TestMisc:
    def test_truncated_header_raises(self):
        with pytest.raises(ValueError):
            DNSMessage.from_bytes(b"\x00" * 6)

    def test_truncated_question_raises_value_error(self):
        # A full header claiming 0x073f questions, then 4 bytes that end
        # inside the first question's type/class fields.
        payload = bytes.fromhex("8237073fe4fdccb4dcbd63f8005b96cd")
        with pytest.raises(ValueError):
            DNSMessage.from_bytes(payload)

    @pytest.mark.parametrize("keep", range(12, 45))
    def test_every_truncation_raises_value_error(self, keep):
        import struct

        header = struct.pack("!HHHHHH", 7, 0x8180, 1, 1, 0, 0)
        question = b"\x07example\x03com\x00" + struct.pack("!HH", QTYPE_A, 1)
        answer = b"\xc0\x0c" + struct.pack("!HHIH", QTYPE_A, 1, 300, 4) + bytes(4)
        wire = header + question + answer
        assert keep < len(wire)
        with pytest.raises(ValueError):
            DNSMessage.from_bytes(wire[:keep])

    def test_question_none_when_empty(self):
        assert DNSMessage().question is None

    def test_qtype_name(self):
        assert qtype_name(QTYPE_A) == "A"
        assert qtype_name(QTYPE_MX) == "MX"
        assert qtype_name(250) == "TYPE250"

    def test_question_key_normalizes(self):
        assert DNSQuestion("Example.COM.").key() == ("example.com", QTYPE_A)
