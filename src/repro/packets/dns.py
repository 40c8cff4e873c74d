"""DNS message encoding/decoding (RFC 1035 subset).

Supports the record types the paper's measurements use — A for direct
resolution and spam-method A lookups, MX for the spam method's mail-server
lookups — plus NS/CNAME/TXT for realistic zones.  Name compression is
implemented on decode (the GFC injector and resolvers both re-serialize
answers, so encode emits uncompressed names for simplicity and determinism).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

from .addressing import int_to_ip, ip_to_int

__all__ = [
    "DNSQuestion",
    "DNSRecord",
    "DNSMessage",
    "QTYPE_A",
    "QTYPE_NS",
    "QTYPE_CNAME",
    "QTYPE_MX",
    "QTYPE_TXT",
    "RCODE_OK",
    "RCODE_NXDOMAIN",
    "RCODE_SERVFAIL",
    "RCODE_REFUSED",
    "qtype_name",
]

QTYPE_A = 1
QTYPE_NS = 2
QTYPE_CNAME = 5
QTYPE_MX = 15
QTYPE_TXT = 16

RCODE_OK = 0
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_REFUSED = 5

_QTYPE_NAMES = {
    QTYPE_A: "A",
    QTYPE_NS: "NS",
    QTYPE_CNAME: "CNAME",
    QTYPE_MX: "MX",
    QTYPE_TXT: "TXT",
}

CLASS_IN = 1


def qtype_name(qtype: int) -> str:
    """Human-readable name for a query type."""
    return _QTYPE_NAMES.get(qtype, f"TYPE{qtype}")


def _normalize(name: str) -> str:
    return name.rstrip(".").lower()


def _encode_name(name: str) -> bytes:
    out = bytearray()
    for label in _normalize(name).split("."):
        if not label:
            continue
        raw = label.encode("ascii")
        if len(raw) > 63:
            raise ValueError(f"DNS label too long: {label!r}")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


_QUESTION_TAIL = struct.Struct("!HH")
_RECORD_HEADER = struct.Struct("!HHIH")
_A_RDATA = struct.Struct("!I")
_MX_PREFERENCE = struct.Struct("!H")


def _unpack(layout: struct.Struct, data: bytes, offset: int, what: str) -> tuple:
    """``layout.unpack_from`` raising ValueError (not ``struct.error``)
    when ``data`` ends before the field does."""
    if offset + layout.size > len(data):
        raise ValueError(f"truncated DNS {what}")
    return layout.unpack_from(data, offset)


def _decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a possibly-compressed name; return (name, next_offset)."""
    labels: List[str] = []
    jumped = False
    next_offset = offset
    seen = set()
    while True:
        if offset >= len(data):
            raise ValueError("truncated DNS name")
        length = data[offset]
        if length & 0xC0 == 0xC0:  # compression pointer
            if offset + 1 >= len(data):
                raise ValueError("truncated DNS compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if pointer in seen:
                raise ValueError("DNS compression loop")
            seen.add(pointer)
            if not jumped:
                next_offset = offset + 2
                jumped = True
            offset = pointer
            continue
        if length == 0:
            if not jumped:
                next_offset = offset + 1
            break
        offset += 1
        labels.append(data[offset : offset + length].decode("ascii"))
        offset += length
    return ".".join(labels), next_offset


@dataclass(frozen=True)
class DNSQuestion:
    """A question-section entry."""

    name: str
    qtype: int = QTYPE_A
    qclass: int = CLASS_IN

    def key(self) -> tuple[str, int]:
        return _normalize(self.name), self.qtype


@dataclass(frozen=True)
class DNSRecord:
    """A resource record.

    ``data`` is type-specific: an IPv4 string for A, a host name for
    NS/CNAME, ``(preference, exchange)`` for MX, and a text string for TXT.
    """

    name: str
    rtype: int
    data: object
    ttl: int = 300
    rclass: int = CLASS_IN

    def rdata_bytes(self) -> bytes:
        if self.rtype == QTYPE_A:
            return struct.pack("!I", ip_to_int(str(self.data)))
        if self.rtype in (QTYPE_NS, QTYPE_CNAME):
            return _encode_name(str(self.data))
        if self.rtype == QTYPE_MX:
            preference, exchange = self.data  # type: ignore[misc]
            return struct.pack("!H", int(preference)) + _encode_name(str(exchange))
        if self.rtype == QTYPE_TXT:
            raw = str(self.data).encode("utf-8")
            return bytes([len(raw)]) + raw
        raise ValueError(f"unsupported record type: {self.rtype}")

    @classmethod
    def parse_rdata(cls, rtype: int, data: bytes, offset: int, rdlen: int) -> object:
        if rtype == QTYPE_A:
            (value,) = _unpack(_A_RDATA, data, offset, "A record")
            return int_to_ip(value)
        if rtype in (QTYPE_NS, QTYPE_CNAME):
            name, _ = _decode_name(data, offset)
            return name
        if rtype == QTYPE_MX:
            (preference,) = _unpack(_MX_PREFERENCE, data, offset, "MX record")
            exchange, _ = _decode_name(data, offset + 2)
            return (preference, exchange)
        if rtype == QTYPE_TXT:
            if offset >= len(data):
                raise ValueError("truncated DNS TXT record")
            length = data[offset]
            return data[offset + 1 : offset + 1 + length].decode("utf-8")
        return bytes(data[offset : offset + rdlen])


@dataclass(slots=True)
class DNSMessage:
    """A full DNS message (header + question/answer/authority sections).

    ``to_bytes`` is memoized; rebinding a field invalidates the cache, but
    mutating a section list in place does not — call :meth:`_invalidate_wire`
    after in-place mutation (or rebind, e.g. ``msg.answers = [*msg.answers,
    record]``).  ``from_bytes`` does not seed the cache: parsed input may use
    name compression, which encode deliberately never emits.
    """

    txid: int = 0
    is_response: bool = False
    rcode: int = RCODE_OK
    recursion_desired: bool = True
    recursion_available: bool = False
    authoritative: bool = False
    questions: List[DNSQuestion] = field(default_factory=list)
    answers: List[DNSRecord] = field(default_factory=list)
    authority: List[DNSRecord] = field(default_factory=list)
    additional: List[DNSRecord] = field(default_factory=list)
    _wire: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value) -> None:
        object.__setattr__(self, name, value)
        object.__setattr__(self, "_wire", None)

    def _invalidate_wire(self) -> None:
        """Drop the memoized wire image after in-place section mutation."""
        object.__setattr__(self, "_wire", None)

    @classmethod
    def query(cls, name: str, qtype: int = QTYPE_A, txid: int = 0) -> "DNSMessage":
        """Build a standard recursive query for ``name``."""
        return cls(txid=txid, questions=[DNSQuestion(name=name, qtype=qtype)])

    def reply(
        self,
        answers: Optional[List[DNSRecord]] = None,
        rcode: int = RCODE_OK,
        authoritative: bool = True,
    ) -> "DNSMessage":
        """Build a response echoing this query's txid and question."""
        return DNSMessage(
            txid=self.txid,
            is_response=True,
            rcode=rcode,
            recursion_desired=self.recursion_desired,
            recursion_available=True,
            authoritative=authoritative,
            questions=list(self.questions),
            answers=list(answers or []),
        )

    @property
    def question(self) -> Optional[DNSQuestion]:
        """The first question, or None for a malformed empty message."""
        return self.questions[0] if self.questions else None

    def a_records(self) -> List[str]:
        """All A-record addresses in the answer section."""
        return [str(r.data) for r in self.answers if r.rtype == QTYPE_A]

    def mx_records(self) -> List[tuple[int, str]]:
        """All (preference, exchange) MX pairs in the answer section."""
        return [tuple(r.data) for r in self.answers if r.rtype == QTYPE_MX]  # type: ignore[list-item]

    # -- wire format ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        wire = self._wire
        if wire is not None:
            return wire
        flags = 0
        if self.is_response:
            flags |= 0x8000
        if self.authoritative:
            flags |= 0x0400
        if self.recursion_desired:
            flags |= 0x0100
        if self.recursion_available:
            flags |= 0x0080
        flags |= self.rcode & 0xF
        out = bytearray(
            struct.pack(
                "!HHHHHH",
                self.txid,
                flags,
                len(self.questions),
                len(self.answers),
                len(self.authority),
                len(self.additional),
            )
        )
        for question in self.questions:
            out += _encode_name(question.name)
            out += struct.pack("!HH", question.qtype, question.qclass)
        for record in self.answers + self.authority + self.additional:
            out += _encode_name(record.name)
            rdata = record.rdata_bytes()
            out += struct.pack(
                "!HHIH", record.rtype, record.rclass, record.ttl, len(rdata)
            )
            out += rdata
        wire = bytes(out)
        object.__setattr__(self, "_wire", wire)
        return wire

    @classmethod
    def from_bytes(cls, data: bytes) -> "DNSMessage":
        """Parse a wire-format message; raises ValueError on truncation."""
        if len(data) < 12:
            raise ValueError("truncated DNS header")
        txid, flags, qd, an, ns, ar = struct.unpack("!HHHHHH", data[:12])
        msg = cls(
            txid=txid,
            is_response=bool(flags & 0x8000),
            rcode=flags & 0xF,
            recursion_desired=bool(flags & 0x0100),
            recursion_available=bool(flags & 0x0080),
            authoritative=bool(flags & 0x0400),
        )
        offset = 12
        for _ in range(qd):
            name, offset = _decode_name(data, offset)
            qtype, qclass = _unpack(_QUESTION_TAIL, data, offset, "question")
            offset += 4
            msg.questions.append(DNSQuestion(name=name, qtype=qtype, qclass=qclass))
        for section, count in ((msg.answers, an), (msg.authority, ns), (msg.additional, ar)):
            for _ in range(count):
                name, offset = _decode_name(data, offset)
                rtype, rclass, ttl, rdlen = _unpack(
                    _RECORD_HEADER, data, offset, "record header"
                )
                offset += 10
                value = DNSRecord.parse_rdata(rtype, data, offset, rdlen)
                offset += rdlen
                section.append(
                    DNSRecord(name=name, rtype=rtype, data=value, ttl=ttl, rclass=rclass)
                )
        return msg
