"""Minimal BER (ASN.1 Basic Encoding Rules) codec.

SNMP messages are BER-encoded.  Only the small subset needed for the SNMPv3
engine-discovery exchange is implemented: INTEGER, OCTET STRING, NULL, OBJECT
IDENTIFIER, SEQUENCE, and context-specific constructed tags (used for PDU
types such as GetRequest and Report).

Values round-trip through the tagged-value model below:

* ``encode_*`` functions produce TLV byte strings.
* :func:`decode` parses one TLV and returns a :class:`BerValue` plus the
  remaining bytes.
"""

from __future__ import annotations

import dataclasses

from repro.errors import MalformedMessageError, TruncatedMessageError

TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_OID = 0x06
TAG_SEQUENCE = 0x30
CONTEXT_CONSTRUCTED_BASE = 0xA0

# SNMP application types (primitive, unsigned-integer semantics).
TAG_COUNTER32 = 0x41
TAG_GAUGE32 = 0x42
TAG_TIMETICKS = 0x43
TAG_COUNTER64 = 0x46
_UNSIGNED_APPLICATION_TAGS = frozenset({TAG_COUNTER32, TAG_GAUGE32, TAG_TIMETICKS, TAG_COUNTER64})


@dataclasses.dataclass(frozen=True)
class BerValue:
    """A decoded BER TLV.

    Attributes:
        tag: the full tag byte.
        value: decoded value — ``int`` for INTEGER, ``bytes`` for OCTET
            STRING, ``None`` for NULL, ``tuple[int, ...]`` for OID, and
            ``tuple[BerValue, ...]`` for constructed types.
    """

    tag: int
    value: object

    @property
    def is_constructed(self) -> bool:
        return bool(self.tag & 0x20)


def encode_length(length: int) -> bytes:
    """Encode a BER length (definite form)."""
    if length < 0x80:
        return bytes([length])
    encoded = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(encoded)]) + encoded


def encode_tlv(tag: int, content: bytes) -> bytes:
    """Encode a TLV from raw content bytes."""
    return bytes([tag]) + encode_length(len(content)) + content


def encode_integer(value: int, tag: int = TAG_INTEGER) -> bytes:
    """Encode a (possibly negative) INTEGER."""
    if value == 0:
        return encode_tlv(tag, b"\x00")
    length = (value.bit_length() // 8) + 1
    content = value.to_bytes(length, "big", signed=True)
    # Strip redundant leading bytes while preserving the sign bit.
    while len(content) > 1 and (
        (content[0] == 0x00 and not content[1] & 0x80)
        or (content[0] == 0xFF and content[1] & 0x80)
    ):
        content = content[1:]
    return encode_tlv(tag, content)


def encode_octet_string(value: bytes, tag: int = TAG_OCTET_STRING) -> bytes:
    """Encode an OCTET STRING."""
    return encode_tlv(tag, value)


def encode_null() -> bytes:
    """Encode a NULL."""
    return encode_tlv(TAG_NULL, b"")


def encode_oid(components: tuple[int, ...]) -> bytes:
    """Encode an OBJECT IDENTIFIER."""
    if len(components) < 2:
        raise MalformedMessageError("an OID needs at least two components")
    first, second = components[0], components[1]
    if first > 2 or (first < 2 and second > 39):
        raise MalformedMessageError("invalid first two OID components")
    content = bytearray([first * 40 + second])
    for component in components[2:]:
        if component < 0:
            raise MalformedMessageError("OID components must be non-negative")
        chunk = [component & 0x7F]
        component >>= 7
        while component:
            chunk.append(0x80 | (component & 0x7F))
            component >>= 7
        content.extend(reversed(chunk))
    return encode_tlv(TAG_OID, bytes(content))


def encode_sequence(*members: bytes, tag: int = TAG_SEQUENCE) -> bytes:
    """Encode a SEQUENCE (or any constructed type) from encoded members."""
    return encode_tlv(tag, b"".join(members))


def decode(data: bytes) -> tuple[BerValue, bytes]:
    """Decode one TLV from ``data``; return (value, rest)."""
    value, end = _decode_at(data, 0, len(data))
    return value, data[end:]


def _decode_at(data: bytes, offset: int, limit: int) -> tuple[BerValue, int]:
    """Decode the TLV at ``data[offset:limit]``; return (value, end offset).

    Members of a constructed value are decoded in place, bounded by their
    parent's end, so no bytes are copied except primitive contents.
    """
    if limit - offset < 2:
        raise TruncatedMessageError("BER TLV shorter than 2 bytes")
    tag = data[offset]
    length = data[offset + 1]
    start = offset + 2
    if length >= 0x80:  # long form: the low bits count the length bytes
        count = length & 0x7F
        if count == 0 or count > 4:
            raise MalformedMessageError(f"unsupported BER length-of-length {count}")
        if limit - start < count:
            raise TruncatedMessageError("BER long-form length truncated")
        length = int.from_bytes(data[start : start + count], "big")
        start += count
    end = start + length
    if end > limit:
        raise TruncatedMessageError("BER content truncated")
    if tag & 0x20:  # constructed
        members = []
        position = start
        while position < end:
            member, position = _decode_at(data, position, end)
            members.append(member)
        return BerValue(tag=tag, value=tuple(members)), end
    content = data[start:end]
    if tag == TAG_INTEGER:
        return BerValue(tag=tag, value=int.from_bytes(content, "big", signed=True)), end
    if tag in _UNSIGNED_APPLICATION_TAGS:
        return BerValue(tag=tag, value=int.from_bytes(content, "big", signed=False)), end
    if tag == TAG_NULL:
        if content:
            raise MalformedMessageError("NULL with non-empty content")
        return BerValue(tag=tag, value=None), end
    if tag == TAG_OID:
        return BerValue(tag=tag, value=_decode_oid(content)), end
    # OCTET STRING and anything else primitive: keep raw bytes.
    return BerValue(tag=tag, value=content), end


def _decode_oid(content: bytes) -> tuple[int, ...]:
    if not content:
        raise MalformedMessageError("empty OID content")
    first = content[0]
    components = [min(first // 40, 2), first - 40 * min(first // 40, 2)]
    value = 0
    for byte in content[1:]:
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            components.append(value)
            value = 0
    return tuple(components)


def decode_exact(data: bytes) -> BerValue:
    """Decode a TLV and require that no trailing bytes remain."""
    value, rest = decode(data)
    if rest:
        raise MalformedMessageError(f"{len(rest)} trailing bytes after BER value")
    return value
