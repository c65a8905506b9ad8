"""Tests for the minimal BER codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MalformedMessageError, ProtocolError, TruncatedMessageError
from repro.protocols.snmp import ber
from repro.protocols.snmp.engine_id import EngineId
from repro.protocols.snmp.v3 import build_discovery_report, build_discovery_request


class TestInteger:
    def test_zero(self):
        assert ber.encode_integer(0) == b"\x02\x01\x00"
        assert ber.decode_exact(ber.encode_integer(0)).value == 0

    def test_positive_roundtrip(self):
        for value in (1, 127, 128, 255, 256, 65535, 2**31 - 1):
            assert ber.decode_exact(ber.encode_integer(value)).value == value

    def test_negative_roundtrip(self):
        for value in (-1, -128, -129, -65536):
            assert ber.decode_exact(ber.encode_integer(value)).value == value

    def test_minimal_encoding_of_127_and_128(self):
        assert ber.encode_integer(127) == b"\x02\x01\x7f"
        assert ber.encode_integer(128) == b"\x02\x02\x00\x80"


class TestOctetStringAndNull:
    def test_octet_string_roundtrip(self):
        assert ber.decode_exact(ber.encode_octet_string(b"engine-id")).value == b"engine-id"

    def test_empty_octet_string(self):
        assert ber.decode_exact(ber.encode_octet_string(b"")).value == b""

    def test_null(self):
        value = ber.decode_exact(ber.encode_null())
        assert value.tag == ber.TAG_NULL
        assert value.value is None

    def test_long_form_length(self):
        payload = b"x" * 300
        encoded = ber.encode_octet_string(payload)
        assert ber.decode_exact(encoded).value == payload


class TestOid:
    def test_usm_stats_oid_roundtrip(self):
        oid = (1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0)
        assert ber.decode_exact(ber.encode_oid(oid)).value == oid

    def test_large_component(self):
        oid = (1, 3, 6, 1, 4, 1, 2636, 3, 1)
        assert ber.decode_exact(ber.encode_oid(oid)).value == oid

    def test_too_short_oid_rejected(self):
        with pytest.raises(MalformedMessageError):
            ber.encode_oid((1,))


class TestSequence:
    def test_nested_sequence(self):
        inner = ber.encode_sequence(ber.encode_integer(3), ber.encode_octet_string(b"abc"))
        outer = ber.encode_sequence(inner, ber.encode_null())
        decoded = ber.decode_exact(outer)
        assert decoded.is_constructed
        assert len(decoded.value) == 2
        assert decoded.value[0].value[0].value == 3
        assert decoded.value[0].value[1].value == b"abc"

    def test_context_constructed_tag(self):
        pdu = ber.encode_sequence(ber.encode_integer(7), tag=0xA8)
        decoded = ber.decode_exact(pdu)
        assert decoded.tag == 0xA8
        assert decoded.value[0].value == 7


class TestErrors:
    def test_truncated_content_raises(self):
        encoded = ber.encode_octet_string(b"abcdef")
        with pytest.raises(TruncatedMessageError):
            ber.decode(encoded[:-2])

    def test_trailing_bytes_rejected_by_decode_exact(self):
        with pytest.raises(MalformedMessageError):
            ber.decode_exact(ber.encode_null() + b"\x00")

    def test_null_with_content_rejected(self):
        with pytest.raises(MalformedMessageError):
            ber.decode(b"\x05\x01\x00")


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_integer_roundtrip_property(value):
    assert ber.decode_exact(ber.encode_integer(value)).value == value


@given(st.binary(max_size=600))
def test_octet_string_roundtrip_property(value):
    assert ber.decode_exact(ber.encode_octet_string(value)).value == value


@given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=0, max_size=8))
def test_oid_roundtrip_property(tail):
    oid = (1, 3) + tuple(tail)
    assert ber.decode_exact(ber.encode_oid(oid)).value == oid


def _slicing_decode(data: bytes) -> tuple[ber.BerValue, bytes]:
    """Reference decoder that slices the remaining bytes at every TLV."""
    if len(data) < 2:
        raise TruncatedMessageError("BER TLV shorter than 2 bytes")
    tag, first = data[0], data[1]
    if first < 0x80:
        length, consumed = first, 1
    else:
        count = first & 0x7F
        if count == 0 or count > 4:
            raise MalformedMessageError(f"unsupported BER length-of-length {count}")
        if len(data) - 1 < 1 + count:
            raise TruncatedMessageError("BER long-form length truncated")
        length, consumed = int.from_bytes(data[2 : 2 + count], "big"), 1 + count
    end = 1 + consumed + length
    if len(data) < end:
        raise TruncatedMessageError("BER content truncated")
    content, rest = data[1 + consumed : end], data[end:]
    if tag & 0x20:
        members = []
        while content:
            member, content = _slicing_decode(content)
            members.append(member)
        return ber.BerValue(tag=tag, value=tuple(members)), rest
    # Primitive contents are decoded by the same code in both decoders.
    return ber.decode(data[: end])[0], rest


def _outcome(decoder, data):
    try:
        return decoder(data)
    except ProtocolError as exc:
        return type(exc), str(exc)


MESSAGES = (
    build_discovery_request(7),
    build_discovery_report(7, EngineId.generate("ber"), 3, 5),
    ber.encode_octet_string(b"x" * 300),
)


@given(
    st.sampled_from(MESSAGES),
    st.lists(st.tuples(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=255)), max_size=3),
    st.integers(min_value=0, max_value=400),
)
def test_offset_decoder_matches_slicing_decoder(message, mutations, cut):
    mutated = bytearray(message)
    for position, byte in mutations:
        mutated[position % len(mutated)] = byte
    data = bytes(mutated[: max(cut, 1)])
    assert _outcome(ber.decode, data) == _outcome(_slicing_decode, data)


@given(st.binary(max_size=64))
def test_arbitrary_bytes_raise_only_protocol_errors(data):
    assert _outcome(ber.decode, data) == _outcome(_slicing_decode, data)
