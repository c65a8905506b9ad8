"""SNMPv3 message building and parsing for the engine discovery exchange.

An SNMPv3 message is a BER SEQUENCE of four parts:

1. ``msgVersion`` (INTEGER 3),
2. ``msgGlobalData`` header SEQUENCE (msgID, msgMaxSize, msgFlags,
   msgSecurityModel),
3. ``msgSecurityParameters`` — an OCTET STRING containing the BER-encoded
   USM parameters (engine ID, engine boots, engine time, user name, auth and
   privacy parameters), and
4. the ``ScopedPDU`` — context engine ID, context name, and the PDU.

During *engine discovery* the manager sends a GET with an empty engine ID
and the ``reportable`` flag set; the agent answers with a REPORT PDU whose
security parameters carry its authoritative engine ID, boots and time — the
unique identifier used by the SNMPv3 alias-resolution baseline.
"""

from __future__ import annotations

import dataclasses

from repro.errors import MalformedMessageError
from repro.protocols.snmp import ber
from repro.protocols.snmp.engine_id import EngineId

SNMP_VERSION_3 = 3
USM_SECURITY_MODEL = 3

MSG_FLAG_REPORTABLE = 0x04

PDU_GET_REQUEST = ber.CONTEXT_CONSTRUCTED_BASE | 0  # 0xA0
PDU_RESPONSE = ber.CONTEXT_CONSTRUCTED_BASE | 2     # 0xA2
PDU_REPORT = ber.CONTEXT_CONSTRUCTED_BASE | 8       # 0xA8

#: OID of usmStatsUnknownEngineIDs.0 — the counter reported during discovery.
USM_STATS_UNKNOWN_ENGINE_IDS = (1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0)


@dataclasses.dataclass(frozen=True)
class UsmSecurityParameters:
    """USM security parameters carried as a nested OCTET STRING."""

    engine_id: bytes = b""
    engine_boots: int = 0
    engine_time: int = 0
    user_name: bytes = b""
    authentication_parameters: bytes = b""
    privacy_parameters: bytes = b""

    def encode(self) -> bytes:
        sequence = ber.encode_sequence(
            ber.encode_octet_string(self.engine_id),
            ber.encode_integer(self.engine_boots),
            ber.encode_integer(self.engine_time),
            ber.encode_octet_string(self.user_name),
            ber.encode_octet_string(self.authentication_parameters),
            ber.encode_octet_string(self.privacy_parameters),
        )
        return sequence

    @classmethod
    def parse(cls, raw: bytes) -> "UsmSecurityParameters":
        members = _members(ber.decode_exact(raw), ber.TAG_SEQUENCE, 6, "USM parameters")
        engine_id, boots, time_, user, auth, priv = members
        return cls(
            engine_id=_octets(engine_id, "msgAuthoritativeEngineID"),
            engine_boots=_integer(boots, "msgAuthoritativeEngineBoots"),
            engine_time=_integer(time_, "msgAuthoritativeEngineTime"),
            user_name=_octets(user, "msgUserName"),
            authentication_parameters=_octets(auth, "msgAuthenticationParameters"),
            privacy_parameters=_octets(priv, "msgPrivacyParameters"),
        )


@dataclasses.dataclass(frozen=True)
class SnmpV3Message:
    """A (subset of an) SNMPv3 message."""

    msg_id: int
    msg_max_size: int = 65507
    msg_flags: int = MSG_FLAG_REPORTABLE
    security_model: int = USM_SECURITY_MODEL
    security_parameters: UsmSecurityParameters = dataclasses.field(default_factory=UsmSecurityParameters)
    context_engine_id: bytes = b""
    context_name: bytes = b""
    pdu_type: int = PDU_GET_REQUEST
    request_id: int = 0
    error_status: int = 0
    error_index: int = 0
    varbinds: tuple[tuple[tuple[int, ...], int | bytes | None], ...] = ()

    def encode(self) -> bytes:
        header = ber.encode_sequence(
            ber.encode_integer(self.msg_id),
            ber.encode_integer(self.msg_max_size),
            ber.encode_octet_string(bytes([self.msg_flags])),
            ber.encode_integer(self.security_model),
        )
        varbind_list = b"".join(
            ber.encode_sequence(ber.encode_oid(oid), self._encode_varbind_value(value))
            for oid, value in self.varbinds
        )
        pdu = ber.encode_sequence(
            ber.encode_integer(self.request_id),
            ber.encode_integer(self.error_status),
            ber.encode_integer(self.error_index),
            ber.encode_sequence(varbind_list),
            tag=self.pdu_type,
        )
        scoped_pdu = ber.encode_sequence(
            ber.encode_octet_string(self.context_engine_id),
            ber.encode_octet_string(self.context_name),
            pdu,
        )
        return ber.encode_sequence(
            ber.encode_integer(SNMP_VERSION_3),
            header,
            ber.encode_octet_string(self.security_parameters.encode()),
            scoped_pdu,
        )

    @staticmethod
    def _encode_varbind_value(value: int | bytes | None) -> bytes:
        if value is None:
            return ber.encode_null()
        if isinstance(value, int):
            # Counter32 (application tag 1) is what usmStats uses; plain
            # INTEGER is accepted by parsers, so keep Counter32 for realism.
            return ber.encode_integer(value, tag=0x41)
        return ber.encode_octet_string(value)

    @classmethod
    def parse(cls, raw: bytes) -> "SnmpV3Message":
        """Parse a BER-encoded message.

        Raises:
            MalformedMessageError: if a member has the wrong tag, type or
                count (the BER layer raises its own typed errors first).
        """
        top = ber.decode_exact(raw)
        version, header, security, scoped = _members(top, ber.TAG_SEQUENCE, 4, "SNMPv3 message")
        version_number = _integer(version, "msgVersion")
        if version_number != SNMP_VERSION_3:
            raise MalformedMessageError(f"not an SNMPv3 message (version {version_number})")
        msg_id, max_size, flags, model = _members(header, ber.TAG_SEQUENCE, 4, "msgGlobalData")
        security_parameters = UsmSecurityParameters.parse(_octets(security, "msgSecurityParameters"))
        context_engine_id, context_name, pdu = _members(scoped, ber.TAG_SEQUENCE, 3, "ScopedPDU")
        if not pdu.is_constructed:
            raise MalformedMessageError(f"PDU tag 0x{pdu.tag:02x} is not constructed")
        request_id, error_status, error_index, varbind_list = _members(pdu, pdu.tag, 4, "PDU")
        varbinds = []
        for varbind in _members(varbind_list, ber.TAG_SEQUENCE, None, "VarBindList"):
            oid, value = _members(varbind, ber.TAG_SEQUENCE, 2, "VarBind")
            if oid.tag != ber.TAG_OID:
                raise MalformedMessageError(f"VarBind name has tag 0x{oid.tag:02x}, not an OID")
            if value.is_constructed:
                raise MalformedMessageError("VarBind value is constructed")
            varbinds.append((oid.value, value.value))
        msg_flags = _octets(flags, "msgFlags")
        return cls(
            msg_id=_integer(msg_id, "msgID"),
            msg_max_size=_integer(max_size, "msgMaxSize"),
            msg_flags=msg_flags[0] if msg_flags else 0,
            security_model=_integer(model, "msgSecurityModel"),
            security_parameters=security_parameters,
            context_engine_id=_octets(context_engine_id, "contextEngineID"),
            context_name=_octets(context_name, "contextName"),
            pdu_type=pdu.tag,
            request_id=_integer(request_id, "request-id"),
            error_status=_integer(error_status, "error-status"),
            error_index=_integer(error_index, "error-index"),
            varbinds=tuple(varbinds),
        )


def _members(
    value: ber.BerValue, tag: int, count: int | None, what: str
) -> tuple[ber.BerValue, ...]:
    """The members of a constructed ``value`` with ``tag`` and ``count`` members."""
    if value.tag != tag or not isinstance(value.value, tuple):
        raise MalformedMessageError(f"{what} must be a constructed value with tag 0x{tag:02x}")
    if count is not None and len(value.value) != count:
        raise MalformedMessageError(f"{what} must have {count} members, not {len(value.value)}")
    return value.value


def _integer(value: ber.BerValue, what: str) -> int:
    if value.tag != ber.TAG_INTEGER or not isinstance(value.value, int):
        raise MalformedMessageError(f"{what} must be an INTEGER, not tag 0x{value.tag:02x}")
    return value.value


def _octets(value: ber.BerValue, what: str) -> bytes:
    if value.tag != ber.TAG_OCTET_STRING or not isinstance(value.value, bytes):
        raise MalformedMessageError(f"{what} must be an OCTET STRING, not tag 0x{value.tag:02x}")
    return value.value


def build_discovery_request(msg_id: int = 1) -> bytes:
    """Build the engine-discovery GET request (empty engine ID, reportable)."""
    message = SnmpV3Message(
        msg_id=msg_id,
        msg_flags=MSG_FLAG_REPORTABLE,
        security_parameters=UsmSecurityParameters(),
        pdu_type=PDU_GET_REQUEST,
        request_id=msg_id,
        varbinds=(),
    )
    return message.encode()


def build_discovery_report(
    msg_id: int,
    engine_id: EngineId | bytes,
    engine_boots: int,
    engine_time: int,
    unknown_engine_ids_counter: int = 1,
) -> bytes:
    """Build the agent's REPORT response disclosing its engine ID."""
    raw_engine_id = engine_id.encode() if isinstance(engine_id, EngineId) else engine_id
    message = SnmpV3Message(
        msg_id=msg_id,
        msg_flags=0,
        security_parameters=UsmSecurityParameters(
            engine_id=raw_engine_id,
            engine_boots=engine_boots,
            engine_time=engine_time,
        ),
        context_engine_id=raw_engine_id,
        pdu_type=PDU_REPORT,
        request_id=msg_id,
        varbinds=((USM_STATS_UNKNOWN_ENGINE_IDS, unknown_engine_ids_counter),),
    )
    return message.encode()
