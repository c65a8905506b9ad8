"""SNMPv3 scanning client.

Sends the engine-discovery request and extracts the engine ID, boots and
time from the REPORT reply, producing an :class:`SnmpScanRecord`.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ProtocolError
from repro.net.endpoint import Connection
from repro.protocols.snmp.engine_id import EngineId
from repro.protocols.snmp.v3 import PDU_REPORT, SnmpV3Message, build_discovery_request


@dataclasses.dataclass(frozen=True)
class SnmpScanRecord:
    """The result of one SNMPv3 discovery scan against one address.

    Attributes:
        address: the scanned address.
        port: UDP port (161 unless stated otherwise).
        success: whether a REPORT was received and parsed.
        engine_id_hex: hexadecimal engine ID.
        engine_id: parsed engine ID structure, when parseable.
        engine_boots: reported engine boots.
        engine_time: reported engine time.
    """

    address: str
    port: int = 161
    success: bool = False
    engine_id_hex: str | None = None
    engine_id: EngineId | None = None
    engine_boots: int | None = None
    engine_time: int | None = None

    @property
    def has_identifier(self) -> bool:
        """Whether an engine ID was observed."""
        return self.engine_id_hex is not None


class SnmpScanClient:
    """Drives SNMPv3 engine discovery over a request/response connection.

    The discovery request is the same for every address, so it is encoded
    once per client.  Replies are parsed per exchange: engine time moves
    with the clock, so no two reports are alike.
    """

    def __init__(self, msg_id: int = 1) -> None:
        self._request = build_discovery_request(msg_id)

    def scan(self, address: str, connection: Connection, port: int = 161) -> SnmpScanRecord:
        """Scan ``address`` over ``connection`` and return the record."""
        try:
            connection.send(self._request)
            data = connection.receive()
        except ProtocolError:
            data = b""
        finally:
            connection.close()
        if not data:
            return SnmpScanRecord(address=address, port=port, success=False)
        try:
            report = SnmpV3Message.parse(data)
        except ProtocolError:
            return SnmpScanRecord(address=address, port=port, success=False)
        if report.pdu_type != PDU_REPORT or not report.security_parameters.engine_id:
            return SnmpScanRecord(address=address, port=port, success=False)
        raw_engine_id = report.security_parameters.engine_id
        try:
            parsed = EngineId.parse(raw_engine_id)
        except ProtocolError:
            parsed = None
        return SnmpScanRecord(
            address=address,
            port=port,
            success=True,
            engine_id_hex=raw_engine_id.hex(),
            engine_id=parsed,
            engine_boots=report.security_parameters.engine_boots,
            engine_time=report.security_parameters.engine_time,
        )
