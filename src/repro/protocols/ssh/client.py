"""SSH scanning client (ZGrab2 SSH module equivalent).

The client drives the pre-encryption part of the SSH handshake against a
:class:`~repro.net.endpoint.Connection` and produces an
:class:`SshScanRecord` with everything the paper's identifier needs: the
server banner, the ordered algorithm capability lists, and the host key blob
and fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.errors import MalformedMessageError, ProtocolError
from repro.net.endpoint import Connection
from repro.protocols.ssh.banner import SshBanner
from repro.protocols.ssh.hostkey import parse_host_key_blob
from repro.protocols.ssh.kex import SSH_MSG_KEXINIT, KexInit
from repro.protocols.ssh.messages import SSH_MSG_KEX_ECDH_REPLY, KexEcdhInit, KexEcdhReply
from repro.protocols.ssh.wire import frame_packet, iter_packets

CLIENT_BANNER = SshBanner(softwareversion="repro-scanner_1.0")

#: Where the 16-byte cookie sits in a framed KEXINIT: after the 4-byte packet
#: length, the padding length byte and the message code.
_COOKIE_OFFSET = 6
_COOKIE_LENGTH = 16


@dataclasses.dataclass(frozen=True)
class SshScanRecord:
    """The result of one SSH service scan against one address.

    Attributes:
        address: the scanned address (canonical string).
        port: TCP port scanned (22 unless stated otherwise).
        success: whether a banner was received at all.
        banner: raw banner line (without CRLF) or ``None``.
        kex_init: parsed server KEXINIT, if observed.
        host_key_algorithm: algorithm name of the host key, if observed.
        host_key_blob: raw public key blob, if observed.
        host_key_fingerprint: OpenSSH-style SHA256 fingerprint, if observed.
        capability_signature: hash over the ordered algorithm lists.
    """

    address: str
    port: int = 22
    success: bool = False
    banner: str | None = None
    kex_init: KexInit | None = None
    host_key_algorithm: str | None = None
    host_key_blob: bytes | None = None
    host_key_fingerprint: str | None = None
    capability_signature: str | None = None

    @property
    def has_identifier(self) -> bool:
        """Whether enough material was collected to build an SSH identifier."""
        return self.host_key_fingerprint is not None and self.capability_signature is not None


class SshScanClient:
    """Drives the SSH pre-encryption handshake and extracts scan records.

    Work whose answer cannot change is done once per client instance:

    * the hello it sends (banner, KEXINIT, ECDH init) is encoded once, with
      the per-address KEXINIT cookie spliced in at its fixed offset;
    * a server KEXINIT payload is parsed, and its capability signature
      computed, once; servers of one implementation send the same payload;
    * a host key blob is parsed and fingerprinted once.

    Payloads that fail to parse are never memoised.  The memos live on this
    instance, which a scanner holds for one scan session; no cache outlives
    the client.
    """

    def __init__(self, client_banner: SshBanner = CLIENT_BANNER) -> None:
        template = frame_packet(KexInit().build())
        self._hello_prefix = client_banner.render_wire() + template[:_COOKIE_OFFSET]
        self._hello_suffix = template[_COOKIE_OFFSET + _COOKIE_LENGTH :] + frame_packet(
            KexEcdhInit().build()
        )
        self._kex_inits: dict[bytes, tuple[KexInit, str]] = {}
        self._host_keys: dict[bytes, tuple[str, str]] = {}

    def hello(self, cookie: bytes) -> bytes:
        """The bytes sent after the server banner: banner, KEXINIT, ECDH init."""
        if len(cookie) != _COOKIE_LENGTH:
            raise MalformedMessageError("KEXINIT cookie must be exactly 16 bytes")
        return self._hello_prefix + cookie + self._hello_suffix

    def scan(self, address: str, connection: Connection, port: int = 22) -> SshScanRecord:
        """Scan ``address`` over ``connection`` and return the record.

        The client mirrors ZGrab2's behaviour: read the server banner and
        KEXINIT, send its own banner, KEXINIT, and ECDH init, then read the
        key exchange reply to obtain the host key.  Malformed or truncated
        server data degrades the record (``success``/fields) instead of
        raising, because a scan must never abort a campaign.
        """
        initial = connection.receive()
        banner, remainder = self._split_banner(initial)
        if banner is None:
            return SshScanRecord(address=address, port=port, success=False)

        cookie = hashlib.sha256(f"client:{address}".encode()).digest()[:_COOKIE_LENGTH]
        try:
            connection.send(self.hello(cookie))
            response = connection.receive()
        except ProtocolError:
            response = b""
        finally:
            connection.close()

        server_kex: tuple[KexInit, str] | None = None
        host_key: tuple[str, str] | None = None
        host_key_blob: bytes | None = None
        for payload in iter_packets(remainder + response):
            if not payload:
                continue
            code = payload[0]
            if code == SSH_MSG_KEXINIT and server_kex is None:
                server_kex = self._server_kex(payload)
            elif code == SSH_MSG_KEX_ECDH_REPLY and host_key is None:
                try:
                    blob = KexEcdhReply.parse(payload).host_key_blob
                except ProtocolError:
                    continue
                host_key = self._host_key(blob)
                if host_key is not None:
                    host_key_blob = blob

        return SshScanRecord(
            address=address,
            port=port,
            success=True,
            banner=banner.render(),
            kex_init=server_kex[0] if server_kex else None,
            host_key_algorithm=host_key[0] if host_key else None,
            host_key_blob=host_key_blob,
            host_key_fingerprint=host_key[1] if host_key else None,
            capability_signature=server_kex[1] if server_kex else None,
        )

    def _server_kex(self, payload: bytes) -> tuple[KexInit, str] | None:
        """The parsed KEXINIT and its capability signature, memoised by payload."""
        known = self._kex_inits.get(payload)
        if known is None:
            try:
                kex_init = KexInit.parse(payload)
            except ProtocolError:
                return None
            known = (kex_init, kex_init.capability_signature())
            self._kex_inits[payload] = known
        return known

    def _host_key(self, blob: bytes) -> tuple[str, str] | None:
        """(algorithm, fingerprint) of a host key blob, memoised by blob."""
        known = self._host_keys.get(blob)
        if known is None:
            try:
                host_key = parse_host_key_blob(blob)
            except ProtocolError:
                return None
            known = (host_key.algorithm, host_key.fingerprint())
            self._host_keys[blob] = known
        return known

    @staticmethod
    def _split_banner(data: bytes) -> tuple[SshBanner | None, bytes]:
        """Split the server banner line off ``data``; return (banner, rest)."""
        newline = data.find(b"\n")
        if newline < 0:
            return None, b""
        line = data[: newline + 1]
        try:
            banner = SshBanner.parse(line)
        except ProtocolError:
            return None, b""
        return banner, data[newline + 1 :]
