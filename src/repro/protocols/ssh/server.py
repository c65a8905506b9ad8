"""Configurable simulated SSH server.

The server reproduces the observable behaviour of a real SSH daemon during
the pre-encryption phase of the protocol: it sends its banner and KEXINIT
immediately after the connection is established (as OpenSSH does), and when
the client has sent its own banner, KEXINIT, and ECDH init, it replies with
the key exchange reply carrying the host key blob.

A device in the simulated Internet owns one :class:`SshServerConfig`; every
interface on which the service is exposed answers with the *same* config,
which is precisely the property the paper's identifier exploits.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib

from repro.net.endpoint import ServerBehavior
from repro.protocols.ssh.banner import SshBanner
from repro.protocols.ssh.hostkey import Ed25519HostKey, HostKey
from repro.protocols.ssh.kex import KexInit
from repro.protocols.ssh.messages import SSH_MSG_KEX_ECDH_INIT, KexEcdhReply
from repro.protocols.ssh.wire import frame_packet, iter_packets


class SshServerStyle(enum.Enum):
    """How far the server lets the pre-encryption exchange progress."""

    FULL = "full"                  # banner + KEXINIT + KEX reply (host key visible)
    BANNER_ONLY = "banner_only"    # sends the banner then closes (no identifier)
    SILENT = "silent"              # accepts the TCP connection but never speaks


@dataclasses.dataclass(frozen=True)
class SshServerConfig:
    """The host-wide SSH configuration of a device.

    The config is frozen, so the bytes it puts on the wire never change:
    :attr:`greeting` and :attr:`kex_reply_packet` are encoded on first use
    and then kept on this instance.  That cache lives exactly as long as
    the config, i.e. as long as the device of one simulated Internet, and
    a :func:`dataclasses.replace` copy starts without it.

    Attributes:
        banner: identification string advertised by the server.
        kex_init: the algorithm lists advertised in preference order.
        host_key: the server host key; host-wide, generated at setup time.
        style: how much of the handshake is observable.
    """

    banner: SshBanner = dataclasses.field(default_factory=SshBanner)
    kex_init: KexInit = dataclasses.field(default_factory=KexInit)
    host_key: HostKey = dataclasses.field(default_factory=lambda: Ed25519HostKey.generate("default"))
    style: SshServerStyle = SshServerStyle.FULL

    @classmethod
    def generate(
        cls,
        seed: str,
        banner: SshBanner | None = None,
        kex_init: KexInit | None = None,
        style: SshServerStyle = SshServerStyle.FULL,
    ) -> "SshServerConfig":
        """Create a config with a host key deterministically derived from ``seed``."""
        cookie = hashlib.sha256(f"cookie:{seed}".encode()).digest()[:16]
        resolved_kex = kex_init if kex_init is not None else KexInit(cookie=cookie)
        return cls(
            banner=banner if banner is not None else SshBanner(),
            kex_init=resolved_kex,
            host_key=Ed25519HostKey.generate(seed),
            style=style,
        )

    @functools.cached_property
    def greeting(self) -> bytes:
        """What the server sends right after the TCP handshake.

        Nothing for a silent server, the banner for a banner-only one, and
        the banner plus the framed KEXINIT otherwise.
        """
        if self.style is SshServerStyle.SILENT:
            return b""
        banner = self.banner.render_wire()
        if self.style is SshServerStyle.BANNER_ONLY:
            return banner
        return banner + frame_packet(self.kex_init.build())

    @functools.cached_property
    def kex_reply_packet(self) -> bytes:
        """The framed KEX_ECDH_REPLY carrying the host key blob.

        The ephemeral key and signature are synthetic and seeded by the
        host key fingerprint, so the packet is a function of the config.
        """
        seed = self.host_key.fingerprint()
        reply = KexEcdhReply.for_host_key(self.host_key.encode_blob(), seed=seed)
        return frame_packet(reply.build())


class SshServerBehavior(ServerBehavior):
    """Per-connection server behaviour for a given :class:`SshServerConfig`."""

    def __init__(self, config: SshServerConfig) -> None:
        self._config = config
        self._closed = False
        self._sent_reply = False
        self._client_buffer = b""
        self._client_banner_seen = False

    def on_connect(self) -> bytes:
        if self._config.style is SshServerStyle.BANNER_ONLY:
            self._closed = True
        return self._config.greeting

    def on_data(self, data: bytes) -> bytes:
        if self._closed or self._config.style is not SshServerStyle.FULL:
            return b""
        self._client_buffer += data
        if not self._client_banner_seen:
            newline = self._client_buffer.find(b"\n")
            if newline < 0:
                return b""
            self._client_banner_seen = True
            self._client_buffer = self._client_buffer[newline + 1 :]
        reply = b""
        for payload in iter_packets(self._client_buffer):
            if payload and payload[0] == SSH_MSG_KEX_ECDH_INIT and not self._sent_reply:
                self._sent_reply = True
                reply += self._config.kex_reply_packet
        if reply:
            self._client_buffer = b""
        return reply

    @property
    def closed(self) -> bool:
        return self._closed
