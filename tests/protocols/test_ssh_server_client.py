"""End-to-end tests of the SSH server behaviour and scanning client."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MalformedMessageError
from repro.net.endpoint import LoopbackConnection, ServerBehavior
from repro.protocols.ssh.banner import SshBanner
from repro.protocols.ssh.client import CLIENT_BANNER, SshScanClient
from repro.protocols.ssh.hostkey import EcdsaHostKey, Ed25519HostKey, RsaHostKey
from repro.protocols.ssh.kex import KexInit
from repro.protocols.ssh.messages import KexEcdhInit, KexEcdhReply
from repro.protocols.ssh.server import SshServerBehavior, SshServerConfig, SshServerStyle
from repro.protocols.ssh.wire import frame_packet
from repro.simnet.topology import _SSH_PROFILES


def scan(config):
    connection = LoopbackConnection(SshServerBehavior(config))
    return SshScanClient().scan("192.0.2.10", connection)


class FixedServer(ServerBehavior):
    """A server that sends fixed bytes on connect and ignores the client."""

    def __init__(self, greeting: bytes) -> None:
        self._greeting = greeting

    def on_connect(self) -> bytes:
        return self._greeting


class TestKexEcdhReply:
    def test_roundtrip(self):
        config = SshServerConfig.generate("device-1")
        reply = KexEcdhReply.for_host_key(config.host_key.encode_blob(), seed="device-1")
        parsed = KexEcdhReply.parse(reply.build())
        assert parsed.host_key_blob == config.host_key.encode_blob()


class TestFullHandshake:
    def test_scan_collects_banner_kex_and_hostkey(self):
        config = SshServerConfig.generate("device-2", banner=SshBanner(softwareversion="OpenSSH_9.0"))
        record = scan(config)
        assert record.success
        assert record.banner == "SSH-2.0-OpenSSH_9.0"
        assert record.kex_init is not None
        assert record.host_key_algorithm == "ssh-ed25519"
        assert record.host_key_fingerprint == config.host_key.fingerprint()
        assert record.has_identifier

    def test_capability_signature_matches_server_config(self):
        config = SshServerConfig.generate("device-3")
        record = scan(config)
        assert record.capability_signature == config.kex_init.capability_signature()

    def test_same_config_two_addresses_same_material(self):
        config = SshServerConfig.generate("device-4")
        record_a = SshScanClient().scan("192.0.2.20", LoopbackConnection(SshServerBehavior(config)))
        record_b = SshScanClient().scan("192.0.2.21", LoopbackConnection(SshServerBehavior(config)))
        assert record_a.host_key_fingerprint == record_b.host_key_fingerprint
        assert record_a.capability_signature == record_b.capability_signature

    def test_distinct_devices_have_distinct_hostkeys(self):
        record_a = scan(SshServerConfig.generate("device-5"))
        record_b = scan(SshServerConfig.generate("device-6"))
        assert record_a.host_key_fingerprint != record_b.host_key_fingerprint


class TestDegradedServers:
    def test_banner_only_server(self):
        config = SshServerConfig.generate("device-7", style=SshServerStyle.BANNER_ONLY)
        record = scan(config)
        assert record.success
        assert record.banner is not None
        assert record.host_key_fingerprint is None
        assert not record.has_identifier

    def test_silent_server(self):
        config = SshServerConfig.generate("device-8", style=SshServerStyle.SILENT)
        record = scan(config)
        assert not record.success
        assert record.banner is None

    def test_custom_kexinit_preserved(self):
        kex = KexInit(
            cookie=b"\x11" * 16,
            kex_algorithms=("diffie-hellman-group14-sha1",),
            server_host_key_algorithms=("ssh-rsa",),
        )
        config = SshServerConfig.generate("device-9", kex_init=kex)
        record = scan(config)
        assert record.kex_init.kex_algorithms == ("diffie-hellman-group14-sha1",)


class TestMalformedServerData:
    def test_bad_packet_length_degrades_the_record(self):
        # Packet length 0 is smaller than the padding length 5: unframing
        # raises MalformedMessageError, which must not escape the scan.
        server = FixedServer(b"SSH-2.0-x\r\n" + b"\x00\x00\x00\x00\x05")
        record = SshScanClient().scan("192.0.2.30", LoopbackConnection(server))
        assert record.success
        assert record.banner == "SSH-2.0-x"
        assert record.kex_init is None
        assert not record.has_identifier

    def test_bad_host_key_blob_degrades_the_record(self):
        # An ed25519 blob whose key is 3 bytes long cannot be parsed.
        config = SshServerConfig.generate("device-31")
        bad_blob = b"\x00\x00\x00\x0bssh-ed25519\x00\x00\x00\x03abc"
        reply = frame_packet(KexEcdhReply.for_host_key(bad_blob).build())
        record = SshScanClient().scan("192.0.2.31", LoopbackConnection(FixedServer(config.greeting + reply)))
        assert record.capability_signature == config.kex_init.capability_signature()
        assert record.host_key_blob is None
        assert record.host_key_fingerprint is None

    def test_failed_kexinit_parse_is_not_memoised(self):
        client = SshScanClient()
        config = SshServerConfig.generate("device-32")
        valid = config.kex_init.build()
        truncated = valid[:40]
        bad = client.scan("192.0.2.32", LoopbackConnection(FixedServer(b"SSH-2.0-x\r\n" + frame_packet(truncated))))
        assert bad.success
        assert bad.kex_init is None
        assert bad.capability_signature is None
        assert truncated not in client._kex_inits
        good = client.scan("192.0.2.33", LoopbackConnection(SshServerBehavior(config)))
        assert good.kex_init == config.kex_init
        assert good.capability_signature == config.kex_init.capability_signature()
        assert list(client._kex_inits) == [valid]

    def test_memoised_parse_matches_fresh_parse(self):
        client = SshScanClient()
        config = SshServerConfig.generate("device-34", kex_init=_SSH_PROFILES[3][2])
        first = client.scan("192.0.2.34", LoopbackConnection(SshServerBehavior(config)))
        second = client.scan("192.0.2.35", LoopbackConnection(SshServerBehavior(config)))
        fresh = scan(config)
        for record in (first, second):
            assert record.kex_init == fresh.kex_init
            assert record.capability_signature == fresh.capability_signature
            assert record.host_key_algorithm == fresh.host_key_algorithm
            assert record.host_key_fingerprint == fresh.host_key_fingerprint
            assert record.host_key_blob == fresh.host_key_blob


HOST_KEYS = {
    "ed25519": Ed25519HostKey.generate("pin"),
    "rsa": RsaHostKey.generate("pin"),
    "ecdsa": EcdsaHostKey.generate("pin"),
}


class TestPinnedWireBytes:
    @pytest.mark.parametrize("profile", _SSH_PROFILES, ids=[vendor for vendor, _, _ in _SSH_PROFILES])
    @pytest.mark.parametrize("key_name", sorted(HOST_KEYS))
    def test_cached_server_bytes_equal_fresh_encoding(self, profile, key_name):
        _, banner, kex = profile
        host_key = HOST_KEYS[key_name]
        config = SshServerConfig(banner=banner, kex_init=kex, host_key=host_key)
        expected_greeting = banner.render_wire() + frame_packet(kex.build())
        expected_reply = frame_packet(
            KexEcdhReply.for_host_key(host_key.encode_blob(), seed=host_key.fingerprint()).build()
        )
        assert config.greeting == expected_greeting
        assert config.kex_reply_packet == expected_reply
        behavior = SshServerBehavior(config)
        assert behavior.on_connect() == expected_greeting
        client_hello = SshScanClient().hello(b"\x01" * 16)
        assert behavior.on_data(client_hello) == expected_reply

    def test_degraded_styles_greet_as_before(self):
        banner = SshBanner(softwareversion="OpenSSH_9.0")
        silent = SshServerConfig.generate("device-40", banner=banner, style=SshServerStyle.SILENT)
        banner_only = SshServerConfig.generate("device-40", banner=banner, style=SshServerStyle.BANNER_ONLY)
        assert silent.greeting == b""
        assert banner_only.greeting == banner.render_wire()

    def test_replaced_config_encodes_its_own_bytes(self):
        config = SshServerConfig.generate("device-41")
        before = config.kex_reply_packet
        shared = dataclasses.replace(config, host_key=Ed25519HostKey.generate("shared"))
        assert config.kex_reply_packet == before
        assert shared.kex_reply_packet != before
        assert shared.kex_reply_packet == frame_packet(
            KexEcdhReply.for_host_key(
                shared.host_key.encode_blob(), seed=shared.host_key.fingerprint()
            ).build()
        )

    @given(st.binary(min_size=16, max_size=16))
    def test_spliced_client_hello_equals_fresh_encoding(self, cookie):
        expected = (
            CLIENT_BANNER.render_wire()
            + frame_packet(KexInit(cookie=cookie).build())
            + frame_packet(KexEcdhInit().build())
        )
        assert SshScanClient().hello(cookie) == expected

    def test_custom_client_banner_in_hello(self):
        banner = SshBanner(softwareversion="other-scanner_2.0")
        cookie = b"\x7f" * 16
        expected = banner.render_wire() + frame_packet(KexInit(cookie=cookie).build()) + frame_packet(
            KexEcdhInit().build()
        )
        assert SshScanClient(banner).hello(cookie) == expected

    def test_hello_rejects_wrong_cookie_length(self):
        with pytest.raises(MalformedMessageError):
            SshScanClient().hello(b"\x00" * 15)
