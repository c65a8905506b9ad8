"""End-to-end tests of the BGP speaker behaviour and scanning client."""

from repro.net.endpoint import LoopbackConnection
from repro.protocols.bgp.client import BgpScanClient
from repro.protocols.bgp.messages import AS_TRANS, BgpErrorCode, BgpNotification, CeaseSubcode
from repro.protocols.bgp.speaker import BgpSpeakerBehavior, BgpSpeakerConfig, BgpSpeakerStyle


def scan(config):
    connection = LoopbackConnection(BgpSpeakerBehavior(config))
    return BgpScanClient().scan("198.51.100.1", connection)


class TestOpenThenNotify:
    def test_open_and_notification_received(self):
        config = BgpSpeakerConfig(asn=3320, bgp_identifier="193.0.0.1")
        record = scan(config)
        assert record.success
        assert record.has_identifier
        assert record.open_message.bgp_identifier == "193.0.0.1"
        assert record.open_message.effective_asn == 3320
        assert record.notification is not None
        assert record.notification.error_code == BgpErrorCode.CEASE
        assert record.notification.error_subcode == CeaseSubcode.CONNECTION_REJECTED

    def test_four_byte_asn_uses_as_trans(self):
        config = BgpSpeakerConfig(asn=396982, bgp_identifier="8.8.8.8")
        record = scan(config)
        assert record.open_message.my_as == AS_TRANS
        assert record.open_message.effective_asn == 396982

    def test_same_config_on_two_addresses_same_identifier_fields(self):
        config = BgpSpeakerConfig(asn=701, bgp_identifier="137.0.0.1", hold_time=180)
        record_a = BgpScanClient().scan("203.0.113.1", LoopbackConnection(BgpSpeakerBehavior(config)))
        record_b = BgpScanClient().scan("203.0.113.2", LoopbackConnection(BgpSpeakerBehavior(config)))
        assert record_a.open_message == record_b.open_message


class TestOtherStyles:
    def test_close_immediately(self):
        config = BgpSpeakerConfig(style=BgpSpeakerStyle.CLOSE_IMMEDIATELY)
        record = scan(config)
        assert record.success
        assert not record.has_identifier
        assert record.closed_immediately

    def test_silent_speaker(self):
        config = BgpSpeakerConfig(style=BgpSpeakerStyle.SILENT)
        record = scan(config)
        assert record.success
        assert not record.has_identifier
        assert not record.closed_immediately

    def test_speaker_ignores_client_data(self):
        behavior = BgpSpeakerBehavior(BgpSpeakerConfig())
        behavior.on_connect()
        assert behavior.on_data(b"\x00" * 19) == b""


class TestPinnedWireBytes:
    def test_cached_greeting_equals_fresh_encoding(self):
        for config in (
            BgpSpeakerConfig(asn=3320, bgp_identifier="193.0.0.1"),
            BgpSpeakerConfig(asn=396982, bgp_identifier="8.8.8.8", hold_time=180),
        ):
            expected = config.open_message().build() + BgpNotification().build()
            assert config.greeting == expected
            assert BgpSpeakerBehavior(config).on_connect() == expected
