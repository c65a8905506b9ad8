"""Index snapshot/restore: state-signature parity asserted on load."""

import json

import pytest

from repro.core.engine import ObservationIndex, ResolutionEngine, report_signature
from repro.core.identifiers import IdentifierOptions
from repro.errors import PersistError
from repro.persist.index import (
    index_from_document,
    index_to_document,
    load_index,
    save_index,
    state_signature_digest,
)
from repro.simnet.device import ServiceType
from repro.sources.records import Observation


def _observation(address, device="alpha", protocol=ServiceType.SSH, asn=65001):
    if protocol is ServiceType.SSH:
        fields = (
            ("banner", "SSH-2.0-OpenSSH_9.4"),
            ("capability_signature", f"caps-{device}"),
            ("host_key_fingerprint", f"key-{device}"),
        )
        port = 22
    else:
        fields = (("engine_boots", "1"), ("engine_id", f"engine-{device}"))
        port = 161
    return Observation(
        address=address, protocol=protocol, source="active", port=port, asn=asn, fields=fields
    )


@pytest.fixture
def index():
    built = ObservationIndex()
    built.extend(
        [
            _observation("10.0.0.1"),
            _observation("10.0.0.2"),
            _observation("10.0.0.3", device="beta"),
            _observation("2001:db8::1"),
            _observation("10.0.0.4", protocol=ServiceType.SNMPV3, asn=None),
            # an identifier-less observation: observed but not indexed
            Observation(
                address="10.0.0.9", protocol=ServiceType.BGP, source="active", port=179
            ),
        ]
    )
    return built


class TestIndexRoundTrip:
    def test_signature_parity(self, index, tmp_path):
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.state_signature() == index.state_signature()
        assert state_signature_digest(loaded) == state_signature_digest(index)
        assert loaded.observed == index.observed
        assert loaded.indexed == index.indexed
        assert loaded.options == index.options

    def test_restored_index_derives_identical_report(self, index, tmp_path):
        save_index(index, tmp_path / "index.json")
        loaded = load_index(tmp_path / "index.json")
        engine = ResolutionEngine()
        assert report_signature(engine.report(loaded, name="x")) == report_signature(
            engine.report(index, name="x")
        )

    def test_restored_index_supports_removal_replay(self, index, tmp_path):
        # ASN refcounts round-trip, so removing a previously added
        # observation works exactly as on the original index.
        save_index(index, tmp_path / "index.json")
        loaded = load_index(tmp_path / "index.json")
        removed = _observation("10.0.0.2")
        index.remove(removed)
        loaded.remove(removed)
        assert loaded.state_signature() == index.state_signature()

    def test_restored_index_marks_everything_dirty(self, index, tmp_path):
        save_index(index, tmp_path / "index.json")
        loaded = load_index(tmp_path / "index.json")
        dirty = loaded.consume_dirty()
        total = sum(len(values) for values in dirty.values())
        buckets = index.state_signature()["members"]
        assert total == sum(len(identifiers) for identifiers in buckets.values())

    def test_non_default_options_roundtrip(self, tmp_path):
        options = IdentifierOptions(ssh_include_banner=False, bgp_include_hold_time=False)
        built = ObservationIndex(options)
        built.add(_observation("10.0.0.1"))
        save_index(built, tmp_path / "index.json")
        assert load_index(tmp_path / "index.json").options == options


class TestIndexFailureModes:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PersistError):
            load_index(tmp_path / "absent.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(PersistError):
            load_index(path)

    def test_unsupported_version_raises(self, index):
        # Version 1 (pre-columnar nested string dicts) is no longer read.
        for version in (1, 99):
            document = index_to_document(index)
            document["version"] = version
            with pytest.raises(PersistError, match="unsupported"):
                index_from_document(document)

    def test_malformed_document_raises(self):
        with pytest.raises(PersistError, match="malformed"):
            index_from_document({"version": 2})

    def test_tampered_contents_fail_parity(self, index, tmp_path):
        path = tmp_path / "index.json"
        save_index(index, path)
        document = json.loads(path.read_text())
        # Flip one refcount: the recomputed signature must not match.  A v2
        # member row is [identifier_symbol, [address_symbol, count, ...]].
        cells = document["buckets"][0]["members"][0][1]
        cells[1] += 1
        path.write_text(json.dumps(document))
        with pytest.raises(PersistError, match="parity"):
            load_index(path)


class TestDanglingSymbols:
    """A member or ASN symbol outside its interned table is malformed."""

    def test_address_symbol_beyond_table(self, index):
        document = index_to_document(index)
        document["buckets"][0]["members"][0][1][0] = len(document["addresses"]) + 5
        with pytest.raises(PersistError, match="address symbol"):
            index_from_document(document)

    def test_identifier_symbol_beyond_table(self, index):
        document = index_to_document(index)
        document["buckets"][0]["members"][0][0] = len(document["identifiers"])
        with pytest.raises(PersistError, match="identifier symbol"):
            index_from_document(document)

    @pytest.mark.parametrize("position", ["member", "asn"])
    def test_negative_symbol(self, index, position):
        document = index_to_document(index)
        bucket = next(b for b in document["buckets"] if b["asn"])
        if position == "member":
            bucket["members"][0][1][0] = -1
        else:
            bucket["asn"][0] = -1
        with pytest.raises(PersistError, match="address symbol -1"):
            index_from_document(document)

    def test_asn_symbol_beyond_table(self, index):
        document = index_to_document(index)
        bucket = next(b for b in document["buckets"] if b["asn"])
        bucket["asn"][0] = len(document["addresses"])
        with pytest.raises(PersistError, match="address symbol"):
            index_from_document(document)
