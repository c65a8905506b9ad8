"""Tests for JSONL helpers and dataset persistence."""

import pytest

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.errors import DatasetError
from repro.io.datasets import (
    DATASET_HEADER_KEY,
    load_alias_sets,
    load_observations,
    observation_from_dict,
    observation_to_dict,
    save_alias_sets,
    save_observations,
)
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.simnet.device import ServiceType
from repro.sources.records import Observation, ObservationDataset


def sample_observation(address="10.0.0.1"):
    return Observation(
        address=address,
        protocol=ServiceType.SSH,
        source="active",
        port=22,
        timestamp=12.5,
        asn=14061,
        fields=(("banner", "SSH-2.0-OpenSSH_9.3"), ("host_key_fingerprint", "SHA256:abc")),
    )


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        count = write_jsonl(path, [{"a": 1}, {"b": [1, 2]}])
        assert count == 2
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": [1, 2]}]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            list(read_jsonl(tmp_path / "absent.jsonl"))

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(DatasetError):
            list(read_jsonl(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert len(list(read_jsonl(path))) == 2

    def test_trailing_data_on_a_line_raises(self, tmp_path):
        path = tmp_path / "two-on-one.jsonl"
        path.write_text('{"a": 1} {"b": 2}\n')
        with pytest.raises(DatasetError, match=":1:"):
            list(read_jsonl(path))

    def test_non_utf8_file_raises(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": "\xff"}\n')
        with pytest.raises(DatasetError, match="UTF-8"):
            list(read_jsonl(path))

    def test_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            list(read_jsonl(tmp_path))

    def test_non_utf8_dataset_raises(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"__repro_dataset__": 1, "name": "caf\xe9"}\n')
        with pytest.raises(DatasetError, match="UTF-8"):
            load_observations(path)

    def test_lines_equal_sorted_dumps(self, tmp_path):
        import json

        records = [{"b": [1, {"z": None, "y": 2.5}], "a": "é"}, {}, {"k": True}]
        path = tmp_path / "records.jsonl"
        write_jsonl(path, iter(records))
        expected = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        assert path.read_text(encoding="utf-8") == expected


class TestObservationSerialisation:
    def test_dict_roundtrip(self):
        observation = sample_observation()
        assert observation_from_dict(observation_to_dict(observation)) == observation

    def test_malformed_record_raises(self):
        with pytest.raises(DatasetError):
            observation_from_dict({"address": "10.0.0.1"})

    def test_string_asn_coerced_to_int(self):
        record = observation_to_dict(sample_observation())
        record["asn"] = "64512"
        loaded = observation_from_dict(record)
        assert loaded.asn == 64512
        assert isinstance(loaded.asn, int)

    def test_none_asn_preserved(self):
        record = observation_to_dict(sample_observation())
        record["asn"] = None
        assert observation_from_dict(record).asn is None

    @pytest.mark.parametrize("bad_asn", ["not-a-number", 1.5, 64512.0, True, [64512]])
    def test_malformed_asn_raises(self, bad_asn):
        record = observation_to_dict(sample_observation())
        record["asn"] = bad_asn
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize("bad_port", [22.0, "twenty-two", None, False])
    def test_malformed_port_raises(self, bad_port):
        record = observation_to_dict(sample_observation())
        record["port"] = bad_port
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize("bad_address", [5, None, ["10.0.0.1"]])
    def test_non_string_address_raises(self, bad_address):
        record = observation_to_dict(sample_observation())
        record["address"] = bad_address
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize("bad_source", [5, None, {"name": "active"}])
    def test_non_string_source_raises(self, bad_source):
        record = observation_to_dict(sample_observation())
        record["source"] = bad_source
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize("bad_timestamp", [True, False, None, "later", [1.0]])
    def test_malformed_timestamp_raises(self, bad_timestamp):
        record = observation_to_dict(sample_observation())
        record["timestamp"] = bad_timestamp
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize("bad_protocol", ["telnet", None, ["ssh"]])
    def test_malformed_protocol_raises(self, bad_protocol):
        record = observation_to_dict(sample_observation())
        record["protocol"] = bad_protocol
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    def test_integer_timestamp_loads_as_float(self):
        record = observation_to_dict(sample_observation())
        record["timestamp"] = 12
        loaded = observation_from_dict(record)
        assert loaded.timestamp == 12.0
        assert type(loaded.timestamp) is float

    def test_non_string_field_value_raises(self):
        record = observation_to_dict(sample_observation())
        record["fields"] = {"hold_time": 180}
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    def test_non_dict_fields_raises(self):
        record = observation_to_dict(sample_observation())
        record["fields"] = [["banner", "SSH-2.0"]]
        with pytest.raises(DatasetError):
            observation_from_dict(record)

    @pytest.mark.parametrize("bad_record", [5, "text", [1, 2], None])
    def test_non_object_record_raises(self, bad_record):
        with pytest.raises(DatasetError):
            observation_from_dict(bad_record)

    @pytest.mark.parametrize("bad_line", ["5", '"text"', "[1, 2]"])
    def test_non_object_line_raises_dataset_error(self, tmp_path, bad_line):
        import json

        path = tmp_path / "bad.jsonl"
        path.write_text(
            bad_line + "\n" + json.dumps(observation_to_dict(sample_observation())) + "\n"
        )
        with pytest.raises(DatasetError):
            load_observations(path)

    def test_exact_roundtrip_identity(self):
        observation = sample_observation()
        loaded = observation_from_dict(observation_to_dict(observation))
        assert loaded == observation
        assert observation_to_dict(loaded) == observation_to_dict(observation)

    def test_dataset_file_bytes_are_pinned(self, tmp_path):
        second = Observation(
            address="2001:db8::1",
            protocol=ServiceType.SNMPV3,
            source="скан",
            port=161,
            timestamp=0.0,
            asn=None,
            fields=(("engine_id", "80001f88"),),
        )
        path = tmp_path / "obs.jsonl"
        save_observations(ObservationDataset("active", [sample_observation(), second]), path)
        assert path.read_bytes() == (
            b'{"__repro_dataset__": 1, "name": "active"}\n'
            b'{"address": "10.0.0.1", "asn": 14061, "fields": {"banner": "SSH-2.0-OpenSSH_9.3", '
            b'"host_key_fingerprint": "SHA256:abc"}, "port": 22, "protocol": "ssh", '
            b'"source": "active", "timestamp": 12.5}\n'
            b'{"address": "2001:db8::1", "asn": null, "fields": {"engine_id": "80001f88"}, '
            b'"port": 161, "protocol": "snmpv3", "source": "\\u0441\\u043a\\u0430\\u043d", '
            b'"timestamp": 0.0}\n'
        )

    def test_dataset_roundtrip(self, tmp_path):
        dataset = ObservationDataset("active", [sample_observation(), sample_observation("10.0.0.2")])
        path = tmp_path / "obs.jsonl"
        assert save_observations(dataset, path) == 2
        loaded = load_observations(path, name="active")
        assert len(loaded) == 2
        assert loaded.addresses() == {"10.0.0.1", "10.0.0.2"}
        assert list(loaded)[0].field("banner") == "SSH-2.0-OpenSSH_9.3"


class TestDatasetHeader:
    def test_renamed_file_keeps_dataset_name(self, tmp_path):
        dataset = ObservationDataset("active", [sample_observation()])
        path = tmp_path / "obs.jsonl"
        save_observations(dataset, path)
        renamed = tmp_path / "copy-for-archive.jsonl"
        renamed.write_bytes(path.read_bytes())
        assert load_observations(renamed).name == "active"

    def test_explicit_name_overrides_header(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        save_observations(ObservationDataset("active", [sample_observation()]), path)
        assert load_observations(path, name="renamed").name == "renamed"

    def test_headerless_file_falls_back_to_stem(self, tmp_path):
        import json

        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps(observation_to_dict(sample_observation())) + "\n")
        loaded = load_observations(path)
        assert loaded.name == "legacy"
        assert len(loaded) == 1

    def test_header_not_counted_as_observation(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        count = save_observations(ObservationDataset("active", [sample_observation()]), path)
        assert count == 1
        assert len(load_observations(path)) == 1

    def test_unsupported_version_raises(self, tmp_path):
        import json

        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({DATASET_HEADER_KEY: 999, "name": "x"}) + "\n")
        with pytest.raises(DatasetError):
            load_observations(path)

    def test_nameless_header_raises(self, tmp_path):
        import json

        path = tmp_path / "broken.jsonl"
        path.write_text(json.dumps({DATASET_HEADER_KEY: 1}) + "\n")
        with pytest.raises(DatasetError):
            load_observations(path)

    def test_save_creates_parent_directories(self, tmp_path):
        # Symmetric with save_alias_sets: both save paths mkdir(parents=True).
        path = tmp_path / "deeply" / "nested" / "obs.jsonl"
        assert save_observations(ObservationDataset("active", [sample_observation()]), path) == 1
        assert load_observations(path).name == "active"


class TestAliasSetSerialisation:
    def test_roundtrip(self, tmp_path):
        collection = AliasSetCollection(
            "ssh",
            [
                AliasSet("id-1", frozenset({"10.0.0.1", "10.0.0.2"}), frozenset({ServiceType.SSH})),
                AliasSet("id-2", frozenset({"10.1.0.1"}), frozenset({ServiceType.SSH, ServiceType.BGP})),
            ],
            address_asn={"10.0.0.1": 1, "10.0.0.2": 1, "10.1.0.1": 2},
        )
        path = tmp_path / "sets.json"
        save_alias_sets(collection, path)
        loaded = load_alias_sets(path)
        assert loaded.name == "ssh"
        assert len(loaded) == 2
        assert loaded.asn_of("10.1.0.1") == 2
        two_set = next(s for s in loaded if s.size == 2)
        assert two_set.addresses == frozenset({"10.0.0.1", "10.0.0.2"})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_alias_sets(tmp_path / "absent.json")

    def test_malformed_document_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(DatasetError):
            load_alias_sets(path)

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '[{"name": "ssh", "sets": []}]',
            '{"name": "ssh", "sets": [{"identifier": "id-1", "addresses": 5}]}',
            '{"name": "ssh", "sets": [{"identifier": "id-1", "addresses": "10.0.0.1"}]}',
            '{"name": "ssh", "sets": [5]}',
            '{"name": "ssh", "sets": 5}',
            '{"name": "ssh", "address_asn": [], "sets": []}',
            '{"name": "ssh", "sets": [{"identifier": "id-1", "addresses": [], "protocols": ["telnet"]}]}',
        ],
    )
    def test_wrongly_shaped_document_raises(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(DatasetError):
            load_alias_sets(path)

    def test_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_alias_sets(tmp_path)

    def test_non_utf8_document_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"name": "\xff", "sets": []}')
        with pytest.raises(DatasetError):
            load_alias_sets(path)

    def test_save_creates_parent_directories(self, tmp_path):
        collection = AliasSetCollection(
            "ssh", [AliasSet("id-1", frozenset({"10.0.0.1"}), frozenset({ServiceType.SSH}))]
        )
        path = tmp_path / "deeply" / "nested" / "sets.json"
        save_alias_sets(collection, path)
        assert load_alias_sets(path).name == "ssh"
