"""The report digest and document encoding, against a generic oracle.

``report_signature_digest`` builds its canonical form directly from the
report.  The oracle below is the generic walker it replaced: it renders
:func:`~repro.core.engine.report_signature` by recursing through dicts,
frozensets, tuples and enums.  Both must hash the same bytes for every
report — including dual-stack sets, empty collections, identifiers a
collection repeats and non-ASCII identifiers.
"""

import enum
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.persist.report as report_module
from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet
from repro.core.engine import AliasReport, report_signature
from repro.errors import PersistError
from repro.persist.report import (
    report_from_document,
    report_signature_digest,
    report_to_document,
)
from repro.persist.session import save_session
from repro.simnet.device import ServiceType


def _canonical(value):
    """Render report-signature structures as canonical JSON-compatible data."""
    if isinstance(value, dict):
        return {
            (key.value if isinstance(key, enum.Enum) else str(key)): _canonical(item)
            for key, item in value.items()
        }
    if isinstance(value, (frozenset, set)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def oracle_digest(report):
    canonical = _canonical(report_signature(report))
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


_V4 = [f"10.{i}.0.1" for i in range(6)]
_V6 = [f"2001:db8::{i:x}" for i in range(1, 5)]
#: Few, partly non-ASCII identifiers, so collections repeat them often.
_IDENTIFIERS = st.sampled_from(["id-a", "id-b", "ключ", "标识", "é́", "union:10.0.0.1"])
_PROTOCOL_SETS = st.frozensets(st.sampled_from(list(ServiceType)), min_size=1)
_ASNS = st.integers(min_value=1, max_value=4_294_967_295)


def _alias_collections(addresses):
    return st.builds(
        lambda name, sets, address_asn: AliasSetCollection(name, sets, address_asn),
        st.text(max_size=8),
        st.lists(
            st.builds(
                AliasSet,
                identifier=_IDENTIFIERS,
                addresses=st.frozensets(st.sampled_from(addresses), min_size=1, max_size=4),
                protocols=_PROTOCOL_SETS,
            ),
            max_size=5,
        ),
        st.dictionaries(st.sampled_from(addresses), _ASNS, max_size=4),
    )


_DUAL_COLLECTIONS = st.builds(
    lambda name, sets, address_asn: DualStackCollection(name, sets, address_asn),
    st.text(max_size=8),
    st.lists(
        st.builds(
            DualStackSet,
            identifier=_IDENTIFIERS,
            ipv4_addresses=st.frozensets(st.sampled_from(_V4), min_size=1, max_size=3),
            ipv6_addresses=st.frozensets(st.sampled_from(_V6), min_size=1, max_size=3),
            protocols=_PROTOCOL_SETS,
        ),
        max_size=4,
    ),
    st.dictionaries(st.sampled_from(_V4 + _V6), _ASNS, max_size=4),
)


def _per_protocol(collections):
    return st.dictionaries(st.sampled_from(list(ServiceType)), collections, max_size=3)


_REPORTS = st.builds(
    AliasReport,
    name=st.text(max_size=8),
    ipv4=_per_protocol(_alias_collections(_V4)),
    ipv6=_per_protocol(_alias_collections(_V6)),
    ipv4_union=_alias_collections(_V4),
    ipv6_union=_alias_collections(_V6),
    dual_stack=_per_protocol(_DUAL_COLLECTIONS),
    dual_stack_union=_DUAL_COLLECTIONS,
)


def small_report():
    ssh = AliasSetCollection(
        "r:ssh:ipv4",
        [
            AliasSet("key-1", frozenset({"10.0.0.2", "10.0.0.1"}), frozenset({ServiceType.SSH})),
            AliasSet("ключ", frozenset({"10.0.0.3"}), frozenset({ServiceType.SSH})),
        ],
        {"10.0.0.1": 64500, "10.0.0.2": 64501},
    )
    union = AliasSetCollection(
        "r:union:ipv4",
        [
            AliasSet(
                "union:10.0.0.1",
                frozenset({"10.0.0.1", "10.0.0.2"}),
                frozenset({ServiceType.SSH, ServiceType.BGP}),
            )
        ],
        {"10.0.0.1": 64500},
    )
    dual = DualStackCollection(
        "r:ssh:dual",
        [
            DualStackSet(
                "key-1",
                frozenset({"10.0.0.1"}),
                frozenset({"2001:db8::1"}),
                frozenset({ServiceType.SSH}),
            )
        ],
        {"2001:db8::1": 64500},
    )
    return AliasReport(
        name="r",
        ipv4={ServiceType.SSH: ssh},
        ipv6={ServiceType.SSH: AliasSetCollection("r:ssh:ipv6")},
        ipv4_union=union,
        ipv6_union=AliasSetCollection("r:union:ipv6"),
        dual_stack={ServiceType.SSH: dual},
        dual_stack_union=DualStackCollection("r:union:dual", dual.sets, {"2001:db8::1": 64500}),
    )


class TestDigestMatchesOracle:
    @given(report=_REPORTS)
    @settings(max_examples=200, deadline=None)
    def test_digest_equals_generic_walker(self, report):
        assert report_signature_digest(report) == oracle_digest(report)

    @given(report=_REPORTS)
    @settings(max_examples=100, deadline=None)
    def test_document_roundtrip_keeps_digest(self, report):
        document = report_to_document(report)
        assert document["signature"] == oracle_digest(report)
        loaded = report_from_document(json.loads(json.dumps(document)))
        assert report_signature_digest(loaded) == document["signature"]
        assert report_signature(loaded) == report_signature(report)

    def test_scenario_reports_match_oracle(self):
        session = ReproSession(ScenarioConfig(scale=0.05, seed=7))
        for name in ("active", "censys", "union"):
            report = session.report(name)
            assert report_signature_digest(report) == oracle_digest(report)

    def test_generic_walker_is_gone_from_src(self):
        assert not hasattr(report_module, "_canonical")


class TestPinnedBytes:
    def test_small_report_digest(self):
        assert report_signature_digest(small_report()) == (
            "172e8a7cb21a1c425cd2cd5239671c7119bd540f11f545597216a7f4af737d8c"
        )

    def test_small_report_document(self):
        assert json.dumps(report_to_document(small_report())) == (
            '{"version": 1, "name": "r", "ipv4": {"ssh": {"name": "r:ssh:ipv4", '
            '"address_asn": {"10.0.0.1": 64500, "10.0.0.2": 64501}, "sets": ['
            '{"identifier": "key-1", "addresses": ["10.0.0.1", "10.0.0.2"], "protocols": ["ssh"]}, '
            '{"identifier": "\\u043a\\u043b\\u044e\\u0447", "addresses": ["10.0.0.3"], "protocols": ["ssh"]}]}}, '
            '"ipv6": {"ssh": {"name": "r:ssh:ipv6", "address_asn": {}, "sets": []}}, '
            '"ipv4_union": {"name": "r:union:ipv4", "address_asn": {"10.0.0.1": 64500}, "sets": ['
            '{"identifier": "union:10.0.0.1", "addresses": ["10.0.0.1", "10.0.0.2"], "protocols": ["bgp", "ssh"]}]}, '
            '"ipv6_union": {"name": "r:union:ipv6", "address_asn": {}, "sets": []}, '
            '"dual_stack": {"ssh": {"name": "r:ssh:dual", "address_asn": {"2001:db8::1": 64500}, "sets": ['
            '{"identifier": "key-1", "ipv4_addresses": ["10.0.0.1"], "ipv6_addresses": ["2001:db8::1"], '
            '"protocols": ["ssh"]}]}}, '
            '"dual_stack_union": {"name": "r:union:dual", "address_asn": {"2001:db8::1": 64500}, "sets": ['
            '{"identifier": "key-1", "ipv4_addresses": ["10.0.0.1"], "ipv6_addresses": ["2001:db8::1"], '
            '"protocols": ["ssh"]}]}, '
            '"signature": "172e8a7cb21a1c425cd2cd5239671c7119bd540f11f545597216a7f4af737d8c"}'
        )


class TestRebuild:
    def test_protocol_sets_are_shared_within_a_document(self):
        loaded = report_from_document(json.loads(json.dumps(report_to_document(small_report()))))
        ssh_only = [
            alias_set.protocols
            for alias_set in loaded.ipv4[ServiceType.SSH]
        ] + [dual_set.protocols for dual_set in loaded.dual_stack[ServiceType.SSH]]
        assert all(protocols is ssh_only[0] for protocols in ssh_only)

    def test_unknown_protocol_is_malformed(self):
        document = report_to_document(small_report())
        document["ipv4"]["ssh"]["sets"][0]["protocols"] = ["telnet"]
        with pytest.raises(PersistError, match="malformed"):
            report_from_document(document)

    def test_non_string_identifier_is_malformed(self):
        document = report_to_document(small_report())
        document["ipv4"]["ssh"]["sets"][0]["identifier"] = 5
        with pytest.raises(PersistError, match="malformed"):
            report_from_document(document)

    def test_mixed_address_types_are_malformed(self):
        document = report_to_document(small_report())
        document["ipv4"]["ssh"]["sets"][0]["addresses"] = ["10.0.0.1", 5]
        with pytest.raises(PersistError, match="malformed"):
            report_from_document(document)

    def test_edited_addresses_fail_parity(self):
        document = report_to_document(small_report())
        document["ipv4"]["ssh"]["sets"][0]["addresses"] = ["10.0.0.1"]
        with pytest.raises(PersistError, match="parity"):
            report_from_document(document)


def test_session_saved_twice_is_byte_identical(tmp_path):
    session = ReproSession(ScenarioConfig(scale=0.05, seed=7))
    session.dataset("censys")
    session.report("active")
    first = save_session(session, tmp_path / "first")
    second = save_session(session, tmp_path / "second")
    files = sorted(path.relative_to(first) for path in first.rglob("*") if path.is_file())
    assert files == sorted(
        path.relative_to(second) for path in second.rglob("*") if path.is_file()
    )
    assert len(files) > 3
    for relative in files:
        assert (first / relative).read_bytes() == (second / relative).read_bytes(), relative
