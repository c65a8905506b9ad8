"""Serialisation of full :class:`~repro.core.engine.AliasReport` objects.

A report document carries every collection of the report — per-protocol
alias sets for both families, the cross-protocol unions, and the
dual-stack collections — preserving set order (the experiments render from
collection order) and the address→ASN mappings.  Each document embeds a
SHA-256 digest of the report's canonical
:func:`~repro.core.engine.report_signature`, recomputed from the rebuilt
report and verified on load so a corrupted or hand-edited report file
cannot silently skew a restored session's rendered experiments.

The digest hashes the UTF-8 bytes of
``json.dumps(form, sort_keys=True, separators=(",", ":"))``, where
``form`` is built directly from the report::

    {
        "name": report.name,
        "ipv4": {protocol value: SETS, ...},
        "ipv6": {protocol value: SETS, ...},
        "ipv4_union": SETS,
        "ipv6_union": SETS,
        "ipv4_union_asn": {address: asn, ...},
        "ipv6_union_asn": {address: asn, ...},
        "dual_stack": {protocol value: DUAL_SETS, ...},
        "dual_stack_union": DUAL_SETS,
    }

    SETS      = {identifier: [sorted addresses, sorted protocol values], ...}
    DUAL_SETS = {identifier: [sorted IPv4 addresses, sorted IPv6 addresses,
                              sorted protocol values], ...}

When a collection repeats an identifier, its last set wins, exactly as in
``report_signature``.  Saving sorts each set's address and protocol lists
once and uses them for both the document and the digest.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet
from repro.core.engine import AliasReport
from repro.errors import PersistError
from repro.simnet.device import SERVICE_TYPES_BY_VALUE, ServiceType

#: Current report document format version.
REPORT_FORMAT_VERSION = 1

#: One set as sorted lists: (identifier, addresses, protocol values) for an
#: alias set, (identifier, IPv4, IPv6, protocol values) for a dual-stack set.
_AliasRow = tuple[str, list[str], list[str]]
_DualRow = tuple[str, list[str], list[str], list[str]]


class _SortedReport:
    """Every set of one report, each sorted once.

    Sets with equal protocol frozensets share one sorted list of values.
    The table of those lists lives as long as this object, which lives for
    one call.
    """

    def __init__(self, report: AliasReport) -> None:
        self._protocol_values: dict[frozenset[ServiceType], list[str]] = {}
        self.ipv4 = {p.value: self._alias_rows(c) for p, c in report.ipv4.items()}
        self.ipv6 = {p.value: self._alias_rows(c) for p, c in report.ipv6.items()}
        self.ipv4_union = self._alias_rows(report.ipv4_union)
        self.ipv6_union = self._alias_rows(report.ipv6_union)
        self.dual_stack = {p.value: self._dual_rows(c) for p, c in report.dual_stack.items()}
        self.dual_stack_union = self._dual_rows(report.dual_stack_union)

    def _protocols(self, protocols: frozenset[ServiceType]) -> list[str]:
        values = self._protocol_values.get(protocols)
        if values is None:
            values = sorted(protocol.value for protocol in protocols)
            self._protocol_values[protocols] = values
        return values

    def _alias_rows(self, collection: AliasSetCollection) -> list[_AliasRow]:
        protocols = self._protocols
        return [
            (alias_set.identifier, sorted(alias_set.addresses), protocols(alias_set.protocols))
            for alias_set in collection
        ]

    def _dual_rows(self, collection: DualStackCollection) -> list[_DualRow]:
        protocols = self._protocols
        return [
            (
                dual_set.identifier,
                sorted(dual_set.ipv4_addresses),
                sorted(dual_set.ipv6_addresses),
                protocols(dual_set.protocols),
            )
            for dual_set in collection
        ]


def _alias_form(rows: list[_AliasRow]) -> dict:
    return {identifier: [addresses, protocols] for identifier, addresses, protocols in rows}


def _dual_form(rows: list[_DualRow]) -> dict:
    return {identifier: [ipv4, ipv6, protocols] for identifier, ipv4, ipv6, protocols in rows}


def _digest(report: AliasReport, rows: _SortedReport) -> str:
    form = {
        "name": report.name,
        "ipv4": {value: _alias_form(sets) for value, sets in rows.ipv4.items()},
        "ipv6": {value: _alias_form(sets) for value, sets in rows.ipv6.items()},
        "ipv4_union": _alias_form(rows.ipv4_union),
        "ipv6_union": _alias_form(rows.ipv6_union),
        "ipv4_union_asn": report.ipv4_union.address_asn,
        "ipv6_union_asn": report.ipv6_union.address_asn,
        "dual_stack": {value: _dual_form(sets) for value, sets in rows.dual_stack.items()},
        "dual_stack_union": _dual_form(rows.dual_stack_union),
    }
    encoded = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def report_signature_digest(report: AliasReport) -> str:
    """SHA-256 over the canonical JSON form of a report (module docstring)."""
    return _digest(report, _SortedReport(report))


# The documents copy each protocol list: the sorted one is shared by every
# set with the same protocols, and a document's lists belong to its caller.
def _collection_to_document(collection: AliasSetCollection, rows: list[_AliasRow]) -> dict:
    return {
        "name": collection.name,
        "address_asn": dict(collection.address_asn_items()),
        "sets": [
            {"identifier": identifier, "addresses": addresses, "protocols": list(protocols)}
            for identifier, addresses, protocols in rows
        ],
    }


def _dual_to_document(collection: DualStackCollection, rows: list[_DualRow]) -> dict:
    return {
        "name": collection.name,
        "address_asn": dict(collection.address_asn_items()),
        "sets": [
            {
                "identifier": identifier,
                "ipv4_addresses": ipv4,
                "ipv6_addresses": ipv6,
                "protocols": list(protocols),
            }
            for identifier, ipv4, ipv6, protocols in rows
        ],
    }


def report_to_document(report: AliasReport) -> dict:
    """Render a report as a JSON-serialisable document (order-preserving).

    The embedded ``signature`` digest covers the report contents, not the
    document bytes, so it verifies the reconstructed object on load.
    """
    rows = _SortedReport(report)
    return {
        "version": REPORT_FORMAT_VERSION,
        "name": report.name,
        "ipv4": {
            protocol.value: _collection_to_document(collection, rows.ipv4[protocol.value])
            for protocol, collection in report.ipv4.items()
        },
        "ipv6": {
            protocol.value: _collection_to_document(collection, rows.ipv6[protocol.value])
            for protocol, collection in report.ipv6.items()
        },
        "ipv4_union": _collection_to_document(report.ipv4_union, rows.ipv4_union),
        "ipv6_union": _collection_to_document(report.ipv6_union, rows.ipv6_union),
        "dual_stack": {
            protocol.value: _dual_to_document(collection, rows.dual_stack[protocol.value])
            for protocol, collection in report.dual_stack.items()
        },
        "dual_stack_union": _dual_to_document(report.dual_stack_union, rows.dual_stack_union),
        "signature": _digest(report, rows),
    }


def _protocol_set(values: list, shared: dict[tuple, frozenset[ServiceType]]) -> frozenset[ServiceType]:
    """The services ``values`` names; sets naming the same ones share a frozenset."""
    key = tuple(values)
    members = shared.get(key)
    if members is None:
        members = frozenset(SERVICE_TYPES_BY_VALUE[value] for value in key)
        shared[key] = members
    return members


def _identifier(value: object) -> str:
    if not isinstance(value, str):
        raise PersistError(f"malformed report document: set identifier {value!r} is not a string")
    return value


def _address_asn(document: dict) -> dict[str, int]:
    return {address: int(asn) for address, asn in document.items()}


def _collection_from_document(document: dict, shared: dict) -> AliasSetCollection:
    return AliasSetCollection(
        document["name"],
        sets=[
            AliasSet(
                identifier=_identifier(entry["identifier"]),
                addresses=frozenset(entry["addresses"]),
                protocols=_protocol_set(entry["protocols"], shared),
            )
            for entry in document["sets"]
        ],
        address_asn=_address_asn(document["address_asn"]),
    )


def _dual_from_document(document: dict, shared: dict) -> DualStackCollection:
    return DualStackCollection(
        document["name"],
        sets=[
            DualStackSet(
                identifier=_identifier(entry["identifier"]),
                ipv4_addresses=frozenset(entry["ipv4_addresses"]),
                ipv6_addresses=frozenset(entry["ipv6_addresses"]),
                protocols=_protocol_set(entry["protocols"], shared),
            )
            for entry in document["sets"]
        ],
        address_asn=_address_asn(document["address_asn"]),
    )


def report_from_document(document: dict) -> AliasReport:
    """Rebuild a report from its document, asserting signature parity.

    The digest is recomputed from the rebuilt report, never from the
    document's lists.

    Raises:
        PersistError: on an unsupported version, a malformed document, or a
            restored report whose signature differs from the saved digest.
    """
    try:
        version = document["version"]
        if version != REPORT_FORMAT_VERSION:
            raise PersistError(f"unsupported report document version {version!r}")
        # Protocol frozensets shared by the sets of this one document.
        shared: dict[tuple, frozenset[ServiceType]] = {}
        report = AliasReport(
            name=document["name"],
            ipv4={
                SERVICE_TYPES_BY_VALUE[value]: _collection_from_document(entry, shared)
                for value, entry in document["ipv4"].items()
            },
            ipv6={
                SERVICE_TYPES_BY_VALUE[value]: _collection_from_document(entry, shared)
                for value, entry in document["ipv6"].items()
            },
            ipv4_union=_collection_from_document(document["ipv4_union"], shared),
            ipv6_union=_collection_from_document(document["ipv6_union"], shared),
            dual_stack={
                SERVICE_TYPES_BY_VALUE[value]: _dual_from_document(entry, shared)
                for value, entry in document["dual_stack"].items()
            },
            dual_stack_union=_dual_from_document(document["dual_stack_union"], shared),
        )
        expected = document["signature"]
        actual = report_signature_digest(report)
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PersistError(f"malformed report document: {exc}") from exc
    if actual != expected:
        raise PersistError(
            "report document failed signature parity on load "
            f"(saved {str(expected)[:12]}…, restored {actual[:12]}…)"
        )
    return report
