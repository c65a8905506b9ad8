"""Single-pass resolution engine over a columnar, interned index.

The seed implementation of the pipeline walked the full observation list
once per (protocol × family) grouping plus once per protocol for dual-stack
inference — nine passes, each re-extracting identifiers.  This module
replaces that with a two-stage architecture:

1. **One index pass** — :class:`ObservationIndex` streams over the
   observations exactly once, calls
   :func:`~repro.core.identifiers.extract_identifier` exactly once per
   observation, and buckets addresses by ``(protocol, family, identifier)``
   (plus the per-bucket address→ASN mapping).
2. **Derived collections** — per-protocol alias-set collections, dual-stack
   collections, and the cross-protocol unions are all materialised from the
   index without re-touching raw observations.

Internally the index is *columnar and interned*: addresses and identifier
values are interned to dense integers through two per-index
:class:`~repro.core.symbols.SymbolTable`\\ s, buckets are addressed by a flat
``protocol × family`` code (no enum hashing on the hot path — the previous
dict core spent ~8 Python-level enum ``__hash__`` calls per observation on
tuple bucket keys), per-bucket membership is integer-keyed reference counts,
and the per-address ASN columns are flat :mod:`array` columns indexed by
address symbol.  An address's family is resolved once at intern time and
read back as an array cell afterwards.  The public surface — ``add`` /
``remove`` / ``extend`` / ``consume_dirty`` / ``export_state`` /
``state_signature`` and insertion-ordered enumeration — is unchanged from
the dict core (now preserved as
:class:`repro.core.dictcore.DictObservationIndex`, the property-test oracle
and benchmark baseline), so the engine, longitudinal delta replay,
persistence and validation layers run unmodified on top.

:class:`ResolutionEngine` orchestrates the two stages and assembles the
:class:`AliasReport` consumed by the experiments, the CLI and the analysis
layer.  :func:`repro.core.pipeline.run_alias_resolution` is a thin facade
over this engine, so the public API and its outputs are unchanged apart from
the cross-protocol union labels, which are now canonical (ordered by
smallest member address) instead of union-find-root ordered.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections.abc import Mapping
from typing import Iterable, Iterator

from repro import obs
from repro.core.alias_resolution import AliasResolver
from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet, union_dual_stack
from repro.core.identifiers import (
    DEFAULT_OPTIONS,
    DeviceIdentifier,
    IdentifierOptions,
    extract_identifier,
)
from repro.core.symbols import SymbolTable
from repro.errors import DatasetError
from repro.net.addresses import AddressFamily, family_of
from repro.simnet.device import ServiceType
from repro.sources.records import Observation

#: Protocols the paper's evaluation reports on, in report order.
PROTOCOLS = (ServiceType.SSH, ServiceType.BGP, ServiceType.SNMPV3)

#: Bucket key: one (protocol, family) stratum of the index.
_BucketKey = tuple[ServiceType, AddressFamily]

#: Sentinel for "extract the identifier yourself" in add/remove.
_UNEXTRACTED: "DeviceIdentifier | None" = object()  # type: ignore[assignment]

# ---------------------------------------------------------------------- #
# Flat bucket codes: protocol_code * 2 + family_code.  Keyed off the enum
# *values* (plain cached strings) so the hot path never calls the
# Python-level enum ``__hash__``.
# ---------------------------------------------------------------------- #
_SERVICES = tuple(ServiceType)
_FAMILIES = (AddressFamily.IPV4, AddressFamily.IPV6)
_PROTO_CODE: dict[str, int] = {
    service.value: code for code, service in enumerate(_SERVICES)
}
_FAMILY_CODE: dict[AddressFamily, int] = {
    family: code for code, family in enumerate(_FAMILIES)
}
_BUCKET_KEYS: tuple[_BucketKey, ...] = tuple(
    (service, family) for service in _SERVICES for family in _FAMILIES
)
_BUCKET_COUNT = len(_BUCKET_KEYS)


def _bucket_code(protocol: ServiceType, family: AddressFamily) -> int:
    return _PROTO_CODE[protocol.value] * 2 + _FAMILY_CODE[family]


def _symbol(value: int, size: int, table: str) -> int:
    """``value`` as a symbol of a ``size``-entry interned table.

    Raises:
        DatasetError: when the symbol falls outside ``[0, size)``.
    """
    sym = int(value)
    if not 0 <= sym < size:
        raise DatasetError(
            f"malformed observation index state: {table} symbol {sym} "
            f"outside the {size}-entry {table} table"
        )
    return sym


class _Bucket:
    """Columnar storage of one ``(protocol, family)`` stratum.

    ``members`` maps identifier symbol → {address symbol: refcount}; the ASN
    columns are flat arrays indexed by address symbol (``asn_refs[sym] == 0``
    means "no ASN recorded"), grown on demand.  ``asn_cache`` memoises the
    decoded address→ASN dict between mutations.
    """

    __slots__ = ("members", "asn_values", "asn_refs", "dirty", "asn_cache")

    def __init__(self) -> None:
        self.members: dict[int, dict[int, int]] = {}
        self.asn_values = array("q")
        self.asn_refs = array("q")
        self.dirty: set[int] = set()
        self.asn_cache: dict[str, int] | None = None

    def grow_asn(self, size: int) -> None:
        """Ensure the ASN columns cover address symbols below ``size``."""
        missing = size - len(self.asn_refs)
        if missing > 0:
            zeros = bytes(8 * missing)
            self.asn_refs.frombytes(zeros)
            self.asn_values.frombytes(zeros)


class _AddressCounts(Mapping):
    """Decoded read-only view of one identifier's {address: refcount} cell."""

    __slots__ = ("_counts", "_addresses")

    def __init__(self, counts: dict[int, int], addresses: SymbolTable) -> None:
        self._counts = counts
        self._addresses = addresses

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[str]:
        return iter(list(map(self._addresses.values.__getitem__, self._counts)))

    def __contains__(self, address: object) -> bool:
        sym = self._addresses.ids.get(address)  # type: ignore[arg-type]
        return sym is not None and sym in self._counts

    def __getitem__(self, address: str) -> int:
        sym = self._addresses.ids.get(address)
        if sym is None:
            raise KeyError(address)
        return self._counts[sym]


class _BucketMembers(Mapping):
    """Decoded read-only view of one bucket's identifier→addresses mapping.

    Enumerates identifier values in bucket insertion order (the order the
    dict core preserved), decoding symbols lazily so incremental consumers
    touching only dirty identifiers never pay for the full bucket.
    """

    __slots__ = ("_members", "_identifiers", "_addresses")

    def __init__(
        self,
        members: dict[int, dict[int, int]],
        identifiers: SymbolTable,
        addresses: SymbolTable,
    ) -> None:
        self._members = members
        self._identifiers = identifiers
        self._addresses = addresses

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[str]:
        return iter(list(map(self._identifiers.values.__getitem__, self._members)))

    def __contains__(self, value: object) -> bool:
        sym = self._identifiers.ids.get(value)  # type: ignore[arg-type]
        return sym is not None and sym in self._members

    def __getitem__(self, value: str) -> _AddressCounts:
        sym = self._identifiers.ids.get(value)
        if sym is None:
            raise KeyError(value)
        counts = self._members.get(sym)
        if counts is None:
            raise KeyError(value)
        return _AddressCounts(counts, self._addresses)


class ObservationIndex:
    """Identifier-keyed index built in one streaming pass over observations.

    Within each ``(protocol, family)`` bucket, addresses are grouped by the
    identifier value extracted from their observations; insertion order (the
    first occurrence of each identifier in the stream) is preserved so the
    derived collections enumerate sets in the same order the seed
    implementation did.  Identifier values only collide within a protocol
    (every extractor stamps its own :class:`ServiceType`), so bucketing by
    the observation's protocol is equivalent to keying on the full
    ``(protocol, value)`` identifier pair.

    Addresses are reference-counted per identifier so the index supports
    removal: :meth:`remove` is the exact inverse of :meth:`add`, which is
    what lets the longitudinal subsystem re-resolve a churned snapshot by
    replaying an observation delta instead of rebuilding the whole index.
    Every mutation records the touched identifier in a dirty map that
    incremental consumers drain via :meth:`consume_dirty`.

    Removal assumes an address's origin ASN is stable across the
    observations that mention it (true for every source in this repo: the
    ASN is resolved from routing data keyed by address).  The index only
    counts how many identifier-carrying observations supplied an ASN per
    address, so conflicting ASN values for one address cannot be unwound
    exactly.

    Storage is columnar and interned — see the module docstring.  The two
    symbol tables (:attr:`addresses`, :attr:`identifiers`) are per-index,
    and :meth:`export_columnar` persists them as-is.
    """

    def __init__(self, options: IdentifierOptions = DEFAULT_OPTIONS) -> None:
        self._options = options
        self._addresses = SymbolTable()
        self._identifiers = SymbolTable()
        #: family code per address symbol, resolved once at intern time.
        self._family_codes = array("b")
        self._buckets: list[_Bucket | None] = [None] * _BUCKET_COUNT
        self._observed = 0
        self._indexed = 0

    @classmethod
    def build(
        cls,
        observations: Iterable[Observation],
        options: IdentifierOptions = DEFAULT_OPTIONS,
    ) -> "ObservationIndex":
        """Index every observation of ``observations`` (streamed, not copied)."""
        index = cls(options)
        index.extend(observations)
        return index

    @property
    def options(self) -> IdentifierOptions:
        """The identifier construction options in use."""
        return self._options

    @property
    def observed(self) -> int:
        """Observations seen, including those without identifier material."""
        return self._observed

    @property
    def indexed(self) -> int:
        """Observations that contributed an identifier to the index."""
        return self._indexed

    @property
    def address_symbols(self) -> int:
        """Distinct addresses interned by this index."""
        return len(self._addresses)

    @property
    def identifier_symbols(self) -> int:
        """Distinct identifier values interned by this index."""
        return len(self._identifiers)

    def _intern_address(self, address: str) -> int:
        """Intern ``address``, resolving its family code exactly once."""
        sym = self._addresses.intern(address)
        if sym == len(self._family_codes):
            self._family_codes.append(_FAMILY_CODE[family_of(address)])
        return sym

    def _bucket(self, code: int) -> _Bucket:
        bucket = self._buckets[code]
        if bucket is None:
            bucket = self._buckets[code] = _Bucket()
        return bucket

    def add(
        self,
        observation: Observation,
        identifier: DeviceIdentifier | None = _UNEXTRACTED,
    ) -> bool:
        """Index one observation; returns whether it carried an identifier.

        ``identifier`` lets callers that already extracted the observation's
        identifier (with the same options) pass it in instead of paying for
        a second extraction — the longitudinal engine caches identifiers
        across snapshots this way.
        """
        self._observed += 1
        if identifier is _UNEXTRACTED:
            identifier = extract_identifier(observation, self._options)
        if identifier is None:
            return False
        address = observation.address
        addr_sym = self._addresses.ids.get(address)
        if addr_sym is None:
            addr_sym = self._intern_address(address)
        code = (
            _PROTO_CODE[observation.protocol._value_] * 2
            + self._family_codes[addr_sym]
        )
        bucket = self._buckets[code]
        if bucket is None:
            bucket = self._buckets[code] = _Bucket()
        ident_sym = self._identifiers.intern(identifier.value)
        members = bucket.members
        counts = members.get(ident_sym)
        if counts is None:
            members[ident_sym] = {addr_sym: 1}
        else:
            counts[addr_sym] = counts.get(addr_sym, 0) + 1
        asn = observation.asn
        if asn is not None:
            refs = bucket.asn_refs
            if addr_sym >= len(refs):
                bucket.grow_asn(len(self._addresses))
            bucket.asn_values[addr_sym] = asn
            refs[addr_sym] += 1
            bucket.asn_cache = None
        bucket.dirty.add(ident_sym)
        self._indexed += 1
        return True

    def remove(
        self,
        observation: Observation,
        identifier: DeviceIdentifier | None = _UNEXTRACTED,
    ) -> bool:
        """Un-index one previously-added observation (exact inverse of :meth:`add`).

        Returns whether the observation carried an identifier (mirroring
        :meth:`add`'s return value for the same observation).  Raises
        :class:`~repro.errors.DatasetError` when the observation was never
        indexed — incremental drivers replay deltas, so an unknown removal
        is a bookkeeping bug worth failing loudly on.  ``identifier`` works
        as in :meth:`add`.
        """
        if identifier is _UNEXTRACTED:
            identifier = extract_identifier(observation, self._options)
        if identifier is None:
            # Identifier-less observations are only counted in aggregate, so
            # the strongest possible check is that one is outstanding at all.
            if self._observed <= self._indexed:
                raise DatasetError(
                    "cannot remove identifier-less observation: none outstanding"
                )
            self._observed -= 1
            return False
        addr_sym = self._addresses.ids.get(observation.address)
        ident_sym = self._identifiers.ids.get(identifier.value)
        bucket = counts = count = None
        if addr_sym is not None and ident_sym is not None:
            code = (
                _PROTO_CODE[observation.protocol._value_] * 2
                + self._family_codes[addr_sym]
            )
            bucket = self._buckets[code]
            if bucket is not None:
                counts = bucket.members.get(ident_sym)
                if counts is not None:
                    count = counts.get(addr_sym)
        if count is None:
            raise DatasetError(
                f"cannot remove unindexed observation {observation.address} "
                f"({observation.protocol.value}, {observation.family.value})"
            )
        if count == 1:
            del counts[addr_sym]
            if not counts:
                del bucket.members[ident_sym]
        else:
            counts[addr_sym] = count - 1
        if observation.asn is not None:
            refs = bucket.asn_refs
            remaining = (refs[addr_sym] if addr_sym < len(refs) else 0) - 1
            if remaining < 0:
                raise DatasetError(
                    f"ASN bookkeeping underflow for {observation.address}: removed "
                    "an ASN-carrying observation that was never added"
                )
            refs[addr_sym] = remaining
            bucket.asn_cache = None
        bucket.dirty.add(ident_sym)
        self._observed -= 1
        self._indexed -= 1
        return True

    def _publish_gauges(self) -> None:
        """Publish symbol-table and dirty-set level gauges.

        Called at batch seams only (never per observation) so the enabled
        cost stays a handful of dict operations per ``extend``/
        ``apply_delta``, and the disabled cost is one boolean check.
        """
        if not obs.is_enabled():
            return
        obs.set_gauge("index.symbols.interned", len(self._addresses), kind="address")
        obs.set_gauge(
            "index.symbols.interned", len(self._identifiers), kind="identifier"
        )
        obs.set_gauge(
            "index.dirty.identifiers",
            sum(len(bucket.dirty) for bucket in self._buckets if bucket is not None),
        )

    def extend(self, observations: Iterable[Observation]) -> None:
        """Index many observations."""
        add = self.add
        if not obs.is_enabled():
            for observation in observations:
                add(observation)
            return
        observed_before, indexed_before = self._observed, self._indexed
        for observation in observations:
            add(observation)
        obs.add("index.observations.observed", self._observed - observed_before)
        obs.add("index.observations.indexed", self._indexed - indexed_before)
        self._publish_gauges()
        obs.emit(
            "index.ingest",
            observations=self._observed - observed_before,
            indexed=self._indexed - indexed_before,
        )

    def apply_delta(
        self, removed: Iterable[Observation], added: Iterable[Observation]
    ) -> None:
        """Replay an observation delta: removals first, then additions."""
        if not obs.is_enabled():
            for observation in removed:
                self.remove(observation)
            for observation in added:
                self.add(observation)
            return
        dropped = 0
        for observation in removed:
            self.remove(observation)
            dropped += 1
        grown = 0
        for observation in added:
            self.add(observation)
            grown += 1
        obs.add("index.delta.removed", dropped)
        obs.add("index.delta.added", grown)
        self._publish_gauges()
        obs.emit("index.delta", removed=dropped, added=grown)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Decoded internal state, for persistence.

        The returned structure contains plain dicts and ints only (bucket
        keys stay ``(ServiceType, AddressFamily)`` tuples — the JSON
        encoding lives in :mod:`repro.persist.index`).  Unlike
        :meth:`state_signature` it keeps the per-address ASN reference
        counts.  The layout is identical to the dict core's export
        (:class:`repro.core.dictcore.DictObservationIndex`), so the property
        suite compares the two cores through it.
        """
        ident_values = self._identifiers.values
        addr_values = self._addresses.values
        members: dict = {}
        asn: dict = {}
        asn_refs: dict = {}
        for code, bucket in enumerate(self._buckets):
            if bucket is None:
                continue
            key = _BUCKET_KEYS[code]
            members[key] = {
                ident_values[ident_sym]: {
                    addr_values[sym]: count for sym, count in counts.items()
                }
                for ident_sym, counts in bucket.members.items()
            }
            refs = bucket.asn_refs
            values = bucket.asn_values
            asn[key] = {
                addr_values[sym]: values[sym]
                for sym in range(len(refs))
                if refs[sym]
            }
            asn_refs[key] = {
                addr_values[sym]: refs[sym]
                for sym in range(len(refs))
                if refs[sym]
            }
        return {
            "observed": self._observed,
            "indexed": self._indexed,
            "members": members,
            "asn": asn,
            "asn_refs": asn_refs,
        }

    def export_columnar(self) -> dict:
        """Interned state: symbol tables plus integer columns, for persistence.

        Unlike :meth:`export_state` (which decodes everything back to
        strings), this carries each distinct address and identifier value
        exactly once and renders every bucket as flat symbol/count lists —
        the compact on-disk shape of
        :data:`repro.persist.index.INDEX_FORMAT_VERSION` 2.  Bucket payload
        per ``(protocol, family)`` key: ``members`` is a list of
        ``[identifier_symbol, [address_symbol, count, ...]]`` rows in
        insertion order, ``asn`` a flat ``[address_symbol, asn, refs, ...]``
        list over addresses with live ASN references.
        """
        buckets: dict[_BucketKey, dict] = {}
        for code, bucket in enumerate(self._buckets):
            if bucket is None:
                continue
            members = [
                [ident_sym, [cell for pair in counts.items() for cell in pair]]
                for ident_sym, counts in bucket.members.items()
            ]
            refs = bucket.asn_refs
            values = bucket.asn_values
            asn: list[int] = []
            for sym in range(len(refs)):
                if refs[sym]:
                    asn.extend((sym, values[sym], refs[sym]))
            buckets[_BUCKET_KEYS[code]] = {"members": members, "asn": asn}
        return {
            "observed": self._observed,
            "indexed": self._indexed,
            "addresses": self._addresses.export(),
            "identifiers": self._identifiers.export(),
            "buckets": buckets,
        }

    @classmethod
    def from_columnar(
        cls, state: dict, options: IdentifierOptions = DEFAULT_OPTIONS
    ) -> "ObservationIndex":
        """Rebuild an index from :meth:`export_columnar` output.

        Address family codes are re-derived from the address strings (the
        columnar export does not carry them).  Every identifier is marked
        dirty, so an incremental consumer attached to the restored index
        (e.g. :meth:`repro.longitudinal.engine.LongitudinalEngine.restore`)
        derives its full state on the first drain — exactly as if the index
        had just been built by streaming additions.

        Raises:
            DatasetError: on a malformed state, including any identifier or
                address symbol outside its interned table.
        """
        try:
            index = cls(options)
            index._observed = int(state["observed"])
            index._indexed = int(state["indexed"])
            index._addresses = SymbolTable(state["addresses"])
            index._identifiers = SymbolTable(state["identifiers"])
            index._family_codes = array(
                "b",
                (
                    _FAMILY_CODE[family_of(address)]
                    for address in index._addresses.values
                ),
            )
            size = len(index._addresses)
            identifiers = len(index._identifiers)
            for bucket_key, payload in state["buckets"].items():
                protocol, family = bucket_key
                bucket = index._bucket(_bucket_code(protocol, family))
                for ident_sym, cells in payload["members"]:
                    ident_sym = _symbol(ident_sym, identifiers, "identifier")
                    counts = {
                        int(cells[at]): int(cells[at + 1])
                        for at in range(0, len(cells), 2)
                    }
                    if counts:
                        _symbol(min(counts), size, "address")
                        _symbol(max(counts), size, "address")
                    bucket.members[ident_sym] = counts
                    bucket.dirty.add(ident_sym)
                asn = payload["asn"]
                if asn:
                    bucket.grow_asn(size)
                    for at in range(0, len(asn), 3):
                        sym = _symbol(asn[at], size, "address")
                        bucket.asn_values[sym] = int(asn[at + 1])
                        bucket.asn_refs[sym] = int(asn[at + 2])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DatasetError(f"malformed observation index state: {exc}") from exc
        return index

    # ------------------------------------------------------------------ #
    # Incremental-consumer accessors
    # ------------------------------------------------------------------ #
    def consume_dirty(self) -> dict[_BucketKey, set[str]]:
        """Return and clear the identifiers touched since the last drain.

        Maps each ``(protocol, family)`` bucket to the identifier values
        whose membership changed.  Buckets touched but emptied again still
        appear (their identifiers may need dropping from derived caches).
        """
        ident_values = self._identifiers.values
        dirty: dict[_BucketKey, set[str]] = {}
        for code, bucket in enumerate(self._buckets):
            if bucket is not None and bucket.dirty:
                dirty[_BUCKET_KEYS[code]] = {
                    ident_values[sym] for sym in bucket.dirty
                }
                bucket.dirty.clear()
        return dirty

    def bucket_members(
        self, protocol: ServiceType, family: AddressFamily
    ) -> Mapping[str, Mapping[str, int]]:
        """Identifier→{address: refcount} mapping of one bucket.

        A read-only decoded view over the live columnar storage: iteration
        yields identifier values in insertion order, lookups decode lazily.
        """
        bucket = self._buckets[_bucket_code(protocol, family)]
        if bucket is None:
            return {}
        return _BucketMembers(bucket.members, self._identifiers, self._addresses)

    def bucket_asn(self, protocol: ServiceType, family: AddressFamily) -> dict[str, int]:
        """Address→ASN mapping of one bucket.

        Materialised from the ASN columns on demand and memoised until the
        bucket's next ASN mutation; treat as read-only.
        """
        bucket = self._buckets[_bucket_code(protocol, family)]
        if bucket is None:
            return {}
        cache = bucket.asn_cache
        if cache is None:
            addr_values = self._addresses.values
            refs = bucket.asn_refs
            values = bucket.asn_values
            cache = bucket.asn_cache = {
                addr_values[sym]: values[sym]
                for sym in range(len(refs))
                if refs[sym]
            }
        return cache

    def state_signature(self) -> dict:
        """Canonical, order-insensitive rendering of the index contents.

        Two indexes that would derive identical collections produce equal
        signatures, regardless of the insertion/removal history that built
        them.  Empty buckets and identifiers are dropped, so an index that
        shrank matches a from-scratch build of the surviving observations.
        """
        ident_values = self._identifiers.values
        addr_values = self._addresses.values
        members: dict = {}
        asn: dict = {}
        for code, bucket in enumerate(self._buckets):
            if bucket is None:
                continue
            key = _BUCKET_KEYS[code]
            cleaned = {
                ident_values[ident_sym]: {
                    addr_values[sym]: count for sym, count in counts.items()
                }
                for ident_sym, counts in bucket.members.items()
                if counts
            }
            if cleaned:
                members[key] = cleaned
            bucket_asn = self.bucket_asn(*key)
            if bucket_asn:
                asn[key] = dict(bucket_asn)
        return {
            "observed": self._observed,
            "indexed": self._indexed,
            "members": members,
            "asn": asn,
        }

    def stats(self) -> dict:
        """Build statistics for diagnostics (``repro resolve --stats``)."""
        buckets = {}
        for code, bucket in enumerate(self._buckets):
            if bucket is None or not bucket.members:
                continue
            protocol, family = _BUCKET_KEYS[code]
            buckets[f"{protocol.value}:{family.value}"] = {
                "identifiers": len(bucket.members),
                "member_cells": sum(len(counts) for counts in bucket.members.values()),
            }
        return {
            "observed": self._observed,
            "indexed": self._indexed,
            "address_symbols": len(self._addresses),
            "identifier_symbols": len(self._identifiers),
            "buckets": buckets,
        }

    def alias_sets(
        self,
        protocol: ServiceType,
        family: AddressFamily,
        name: str | None = None,
    ) -> AliasSetCollection:
        """The ``(protocol, family)`` alias-set collection, from the index."""
        collection = AliasSetCollection(
            name or f"{protocol.value}:{family.value}",
            address_asn=self.bucket_asn(protocol, family),
        )
        bucket = self._buckets[_bucket_code(protocol, family)]
        if bucket is None:
            return collection
        ident_values = self._identifiers.values
        decode_address = self._addresses.values.__getitem__
        protocols = frozenset((protocol,))
        add = collection.add
        for ident_sym, counts in bucket.members.items():
            add(
                AliasSet(
                    identifier=ident_values[ident_sym],
                    addresses=frozenset(map(decode_address, counts)),
                    protocols=protocols,
                )
            )
        return collection

    def dual_stack(
        self, protocol: ServiceType, name: str | None = None
    ) -> DualStackCollection:
        """Dual-stack sets for ``protocol``: identifiers seen in both families."""
        ipv4_bucket = self._buckets[_bucket_code(protocol, AddressFamily.IPV4)]
        ipv6_bucket = self._buckets[_bucket_code(protocol, AddressFamily.IPV6)]
        address_asn = dict(self.bucket_asn(protocol, AddressFamily.IPV4))
        address_asn.update(self.bucket_asn(protocol, AddressFamily.IPV6))
        collection = DualStackCollection(
            name or protocol.value, address_asn=address_asn
        )
        if ipv4_bucket is None or ipv6_bucket is None:
            return collection
        ident_values = self._identifiers.values
        decode_address = self._addresses.values.__getitem__
        protocols = frozenset((protocol,))
        ipv6_members = ipv6_bucket.members
        for ident_sym, ipv4_counts in ipv4_bucket.members.items():
            ipv6_counts = ipv6_members.get(ident_sym)
            if not ipv6_counts:
                continue
            collection.add(
                DualStackSet(
                    identifier=ident_values[ident_sym],
                    ipv4_addresses=frozenset(map(decode_address, ipv4_counts)),
                    ipv6_addresses=frozenset(map(decode_address, ipv6_counts)),
                    protocols=protocols,
                )
            )
        return collection


@dataclasses.dataclass
class AliasReport:
    """Full output of one alias-resolution run.

    Attributes:
        name: label of the observation set the report was built from.
        ipv4: per-protocol IPv4 alias-set collections.
        ipv6: per-protocol IPv6 alias-set collections.
        ipv4_union: union of the per-protocol IPv4 collections.
        ipv6_union: union of the per-protocol IPv6 collections.
        dual_stack: per-protocol dual-stack collections.
        dual_stack_union: union of the per-protocol dual-stack collections.
    """

    name: str
    ipv4: dict[ServiceType, AliasSetCollection]
    ipv6: dict[ServiceType, AliasSetCollection]
    ipv4_union: AliasSetCollection
    ipv6_union: AliasSetCollection
    dual_stack: dict[ServiceType, DualStackCollection]
    dual_stack_union: DualStackCollection

    def non_singleton_counts(self, family: AddressFamily) -> dict[str, int]:
        """Number of non-singleton sets per protocol plus the union."""
        collections = self.ipv4 if family is AddressFamily.IPV4 else self.ipv6
        union = self.ipv4_union if family is AddressFamily.IPV4 else self.ipv6_union
        counts = {protocol.value: len(collections[protocol].non_singleton()) for protocol in PROTOCOLS}
        counts["union"] = len(union.non_singleton())
        return counts

    def covered_addresses(self, family: AddressFamily) -> dict[str, int]:
        """Number of addresses covered by non-singleton sets per protocol plus union."""
        collections = self.ipv4 if family is AddressFamily.IPV4 else self.ipv6
        union = self.ipv4_union if family is AddressFamily.IPV4 else self.ipv6_union
        counts = {
            protocol.value: len(collections[protocol].non_singleton().addresses())
            for protocol in PROTOCOLS
        }
        counts["union"] = len(union.non_singleton().addresses())
        return counts


def assemble_report(
    name: str,
    ipv4: dict[ServiceType, AliasSetCollection],
    ipv6: dict[ServiceType, AliasSetCollection],
    dual_stack: dict[ServiceType, DualStackCollection],
) -> AliasReport:
    """Build the cross-protocol unions and assemble an :class:`AliasReport`.

    Shared by :class:`ResolutionEngine` (which derives the per-protocol
    collections from a fresh index) and the longitudinal engine (which
    maintains them incrementally): both produce reports through the same
    union algebra, so their outputs are directly comparable.
    """
    ipv4_union = AliasResolver.union(ipv4.values(), name=f"{name}:union:ipv4")
    ipv6_union = AliasResolver.union(ipv6.values(), name=f"{name}:union:ipv6")
    dual_union = union_dual_stack(dual_stack.values(), name=f"{name}:union:dual")
    return AliasReport(
        name=name,
        ipv4=ipv4,
        ipv6=ipv6,
        ipv4_union=ipv4_union,
        ipv6_union=ipv6_union,
        dual_stack=dual_stack,
        dual_stack_union=dual_union,
    )


def _collection_signature(collection: AliasSetCollection) -> dict:
    return {
        alias_set.identifier: (alias_set.addresses, alias_set.protocols)
        for alias_set in collection
    }


def _dual_signature(collection: DualStackCollection) -> dict:
    return {
        dual_set.identifier: (
            dual_set.ipv4_addresses,
            dual_set.ipv6_addresses,
            dual_set.protocols,
        )
        for dual_set in collection
    }


def report_signature(report: AliasReport) -> dict:
    """Canonical, order-insensitive rendering of an :class:`AliasReport`.

    Incremental re-resolution enumerates identifiers in index insertion
    order, which differs from the first-occurrence order of a from-scratch
    stream even when the derived sets are identical.  Comparing signatures
    instead of collection lists makes report parity an exact equality.
    The synthetic ``union:<smallest-address>`` labels are already canonical,
    so union collections compare label-for-label.
    """
    return {
        "name": report.name,
        "ipv4": {p.value: _collection_signature(c) for p, c in report.ipv4.items()},
        "ipv6": {p.value: _collection_signature(c) for p, c in report.ipv6.items()},
        "ipv4_union": _collection_signature(report.ipv4_union),
        "ipv6_union": _collection_signature(report.ipv6_union),
        "ipv4_union_asn": report.ipv4_union.address_asn,
        "ipv6_union_asn": report.ipv6_union.address_asn,
        "dual_stack": {p.value: _dual_signature(c) for p, c in report.dual_stack.items()},
        "dual_stack_union": _dual_signature(report.dual_stack_union),
    }


class ResolutionEngine:
    """Builds :class:`AliasReport` objects from one index pass.

    ``resolve`` is the one-call entry point; ``index``/``report`` expose the
    two stages separately for callers that want to reuse or inspect the
    intermediate :class:`ObservationIndex` (e.g. incremental workloads that
    stream observations in batches via :meth:`ObservationIndex.extend`).
    """

    def __init__(self, options: IdentifierOptions = DEFAULT_OPTIONS) -> None:
        self._options = options

    @property
    def options(self) -> IdentifierOptions:
        """The identifier construction options in use."""
        return self._options

    def index(self, observations: Iterable[Observation]) -> ObservationIndex:
        """Stage 1: build the observation index in a single pass."""
        with obs.span("engine.index"):
            return ObservationIndex.build(observations, self._options)

    def report(self, index: ObservationIndex, name: str = "dataset") -> AliasReport:
        """Stage 2: derive every report collection from an existing index."""
        with obs.span("engine.report", name=name):
            return self._report(index, name)

    def _report(self, index: ObservationIndex, name: str) -> AliasReport:
        ipv4 = {
            protocol: index.alias_sets(
                protocol, AddressFamily.IPV4, name=f"{name}:{protocol.value}:ipv4"
            )
            for protocol in PROTOCOLS
        }
        ipv6 = {
            protocol: index.alias_sets(
                protocol, AddressFamily.IPV6, name=f"{name}:{protocol.value}:ipv6"
            )
            for protocol in PROTOCOLS
        }
        dual = {
            protocol: index.dual_stack(protocol, name=f"{name}:{protocol.value}:dual")
            for protocol in PROTOCOLS
        }
        return assemble_report(name, ipv4, ipv6, dual)

    def resolve(
        self, observations: Iterable[Observation], name: str = "dataset"
    ) -> AliasReport:
        """Index ``observations`` and build the full report."""
        return self.report(self.index(observations), name=name)
