"""Snapshot/restore of :class:`~repro.core.engine.ObservationIndex`.

An index snapshot is a single JSON document carrying every bucket's
identifier→address reference counts, the per-address ASN mappings (values
*and* reference counts, so removal replay stays exact after a restore),
and a SHA-256 digest of the index's canonical
:meth:`~repro.core.engine.ObservationIndex.state_signature`.  The digest is
recomputed from the rebuilt index on load and must match — a snapshot that
restores to a different resolution state fails loudly with
:class:`~repro.errors.PersistError` instead of silently corrupting every
report derived from it.

Format version 2 mirrors the columnar index core: the document carries the
index's two interned symbol tables (``addresses``, ``identifiers``) once,
and every bucket as flat symbol/count lists —
``members: [[identifier_symbol, [address_symbol, count, ...]], ...]`` and
``asn: [address_symbol, asn, refs, ...]``.  Each distinct string appears
exactly once no matter how many buckets reference it.  Version 2 is the
only version read: any other version fails with
:class:`~repro.errors.PersistError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.core.engine import ObservationIndex
from repro.core.identifiers import IdentifierOptions
from repro.errors import DatasetError, PersistError
from repro.net.addresses import AddressFamily
from repro.persist.files import read_json_document, write_atomic
from repro.simnet.device import ServiceType

#: Index snapshot format version (the only one written and read).
INDEX_FORMAT_VERSION = 2


def _bucket_tag(bucket_key: tuple[ServiceType, AddressFamily]) -> str:
    protocol, family = bucket_key
    return f"{protocol.value}|{family.value}"


def _bucket_key(tag: str) -> tuple[ServiceType, AddressFamily]:
    protocol_value, _, family_value = tag.partition("|")
    return ServiceType(protocol_value), AddressFamily(family_value)


def state_signature_digest(index: ObservationIndex) -> str:
    """SHA-256 over the canonical JSON rendering of the index signature.

    Two indexes that would derive identical report collections produce
    equal digests regardless of construction history *or snapshot format
    version* — the property the load-time parity assertion relies on.
    """
    signature = index.state_signature()
    canonical = {
        "observed": signature["observed"],
        "indexed": signature["indexed"],
        "members": {_bucket_tag(key): value for key, value in signature["members"].items()},
        "asn": {_bucket_tag(key): value for key, value in signature["asn"].items()},
    }
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def index_to_document(index: ObservationIndex) -> dict:
    """Render an index as a JSON-serialisable snapshot document (version 2)."""
    state = index.export_columnar()
    return {
        "version": INDEX_FORMAT_VERSION,
        "options": dataclasses.asdict(index.options),
        "observed": state["observed"],
        "indexed": state["indexed"],
        "addresses": state["addresses"],
        "identifiers": state["identifiers"],
        "buckets": [
            {
                "bucket": _bucket_tag(key),
                "members": payload["members"],
                "asn": payload["asn"],
            }
            for key, payload in sorted(
                state["buckets"].items(), key=lambda item: _bucket_tag(item[0])
            )
        ],
        "signature": state_signature_digest(index),
    }


def _state_from_v2(document: dict) -> dict:
    """Decode a version-2 (interned columnar) document into columnar state."""
    return {
        "observed": document["observed"],
        "indexed": document["indexed"],
        "addresses": document["addresses"],
        "identifiers": document["identifiers"],
        "buckets": {
            _bucket_key(bucket["bucket"]): {
                "members": bucket["members"],
                "asn": bucket["asn"],
            }
            for bucket in document["buckets"]
        },
    }


def index_from_document(document: dict) -> ObservationIndex:
    """Rebuild an index from a snapshot document, asserting signature parity.

    Raises:
        PersistError: on an unsupported version, a malformed document, or a
            restored index whose state signature differs from the one the
            snapshot recorded.
    """
    try:
        version = document["version"]
        if version != INDEX_FORMAT_VERSION:
            raise PersistError(f"unsupported index snapshot version {version!r}")
        options = IdentifierOptions(**document["options"])
        state = _state_from_v2(document)
        expected = document["signature"]
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PersistError(f"malformed index snapshot document: {exc}") from exc
    try:
        index = ObservationIndex.from_columnar(state, options)
    except DatasetError as exc:
        raise PersistError(f"malformed index snapshot document: {exc}") from exc
    actual = state_signature_digest(index)
    if actual != expected:
        raise PersistError(
            "index snapshot failed state-signature parity on load "
            f"(saved {expected[:12]}…, restored {actual[:12]}…)"
        )
    return index


def save_index(index: ObservationIndex, path: str | Path) -> None:
    """Write an index snapshot document to ``path`` (atomic, parents created)."""
    write_atomic(path, json.dumps(index_to_document(index)))


def load_index(path: str | Path) -> ObservationIndex:
    """Load an index snapshot from ``path``, asserting signature parity."""
    return index_from_document(read_json_document(path, "index snapshot"))
