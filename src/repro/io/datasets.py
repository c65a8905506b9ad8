"""Serialisation of observations and alias sets.

Observations round-trip through JSON-lines; alias-set and dual-stack
collections are stored as single JSON documents (the natural shape for a
published analysis artifact).

The observation round-trip is **exact**: ``load(save(dataset))`` equals
``dataset`` field for field.  That guarantee is what the persistence layer
(:mod:`repro.persist`) builds on — a re-loaded dataset must re-resolve to
byte-identical reports — so malformed records fail loudly with
:class:`~repro.errors.DatasetError` instead of being silently coerced.

Dataset files carry a header record (:data:`DATASET_HEADER_KEY`) naming the
dataset, so renaming or copying a JSONL file does not relabel the source in
reports or content-keyed longitudinal deltas.  Headerless files (written
before the header existed, or by other tools) still load, falling back to
the file stem.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.errors import DatasetError
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.simnet.device import SERVICE_TYPES_BY_VALUE
from repro.sources.records import Observation, ObservationDataset

#: Marker key of the dataset header record (first line of a dataset file).
#: Its value is the format version; observation records never carry it.
DATASET_HEADER_KEY = "__repro_dataset__"

#: Current dataset file format version.
DATASET_FORMAT_VERSION = 1


def observation_to_dict(observation: Observation) -> dict:
    """Convert an observation to a JSON-serialisable dict."""
    return {
        "address": observation.address,
        "protocol": observation.protocol.value,
        "source": observation.source,
        "port": observation.port,
        "timestamp": observation.timestamp,
        "asn": observation.asn,
        "fields": observation.fields_dict(),
    }


def _coerce_int(value: object, field: str, record: dict) -> int:
    """Coerce an integer field exactly; reject bools, floats and junk.

    JSON has one number type, and hand-written records quote numbers often
    enough that ``"asn": "64512"`` must mean 64512 — but a float or a bool
    is never a valid ASN or port, and truncating one would corrupt the
    round-trip silently.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError as exc:
            raise DatasetError(
                f"malformed observation record ({field} {value!r} is not an integer): {record!r}"
            ) from exc
    raise DatasetError(
        f"malformed observation record ({field} {value!r} is not an integer): {record!r}"
    )


def _exact_fields(record: dict) -> tuple[tuple[str, str], ...]:
    """Validate and normalise the identifier fields of one record.

    Values must already be strings: coercing (say) a JSON number through
    ``str()`` would make ``load(save(load(x)))`` differ from ``load(x)``
    whenever the coercion is not the identity.
    """
    fields = record.get("fields", {})
    if not isinstance(fields, dict):
        raise DatasetError(f"malformed observation record (fields is not an object): {record!r}")
    for key, value in fields.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise DatasetError(
                f"malformed observation record (non-string field {key!r}: {value!r}): {record!r}"
            )
    return tuple(sorted(fields.items()))


def observation_from_dict(record: dict) -> Observation:
    """Rebuild an observation from its dict form (exact inverse of
    :func:`observation_to_dict`).

    ``address`` and ``source`` must be strings and ``timestamp`` a number
    other than a bool: coercing any of them would break the exact
    round-trip.
    """
    if not isinstance(record, dict):
        raise DatasetError(f"malformed observation record (not an object): {record!r}")
    try:
        address = record["address"]
        protocol = SERVICE_TYPES_BY_VALUE[record["protocol"]]
        source = record["source"]
        port = record["port"]
        timestamp = record.get("timestamp", 0.0)
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"malformed observation record: {record!r}") from exc
    if not isinstance(address, str) or not isinstance(source, str):
        raise DatasetError(
            f"malformed observation record (address and source must be strings): {record!r}"
        )
    if type(port) is not int:
        port = _coerce_int(port, "port", record)
    asn = record.get("asn")
    if asn is not None and type(asn) is not int:
        asn = _coerce_int(asn, "asn", record)
    if type(timestamp) is not float:
        if isinstance(timestamp, bool):
            raise DatasetError(
                f"malformed observation record (timestamp {timestamp!r} is not a number): {record!r}"
            )
        try:
            timestamp = float(timestamp)
        except (ValueError, TypeError) as exc:
            raise DatasetError(f"malformed observation record: {record!r}") from exc
    return Observation(
        address=address,
        protocol=protocol,
        source=source,
        port=port,
        timestamp=timestamp,
        asn=asn,
        fields=_exact_fields(record),
    )


def dataset_header(name: str) -> dict:
    """The header record embedding a dataset's name in its file."""
    return {DATASET_HEADER_KEY: DATASET_FORMAT_VERSION, "name": name}


def save_observations(dataset: ObservationDataset, path: str | Path) -> int:
    """Write a dataset to a JSON-lines file; returns the observation count.

    The first line is a header record carrying the dataset name, so the
    file can be renamed or copied without relabelling the source (parent
    directories are created, matching :func:`save_alias_sets`).
    """
    records = itertools.chain(
        (dataset_header(dataset.name),),
        (observation_to_dict(observation) for observation in dataset),
    )
    return write_jsonl(path, records) - 1


def load_observations(path: str | Path, name: str | None = None) -> ObservationDataset:
    """Load a dataset from a JSON-lines file.

    The dataset name is taken from (in order of preference) the ``name``
    argument, the file's header record, and — for headerless files — the
    file stem.
    """
    observations: list[Observation] = []
    header_name: str | None = None
    for position, record in enumerate(read_jsonl(path)):
        if position == 0 and isinstance(record, dict) and DATASET_HEADER_KEY in record:
            version = record[DATASET_HEADER_KEY]
            if not isinstance(version, int) or version > DATASET_FORMAT_VERSION:
                raise DatasetError(
                    f"{path}: unsupported dataset format version {version!r}"
                )
            header_name = record.get("name")
            if not isinstance(header_name, str):
                raise DatasetError(f"{path}: dataset header carries no name: {record!r}")
            continue
        observations.append(observation_from_dict(record))
    return ObservationDataset(name or header_name or Path(path).stem, observations)


def save_alias_sets(collection: AliasSetCollection, path: str | Path) -> None:
    """Write an alias-set collection to a JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "name": collection.name,
        "address_asn": collection.address_asn,
        "sets": [
            {
                "identifier": alias_set.identifier,
                "addresses": sorted(alias_set.addresses),
                "protocols": sorted(protocol.value for protocol in alias_set.protocols),
            }
            for alias_set in collection
        ],
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")


def load_alias_sets(path: str | Path) -> AliasSetCollection:
    """Load an alias-set collection from a JSON document.

    Raises:
        DatasetError: if the file is missing or unreadable, or is not a JSON
            object of the shape :func:`save_alias_sets` writes.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"alias-set file {path} does not exist")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(document, dict):
            raise DatasetError(f"alias-set document {path} is not a JSON object")
        collection = AliasSetCollection(
            document["name"], address_asn={k: int(v) for k, v in document.get("address_asn", {}).items()}
        )
        for entry in document["sets"]:
            addresses = entry["addresses"]
            if not isinstance(addresses, list):
                raise DatasetError(f"malformed alias-set document {path} (addresses {addresses!r})")
            collection.add(
                AliasSet(
                    identifier=entry["identifier"],
                    addresses=frozenset(addresses),
                    protocols=frozenset(
                        SERVICE_TYPES_BY_VALUE[value] for value in entry.get("protocols", [])
                    ),
                )
            )
        return collection
    except OSError as exc:
        raise DatasetError(f"cannot read alias-set file {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DatasetError(f"malformed alias-set document {path}") from exc
