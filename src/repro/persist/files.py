"""File primitives shared by the persist modules.

Every persisted artifact is written atomically (temp file + ``os.replace``)
so an interrupted save never destroys a previously valid file, and every
JSON document is read through one helper so missing files, unreadable
files, non-UTF-8 files and invalid JSON all surface as
:class:`~repro.errors.PersistError` with consistent wording.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import PersistError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sources.records import ObservationDataset


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` then atomically replace ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(path.suffix + ".tmp")
    temporary.write_text(text, encoding="utf-8")
    os.replace(temporary, path)


def save_observations_atomic(dataset: "ObservationDataset", path: str | Path) -> int:
    """Atomic :func:`repro.io.datasets.save_observations` (temp + replace)."""
    from repro.io.datasets import save_observations

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(path.suffix + ".tmp")
    count = save_observations(dataset, temporary)
    os.replace(temporary, path)
    return count


def read_json_document(path: str | Path, what: str) -> dict[str, Any]:
    """Read one JSON document, translating every failure to PersistError.

    The document must be a JSON object: every persisted artifact is a
    versioned mapping, so a bare array/scalar at the top level is corrupt.
    """
    path = Path(path)
    if not path.exists():
        raise PersistError(f"{what} {path} does not exist")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise PersistError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PersistError(f"{what} {path} is not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise PersistError(f"{what} {path} is not valid JSON") from exc
    if not isinstance(document, dict):
        raise PersistError(f"{what} {path} is not a JSON object")
    return document
