"""JSON-lines helpers.

Scan datasets are append-friendly streams of records, so JSON-lines is the
natural on-disk format (it is also what ZGrab2 and Censys exports use).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import DatasetError

#: The one encoder every written line goes through; its output is exactly
#: ``json.dumps(record, sort_keys=True)``, without building an encoder per
#: record.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)

#: The one decoder every read line goes through (``json.loads`` minus its
#: per-call whitespace scans: lines are stripped first).
_LINE_DECODER = json.JSONDecoder()


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write ``records`` to ``path``, one JSON object per line.

    Lines are encoded and written one at a time, so ``records`` may be a
    generator of any length.  Returns the number of records written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    encode = _LINE_ENCODER.encode
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(encode(record) + "\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one dict per non-empty line of ``path``.

    Raises:
        DatasetError: if the file does not exist or cannot be read, is not
            UTF-8 text, or a line is not valid JSON.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    decode = _LINE_DECODER.raw_decode
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record, end = decode(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"{path}:{line_number}: invalid JSON") from exc
                if end != len(line):
                    raise DatasetError(f"{path}:{line_number}: invalid JSON (trailing data)")
                yield record
    except UnicodeDecodeError as exc:
        raise DatasetError(f"dataset file {path} is not UTF-8 text") from exc
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {path}: {exc}") from exc
