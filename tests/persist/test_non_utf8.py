"""Files that are not UTF-8 text fail with typed errors on every read path."""

import pytest

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.errors import PersistError
from repro.persist.files import read_json_document
from repro.persist.session import load_session, save_session

#: Valid JSON structure around a byte that can never start a UTF-8 sequence.
_NOT_UTF8 = b'{"version": 1, "name": "\xff"}\n'


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    session = ReproSession(ScenarioConfig(scale=0.05, seed=7))
    session.report("active")
    directory = tmp_path_factory.mktemp("session") / "saved"
    save_session(session, directory)
    return directory


def test_read_json_document_raises_persist_error(tmp_path):
    target = tmp_path / "doc.json"
    target.write_bytes(_NOT_UTF8)
    with pytest.raises(PersistError, match="not UTF-8"):
        read_json_document(target, "fixture")


@pytest.mark.parametrize("relative", ["datasets/000.jsonl", "reports/000.json", "session.json"])
def test_load_session_raises_persist_error(saved, tmp_path, relative):
    copy = tmp_path / "copy"
    for path in saved.rglob("*"):
        if path.is_file():
            target = copy / path.relative_to(saved)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    (copy / relative).write_bytes(_NOT_UTF8)
    with pytest.raises(PersistError, match="UTF-8"):
        load_session(copy)
