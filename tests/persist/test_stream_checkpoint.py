"""Stream checkpoints: kill the daemon mid-stream, resume, exact parity."""

import json

import pytest

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.core.engine import report_signature
from repro.errors import PersistError
from repro.persist.stream import (
    STREAM_MANIFEST,
    StreamCheckpointer,
    load_stream_checkpoint,
    resume_stream,
)
from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamConfig, StreamingEngine

_CONFIG = ScenarioConfig(scale=0.05, seed=7)
_POLLS = 4
_CHURN = 0.05


def _campaign(snapshots=_POLLS):
    return ReproSession(_CONFIG).longitudinal(
        snapshots=snapshots, churn_fraction=_CHURN
    )


def _daemon(campaign, polls, checkpointer=None, stream=None, start=0, previous=None):
    return StreamDaemon(
        campaign,
        stream or StreamingEngine(StreamConfig(), options=campaign.options),
        config=DaemonConfig(max_polls=polls),
        checkpointer=checkpointer,
        start=start,
        previous=previous,
    )


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference: one daemon run start to finish, no checkpointing."""
    daemon = _daemon(_campaign(), _POLLS)
    updates = daemon.run()
    return updates, daemon.stream


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """A daemon killed after two of four polls, checkpointing as it went."""
    directory = tmp_path_factory.mktemp("stream") / "checkpoint"
    campaign = _campaign()
    daemon = _daemon(campaign, 2, checkpointer=StreamCheckpointer(directory, _CONFIG))
    daemon.run()
    return directory


class TestCheckpointContents:
    def test_manifest_round_trip(self, checkpoint_dir):
        checkpoint = load_stream_checkpoint(checkpoint_dir)
        assert checkpoint.completed == 2
        assert checkpoint.last_name == "snapshot-1"
        assert checkpoint.scenario == _CONFIG
        assert checkpoint.campaign.churn_fraction == _CHURN
        assert checkpoint.stream == StreamConfig()
        assert checkpoint.include_ipv6 is True
        assert checkpoint.window["emitted"] == 2
        assert checkpoint.event_counts["report.emitted"] == 2
        assert len(checkpoint.last_observations) > 0

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(PersistError, match=STREAM_MANIFEST):
            load_stream_checkpoint(tmp_path)

    def test_torn_checkpoint_detected(self, checkpoint_dir, tmp_path):
        copy = tmp_path / "torn"
        copy.mkdir()
        for path in checkpoint_dir.iterdir():
            (copy / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((copy / STREAM_MANIFEST).read_text())
        manifest["index_signature"] = "0" * 64
        (copy / STREAM_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="torn"):
            load_stream_checkpoint(copy)

    def test_dangling_index_symbol_detected(self, checkpoint_dir, tmp_path):
        copy = tmp_path / "dangling"
        copy.mkdir()
        for path in checkpoint_dir.iterdir():
            (copy / path.name).write_bytes(path.read_bytes())
        index_path = copy / "index-0002.json"
        document = json.loads(index_path.read_text())
        document["buckets"][0]["members"][0][1][0] = len(document["addresses"]) + 5
        index_path.write_text(json.dumps(document))
        with pytest.raises(PersistError, match="address symbol"):
            load_stream_checkpoint(copy)

    def test_rotation_keeps_only_newest(self, checkpoint_dir):
        assert sorted(p.name for p in checkpoint_dir.glob("index-*.json")) == [
            "index-0002.json"
        ]
        assert sorted(p.name for p in checkpoint_dir.glob("poll-*.jsonl")) == [
            "poll-0002.jsonl"
        ]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(PersistError, match="at least one poll"):
            StreamCheckpointer(tmp_path, _CONFIG, keep=0)


class TestResumeGate:
    """The resume gate: killed + resumed == uninterrupted, byte for byte."""

    def test_resumed_daemon_matches_uninterrupted(self, checkpoint_dir, uninterrupted):
        reference_updates, reference_stream = uninterrupted
        checkpoint = load_stream_checkpoint(checkpoint_dir)
        campaign, stream = resume_stream(checkpoint)
        daemon = _daemon(
            campaign,
            _POLLS - checkpoint.completed,
            stream=stream,
            start=checkpoint.completed,
            previous=checkpoint.last_observations,
        )
        resumed_updates = daemon.run()
        assert [u.name for u in resumed_updates] == ["snapshot-2", "snapshot-3"]
        for update, reference in zip(
            resumed_updates,
            reference_updates[checkpoint.completed :],
            strict=True,
        ):
            assert report_signature(update.report) == report_signature(
                reference.report
            )
        # Cumulative event counts converge to the uninterrupted run's.
        assert stream.publisher.counts == reference_stream.publisher.counts
        # The estimator series continues as if never interrupted.
        assert stream.estimator.rate == pytest.approx(
            reference_stream.estimator.rate
        )
        assert stream.estimator.windows == reference_stream.estimator.windows

    def test_resume_continues_checkpointing(self, checkpoint_dir, tmp_path):
        checkpoint = load_stream_checkpoint(checkpoint_dir)
        campaign, stream = resume_stream(checkpoint)
        target = tmp_path / "continued"
        daemon = _daemon(
            campaign,
            1,
            checkpointer=StreamCheckpointer(target, checkpoint.scenario),
            stream=stream,
            start=checkpoint.completed,
            previous=checkpoint.last_observations,
        )
        daemon.run()
        final = load_stream_checkpoint(target)
        assert final.completed == 3
        assert final.window["emitted"] == 3
        assert final.event_counts["report.emitted"] == 3

    def test_crash_mid_save_keeps_previous_checkpoint(
        self, checkpoint_dir, tmp_path, monkeypatch
    ):
        copy = tmp_path / "crashy"
        copy.mkdir()
        for path in checkpoint_dir.iterdir():
            (copy / path.name).write_bytes(path.read_bytes())
        before = load_stream_checkpoint(copy)

        import repro.persist.stream as stream_module

        real_write_atomic = stream_module.write_atomic

        def dying_write_atomic(path, text):
            if str(path).endswith(STREAM_MANIFEST):
                raise OSError("simulated crash before the manifest landed")
            real_write_atomic(path, text)

        monkeypatch.setattr(stream_module, "write_atomic", dying_write_atomic)
        campaign, stream = resume_stream(before)
        daemon = _daemon(
            campaign,
            1,
            checkpointer=StreamCheckpointer(copy, before.scenario),
            stream=stream,
            start=before.completed,
            previous=before.last_observations,
        )
        with pytest.raises(OSError, match="simulated crash"):
            daemon.run()
        after = load_stream_checkpoint(copy)  # previous checkpoint intact
        assert after.completed == before.completed
        assert after.last_observations == before.last_observations
