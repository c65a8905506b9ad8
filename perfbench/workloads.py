"""The benchmark's three workloads.

Each workload is a closed loop of one caller: ``prepare`` builds the
inputs once (timed as set-up), ``op`` runs the timed part and returns an
:class:`OpResult` carrying its timings and the digests of everything it
produced, and ``check`` compares those digests with the references.

* ``cold-paper`` — a fresh session renders all ten experiments, the way a
  reproducer runs the paper.  Scans, handshakes and topology generation
  dominate; nothing is persisted or streamed.
* ``archive-warm`` — the "readily available scans" path: saved JSONL
  scans are loaded, resolved, persisted as a session and loaded back to
  render all ten experiments.  Nothing is scanned; io, core and one bulk
  persist save/load dominate.
* ``stream-checkpoint`` — pre-collected churning snapshots are fed to the
  streaming engine poll by poll, each poll checkpointed, and the last
  checkpoint is resumed.  Nothing is scanned; persist (many small writes
  plus one resume read), stream and longitudinal dominate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import time
from pathlib import Path

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.api.sources import ACTIVE_IPV4, ACTIVE_IPV6, CENSYS_IPV4
from repro.core.validation import ground_truth_accuracy
from repro.io import datasets
from repro.net.addresses import AddressFamily
from repro.persist import stream as persist_stream
from repro.persist.index import state_signature_digest
from repro.persist.report import report_signature_digest
from repro.stream.engine import StreamConfig, StreamingEngine

#: The reports every paper render draws on.
REPORT_NAMES = ("active", "censys", "union")
#: The scans the archive workload reads from files, as (spec, file name).
ARCHIVE_FILES = (
    (ACTIVE_IPV4, "active-ipv4.jsonl"),
    (ACTIVE_IPV6, "active-ipv6.jsonl"),
    (CENSYS_IPV4, "censys-ipv4.jsonl"),
)
#: Stream workload: snapshots per campaign and churn between snapshots.
SNAPSHOTS = 5
CHURN = 0.03


@dataclasses.dataclass
class OpResult:
    """What one timed op measured and produced.

    ``seconds`` is the whole timed part; ``ingest_seconds`` the part that
    carried ``ingest_observations`` observations from the workload's input
    into alias reports.  ``phases`` holds workload-specific timings (lists
    of seconds) and ``counts`` exact workload-specific counts.  ``outputs``
    are digests compared against the references.
    """

    seconds: float
    ingest_seconds: float
    ingest_observations: int
    phases: dict[str, list[float]]
    counts: dict[str, float]
    outputs: dict


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_digests(session: ReproSession) -> dict[str, str]:
    return {name: report_signature_digest(session.report(name)) for name in REPORT_NAMES}


def _diff(label: str, expected, actual) -> list[str]:
    """Human-readable differences between two digest structures."""
    if expected == actual:
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = sorted(set(expected) | set(actual))
        return [
            f"{label}.{key}: expected {str(expected.get(key))[:12]}, got {str(actual.get(key))[:12]}"
            for key in keys
            if expected.get(key) != actual.get(key)
        ]
    return [f"{label}: outputs differ from the reference"]


class Workload:
    """Shared shape of the three workloads."""

    name = ""
    #: Independent set-ups per run; set-up time is their median.
    setup_repeats = 1

    def __init__(self, scale: float, seed: int, work_dir: Path) -> None:
        self.config = ScenarioConfig(scale=scale, seed=seed)
        self.work_dir = work_dir
        self._accuracy: dict[str, float] | None = None

    def prepare(self) -> None:
        """Build the inputs the timed part reads (timed as set-up)."""

    def references(self) -> None:
        """Compute in-run reference outputs (not timed)."""

    def accuracy(self, session: ReproSession) -> dict[str, float]:
        """Pair precision and recall of the session's union report.

        Scored against the simulation's ground truth once per run: the
        inputs, and so the score, are the same on every op.
        """
        if self._accuracy is None:
            union = session.report("union")
            network = session.network
            v4 = ground_truth_accuracy(
                union.ipv4_union, network.ground_truth_alias_sets(AddressFamily.IPV4)
            )
            v6 = ground_truth_accuracy(
                union.ipv6_union, network.ground_truth_alias_sets(AddressFamily.IPV6)
            )
            self._accuracy = {
                "v4_pair_precision": v4["pair_precision"],
                "v4_pair_recall": v4["pair_recall"],
                "v6_pair_precision": v6["pair_precision"],
            }
        return self._accuracy

    def op(self) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult, expected: dict | None) -> list[str]:
        """Problems with one op's outputs; ``expected`` are shipped digests."""
        if expected is None:
            return []
        return _diff(self.name, expected, result.outputs)


class ColdPaper(Workload):
    """A fresh session renders all ten experiments."""

    name = "cold-paper"

    def op(self) -> OpResult:
        start = time.perf_counter()
        session = ReproSession(self.config)
        # The three reports first so that their time can be read apart
        # from rendering; the renders then hit the session's report cache,
        # so the work done equals a plain ``run_experiments()``.
        for name in REPORT_NAMES:
            session.report(name)
        ingested = time.perf_counter()
        renders = session.run_experiments()
        end = time.perf_counter()
        banks = session.validation_run.banks().values()
        return OpResult(
            seconds=end - start,
            ingest_seconds=ingested - start,
            ingest_observations=sum(len(session.dataset(spec)) for spec, _ in ARCHIVE_FILES),
            phases={"paper_s": [end - start]},
            counts={
                "validation_probes": sum(bank.probes_issued for bank in banks),
                **self.accuracy(session),
            },
            outputs={
                "reports": _report_digests(session),
                "renders": {name: digest(text) for name, text in renders.items()},
            },
        )


class ArchiveWarm(Workload):
    """Saved scans → three reports → session save → load → ten renders."""

    name = "archive-warm"
    setup_repeats = 3

    def prepare(self) -> None:
        archive = self.work_dir / "archive"
        session = ReproSession(self.config)
        for spec, file_name in ARCHIVE_FILES:
            datasets.save_observations(session.dataset(spec), archive / file_name)

    def op(self) -> OpResult:
        archive = self.work_dir / "archive"
        saved = self.work_dir / "session"
        shutil.rmtree(saved, ignore_errors=True)
        start = time.perf_counter()
        loaded = [
            (spec, datasets.load_observations(archive / file_name))
            for spec, file_name in ARCHIVE_FILES
        ]
        session = ReproSession(self.config)
        for spec, dataset in loaded:
            session.prime_dataset(spec, dataset)
        for name in REPORT_NAMES:
            session.report(name)
        resolved = time.perf_counter()
        session.save(saved)
        stored = time.perf_counter()
        warm = ReproSession.load(saved)
        renders = warm.run_experiments()
        end = time.perf_counter()
        return OpResult(
            seconds=end - start,
            ingest_seconds=resolved - start,
            ingest_observations=sum(len(dataset) for _, dataset in loaded),
            phases={"save_s": [stored - resolved], "warm_start_s": [end - stored]},
            counts=self.accuracy(warm),
            outputs={
                "reports": _report_digests(session),
                "loaded_reports": _report_digests(warm),
                "renders": {name: digest(text) for name, text in renders.items()},
            },
        )

    def check(self, result: OpResult, expected: dict | None) -> list[str]:
        problems = _diff(
            "warm-loaded reports", result.outputs["reports"], result.outputs["loaded_reports"]
        )
        return problems + super().check(result, expected)


class StreamCheckpoint(Workload):
    """Per poll: sync + flush + checkpoint; then load and resume the last one."""

    name = "stream-checkpoint"
    setup_repeats = 2

    def prepare(self) -> None:
        session = ReproSession(self.config)
        self.campaign = session.longitudinal(snapshots=SNAPSHOTS, churn_fraction=CHURN)
        self.captures = self.campaign.collect()

    def references(self) -> None:
        """The batch campaign's report of every snapshot (the stream's oracle)."""
        result = self.campaign.resolve(self.captures)
        self.batch = [report_signature_digest(snapshot.report) for snapshot in result.snapshots]

    def op(self) -> OpResult:
        checkpoints = self.work_dir / "checkpoint"
        shutil.rmtree(checkpoints, ignore_errors=True)
        campaign = self.campaign
        start = time.perf_counter()
        checkpointer = persist_stream.StreamCheckpointer(checkpoints, scenario=self.config)
        stream = StreamingEngine(StreamConfig(), options=campaign.options)
        emitted = []
        polls = []
        ingest = 0.0
        for completed, capture in enumerate(self.captures, start=1):
            poll_start = time.perf_counter()
            updates = stream.sync(capture.observations)
            if not updates:
                updates = (stream.flush(),)
            synced = time.perf_counter()
            checkpointer.save(
                campaign,
                stream,
                completed=completed,
                last_name=updates[-1].name,
                observations=capture.observations,
            )
            polls.append(time.perf_counter() - poll_start)
            ingest += synced - poll_start
            emitted.extend(updates)
        resume_start = time.perf_counter()
        loaded = persist_stream.load_stream_checkpoint(checkpoints)
        _, resumed = persist_stream.resume_stream(loaded)
        end = time.perf_counter()
        return OpResult(
            seconds=end - start,
            ingest_seconds=ingest,
            ingest_observations=sum(len(capture.observations) for capture in self.captures),
            phases={"poll_s": polls, "resume_s": [end - resume_start]},
            counts={},
            outputs={
                "emits": [report_signature_digest(update.report) for update in emitted],
                "index": state_signature_digest(stream.engine.index),
                "resumed_index": state_signature_digest(resumed.engine.index),
            },
        )

    def check(self, result: OpResult, expected: dict | None) -> list[str]:
        outputs = result.outputs
        problems = _diff("stream emits vs batch", self.batch, outputs["emits"])
        problems += _diff("resumed index", outputs["index"], outputs["resumed_index"])
        return problems + super().check(result, expected)


WORKLOADS = {workload.name: workload for workload in (ColdPaper, ArchiveWarm, StreamCheckpoint)}
