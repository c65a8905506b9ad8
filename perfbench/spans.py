"""Span tracing for the benchmark's traced runs.

The program under test carries no benchmark instrumentation of its own.
Instead, :func:`instrumented` replaces the public entry points of each
layer (the ``src/repro`` packages) with wrappers that record one span per
call, then restores the originals.  A span is kept in flat arrays (name,
parent, start, end) so that per-call spans on hot paths such as
``SimulatedInternet.connect`` stay cheap; counts of the work done are
recorded at the same boundaries.

A layer's *self time* is the span's duration minus the part of it its
child spans cover.  Spans nest strictly (one thread), so the covered part
is the sum of the direct children's durations.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from array import array
from collections import Counter

#: The layers, named after the ``src/repro`` packages they wrap.
LAYERS = (
    "simnet",
    "scanner",
    "protocols",
    "sources",
    "io",
    "core",
    "validation",
    "experiments",
    "persist",
    "longitudinal",
    "stream",
)


class Tracer:
    """In-memory span recorder with parent links and work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def summary(self, root: int) -> tuple[Counter[str], Counter[str]]:
        """Total and self seconds per span name inside the span ``root``.

        Spans recorded after ``root`` opened and before it closed are its
        descendants, because spans nest strictly.
        """
        end = len(self.names)
        child_time = [0.0] * (end - root)
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for index in range(end - 1, root - 1, -1):
            duration = self.ends[index] - self.starts[index]
            name = self.names[index]
            total[name] += duration
            own[name] += duration - child_time[index - root]
            parent = self.parents[index]
            if parent >= root:
                child_time[parent - root] += duration
        return total, own

    def records(self, root: int) -> list[dict]:
        """The spans under ``root`` as plain dicts (for writing out)."""
        return [
            {
                "id": index,
                "name": self.names[index],
                "parent": self.parents[index],
                "start": self.starts[index] - self.starts[root],
                "end": self.ends[index] - self.starts[root],
            }
            for index in range(root, len(self.names))
        ]


def _wrap(tracer: Tracer, name, fn, after=None):
    """A span-recording wrapper; ``name`` may be a function of the call."""

    def wrapper(*args, **kwargs):
        index = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer.counts, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_connect(counts, args, kwargs, result):
    counts["simnet.connect_calls"] += 1


def _count_zmap(counts, args, kwargs, result):
    counts["scanner.zmap_targets"] += len(args[1])


def _count_grab(counts, args, kwargs, result):
    counts["scanner.grabs"] += len(args[2])
    counts["scanner.identified"] += sum(1 for record in result if record.has_identifier)


def _count_observations(counts, args, kwargs, result):
    counts["sources.observations"] += len(result)


def _count_load(counts, args, kwargs, result):
    counts["io.bytes_read"] += _path_size(args[0])


def _count_write_atomic(counts, args, kwargs, result):
    """``write_atomic(path, text)``."""
    counts["persist.writes"] += 1
    counts["persist.bytes_written"] += _path_size(args[0])


def _count_save_atomic(counts, args, kwargs, result):
    """``save_observations_atomic(dataset, path)``."""
    counts["persist.writes"] += 1
    counts["persist.bytes_written"] += _path_size(args[1])


def _count_stream_events(counts, args, kwargs, result):
    updates = result if isinstance(result, tuple) else (result,)
    counts["stream.events"] += sum(len(update.events) for update in updates)


def _resolve_name(args, kwargs):
    return f"core.resolve.{kwargs.get('name', args[1] if len(args) > 1 else 'report')}"


def _counting(counts, key, iterable):
    for item in iterable:
        counts[key] += 1
        yield item


def _wrap_resolve(tracer: Tracer, fn):
    """``run_alias_resolution`` consumes an iterator; count what it reads."""
    inner = _wrap(tracer, _resolve_name, fn)

    def wrapper(observations, *args, **kwargs):
        return inner(_counting(tracer.counts, "core.observations", observations), *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_validator(tracer: Tracer, fn):
    """Span ``run_validator`` and count probes at the outermost call.

    Composed validator specs call ``run_validator`` recursively; the
    probe counters of the run's banks are read around the outermost call
    only, so nothing is counted twice.
    """
    depth = [0]

    def probes(run):
        banks = run.banks().values()
        return sum(b.probes_issued for b in banks), sum(b.probes_reused for b in banks)

    def wrapper(run, *args, **kwargs):
        depth[0] += 1
        before = probes(run) if depth[0] == 1 else None
        index = tracer.open("validation.run")
        try:
            return fn(run, *args, **kwargs)
        finally:
            tracer.close(index)
            depth[0] -= 1
            if before is not None:
                issued, reused = probes(run)
                tracer.counts["validation.probes_issued"] += issued - before[0]
                tracer.counts["validation.probes_reused"] += reused - before[1]

    wrapper.__wrapped__ = fn
    return wrapper


def _targets():
    """(owner, attribute, span name or wrapper factory, counter) per entry point."""
    from repro.api.experiments import Experiment
    from repro.core import pipeline
    from repro.io import datasets
    from repro.longitudinal.campaign import LongitudinalCampaign
    from repro.longitudinal.engine import LongitudinalEngine
    from repro.persist import files, session, stream
    from repro.protocols.bgp.client import BgpScanClient
    from repro.protocols.snmp.client import SnmpScanClient
    from repro.protocols.ssh.client import SshScanClient
    from repro.scanner.zgrab import ZgrabScanner
    from repro.scanner.zmap import ZmapScanner
    from repro.simnet import topology
    from repro.simnet.network import SimulatedInternet
    from repro.sources import merge
    from repro.sources.active import ActiveMeasurement
    from repro.sources.censys import CensysSource
    from repro.stream.engine import StreamingEngine
    from repro.validation import runner

    return [
        (topology, "generate_topology", "simnet.generate", None),
        (SimulatedInternet, "connect", "simnet.connect", _count_connect),
        (ZmapScanner, "scan", "scanner.zmap", _count_zmap),
        (ZgrabScanner, "grab", "scanner.zgrab", _count_grab),
        (SshScanClient, "scan", "protocols.ssh", None),
        (BgpScanClient, "scan", "protocols.bgp", None),
        (SnmpScanClient, "scan", "protocols.snmp", None),
        (ActiveMeasurement, "run_ipv4", "sources.active", _count_observations),
        (ActiveMeasurement, "run_ipv6", "sources.active", _count_observations),
        (CensysSource, "snapshot_ipv4", "sources.censys", _count_observations),
        (CensysSource, "snapshot_ipv6", "sources.censys", _count_observations),
        (merge, "merge_datasets", "sources.merge", None),
        (datasets, "load_observations", "io.load", _count_load),
        (pipeline, "run_alias_resolution", _wrap_resolve, None),
        (runner, "run_validator", _wrap_validator, None),
        (Experiment, "run", "experiments.render", None),
        (session, "save_session", "persist.session_save", None),
        (session, "load_session", "persist.session_load", None),
        (stream.StreamCheckpointer, "save", "persist.checkpoint_save", None),
        (stream, "load_stream_checkpoint", "persist.checkpoint_load", None),
        (stream, "resume_stream", "stream.resume", None),
        (files, "write_atomic", "persist.write", _count_write_atomic),
        (files, "save_observations_atomic", "persist.write", _count_save_atomic),
        (LongitudinalCampaign, "resolve", "longitudinal.resolve", None),
        (LongitudinalEngine, "stage", "longitudinal.stage", None),
        (LongitudinalEngine, "derive", "longitudinal.derive", None),
        (StreamingEngine, "sync", "stream.sync", _count_stream_events),
        (StreamingEngine, "flush", "stream.flush", _count_stream_events),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block.

    Module-level functions are also replaced wherever a ``repro`` module
    imported them by name, since those bindings bypass the defining
    module's attribute.
    """
    patches: list[tuple[object, str, object]] = []
    try:
        for owner, attribute, name, after in _targets():
            original = getattr(owner, attribute)
            if callable(name):
                replacement = name(tracer, original)
            else:
                replacement = _wrap(tracer, name, original, after)
            if isinstance(owner, type):
                patches.append((owner, attribute, original))
                setattr(owner, attribute, replacement)
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "repro" and getattr(module, attribute, None) is original:
                    patches.append((module, attribute, original))
                    setattr(module, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


def layer_metrics(total: Counter[str], own: Counter[str], counts: Counter[str], op_seconds: float) -> dict[str, float]:
    """The per-layer numbers of one traced op (see ``per_layer`` in BENCHMARK.json)."""
    grabs = counts["scanner.grabs"]
    issued = counts["validation.probes_issued"]
    reused = counts["validation.probes_reused"]
    metrics = {
        "simnet.generate_s": total["simnet.generate"],
        "simnet.connect_calls": counts["simnet.connect_calls"],
        "simnet.connect_s": total["simnet.connect"],
        "scanner.zmap_s": total["scanner.zmap"],
        "scanner.zmap_targets": counts["scanner.zmap_targets"],
        "scanner.zgrab_s": own["scanner.zgrab"],
        "scanner.grabs": grabs,
        "scanner.identified_ratio": counts["scanner.identified"] / grabs if grabs else 0.0,
        "protocols.ssh_s": own["protocols.ssh"],
        "protocols.bgp_s": own["protocols.bgp"],
        "protocols.snmp_s": own["protocols.snmp"],
        "sources.active_s": total["sources.active"],
        "sources.censys_s": total["sources.censys"],
        "sources.merge_s": total["sources.merge"],
        "sources.observations": counts["sources.observations"],
        "io.load_s": total["io.load"],
        "io.bytes_read": counts["io.bytes_read"],
        "core.resolve_s.active": total["core.resolve.active"],
        "core.resolve_s.censys": total["core.resolve.censys"],
        "core.resolve_s.union": total["core.resolve.union"],
        "core.observations": counts["core.observations"],
        "validation.s": total["validation.run"],
        "validation.probes_issued": issued,
        "validation.probes_reused": reused,
        "validation.reuse_ratio": reused / (issued + reused) if issued + reused else 0.0,
        "experiments.render_s": own["experiments.render"],
        "persist.session_save_s": total["persist.session_save"],
        "persist.session_load_s": total["persist.session_load"],
        "persist.checkpoint_save_s": total["persist.checkpoint_save"],
        "persist.checkpoint_load_s": total["persist.checkpoint_load"],
        "persist.writes": counts["persist.writes"],
        "persist.bytes_written": counts["persist.bytes_written"],
        "stream.sync_s": total["stream.sync"],
        "stream.flush_s": total["stream.flush"],
        "stream.events": counts["stream.events"],
    }
    layer_self = Counter()
    for name, seconds in own.items():
        layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_self[layer] / op_seconds if op_seconds else 0.0
    return metrics


def _seconds(*names: str) -> dict[str, tuple[str, str]]:
    return {name: ("s", "lower") for name in names}


#: Every per-layer metric as name -> (unit, better), in report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    **_seconds("simnet.generate_s"),
    "simnet.connect_calls": ("count", "lower"),
    **_seconds("simnet.connect_s", "scanner.zmap_s"),
    "scanner.zmap_targets": ("count", "lower"),
    **_seconds("scanner.zgrab_s"),
    "scanner.grabs": ("count", "lower"),
    "scanner.identified_ratio": ("ratio", "higher"),
    **_seconds(
        "protocols.ssh_s",
        "protocols.bgp_s",
        "protocols.snmp_s",
        "sources.active_s",
        "sources.censys_s",
        "sources.merge_s",
    ),
    "sources.observations": ("count", "higher"),
    **_seconds("io.load_s"),
    "io.bytes_read": ("bytes", "lower"),
    **_seconds("core.resolve_s.active", "core.resolve_s.censys", "core.resolve_s.union"),
    "core.observations": ("count", "higher"),
    "core.v4_pair_precision": ("ratio", "higher"),
    "core.v4_pair_recall": ("ratio", "higher"),
    "core.v6_pair_precision": ("ratio", "higher"),
    **_seconds("validation.s"),
    "validation.probes_issued": ("count", "lower"),
    "validation.probes_reused": ("count", "higher"),
    "validation.reuse_ratio": ("ratio", "higher"),
    **_seconds(
        "experiments.render_s",
        "persist.session_save_s",
        "persist.session_load_s",
        "persist.checkpoint_save_s",
        "persist.checkpoint_load_s",
    ),
    "persist.writes": ("count", "lower"),
    "persist.bytes_written": ("bytes", "lower"),
    **_seconds("stream.sync_s", "stream.flush_s"),
    "stream.events": ("count", "lower"),
    **_seconds("longitudinal.resolve_s"),
    "stream.vs_batch": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
    **{f"share.{layer}": ("ratio", "lower") for layer in LAYERS},
}

#: Per-layer metrics that count work: they must repeat exactly between two
#: traced ops of one seed.
EXACT_COUNTS = (
    "simnet.connect_calls",
    "scanner.zmap_targets",
    "scanner.grabs",
    "sources.observations",
    "io.bytes_read",
    "core.observations",
    "validation.probes_issued",
    "validation.probes_reused",
    "persist.writes",
    "stream.events",
)
