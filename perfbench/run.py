#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``cold-paper``, ``archive-warm`` and
``stream-checkpoint`` (see ``perfbench/README.md``).  With ``--trace 0``
the run measures the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each op's outputs are checked against the digests shipped in
``perfbench/digests.json``; a mismatch or an exception is a failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import dataclasses
import gc
import json
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

from spans import EXACT_COUNTS, PER_LAYER, Tracer, instrumented, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
#: Default scenario scale; the shipped digests are for this scale.
DEFAULT_SCALE = 0.25
#: Untraced ops run at least this many times, traced runs at least this
#: many (untraced, traced) pairs, however short ``--seconds`` is.
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
#: No new op starts this long after the process started, so that a run
#: ends well inside three minutes even when ops are slow or failing.
HARD_LIMIT_S = 120.0
#: What the calibration kernel takes at the reference speed (seconds).
REFERENCE_KERNEL_S = 0.11

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "ingest_obs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("cold-paper", "archive-warm", "stream-checkpoint")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help=f"scenario scale (default {DEFAULT_SCALE})"
    )
    return parser.parse_args(argv)


class Heap:
    """Releases the heap between ops and reads the peak RSS of each op."""

    def __init__(self) -> None:
        name = ctypes.util.find_library("c")
        self._libc = ctypes.CDLL(name) if name else None
        self._trim = self._libc is not None and hasattr(self._libc, "malloc_trim")

    def release(self) -> None:
        """Collect garbage and hand freed arenas back to the system."""
        gc.collect()
        if self._trim:
            self._libc.malloc_trim(0)

    @staticmethod
    def reset_peak() -> None:
        with contextlib.suppress(OSError):
            Path("/proc/self/clear_refs").write_text("5")

    @staticmethod
    def peak_mb() -> float:
        try:
            status = Path("/proc/self/status").read_text()
            return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024
        except (OSError, AttributeError):
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SpeedGauge:
    """Scales wall times to a reference machine speed.

    On a shared virtual machine the CPU's speed drifts by tens of percent
    over seconds and minutes, for all work alike.  A fixed kernel that
    uses only the standard library (so no change to the program can speed
    it up) runs before the first and after every timed section; a
    section's wall time is multiplied by ``REFERENCE_KERNEL_S`` over the
    mean of the kernel times just before and just after it.  The scaled
    time is the section's time at the speed where the kernel takes
    ``REFERENCE_KERNEL_S``.

    The kernel has two halves, because the program is both interpreter-
    and memory-bound: building and sorting a dict of string keys, and
    reading a 32 MB array at random places.  Neither half alone tracks
    the drift as closely as their sum.
    """

    def __init__(self) -> None:
        self._table = array("q", range(4_000_000))
        self._reads = array("q", random.Random(3).sample(range(len(self._table)), 150_000))
        #: Resident bytes the gauge itself holds (excluded from peak RSS).
        self.resident_bytes = sum(a.itemsize * len(a) for a in (self._table, self._reads))
        #: The latest kernel time, which opens the next timed section.
        self.last = self.kernel()

    def kernel(self) -> float:
        """Seconds the kernel takes now.

        The cyclic garbage collector is off while it runs: a collection
        would walk the workload's live objects, and the kernel would then
        time the size of the heap instead of the speed of the machine.
        """
        gc.disable()
        try:
            start = time.perf_counter()
            rng = random.Random(7)
            keys: dict[str, list[tuple[int, float]]] = {}
            for i in range(40_000):
                key = f"10.{i % 251}.{i % 241}.{rng.getrandbits(8)}"
                keys.setdefault(key, []).append((i, rng.random()))
            sorted(keys.items())
            table = self._table
            total = 0
            for index in self._reads:
                total += table[index]
            return time.perf_counter() - start
        finally:
            gc.enable()

    def factor(self) -> float:
        """Close a timed section: the factor that scales its wall times."""
        before, self.last = self.last, self.kernel()
        return REFERENCE_KERNEL_S / ((before + self.last) / 2)


def scaled(result, factor: float):
    """``result`` with every time multiplied by ``factor``."""
    return dataclasses.replace(
        result,
        seconds=result.seconds * factor,
        ingest_seconds=result.ingest_seconds * factor,
        phases={name: [value * factor for value in values] for name, values in result.phases.items()},
    )


_STARTED = time.perf_counter()


def in_time() -> bool:
    """Whether another op may still start (see ``HARD_LIMIT_S``)."""
    return time.perf_counter() - _STARTED < HARD_LIMIT_S


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def report_line(name: str, values: list[float], unit: str) -> str:
    q1, mid, q3 = quartiles(values)
    return f"  {name:<28} {mid:>14.6g} {unit:<6} [q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]"


class Runner:
    """Runs one workload's loop and collects what each op measured.

    ``results`` hold the untraced ops, with times scaled to the reference
    speed; ``wall`` and ``factors`` keep each one's wall time and factor.
    """

    def __init__(self, workload, expected: dict | None, heap: Heap, gauge: SpeedGauge) -> None:
        self.workload = workload
        self.expected = expected
        self.heap = heap
        self.gauge = gauge
        self.results = []
        self.wall: list[float] = []
        self.factors: list[float] = []
        self.peaks: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, tracer: Tracer | None = None):
        """One op from a released heap: ``(scaled result, factor)`` or ``None``.

        Without shipped digests, the first op's outputs become the
        reference the later ops of the run are checked against.
        """
        self.heap.release()
        self.heap.reset_peak()
        self.attempted += 1
        try:
            if tracer is None:
                result = self.workload.op()
            else:
                with instrumented(tracer), tracer.span("op"):
                    result = self.workload.op()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            self.gauge.factor()
            return None
        peak = self.heap.peak_mb() - self.gauge.resident_bytes / 2**20
        factor = self.gauge.factor()
        problems = self.workload.check(result, self.expected)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"output check failed: {problem}", file=sys.stderr)
            return None
        if self.expected is None:
            self.expected = result.outputs
        wall, result = result.seconds, scaled(result, factor)
        if tracer is None:
            self.results.append(result)
            self.wall.append(wall)
            self.factors.append(factor)
            self.peaks.append(peak)
        return result, factor


def traced_loop(runner: Runner, deadline: float, args) -> tuple[dict, list[str]]:
    """Alternate untraced and traced ops; return per-layer metrics."""
    per_op: list[dict[str, float]] = []
    traced_seconds: list[float] = []
    problems: list[str] = []
    while (len(per_op) < MIN_TRACED_PAIRS or time.perf_counter() < deadline) and in_time():
        runner.run()
        tracer = Tracer()
        traced = runner.run(tracer)
        if traced is None:
            continue
        result, factor = traced
        total, own = tracer.summary(0)
        metrics = layer_metrics(total, own, tracer.counts, result.seconds / factor)
        # The in-run references (the stream's batch oracle) time the
        # longitudinal layer.
        oracle = Tracer()
        with instrumented(oracle), oracle.span("references"):
            runner.workload.references()
        batch = oracle.summary(0)[0]["longitudinal.resolve"]
        metrics["longitudinal.resolve_s"] = batch
        streamed = metrics["stream.sync_s"] + metrics["stream.flush_s"]
        metrics["stream.vs_batch"] = streamed / batch if batch else 0.0
        for name, (unit, _) in PER_LAYER.items():
            if unit == "s":
                metrics[name] *= factor
        for key in ("v4_pair_precision", "v4_pair_recall", "v6_pair_precision"):
            metrics[f"core.{key}"] = result.counts.get(key, 0.0)
        if not per_op:
            write_spans(tracer, args)
        per_op.append(metrics)
        traced_seconds.append(result.seconds)
    if len(per_op) < MIN_TRACED_PAIRS:
        return dict.fromkeys(PER_LAYER, 0.0), ["too few traced ops succeeded"]
    first = per_op[0]
    for key in EXACT_COUNTS:
        differing = [op[key] for op in per_op if op[key] != first[key]]
        if differing:
            problems.append(f"{key} differs between traced ops: {first[key]} vs {differing[0]}")
    untraced = median([result.seconds for result in runner.results])
    overhead = median(traced_seconds) / untraced - 1 if untraced else 0.0
    layers = {
        name: overhead if name == "trace.overhead" else median([op[name] for op in per_op])
        for name in PER_LAYER
    }
    return layers, problems


def write_spans(tracer: Tracer, args) -> None:
    """Write one traced op's spans (JSON lines, wall seconds) beside the benchmark."""
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for record in tracer.records(0):
            handle.write(json.dumps(record) + "\n")


def end_to_end(runner: Runner, setup_s: float) -> dict[str, list[float]]:
    results = runner.results
    return {
        "setup_s": [setup_s],
        "op_s": [result.seconds for result in results],
        "ingest_obs_per_s": [
            result.ingest_observations / result.ingest_seconds for result in results
        ],
        "peak_rss_mb": runner.peaks,
    }


def workload_lines(runner: Runner) -> list[str]:
    """The workload-specific figures, printed but not part of the JSON."""
    lines = [
        report_line("op_wall_s", runner.wall, "s"),
        report_line("speed_factor", runner.factors, "ratio"),
    ]
    phases: dict[str, list[float]] = {}
    counts: dict[str, list[float]] = {}
    for result in runner.results:
        for name, values in result.phases.items():
            phases.setdefault(name, []).extend(values)
        for name, value in result.counts.items():
            counts.setdefault(name, []).append(value)
    for name, values in phases.items():
        if name == "poll_s":
            lines.append(report_line("poll_p50_ms", [v * 1000 for v in values], "ms"))
        else:
            lines.append(report_line(name, values, "s"))
    if runner.workload.name == "archive-warm":
        rates = [r.ingest_observations / r.ingest_seconds for r in runner.results]
        lines.append(report_line("archive_obs_per_s", rates, "1/s"))
    for name, values in counts.items():
        lines.append(report_line(name, values, "count" if name.endswith("probes") else "ratio"))
    frac = runner.failed / runner.attempted if runner.attempted else 0.0
    lines.append(report_line("ops_failed_frac", [frac], "ratio"))
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads  # the program's packages load here
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_wall = time.perf_counter() - started
    try:
        shipped = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read the shipped digests {DIGESTS}: {exc}", file=sys.stderr)
        return 2

    # The run's inputs are the scenario of one seed of the shipped bank.
    seed = args.seed % shipped["seed_bank"]
    expected = None
    if args.scale == shipped["scale"]:
        expected = shipped["seeds"][str(seed)][args.workload]
    else:
        print(f"no shipped digests at scale {args.scale}; checking in-run consistency only")

    work_dir = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    heap = Heap()
    gauge = SpeedGauge()
    import_s = import_wall * REFERENCE_KERNEL_S / gauge.last
    try:
        workload = workloads.WORKLOADS[args.workload](args.scale, seed, work_dir)
        setups = []
        for _ in range(workload.setup_repeats):
            heap.release()
            begin = time.perf_counter()
            workload.prepare()
            setups.append((time.perf_counter() - begin) * gauge.factor())
        setup_s = import_s + median(setups)
        workload.references()

        runner = Runner(workload, expected, heap, gauge)
        deadline = time.perf_counter() + args.seconds
        problems: list[str] = []
        if args.trace:
            metrics, problems = traced_loop(runner, deadline, args)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            while (runner.attempted < MIN_OPS or time.perf_counter() < deadline) and in_time():
                runner.run()
            samples = end_to_end(runner, setup_s)
            metrics = {name: median(values) for name, values in samples.items()}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} (scenario seed {seed}, scale {args.scale}): "
        f"{runner.attempted} ops, {runner.failed} failed; times at the reference speed"
    )
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<28} {value:>14.6g} {units[name]}")
    else:
        for name, values in samples.items():
            print(report_line(name, values, units[name]))
        for line in workload_lines(runner):
            print(line)
    correct = runner.failed == 0 and not problems and bool(runner.results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
