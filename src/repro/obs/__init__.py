"""Unified observability layer: metrics, spans, and structured events.

Every instrumented seam in the pipeline funnels through this module's
helpers, and every helper checks one module-level boolean first::

    from repro import obs

    obs.add("index.observations.indexed", len(batch))
    with obs.span("index.build", observations=len(batch)):
        ...

With observability **disabled** (the default) each call is a boolean check
and an immediate return — no allocation, no locking — so instrumentation
never taxes or perturbs a normal run: reports are byte-identical either
way (``tests/obs/test_parity.py`` holds all ten paper experiments to
that).

With observability **enabled**, samples land in the active
:class:`~repro.obs.registry.MetricsRegistry` and spans nest through
:mod:`repro.obs.trace`.  The usual entry point is :func:`observed`, which
installs a *fresh* registry for one scope and restores the previous state
afterwards — this is what the CLI ``--metrics FILE`` flag uses::

    with obs.observed() as registry:
        session.report("union")
    Path("out.json").write_text(json.dumps(registry.to_json()))
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.obs.events import EventSink
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import NOOP_SPAN, TRACER

__all__ = [
    "EventSink",
    "Histogram",
    "MetricsRegistry",
    "add",
    "disable",
    "emit",
    "enable",
    "is_enabled",
    "metrics",
    "observe",
    "observed",
    "reset",
    "set_gauge",
    "set_sink",
    "span",
    "trace",
]

_ENABLED = False
_REGISTRY = MetricsRegistry()
_SINK: EventSink | None = None


def metrics() -> MetricsRegistry:
    """The active process-wide registry (exists even when disabled)."""
    return _REGISTRY


def is_enabled() -> bool:
    """Whether instrumented seams are currently recording."""
    return _ENABLED


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn recording on, optionally swapping in a specific registry."""
    global _ENABLED, _REGISTRY
    if registry is not None:
        _REGISTRY = registry
    _ENABLED = True
    return _REGISTRY


def disable() -> None:
    """Turn recording off (the registry keeps its samples)."""
    global _ENABLED
    _ENABLED = False


def reset() -> MetricsRegistry:
    """Install a fresh empty registry (recording state is unchanged)."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    return _REGISTRY


def set_sink(sink: EventSink | None) -> EventSink | None:
    """Install (or clear) the structured event sink; returns the old one."""
    global _SINK
    previous, _SINK = _SINK, sink
    return previous


@contextlib.contextmanager
def observed(
    registry: MetricsRegistry | None = None,
    sink: EventSink | None = None,
) -> Iterator[MetricsRegistry]:
    """Record into a fresh (or given) registry for one scope, then restore.

    Whatever enable state, registry, and sink were active before the
    ``with`` block are reinstated afterwards, so scopes nest safely and a
    library caller cannot leak state into the host process.
    """
    global _ENABLED, _REGISTRY, _SINK
    previous = (_ENABLED, _REGISTRY, _SINK)
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    _SINK = sink if sink is not None else _SINK
    _ENABLED = True
    try:
        yield _REGISTRY
    finally:
        _ENABLED, _REGISTRY, _SINK = previous


# --------------------------------------------------------------------- #
# Hot-path helpers: one boolean check when disabled.
# --------------------------------------------------------------------- #
def add(name: str, amount: float = 1, **labels: object) -> None:
    """Increment a counter (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Record a histogram observation (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.observe(name, value, **labels)


def emit(event: str, **fields: object) -> None:
    """Write a structured event to the sink (no-op when disabled/unset)."""
    if _ENABLED and _SINK is not None:
        _SINK.emit(event, **fields)


def span(_span_name: str, **attrs: object):
    """Open a span nested under the current one (no-op when disabled).

    The positional parameter is underscore-prefixed so any label —
    including ``name`` — stays usable as a span attribute.
    """
    if _ENABLED:
        return TRACER.span(_REGISTRY, _span_name, **attrs)
    return NOOP_SPAN


def trace(_span_name: str, **attrs: object):
    """Open a root-flavoured span.

    Alias of :func:`span` — a span with no open parent *is* a root and
    records itself to the registry on close.  The separate name keeps call
    sites readable: ``trace`` at command/pipeline entry, ``span`` inside.
    """
    return span(_span_name, **attrs)
