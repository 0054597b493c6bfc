"""Unified observability: metrics, request tracing, lifecycle events.

The three concerns live in three leaf modules (no imports from the
rest of ``repro``, so every layer can depend on them without cycles):

* :mod:`repro.obs.metrics` -- fixed-log-bucket latency histograms
  in a :class:`~repro.obs.metrics.MetricsRegistry`,
  plus the single kind registry behind ``COUNTER_KINDS`` /
  ``WIRE_COUNTER_KEYS`` / ``FAULT_COUNTER_KEYS`` / admission keys.
* :mod:`repro.obs.trace` -- sampling per-request trace/span ids that
  propagate through ``QueryRequest`` and the fabric wire, exportable
  as Chrome-trace-event JSON (Perfetto-viewable).
* :mod:`repro.obs.events` -- a bounded structured event log (in-memory
  ring + optional JSONL sink) for worker/breaker/migration lifecycle.

See ``docs/OBSERVABILITY.md`` for the full contract.
"""

from repro.obs.events import EventLog, default_events, emit, set_default_events
from repro.obs.metrics import (
    LatencyHistogram,
    MetricsRegistry,
    counter_kinds,
    kind_registry,
    register_counters,
    register_keys,
)
from repro.obs.trace import (
    DEFAULT_SAMPLE_RATE,
    SpanSink,
    Tracer,
    chrome_trace_events,
    configure_tracing,
    disable_tracing,
    export_chrome_trace,
    finish_span,
    get_sink,
    get_tracer,
    install_sink,
    span,
    start_span,
)

__all__ = [
    "DEFAULT_SAMPLE_RATE",
    "EventLog",
    "LatencyHistogram",
    "MetricsRegistry",
    "SpanSink",
    "Tracer",
    "chrome_trace_events",
    "configure_tracing",
    "counter_kinds",
    "default_events",
    "disable_tracing",
    "emit",
    "export_chrome_trace",
    "finish_span",
    "get_sink",
    "get_tracer",
    "install_sink",
    "kind_registry",
    "register_counters",
    "register_keys",
    "set_default_events",
    "span",
    "start_span",
]
