"""Observability: structured trace spans, metrics, exporters.

See :mod:`repro.obs.trace` for the span model, :mod:`repro.obs.metrics`
for the process-wide registry, and :mod:`repro.obs.export` for the JSON
/ Chrome trace formats.
"""

from .export import (
    chrome_trace_events,
    load_trace_schema,
    render_tree,
    span_to_dict,
    trace_to_dict,
    validate_trace,
    write_chrome_trace,
    write_json_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HitMissStats,
    MetricsRegistry,
    metrics,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    OperatorSpanScope,
    Span,
    Tracer,
    iter_spans,
    note,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HitMissStats",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OperatorSpanScope",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "iter_spans",
    "load_trace_schema",
    "metrics",
    "note",
    "render_tree",
    "span_to_dict",
    "trace_to_dict",
    "validate_trace",
    "write_chrome_trace",
    "write_json_trace",
]
