"""repro.obs — zero-dependency tracing, metrics, exporters and reports.

The observability subsystem threaded through every hot path of the
chip-to-serve pipeline:

* :mod:`repro.obs.trace` — nested spans with monotonic timestamps
  (``trace.span("solve", op=...)``), near-free when disabled, enabled by
  ``REPRO_TRACE`` or ``GramcChip(trace=...)``;
* :mod:`repro.obs.registry` — the unified counters/gauges/histograms
  registry that :class:`~repro.system.stats.ChipStats` and
  :class:`~repro.system.stats.ServiceStats` are views over;
* :mod:`repro.obs.export` — JSONL span streams, Chrome ``trace_event``
  JSON (Perfetto / ``chrome://tracing``), Prometheus text format;
* :mod:`repro.obs.cost` — per-solve cost capture (``result.cost``);
* :mod:`repro.obs.report` — ``solve_breakdown(result)``: the
  analog/conversion/digital/refinement/queue-wait time-and-energy table.
"""

from repro.obs import report, trace
from repro.obs.cost import CostAccumulator, SolveCost
from repro.obs.export import (
    ChromeTraceSink,
    JsonlSpanSink,
    chrome_trace,
    prometheus_text,
    spans_to_jsonl,
    write_chrome_trace,
)
from repro.obs.registry import MetricFamily, MetricsRegistry
from repro.obs.report import solve_breakdown
from repro.obs.trace import Span, Tracer, configure, configure_from_env, get_tracer, set_tracer

__all__ = [
    "ChromeTraceSink",
    "CostAccumulator",
    "JsonlSpanSink",
    "MetricFamily",
    "MetricsRegistry",
    "SolveCost",
    "Span",
    "Tracer",
    "chrome_trace",
    "configure",
    "configure_from_env",
    "get_tracer",
    "prometheus_text",
    "report",
    "set_tracer",
    "solve_breakdown",
    "spans_to_jsonl",
    "trace",
    "write_chrome_trace",
]

