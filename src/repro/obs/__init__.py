"""Simulation-native observability: metrics, sim-time spans, trace export.

The package has three layers:

* :mod:`repro.obs.metrics` — counters, time-weighted gauges and streaming
  histograms behind a :class:`MetricsRegistry`,
* :mod:`repro.obs.tracer` — a sim-time span :class:`Tracer` (explicit
  timestamps, since DES processes interleave on one OS thread),
* :mod:`repro.obs.export` — Chrome / Perfetto trace-event JSON output.

An :class:`Observer` bundles one registry and one tracer; instrumented code
(`repro.sim`, `repro.cluster`) accepts an observer and is a no-op without
one.  ``python -m repro.experiments <exp> --trace out.json --metrics``
installs a default observer, reruns any experiment with full visibility,
and exports the result.

Second-generation telemetry rides on the same observer, armed per unit:

* :mod:`repro.obs.timeline` — deterministic sim-time sampling of the
  registry into mergeable time series (``--timeline``),
* :mod:`repro.obs.profile` — wall-clock profiler over the engine dispatch
  loop (``--profile``; nondeterministic by nature, never cached),
* :mod:`repro.obs.flightrec` — bounded ring of recent engine events dumped
  as a postmortem bundle on invariant/repair/compute failures
  (``--flightrec DIR``),
* :mod:`repro.obs.report` — self-contained HTML run reports and cross-run
  diffs (``--report``, ``python -m repro.obs.report``).
"""

from repro.obs.export import chrome_trace, chrome_trace_events, write_chrome_trace
from repro.obs.flightrec import FLIGHTREC_SCHEMA, FlightRecorder, attach_flightrec
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metric_name,
)
from repro.obs.observer import (
    EngineHooks,
    Observer,
    get_default_observer,
    observed,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    Profiler,
    attach_profiler,
    merge_profiles,
    profile_bench_section,
    summarize_profile,
)
from repro.obs.report import diff_docs, render_diff, render_report, write_report
from repro.obs.snapshot import (
    merge_snapshots,
    merge_trace_events,
    snapshot,
    summarize,
)
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    Timeline,
    attach_timeline,
    merge_timelines,
)
from repro.obs.tracer import Span, SpanHandle, Tracer

__all__ = [
    "FLIGHTREC_SCHEMA",
    "PROFILE_SCHEMA",
    "TIMELINE_SCHEMA",
    "FlightRecorder",
    "Profiler",
    "Timeline",
    "attach_flightrec",
    "attach_profiler",
    "attach_timeline",
    "diff_docs",
    "merge_profiles",
    "merge_timelines",
    "profile_bench_section",
    "render_diff",
    "render_report",
    "summarize_profile",
    "write_report",
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_metric_name",
    "EngineHooks",
    "Observer",
    "get_default_observer",
    "merge_snapshots",
    "merge_trace_events",
    "observed",
    "snapshot",
    "summarize",
    "Span",
    "SpanHandle",
    "Tracer",
]
