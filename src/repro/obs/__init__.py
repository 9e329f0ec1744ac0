"""Unified observability: span tracing, metrics, exportable telemetry.

The paper's case for eQASM is that an executable ISA makes the control
stack *inspectable* — its timing and feedback behaviour measurable on
the real machine.  This package is that instrumentation story for the
reproduction: one deterministic, near-free-when-disabled layer that
answers "where did the wall-clock go" across the engine matrix
(interpreter / replay tree / Pauli-frame batch, dense / stabilizer
plant) and the supervised serving stack.

Layer contract
--------------
* **Overhead guarantee.**  Observability is *off by default*.  A
  disabled hook is one ``if obs is not None`` branch (for the engine
  loops, inside the one timing helper ``QuMAv2._timed``) — no clock
  read, nothing recorded.  Enabled, hot per-shot paths
  record into histograms (two clock reads + one bucket increment per
  shot) rather than allocating spans; spans mark phases and rare
  events.  The feedback bench gates enabled-mode overhead (<= 5%
  recorded, <= 15% in CI) against the disabled mode.
* **Determinism guarantee.**  Metric values never depend on wall-clock
  except through metrics whose *name* says so: every timing metric's
  final name segment ends in ``_ns`` or ``_s``, and
  :func:`~repro.obs.metrics.filter_timing` strips exactly those.  Two
  identical seeded runs yield byte-identical filtered snapshots
  (snapshots are emitted in sorted-name order, so they diff cleanly).
  Span *sampling* uses a credit accumulator, never an RNG draw, so
  enabling tracing cannot perturb a seeded run.
* **Export formats.**  :meth:`Observability.export` writes three
  files: a metrics snapshot (``*_metrics.json``, sorted JSON dict), a
  Chrome ``trace_event`` trace (``*_trace.json``, a JSON array one
  event per line — opens directly in ``chrome://tracing`` and
  Perfetto, with worker processes as separate ``pid`` rows), and a
  plain JSONL structured event log (``*_events.jsonl``).
  ``python -m repro.obs report`` renders a markdown run report from
  the first two.

Enablement points: ``QuMAv2(observability=...)`` (machine + plant +
engine phases), ``ExperimentSetup.create(observability=...)``,
``SweepSpec(observe=True)`` (worker-side machine telemetry shipped
back through the result queue) and ``SweepService(observability=...)``
(driver-side dispatch/journal/supervision telemetry).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_S_BOUNDS,
    MetricsRegistry,
    TIME_NS_BOUNDS,
    exponential_bounds,
    filter_timing,
)
from repro.obs.observability import Observability
from repro.obs.report import load_chrome_trace, render_report
from repro.obs.tracing import EventRecord, SpanRecord, SpanTracer

__all__ = [
    "Counter",
    "EventRecord",
    "Gauge",
    "Histogram",
    "LATENCY_S_BOUNDS",
    "MetricsRegistry",
    "Observability",
    "SpanRecord",
    "SpanTracer",
    "TIME_NS_BOUNDS",
    "exponential_bounds",
    "filter_timing",
    "load_chrome_trace",
    "render_report",
]
