"""Observability: flit-level probes, windowed counters, run telemetry.

The paper's claims rest on *where* flits spend their cycles — blocked
behind busy lanes, waiting in injection queues, crossing the cube's
bisection.  This package makes those places visible without taxing
uninstrumented runs:

* :mod:`repro.obs.probe` — the probe interface the engine calls at flit
  granularity (``Engine.attach_probe``); a no-op :class:`Probe` base, a
  ``NullProbe`` alias for overhead benchmarking and a :class:`MultiProbe`
  combinator.
* :mod:`repro.obs.trace` — :class:`TraceProbe`: a packet-lifecycle event
  trace exportable as JSONL and Chrome ``trace_event`` format
  (``chrome://tracing`` / Perfetto).
* :mod:`repro.obs.counters` — :class:`WindowedCounterProbe`: per-window,
  per-direction flit/blocked-cycle/occupancy counters that respect the
  measurement window.
* :mod:`repro.obs.telemetry` — :class:`RunTelemetry`: the provenance and
  performance record (config digest, seed, wall clock, cycles/sec, peak
  in-flight, per-phase wall-time split) attached to every
  :class:`~repro.sim.results.RunResult`.

On top of the per-run signals sits the aggregation tier:

* :mod:`repro.obs.ledger` — :class:`Ledger`: the append-only JSONL
  results store every ``--ledger`` CLI invocation feeds, queryable by
  config digest / network / pattern / time window, deduplicated by
  recipe digest + seed.
* :mod:`repro.obs.report` — the HTML reproduction scorecard: ledger
  curves rendered as inline SVG with the paper's Figure 5/6 saturation
  points overlaid and a per-figure fidelity score.
* :mod:`repro.obs.bench` — engine performance baselines
  (``BENCH_<host>.json``) and the ``bench --compare`` regression gate
  over overall and per-phase cycles/sec.
* :mod:`repro.obs.forensics` — the congestion-forensics tier:
  per-packet latency attribution (:class:`ForensicsProbe` et al.),
  wait-for graph sampling with deadlock-precursor detection, and
  per-link hotspot aggregation, feeding ``repro-net analyze`` and the
  scorecard's breakdown/heatmap panels.
* :mod:`repro.obs.heatmap` — stdlib-SVG rendering of the forensics
  document (hotspot heatmaps, latency-breakdown panel) and of flight
  timelines (stacked dynamics panels).
* :mod:`repro.obs.flight` — :class:`FlightRecorder`: the cross-layer
  flight recorder sampling one bounded per-interval timeline over
  engine, links, transport and control plane, with collapse-onset /
  fault / deadlock-precursor annotations, a live ``--watch`` hook and a
  JSONL event stream; the document rides on ``telemetry.flight``.
* :mod:`repro.obs.percentiles` — the shared latency-percentile
  formatting used by ``run --latencies``, ``analyze`` and the flight
  digests.
* :mod:`repro.obs.statehash` — :class:`StateDigestProbe`: the layered
  Merkle-style state-digest audit trail (per-lane leaves rolled up per
  link / node / subsystem into per-interval roots on a bounded hash
  chain), ``Engine.state_fingerprint()`` and the un-hashed
  :func:`state_snapshot` — the backend validation contract of
  DESIGN.md; the chain rides on ``telemetry.statehash``.
* :mod:`repro.obs.diff` — the divergence bisection debugger behind
  ``repro-net diff``: compares two digest chains, replays both configs
  to the exact first divergent cycle and names the subsystem, link,
  lane, flit or credit counter that differs.

CLI entry points: ``repro-net trace`` for instrumented single runs,
``repro-net run/sweep/trace --json`` for machine-readable results
including telemetry, ``--ledger`` on run/sweep/trace/faults for durable
result capture, ``repro-net report`` for the scorecard, ``repro-net
bench`` for the perf gate, and ``benchmarks/obs_overhead.py`` for the
probe-overhead smoke benchmark CI runs on every push.
"""

from .counters import CounterWindow, DirectionWindow, WindowedCounterProbe
from .probe import (
    Attach,
    Layer,
    MultiProbe,
    NullProbe,
    Probe,
    compose_probe,
    find_probe,
)
from .telemetry import PHASE_NAMES, RunTelemetry, config_digest
from .trace import EVENT_KINDS, TraceEvent, TraceProbe

# The aggregation tier (ledger/report/bench) sits *above* the simulation
# layer, while the probe/telemetry leaves sit *below* it (the engine
# imports repro.obs.telemetry).  Importing the tier eagerly here would
# close a cycle engine -> obs -> bench -> sim.run -> engine, so its names
# resolve lazily on first attribute access (PEP 562).
_LAZY = {
    "BENCH_FORMAT_VERSION": "bench",
    "REGRESSION_EXIT_CODE": "bench",
    "compare": "bench",
    "load_baseline": "bench",
    "run_bench": "bench",
    "save_baseline": "bench",
    "LEDGER_FORMAT_VERSION": "ledger",
    "Ledger": "ledger",
    "ledger_record": "ledger",
    "CongestionCurve": "report",
    "PaperRef": "report",
    "ReliabilityCurve": "report",
    "ScorecardFigure": "report",
    "congestion_curves": "report",
    "figures_from_results": "report",
    "forensics_by_figure": "report",
    "paper_reference": "report",
    "partition_reliability": "report",
    "partition_results": "report",
    "reliability_curves": "report",
    "render_scorecard": "report",
    "write_scorecard": "report",
    "FORENSICS_FORMAT_VERSION": "forensics",
    "ForensicsProbe": "forensics",
    "HotspotProbe": "forensics",
    "LatencyAttributionProbe": "forensics",
    "PacketAttribution": "forensics",
    "StreamingHistogram": "forensics",
    "WaitForGraphSampler": "forensics",
    "WaitForSample": "forensics",
    "attach_forensics": "forensics",
    "describe_forensics": "forensics",
    "Forensics": "forensics",
    "run_with_forensics": "forensics",
    "hotspot_heatmap_svg": "heatmap",
    "latency_breakdown_svg": "heatmap",
    "standalone_svg": "heatmap",
    "flight_timeline_svg": "heatmap",
    "FLIGHT_FORMAT_VERSION": "flight",
    "FlightConfig": "flight",
    "FlightRecorder": "flight",
    "Flight": "flight",
    "describe_flight": "flight",
    "format_percentiles": "percentiles",
    "percentile_table": "percentiles",
    "STATEHASH_FORMAT_VERSION": "statehash",
    "DIGEST_ALGO": "statehash",
    "StateDigestConfig": "statehash",
    "StateDigestProbe": "statehash",
    "describe_statehash": "statehash",
    "Statehash": "statehash",
    "engine_fingerprint": "statehash",
    "state_snapshot": "statehash",
    "DIFF_FORMAT_VERSION": "diff",
    "DIVERGENCE_EXIT_CODE": "diff",
    "compare_chains": "diff",
    "describe_diff": "diff",
    "diff_runs": "diff",
    "snapshot_diff": "diff",
    "statehash_entries": "report",
    "render_diff_html": "report",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))

__all__ = [
    "BENCH_FORMAT_VERSION",
    "REGRESSION_EXIT_CODE",
    "compare",
    "load_baseline",
    "run_bench",
    "save_baseline",
    "CounterWindow",
    "DirectionWindow",
    "WindowedCounterProbe",
    "LEDGER_FORMAT_VERSION",
    "Ledger",
    "ledger_record",
    "Attach",
    "Layer",
    "MultiProbe",
    "NullProbe",
    "Probe",
    "compose_probe",
    "find_probe",
    "CongestionCurve",
    "PaperRef",
    "ReliabilityCurve",
    "ScorecardFigure",
    "congestion_curves",
    "figures_from_results",
    "forensics_by_figure",
    "paper_reference",
    "partition_reliability",
    "partition_results",
    "reliability_curves",
    "render_scorecard",
    "write_scorecard",
    "FORENSICS_FORMAT_VERSION",
    "ForensicsProbe",
    "HotspotProbe",
    "LatencyAttributionProbe",
    "PacketAttribution",
    "StreamingHistogram",
    "WaitForGraphSampler",
    "WaitForSample",
    "attach_forensics",
    "describe_forensics",
    "Forensics",
    "run_with_forensics",
    "hotspot_heatmap_svg",
    "latency_breakdown_svg",
    "standalone_svg",
    "flight_timeline_svg",
    "FLIGHT_FORMAT_VERSION",
    "FlightConfig",
    "FlightRecorder",
    "Flight",
    "describe_flight",
    "format_percentiles",
    "percentile_table",
    "STATEHASH_FORMAT_VERSION",
    "DIGEST_ALGO",
    "StateDigestConfig",
    "StateDigestProbe",
    "describe_statehash",
    "Statehash",
    "engine_fingerprint",
    "state_snapshot",
    "DIFF_FORMAT_VERSION",
    "DIVERGENCE_EXIT_CODE",
    "compare_chains",
    "describe_diff",
    "diff_runs",
    "snapshot_diff",
    "statehash_entries",
    "render_diff_html",
    "PHASE_NAMES",
    "RunTelemetry",
    "config_digest",
    "EVENT_KINDS",
    "TraceEvent",
    "TraceProbe",
]
