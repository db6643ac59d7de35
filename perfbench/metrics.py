"""Metric definitions and their derivation from measured units.

End-to-end metrics come from untraced units; per-layer metrics from one
traced unit (plus the untraced unit run beside it, for the tracing
overhead).  Every workload reports every metric; a per-layer metric
whose layer does not run on a workload reads 0 there.
"""

from __future__ import annotations

import resource
import statistics

from .tracing import PROBE_PHASE, calibrate
from .yardstick import NOMINAL

#: name -> unit; "better" and bounds live in BENCHMARK.json
END_TO_END = {
    "cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sat_rel_error": "ratio",
}

PER_LAYER = {
    "engine.link_us": "us/cycle",
    "engine.injection_us": "us/cycle",
    "engine.crossbar_us": "us/cycle",
    "engine.routing_us": "us/cycle",
    "engine.busy_dir_ratio": "ratio",
    "engine.flit_hops_per_cycle": "flits/cycle",
    "engine.peak_in_flight": "count",
    "routing.select_calls": "1/cycle",
    "routing.select_us": "us/call",
    "routing.select_fail_ratio": "ratio",
    "traffic.advance_us": "us/cycle",
    "probe.on_cycle_us": "us/cycle",
    "probe.event_us": "us/cycle",
    "transport.retransmits": "count",
    "transport.acked": "count",
    "congestion.marks": "count",
    "checkpoint.writes": "count",
    "checkpoint.failed": "count",
    "checkpoint.kb_per_write": "KiB",
    "checkpoint.write_ms": "ms",
    "harness.engine_share": "ratio",
    "harness.point_overhead_ms": "ms",
    "harness.result_kb": "KiB",
    "runcache.put_ms": "ms",
    "ledger.append_ms": "ms",
    "setup.topology_ms": "ms",
    "setup.engine_ms": "ms",
    "setup.install_ms": "ms",
    "tracing.overhead_pct": "%",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(units) -> dict:
    """The end-to-end metrics of an untraced run (medians over units).

    Host times are scaled to the yardstick's nominal speed.
    """
    return {
        "cycles_per_s": statistics.median(u.nominal_cycles_per_s for u in units),
        "setup_s": statistics.median(u.nominal_setup_s for u in units),
        "peak_rss_mb": peak_rss_mb(),
        "sat_rel_error": units[0].sat_rel_error,
    }


def layer_metrics(plain, traced) -> dict:
    """Per-layer metrics of a traced unit; ``plain`` is its untraced twin."""
    tr = traced.tracer
    cycles = traced.cycles
    per_cycle = 1e6 / cycles  # seconds -> us per simulated cycle
    cost = calibrate()

    def count(name):
        return tr.calls.get(name, (0, 0.0, 0))[0]

    def secs(name):
        """Seconds inside the wrapped calls, net of the wrapper's own cost."""
        return max(0.0, tr.calls.get(name, (0, 0.0, 0))[1] - count(name) * cost["callee"])

    # wrapped calls by the engine phase that makes them
    callers = {"routing.select": "routing", "traffic.advance": "injection"}
    callers.update({f"probe.{cb}": phase for cb, phase in PROBE_PHASE.items()})
    phases = {"link": 0.0, "injection": 0.0, "crossbar": 0.0, "routing": 0.0}
    for r in traced.results:
        for name, value in r.telemetry.phase_seconds.items():
            phases[name] += value
    # phase self time: minus the calls made from it and the wrappers' cost
    for name, phase in callers.items():
        phases[phase] -= secs(name) + count(name) * cost["caller"]
    probe_total = sum(secs(k) for k in tr.calls if k.startswith("probe."))

    select_calls = count("routing.select")
    reliability = [r.telemetry.reliability for r in traced.results if r.telemetry.reliability]
    writes = tr.span_seconds("checkpoint.write")
    builds = tr.span_seconds("setup.build")
    topologies = tr.span_seconds("setup.topology")

    out = {
        "engine.link_us": phases["link"] * per_cycle,
        "engine.injection_us": phases["injection"] * per_cycle,
        "engine.crossbar_us": phases["crossbar"] * per_cycle,
        "engine.routing_us": phases["routing"] * per_cycle,
        "engine.busy_dir_ratio": tr.scan[1] / tr.scan[2],
        "engine.flit_hops_per_cycle": count("engine.flit_hops") / cycles,
        "engine.peak_in_flight": max(r.telemetry.peak_in_flight for r in traced.results),
        "routing.select_calls": select_calls / cycles,
        "routing.select_us": secs("routing.select") / select_calls * 1e6 if select_calls else 0.0,
        "routing.select_fail_ratio": (
            tr.calls["routing.select"][2] / select_calls if select_calls else 0.0
        ),
        "traffic.advance_us": secs("traffic.advance") * per_cycle,
        "probe.on_cycle_us": secs("probe.on_cycle") * per_cycle,
        "probe.event_us": (probe_total - secs("probe.on_cycle")) * per_cycle,
        "transport.retransmits": sum(d["retransmissions"] for d in reliability),
        "transport.acked": sum(d["acked"] for d in reliability),
        "congestion.marks": sum(
            d["congestion"]["marking"]["packets_marked"] for d in reliability if "congestion" in d
        ),
        "checkpoint.writes": len(tr.checkpoint_bytes),
        "checkpoint.failed": count("checkpoint.failed"),
        "checkpoint.kb_per_write": _mean(tr.checkpoint_bytes) / 1024.0,
        "checkpoint.write_ms": _mean(writes) * 1e3,
        "setup.topology_ms": _mean(topologies) * 1e3,
        "setup.engine_ms": (_mean(builds) - _mean(topologies)) * 1e3,
        "setup.install_ms": _mean(tr.span_seconds("setup.install")) * 1e3,
        # the traced rate leaves out the fixed-cycle checkpoints, which
        # the untraced twin does not write
        "tracing.overhead_pct": (
            plain.nominal_cycles_per_s
            / (cycles / (traced.wall - tr.fixed_checkpoint_s) * NOMINAL / traced.host_speed)
            - 1.0
        )
        * 100.0,
    }
    out.update(_harness_metrics(traced))
    return out


def _harness_metrics(traced) -> dict:
    """Campaign-harness metrics; zero on workloads without a campaign."""
    h = traced.harness
    tr = traced.tracer
    if h is None:
        return {
            "harness.engine_share": 0.0,
            "harness.point_overhead_ms": 0.0,
            "harness.result_kb": 0.0,
            "runcache.put_ms": 0.0,
            "ledger.append_ms": 0.0,
        }
    points = h["points"]
    engine = sum(p["engine_s"] for p in points)

    def per_call_ms(name):
        n, secs, _ = tr.calls.get(name, (0, 0.0, 0))
        return secs / n * 1e3 if n else 0.0

    return {
        "harness.engine_share": engine / (h["wall"] * h["workers"]),
        # task start on a worker -> result at the parent's progress
        # callback, minus the engine's own seconds
        "harness.point_overhead_ms": _mean(
            p["arrived"] - p["started"] - p["engine_s"] for p in points
        )
        * 1e3,
        "harness.result_kb": _mean(p["result_bytes"] for p in points) / 1024.0,
        "runcache.put_ms": per_call_ms("runcache.put"),
        "ledger.append_ms": per_call_ms("ledger.append"),
    }
