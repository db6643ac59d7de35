"""Engine performance baselines and the regression gate.

``repro-net bench`` measures the engine's cycles/sec — overall and split
per step phase, with probes off and on — over a small fixed suite and
writes a versioned ``BENCH_<host>.json`` baseline.  ``repro-net bench
--compare BASELINE`` re-measures *the recipes recorded in the baseline*
(each entry carries its full config, so baselines written by other
scripts, e.g. ``benchmarks/obs_overhead.py``, compare too) and exits
with :data:`REGRESSION_EXIT_CODE` when any entry slowed down by more
than the threshold (default 15%).

What is compared, per entry:

* **overall throughput** — best-of-N cycles/sec (best-of defends against
  scheduler noise; a regression must reproduce across every repeat to
  show up);
* **per-phase cost** — seconds-per-cycle of each ``Engine.step`` phase,
  for phases that carried at least :data:`MIN_PHASE_SHARE` of the
  baseline's phase time (tiny phases are pure timer noise).  This
  pinpoints *which* loop regressed, not just that something did.

Wall-clock benchmarks are inherently machine-bound: baselines are named
by host and CI treats a regression verdict as a warning (soft-fail),
reserving hard failure for crashes.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import platform
import time

from ..errors import AnalysisError, ConfigurationError
from ..sim.config import SimulationConfig
from ..sim.results import RunResult
from ..sim.run import RunPlan, cube_config, run_plan, simulate, tree_config
from ..traffic.congestion import Congestion
from ..traffic.transport import Transport
from .counters import WindowedCounterProbe
from .probe import MultiProbe, NullProbe
from .telemetry import PHASE_NAMES
from .trace import TraceProbe

#: bump on breaking changes to the baseline document layout
BENCH_FORMAT_VERSION = 1

#: ``bench --compare`` exit code for "measurably slower", distinct from
#: crash/usage errors so CI can soft-fail on it
REGRESSION_EXIT_CODE = 3

#: default tolerated slowdown before an entry counts as regressed
DEFAULT_THRESHOLD = 0.15

#: phases below this share of baseline phase time are not compared
MIN_PHASE_SHARE = 0.05

def _forensics_probe():
    # imported on use: forensics sits above this module in the layering
    from .forensics import ForensicsProbe

    return ForensicsProbe()


def _flight_probe():
    # imported on use: flight sits above this module in the layering
    from .flight import FlightRecorder

    return FlightRecorder()


def _statehash_probe():
    # imported on use: statehash sits above this module in the layering
    from .statehash import StateDigestProbe

    return StateDigestProbe()


#: bench-created checkpoint scratch directories, held for process life —
#: they cannot ride on the probe itself (the probe is pickled into every
#: checkpoint it writes, and TemporaryDirectory finalizers don't pickle)
_BENCH_CHECKPOINT_DIRS: list = []


def _checkpoint_probe():
    # imported on use: checkpoint sits above this module in the layering
    import tempfile

    from ..sim.checkpoint import CheckpointProbe

    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-")
    _BENCH_CHECKPOINT_DIRS.append(tmp)
    return CheckpointProbe(tmp.name)


#: probe spec names -> factories; "off" runs the uninstrumented fast path
PROBE_FACTORIES = {
    "off": lambda: None,
    "null": NullProbe,
    "traced": lambda: MultiProbe(
        [TraceProbe(), WindowedCounterProbe(window_cycles=200)]
    ),
    "forensics": _forensics_probe,
    "flight": _flight_probe,
    "statehash": _statehash_probe,
    "checkpoint": _checkpoint_probe,
}


def _simulate_spec(probe: str):
    """The simulation callable for a probe spec name.

    ``"reliable"`` is not a probe: it installs the whole source-side
    reliable transport (:mod:`repro.traffic.transport`), so its entry
    gates the fault-free protocol overhead — timer wheel, sequence
    bookkeeping, wrapped sources — on top of the engine.
    ``"congestion"`` goes one layer further and installs the closed
    control loop (:mod:`repro.traffic.congestion`: marker probe +
    per-destination AIMD windows + hold queues), gating the full
    closed-loop cost.
    """
    if probe in ("reliable", "congestion"):
        layer = Transport() if probe == "reliable" else Congestion()
        return lambda config: run_plan(RunPlan(config, (layer,)))
    try:
        factory = PROBE_FACTORIES[probe]
    except KeyError:
        raise ConfigurationError(
            f"unknown probe spec {probe!r} (expected 'reliable', "
            f"'congestion' or one of {sorted(PROBE_FACTORIES)})"
        ) from None
    return lambda config: simulate(config, probe=factory())


def default_suite(cycles: int = 2000) -> list[tuple[str, SimulationConfig, str]]:
    """The standard bench suite: (name, config, probe spec) triples.

    Small fixed networks — the point is a stable per-host trend line for
    the engine's hot loops, not paper-scale numbers — covering both
    topologies and every probe operating point (probes off, the no-op
    probe, the trace/counter stack, and the forensics tier).
    """
    common = dict(load=0.3, seed=11, warmup_cycles=cycles // 10, total_cycles=cycles)
    tree = tree_config(k=2, n=3, vcs=2, **common)
    cube = cube_config(k=4, n=2, algorithm="dor", **common)
    return [
        ("tree-off", tree, "off"),
        ("tree-null", tree, "null"),
        ("cube-off", cube, "off"),
        ("cube-traced", cube, "traced"),
        ("cube-forensics", cube, "forensics"),
    ]


def measure_entry(
    name: str, config: SimulationConfig, probe: str, repeats: int = 3
) -> dict:
    """Benchmark one (config, probe) point; returns the entry document.

    Best-of-``repeats`` on cycles/sec; phase seconds are taken from the
    best run so the two numbers describe the same execution.
    """
    sim = _simulate_spec(probe)
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    best: RunResult | None = None
    for _ in range(repeats):
        result = sim(config)
        if best is None or result.telemetry.cycles_per_sec > best.telemetry.cycles_per_sec:
            best = result
    t = best.telemetry
    return {
        "name": name,
        "probe": probe,
        "config": _config_doc(config),
        "cycles_per_sec": t.cycles_per_sec,
        "phase_seconds": t.phase_seconds,
        "telemetry": t.to_dict(),
    }


def _config_doc(config: SimulationConfig) -> dict:
    return dataclasses.asdict(config)


def bench_document(entries: list[dict], repeats: int) -> dict:
    """Wrap measured entries into the versioned baseline document."""
    return {
        "format": BENCH_FORMAT_VERSION,
        "kind": "bench",
        "host": platform.node() or "unknown",
        "python": platform.python_version(),
        "recorded_at": time.time(),
        "repeats": repeats,
        "entries": entries,
    }


def run_bench(repeats: int = 3, cycles: int = 2000) -> dict:
    """Measure the default suite; returns the baseline document."""
    entries = [
        measure_entry(name, config, probe, repeats=repeats)
        for name, config, probe in default_suite(cycles)
    ]
    return bench_document(entries, repeats)


def default_baseline_path() -> pathlib.Path:
    return pathlib.Path(f"BENCH_{platform.node() or 'local'}.json")


def save_baseline(doc: dict, path: str | pathlib.Path) -> None:
    pathlib.Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def load_baseline(path: str | pathlib.Path) -> dict:
    """Read and validate a baseline document.

    Raises:
        AnalysisError: unreadable file, bad JSON or wrong format version.
    """
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"cannot load bench baseline from {path}: {exc}") from exc
    version = doc.get("format")
    if version != BENCH_FORMAT_VERSION:
        raise AnalysisError(
            f"unsupported bench format {version!r} (expected {BENCH_FORMAT_VERSION})"
        )
    if not doc.get("entries"):
        raise AnalysisError(f"bench baseline {path} has no entries")
    return doc


def remeasure(baseline: dict, repeats: int | None = None) -> list[dict]:
    """Re-run every recipe recorded in a baseline on this machine."""
    repeats = repeats or baseline.get("repeats", 3)
    entries = []
    for entry in baseline["entries"]:
        try:
            config = SimulationConfig(**entry["config"])
            name, probe = entry["name"], entry["probe"]
        except (KeyError, TypeError) as exc:
            raise AnalysisError(f"malformed bench entry: {exc}") from exc
        entries.append(measure_entry(name, config, probe, repeats=repeats))
    return entries


def compare(
    baseline: dict, current: list[dict], threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Regression verdicts for a fresh measurement against a baseline.

    Returns human-readable findings, one per regressed metric; empty
    means the gate passes.  An entry regresses when overall cycles/sec
    dropped by more than ``threshold``, or any significant phase's
    seconds-per-cycle grew by more than ``threshold``.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")
    current_by_name = {e["name"]: e for e in current}
    findings = []
    for base in baseline["entries"]:
        cur = current_by_name.get(base["name"])
        if cur is None:
            raise AnalysisError(f"no fresh measurement for baseline entry {base['name']!r}")
        base_rate, cur_rate = base["cycles_per_sec"], cur["cycles_per_sec"]
        if base_rate > 0 and cur_rate < (1.0 - threshold) * base_rate:
            drop = 1.0 - cur_rate / base_rate
            findings.append(
                f"{base['name']}: {cur_rate:,.0f} cyc/s vs baseline "
                f"{base_rate:,.0f} ({drop:+.1%} slower)"
            )
        findings.extend(_phase_findings(base, cur, threshold))
    return findings


def compare_document(
    baseline: dict, current: list[dict], threshold: float = DEFAULT_THRESHOLD
) -> dict:
    """Machine-readable comparison document: per-entry deltas + verdict.

    The structured twin of :func:`compare` for ``bench --compare
    --json`` and CI tooling: one row per baseline entry with both rates
    and the relative delta (positive = faster), the per-entry and
    overall pass/fail, and the human-readable findings verbatim.
    """
    findings = compare(baseline, current, threshold)
    current_by_name = {e["name"]: e for e in current}
    entries = []
    for base in baseline["entries"]:
        cur = current_by_name[base["name"]]
        base_rate, cur_rate = base["cycles_per_sec"], cur["cycles_per_sec"]
        prefix = f"{base['name']}:"
        entries.append(
            {
                "name": base["name"],
                "probe": base.get("probe"),
                "baseline_cycles_per_sec": base_rate,
                "cycles_per_sec": cur_rate,
                "delta": (
                    round(cur_rate / base_rate - 1.0, 6) if base_rate else None
                ),
                "regressed": any(f.startswith(prefix) for f in findings),
            }
        )
    return {
        "format": BENCH_FORMAT_VERSION,
        "kind": "bench-compare",
        "host": platform.node() or "unknown",
        "python": platform.python_version(),
        "threshold": threshold,
        "passed": not findings,
        "findings": findings,
        "entries": entries,
    }


def _phase_findings(base: dict, cur: dict, threshold: float) -> list[str]:
    base_phases = base.get("phase_seconds") or {}
    cur_phases = cur.get("phase_seconds") or {}
    base_cycles = (base.get("telemetry") or {}).get("cycles", 0)
    cur_cycles = (cur.get("telemetry") or {}).get("cycles", 0)
    if not base_phases or not cur_phases or not base_cycles or not cur_cycles:
        return []  # pre-phase-timer baseline: overall rate still compared
    total = sum(base_phases.values())
    if total <= 0:
        return []
    findings = []
    for name in PHASE_NAMES:
        share = base_phases.get(name, 0.0) / total
        if share < MIN_PHASE_SHARE:
            continue
        base_spc = base_phases[name] / base_cycles
        cur_spc = cur_phases.get(name, 0.0) / cur_cycles
        if base_spc > 0 and cur_spc > (1.0 + threshold) * base_spc:
            findings.append(
                f"{base['name']}: phase '{name}' {cur_spc * 1e6:.2f} µs/cycle vs "
                f"baseline {base_spc * 1e6:.2f} "
                f"({cur_spc / base_spc - 1.0:+.1%} slower)"
            )
    return findings
