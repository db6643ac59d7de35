"""Divergence bisection: when, where and *what* two runs disagree on.

The state-digest audit trail (:mod:`repro.obs.statehash`) records a
bounded chain of per-interval state roots.  This module turns two such
chains into an answer:

1. **Compare** the chains at their common sampled cycles and locate the
   first divergent interval (chains are compared by per-cycle *roots*;
   the ``chain_head`` values are the whole-run integrity summaries).
2. **Bisect**: deterministically re-run both configs with no probes
   attached, fast-forward to the last agreeing cycle, verify the replay
   reproduces the recorded root (a mismatch means the recorded run's
   probes perturbed state — e.g. a reliable transport, which wraps the
   sources — and the result is flagged ``unreplayable`` instead of
   silently wrong), then step cycle-by-cycle until the roots split:
   the **exact first divergent cycle**.
3. **Explain**: take detail fingerprints and un-hashed state snapshots
   of both engines at that cycle, flatten them into path -> value maps,
   and report every differing leaf — which subsystem, link, lane, flit
   pid or credit counter holds a different value.

Inputs are run documents (``repro run --statehash --json``), ledger
records, or bare config dicts; sides without a recorded chain are
re-run.  The outcome document is deterministic — byte-identical across
reruns of the same pair — so diffs themselves can be archived and
compared.

Example::

    from repro.obs.diff import diff_runs, describe_diff
    doc = diff_runs("a.json", "b.json")
    print(describe_diff(doc))
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from ..errors import AnalysisError, ConfigurationError, SimulationError
from .statehash import (
    SUBSYSTEMS,
    StateDigestConfig,
    Statehash,
    engine_fingerprint,
    state_snapshot,
)
from .telemetry import config_digest

#: bump on breaking changes to the diff outcome document
DIFF_FORMAT_VERSION = 1

#: ``repro diff`` exit code when the runs diverge (0 = identical,
#: 2 = error, mirroring the bench gate's dedicated exit-code idiom)
DIVERGENCE_EXIT_CODE = 4

#: findings kept in the outcome document before truncation
DEFAULT_MAX_FINDINGS = 64

#: stands in for a leaf present on one side only
_ABSENT = "<absent>"


# -- input resolution ----------------------------------------------------------


@dataclasses.dataclass
class _Side:
    """One comparand: a config plus its (possibly re-run) digest chain."""

    label: str
    config: object
    chain: dict
    reran: bool


def _load_doc(source) -> dict:
    if isinstance(source, dict):
        return source
    path = pathlib.Path(source)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"cannot read run source {path}: {exc}") from exc


def _resolve_side(source, label: str, interval: int | None) -> _Side:
    """A diff side from a run document, ledger record or config dict.

    A recorded chain is reused when present and compatible with the
    requested interval; otherwise the config is re-run with a
    :class:`StateDigestProbe` to produce one.
    """
    from ..sim.config import SimulationConfig

    chain = None
    if isinstance(source, SimulationConfig):
        config = source
    else:
        doc = _load_doc(source)
        if isinstance(doc.get("run"), dict):  # ledger record
            doc = doc["run"]
        if "config" in doc and isinstance(doc["config"], dict):  # run document
            config = SimulationConfig(**doc["config"])
            chain = (doc.get("telemetry") or {}).get("statehash")
        else:  # bare config kwargs
            try:
                config = SimulationConfig(**doc)
            except TypeError as exc:
                raise AnalysisError(
                    f"{label}: neither a run document, a ledger record nor "
                    f"SimulationConfig kwargs ({exc})"
                ) from exc
    if chain is not None and interval is not None and chain["interval"] != interval:
        chain = None  # recorded at a different granularity: re-run
    reran = chain is None
    if reran:
        from ..sim.run import RunPlan, run_plan

        layer = Statehash(StateDigestConfig(interval_cycles=interval or 128))
        chain = run_plan(RunPlan(config, (layer,))).telemetry.statehash
    return _Side(label=label, config=config, chain=chain, reran=reran)


def _config_fields_differ(config_a, config_b) -> list[str]:
    a, b = dataclasses.asdict(config_a), dataclasses.asdict(config_b)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


# -- chain comparison ----------------------------------------------------------


def _chain_roots(chain: dict) -> dict[int, str]:
    return dict(zip(chain["cycles"], chain["roots"]))


def _subsystems_at(chain: dict, cycle: int) -> dict[str, str]:
    idx = chain["cycles"].index(cycle)
    return {name: chain["subsystems"][name][idx] for name in SUBSYSTEMS}


def compare_chains(chain_a: dict, chain_b: dict) -> dict:
    """Interval-level comparison of two digest chains.

    Returns ``{"common_cycles", "identical", "first_divergent_cycle",
    "last_agreeing_cycle", "subsystems_divergent"}``.  Chains sampled at
    incompatible strides share no cycles beyond genesis; at least two
    common cycles are required to say anything useful.

    Raises:
        ConfigurationError: when the chains share no sampled cycles.
    """
    roots_a, roots_b = _chain_roots(chain_a), _chain_roots(chain_b)
    common = sorted(roots_a.keys() & roots_b.keys())
    if not common:
        raise ConfigurationError(
            "digest chains share no sampled cycles (intervals "
            f"{chain_a['interval']}/{chain_a['stride']} vs "
            f"{chain_b['interval']}/{chain_b['stride']}); re-run with a "
            "common --interval"
        )
    first_div = None
    last_agree = None
    for cycle in common:
        if roots_a[cycle] != roots_b[cycle]:
            first_div = cycle
            break
        last_agree = cycle
    subsystems = []
    if first_div is not None:
        sub_a = _subsystems_at(chain_a, first_div)
        sub_b = _subsystems_at(chain_b, first_div)
        subsystems = [name for name in SUBSYSTEMS if sub_a[name] != sub_b[name]]
    return {
        "common_cycles": common,
        "identical": first_div is None,
        "first_divergent_cycle": first_div,
        "last_agreeing_cycle": last_agree,
        "subsystems_divergent": subsystems,
    }


# -- replay bisection ----------------------------------------------------------


def _replay_to(config, cycle: int):
    from ..sim.run import build_engine

    engine = build_engine(config)
    while engine.cycle < cycle:
        engine.step()
    return engine


def _bisect(side_a: _Side, side_b: _Side, last_agree: int | None, first_div: int) -> dict:
    """Replay both sides and narrow the divergence to one cycle.

    The replay runs probe-less, so before bisecting, each side's
    replayed root at the last agreeing cycle is checked against its
    recorded chain.  A mismatch means the recorded state evolution
    cannot be reproduced from the config alone (state-perturbing probe,
    e.g. the reliable transport) — reported as ``unreplayable`` with
    the interval-level divergence left standing.
    """
    start = 0 if last_agree is None else last_agree
    try:
        eng_a = _replay_to(side_a.config, start)
        eng_b = _replay_to(side_b.config, start)
    except SimulationError as exc:
        return {"status": "replay-failed", "cycle": None, "error": str(exc)}
    if last_agree is not None:
        recorded_a = _chain_roots(side_a.chain)[last_agree]
        recorded_b = _chain_roots(side_b.chain)[last_agree]
        faithful_a = engine_fingerprint(eng_a)["root"] == recorded_a
        faithful_b = engine_fingerprint(eng_b)["root"] == recorded_b
        if not (faithful_a and faithful_b):
            return {
                "status": "unreplayable",
                "cycle": None,
                "replay_faithful": {"a": faithful_a, "b": faithful_b},
            }
    fp_a = engine_fingerprint(eng_a)
    fp_b = engine_fingerprint(eng_b)
    try:
        while fp_a["root"] == fp_b["root"] and eng_a.cycle < first_div:
            eng_a.step()
            eng_b.step()
            fp_a = engine_fingerprint(eng_a)
            fp_b = engine_fingerprint(eng_b)
    except SimulationError as exc:
        return {"status": "replay-failed", "cycle": eng_a.cycle, "error": str(exc)}
    if fp_a["root"] == fp_b["root"]:
        # the recorded chains disagree at first_div but the replays do
        # not: the recorded divergence came from probe-side state
        return {"status": "not-reproduced", "cycle": None}
    return {
        "status": "exact",
        "cycle": eng_a.cycle,
        "subsystems": [name for name in SUBSYSTEMS if fp_a[name] != fp_b[name]],
        "engines": (eng_a, eng_b),
    }


# -- snapshot diffing ----------------------------------------------------------


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}/{key}", obj[key], out)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _flatten(f"{prefix}/{i}", value, out)
    else:
        out[prefix] = obj


def _classify(path: str) -> dict:
    """Map a flattened snapshot path to (subsystem, location, lane, field)."""
    seg = path.split("/")
    subsystem = "engine" if seg[0] == "counters" else seg[0]
    location = None
    lane = None
    if seg[0] == "fabric" and len(seg) > 1:
        if seg[1] == "links" and len(seg) > 2:
            location = seg[2]
            if len(seg) > 4 and seg[3] == "lanes":
                lane = seg[4]
        elif seg[1] == "routing":
            location = "routing"
    elif seg[0] == "injection" and len(seg) > 1:
        location = f"node {seg[1]}"
        if len(seg) > 3 and seg[2] == "lanes":
            lane = seg[3]
    elif seg[0] == "transport" and len(seg) > 1:
        location = seg[1]
    elif seg[0] == "rng" and len(seg) > 1:
        location = f"node {seg[2]}" if seg[1] == "sources" and len(seg) > 2 else seg[1]
    return {
        "path": path,
        "subsystem": subsystem,
        "location": location,
        "lane": lane,
        "field": seg[-1],
    }


def snapshot_diff(snap_a: dict, snap_b: dict, max_findings: int = DEFAULT_MAX_FINDINGS):
    """(findings, dropped): every leaf where two snapshots disagree.

    Findings are sorted by path and truncated deterministically, so the
    same pair of snapshots always produces the same document.
    """
    flat_a: dict = {}
    flat_b: dict = {}
    _flatten("", snap_a, flat_a)
    _flatten("", snap_b, flat_b)
    findings = []
    for path in sorted(flat_a.keys() | flat_b.keys()):
        va = flat_a.get(path, _ABSENT)
        vb = flat_b.get(path, _ABSENT)
        if va == vb:
            continue
        finding = _classify(path.lstrip("/"))
        finding["a"] = va
        finding["b"] = vb
        findings.append(finding)
    dropped = max(0, len(findings) - max_findings)
    return findings[:max_findings], dropped


# -- the full diff -------------------------------------------------------------


def _side_doc(side: _Side) -> dict:
    chain = side.chain
    return {
        "label": side.label,
        "config_hash": config_digest(side.config),
        "seed": side.config.seed,
        "entries": chain["entries"],
        "interval": chain["interval"],
        "stride": chain["stride"],
        "chain_head": chain["chain_head"],
        "reran": side.reran,
    }


def diff_runs(
    a,
    b,
    interval: int | None = None,
    max_findings: int = DEFAULT_MAX_FINDINGS,
    bisect: bool = True,
) -> dict:
    """The full divergence report between two runs.

    ``a``/``b`` are paths to JSON files (run documents, ledger records
    or bare config kwargs), already-loaded dicts of the same shapes, or
    :class:`~repro.sim.config.SimulationConfig` objects.  Sides without
    a recorded digest chain (or recorded at a different interval than
    requested) are re-run deterministically.

    Returns the outcome document; ``doc["identical"]`` is the verdict.
    """
    label_a = str(a) if isinstance(a, (str, pathlib.Path)) else "a"
    label_b = str(b) if isinstance(b, (str, pathlib.Path)) else "b"
    side_a = _resolve_side(a, label_a, interval)
    side_b = _resolve_side(b, label_b, interval)
    comparison = compare_chains(side_a.chain, side_b.chain)
    notes = []
    fields = _config_fields_differ(side_a.config, side_b.config)
    if fields:
        notes.append("configs differ: " + ", ".join(fields))
    if side_a.chain["entries"] != side_b.chain["entries"]:
        notes.append(
            f"chain lengths differ ({side_a.chain['entries']} vs "
            f"{side_b.chain['entries']} entries)"
        )
    doc = {
        "format": DIFF_FORMAT_VERSION,
        "a": _side_doc(side_a),
        "b": _side_doc(side_b),
        "config_fields_differ": fields,
        "identical": comparison["identical"],
        "compared_entries": len(comparison["common_cycles"]),
        "last_agreeing_cycle": comparison["last_agreeing_cycle"],
        "first_divergent_interval_cycle": comparison["first_divergent_cycle"],
        "subsystems_divergent": comparison["subsystems_divergent"],
        "bisection": None,
        "findings": [],
        "findings_dropped": 0,
        "notes": notes,
    }
    if comparison["identical"] or not bisect:
        if not comparison["identical"]:
            doc["bisection"] = {"status": "skipped", "cycle": None}
        return doc
    outcome = _bisect(
        side_a,
        side_b,
        comparison["last_agreeing_cycle"],
        comparison["first_divergent_cycle"],
    )
    engines = outcome.pop("engines", None)
    doc["bisection"] = outcome
    if outcome["status"] == "exact" and engines is not None:
        eng_a, eng_b = engines
        findings, dropped = snapshot_diff(
            state_snapshot(eng_a), state_snapshot(eng_b), max_findings
        )
        doc["findings"] = findings
        doc["findings_dropped"] = dropped
    elif outcome["status"] == "unreplayable":
        doc["notes"].append(
            "recorded runs used a state-perturbing probe (e.g. the reliable "
            "transport); bisection needs plain-config replays — divergence "
            "is reported at interval granularity only"
        )
    return doc


# -- rendering -----------------------------------------------------------------


def _finding_line(f: dict) -> str:
    where = f["subsystem"]
    if f["location"]:
        where += f" {f['location']}"
    if f["lane"]:
        where += f" {f['lane']}"
    return f"  {where}: {f['path']} = {f['a']!r} vs {f['b']!r}"


def describe_diff(doc: dict) -> str:
    """The human-readable report for ``repro diff`` text output."""
    a, b = doc["a"], doc["b"]
    lines = [
        f"a: {a['label']} (config {a['config_hash']}, seed {a['seed']}, "
        f"{a['entries']} samples @ stride {a['stride']})"
        + (" [re-run]" if a["reran"] else ""),
        f"b: {b['label']} (config {b['config_hash']}, seed {b['seed']}, "
        f"{b['entries']} samples @ stride {b['stride']})"
        + (" [re-run]" if b["reran"] else ""),
    ]
    for note in doc["notes"]:
        lines.append(f"note: {note}")
    if doc["identical"]:
        lines.append(
            f"IDENTICAL over {doc['compared_entries']} common sampled cycles "
            f"(last agreeing cycle {doc['last_agreeing_cycle']})"
        )
        return "\n".join(lines)
    last = doc["last_agreeing_cycle"]
    agree = f"cycle {last}" if last is not None else "none"
    lines.append(
        f"DIVERGED within interval ending cycle "
        f"{doc['first_divergent_interval_cycle']} "
        f"(last agreeing sample: {agree}); "
        "subsystems: " + (", ".join(doc["subsystems_divergent"]) or "?")
    )
    bisection = doc["bisection"] or {"status": "skipped"}
    status = bisection["status"]
    if status == "exact":
        lines.append(
            f"bisected: first divergent cycle {bisection['cycle']} "
            f"({', '.join(bisection.get('subsystems', [])) or 'root only'})"
        )
        for f in doc["findings"]:
            lines.append(_finding_line(f))
        if doc["findings_dropped"]:
            lines.append(f"  ... {doc['findings_dropped']} more differing fields")
    elif status == "unreplayable":
        faithful = bisection.get("replay_faithful", {})
        lines.append(
            "bisection unavailable: plain-config replay does not reproduce "
            f"the recorded chain (faithful: a={faithful.get('a')}, "
            f"b={faithful.get('b')})"
        )
    elif status == "not-reproduced":
        lines.append(
            "bisection found no divergence on replay: the recorded "
            "difference lives in probe-side state, not the engine"
        )
    elif status == "replay-failed":
        lines.append(f"bisection aborted: replay failed ({bisection.get('error')})")
    else:
        lines.append("bisection skipped")
    return "\n".join(lines)
