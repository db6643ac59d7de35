#!/usr/bin/env python3
"""Paper-scale benchmark of the flit-level simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-panel --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's unit until ``--seconds`` are used
up and prints the end-to-end metrics (medians over units, each unit
timing its own set-up too); ``--trace 1``
runs one untraced and one traced unit and prints the per-layer metrics.
Every point of every unit is checked against the stored reference
statistics for its seed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"
#: scratch space and trace output, inside the checkout
WORKDIR = ROOT / ".perfbench"
#: seconds to wait for pool workers to end before reading peak RSS
REAP_TIMEOUT_S = 30.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_line() -> str:
    return (
        f"host: {platform.machine()} {platform.system()}, "
        f"{len(os.sched_getaffinity(0))} usable CPUs, Python {platform.python_version()}"
    )


def sampled(run_unit):
    """Run one unit with the host's yardstick speed sampled during it."""
    from perfbench import yardstick

    # collect the previous unit's garbage now, not inside this unit's
    # timing (a full collection landing in a ~20 ms set-up triples it)
    gc.collect()
    with yardstick.Sampler() as sampler:
        unit = run_unit()
    unit.host_speed = sampler.speed()
    return unit


def reap_children() -> None:
    """Wait for every child process (pool workers) to end."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not REFERENCE.is_file():
        print(f"error: {ROOT} holds no src/repro or no perfbench/reference.json", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end, layer_metrics
    from perfbench import yardstick
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Checker, sim_seed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    checker = Checker(reference[str(sim_seed(args.seed))])
    configs = workload.configs(args.seed)
    WORKDIR.mkdir(exist_ok=True)
    print(host_line())
    print(f"workload {workload.name}, seed {args.seed} (simulator seed {sim_seed(args.seed)})")

    try:
        if args.trace:
            plain = checker.run(lambda: sampled(lambda: workload.run(configs, WORKDIR)))
            traced = checker.run(
                lambda: sampled(lambda: workload.run(configs, WORKDIR, Tracer()))
            )
            units = [u for u in (plain, traced) if u is not None]
        else:
            units = []
            start = time.perf_counter()
            deadline = start + args.seconds
            while True:
                unit = checker.run(lambda: sampled(lambda: workload.run(configs, WORKDIR)))
                if unit is not None:
                    units.append(unit)
                now = time.perf_counter()
                if now + (now - start) / max(len(units), 1) > deadline:
                    break
    finally:
        reap_children()  # before reading the children's peak RSS

    if args.trace:
        units_of = PER_LAYER
        metrics = layer_metrics(plain, traced) if len(units) == 2 else {}
        if traced is not None:
            trace_path = WORKDIR / f"trace-{workload.name}-{args.seed}.json"
            trace_path.write_text(json.dumps(traced.tracer.export()))
            print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        units_of = END_TO_END
        metrics = end_to_end(units) if units else {}
        print(
            "per unit: raw cycles_per_s "
            + " ".join(f"{u.cycles_per_s:.1f}" for u in units)
            + "; raw setup_s "
            + " ".join(f"{u.setup:.4f}" for u in units)
            + "; yardstick rounds/s "
            + " ".join(f"{u.host_speed:.2f}" for u in units)
            + f" (nominal {yardstick.NOMINAL})"
        )

    print(f"units measured: {len(units)}, points attempted {checker.attempted}, failed {checker.failed}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units_of[name]}")
    doc = {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
