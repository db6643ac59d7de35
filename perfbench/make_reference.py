#!/usr/bin/env python3
"""Regenerate ``reference.json``: the simulated statistics of every point
of every workload, for each of the ``SEED_SLOTS`` simulator seeds.

Run from the repository root on the commit that defines the expected
behaviour (never on a change that claims only a speed-up)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import SEED_SLOTS, WORKLOADS, point_stats, sim_seed

    doc = {"format": 1, "seed_slots": SEED_SLOTS, "workloads": {}}
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    for name, workload in sorted(WORKLOADS.items()):
        slots = {}
        for seed in range(SEED_SLOTS):
            unit = workload.run(workload.configs(seed), workdir)
            slots[str(sim_seed(seed))] = [point_stats(r) for r in unit.results]
            print(
                f"{name} seed {sim_seed(seed)}: {unit.cycles_per_s:.0f} cycles/s, "
                f"sat_rel_error {unit.sat_rel_error:.4f}",
                flush=True,
            )
        doc["workloads"][name] = slots
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
