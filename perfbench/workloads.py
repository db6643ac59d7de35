"""The benchmark's three paper-scale workloads.

Every workload is a batch run from one process (at most two pool
workers for the campaign), with no arrival schedule.  A workload turns
the benchmark seed into run recipes (:meth:`configs`) and executes one
measured unit (:meth:`run`), optionally under a
:class:`~perfbench.tracing.Tracer`.  A unit also times its own set-up:
the host seconds before its first simulated cycle.

* ``fig5-panel`` — the Fig-5 4-VC curve: 4-ary 4-tree, adaptive
  routing, uniform traffic over ``default_loads(7)`` (0.1 .. 1.0, past
  the paper's 0.72 saturation), through the real campaign path: a
  process pool, a fresh on-disk ``RunCache``, a ``Ledger`` and
  ``CampaignCheckpoints``.
* ``cube-light`` — 16-ary 2-cube, DOR, uniform, load 0.1: one
  ``simulate()`` call, no probe.
* ``cube-overload`` — 16-ary 2-cube, Duato, uniform, load 1.2 (1.5x the
  paper's 0.80 saturation): one closed-loop ``run_overload_point`` call
  with ``DEFAULT_CONTROL``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pathlib
import shutil
import sys
import tempfile
import time
import traceback

from repro.experiments import congestion as _congestion
from repro.experiments.chaos import default_transport
from repro.experiments.runcache import RunCache
from repro.experiments.sweep import (
    CampaignCheckpoints,
    clear_cache,
    default_loads,
    run_sweep,
)
from repro.metrics.saturation import saturation_point
from repro.obs.ledger import Ledger
from repro.obs.report import paper_reference
from repro.profiles import DEFAULT
from repro.sim import run as _run
from repro.sim.run import cube_config, simulate, tree_config

from .tracing import Tracer, campaign_tasks, watch_builds
from .yardstick import NOMINAL

#: benchmark seeds map onto this many simulator seeds, each with stored
#: reference statistics (``reference.json``)
SEED_SLOTS = 16

#: cycles at which the traced cube runs call ``save_checkpoint``
CHECKPOINT_CYCLES = (400, 800)

#: simulated statistics every point must reproduce exactly
STAT_FIELDS = (
    "generated_packets",
    "injected_packets",
    "delivered_packets",
    "delivered_flits",
    "latency_sum",
    "latency_max",
    "in_flight_at_end",
)

#: reliable-transport statistics (``telemetry.reliability`` keys), when present
RELIABILITY_FIELDS = {"acked": "acked", "gave_up": "gave_up", "retransmits": "retransmissions"}


def sim_seed(seed: int) -> int:
    """The simulator seed for a benchmark ``--seed``."""
    return 1 + seed % SEED_SLOTS


def pool_workers() -> int:
    """Campaign pool size: the usable CPUs, at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def point_stats(result) -> dict:
    """The simulated statistics of one point, as stored in the reference."""
    stats = {name: getattr(result, name) for name in STAT_FIELDS}
    doc = result.telemetry.reliability if result.telemetry is not None else None
    if doc is not None:
        for name, key in RELIABILITY_FIELDS.items():
            stats[name] = doc[key]
    return stats


class Checker:
    """Counts points attempted and points whose statistics miss the reference."""

    def __init__(self, reference: list):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, stats: list) -> bool:
        self.attempted += len(self.reference)
        bad = [
            i
            for i, want in enumerate(self.reference)
            if i >= len(stats) or stats[i] != want
        ]
        for i in bad:
            got = stats[i] if i < len(stats) else None
            print(f"mismatch at point {i}: want {self.reference[i]}, got {got}", file=sys.stderr)
        self.failed += len(bad)
        return not bad

    def run(self, unit_fn):
        """Run one unit; an exception fails every point of the unit."""
        try:
            unit = unit_fn()
        except Exception:  # noqa: BLE001 - one failed unit is a result, not a crash
            traceback.print_exc()
            self.attempted += len(self.reference)
            self.failed += len(self.reference)
            return None
        return unit if self.check([point_stats(r) for r in unit.results]) else None


@dataclasses.dataclass
class Unit:
    """One measured execution of a workload.

    Attributes:
        results: the points' run results, in load order.
        wall: host seconds of the simulation calls.
        setup: host seconds before the first simulated cycle: from the
            simulation call (``run_sweep`` for the campaign) to the
            first engine's ``run``.
        sat_rel_error: the run's relative error against its paper figure.
        tracer: the trace, for traced units.
        harness: campaign timings (``fig5-panel`` traced units only).
        host_speed: yardstick speed sampled during the unit
            (:mod:`perfbench.yardstick`), when it was.
    """

    results: list
    wall: float
    setup: float
    sat_rel_error: float
    tracer: Tracer | None = None
    harness: dict | None = None
    host_speed: float | None = None

    @property
    def cycles(self) -> int:
        return sum(r.telemetry.cycles for r in self.results)

    @property
    def cycles_per_s(self) -> float:
        return self.cycles / self.wall

    @property
    def nominal_cycles_per_s(self) -> float:
        """``cycles_per_s`` at the yardstick's nominal host speed."""
        return self.cycles_per_s * NOMINAL / self.host_speed

    @property
    def nominal_setup_s(self) -> float:
        """``setup`` at the yardstick's nominal host speed."""
        return self.setup * self.host_speed / NOMINAL


@contextlib.contextmanager
def _scratch(workdir, prefix: str):
    path = pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=workdir))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Fig5Panel:
    name = "fig5-panel"
    loads = tuple(default_loads(DEFAULT.sweep_points))
    reference = paper_reference("tree", 4, 4, "tree_adaptive", 4, "uniform").saturation

    def configs(self, seed: int) -> list:
        return [
            tree_config(
                k=4,
                n=4,
                vcs=4,
                pattern="uniform",
                load=load,
                seed=sim_seed(seed),
                warmup_cycles=DEFAULT.warmup_cycles,
                total_cycles=DEFAULT.total_cycles,
            )
            for load in self.loads
        ]

    def run(self, configs, workdir, tracer: Tracer | None = None) -> Unit:
        clear_cache()  # the in-process memo must not answer any point
        by_load = {c.load: c for c in configs}
        results: list = []
        arrivals: dict = {}
        clock = time.perf_counter
        with _scratch(workdir, "fig5-") as campaign:
            ledger = Ledger(campaign / "ledger.jsonl")
            with campaign_tasks(tracer, ledger):
                t0 = clock()
                series = run_sweep(
                    by_load.__getitem__,
                    list(by_load),
                    self.name,
                    parallel=True,
                    max_workers=pool_workers(),
                    cache=RunCache(campaign / "cache"),
                    ledger=ledger,
                    checkpoints=CampaignCheckpoints(str(campaign / "checkpoints")),
                    progress=lambda p: arrivals.__setitem__(p.offered, clock()),
                    on_result=results.append,
                )
                wall = clock() - t0
        results.sort(key=lambda r: r.config.load)
        docs = [r.__dict__.pop("perfbench") for r in results]
        unit = Unit(
            results=results,
            wall=wall,
            # pool start-up and the first worker's engine set-up
            setup=min(doc["run_started"] for doc in docs) - t0,
            sat_rel_error=abs(saturation_point(series) - self.reference) / self.reference,
            tracer=tracer,
        )
        if tracer is not None:
            points = []
            for r, doc in zip(results, docs):
                tracer.merge(doc)
                points.append(
                    {
                        "engine_s": r.telemetry.wall_clock_s,
                        "started": doc["task_started"],
                        "arrived": arrivals[r.config.load],
                        "result_bytes": doc["result_bytes"],
                    }
                )
            unit.harness = {"wall": wall, "workers": pool_workers(), "points": points}
        return unit


#: §9's pre-saturation latency of the uniform 16-ary 2-cube (cycles; the
#: paper quotes the same ≈70 for DOR and Duato)
CUBE_LATENCY = paper_reference("cube", 16, 2, "dor", 4, "uniform").latency_presat


def _latency_error(result) -> float:
    """Relative error of a cube run's network latency against §9."""
    return abs(result.avg_latency_cycles - CUBE_LATENCY) / CUBE_LATENCY


class _CubePoint:
    """A unit of one simulation call in this process (the cube workloads).

    ``module`` is where the call looks up ``build_engine``, which is
    where a unit patches it to time set-up (and, traced, to trace).
    """

    name: str
    module = _run

    def call(self, config):
        raise NotImplementedError

    def run(self, configs, workdir, tracer: Tracer | None = None) -> Unit:
        builds: list = []
        with _scratch(workdir, f"{self.name}-") as ckdir:
            with watch_builds(self.module, builds, tracer, CHECKPOINT_CYCLES, ckdir):
                t0 = time.perf_counter()
                result = self.call(configs[0])
                wall = time.perf_counter() - t0
        started, ran = builds[0]
        return Unit(
            results=[result],
            wall=wall,
            setup=ran - started,
            sat_rel_error=_latency_error(result),
            tracer=tracer,
        )


class CubeLight(_CubePoint):
    name = "cube-light"
    load = 0.1

    def configs(self, seed: int) -> list:
        return [
            cube_config(
                algorithm="dor",
                pattern="uniform",
                load=self.load,
                seed=sim_seed(seed),
                warmup_cycles=2000,
                total_cycles=10000,
            )
        ]

    def call(self, config):
        return simulate(config)


class CubeOverload(_CubePoint):
    name = "cube-overload"
    module = _congestion
    reference = paper_reference("cube", 16, 2, "duato", 4, "uniform").saturation
    spec = _congestion.OverloadSpec(
        closed_loop=True,
        saturation=reference,
        transport=default_transport(DEFAULT),
        control=_congestion.DEFAULT_CONTROL,
    )

    def configs(self, seed: int) -> list:
        return [
            cube_config(
                algorithm="duato",
                pattern="uniform",
                load=round(1.5 * self.reference, 9),
                seed=sim_seed(seed),
                # the campaign profile's warm-up, but a shorter run: the
                # host's ±25% unit-to-unit noise needs ~10 units a run
                warmup_cycles=DEFAULT.warmup_cycles,
                total_cycles=850,
            )
        ]

    def call(self, config):
        return _congestion.run_overload_point(config, self.spec)


WORKLOADS = {w.name: w for w in (Fig5Panel(), CubeLight(), CubeOverload())}
