"""Chaos campaigns: randomized fail-stop fault storms under reliable
transport.

The degradation experiments (:mod:`repro.experiments.degradation`) ask
how much *bandwidth* survives a fault fraction when no packet is ever
lost (drain-then-seize).  A chaos campaign asks the harder operational
question: when links die **abruptly** — in-flight worms destroyed, the
engine's fail-stop mode (:class:`~repro.faults.FaultPolicy.FAIL_STOP`)
— how much *end-to-end goodput* does the reliable transport
(:mod:`repro.traffic.transport`) recover, and what does the recovery
cost in retransmissions?

One chaos point = one simulation of a paper configuration with

* the reliable transport installed on every source,
* ``round(fault_rate · population)`` random channel faults scheduled to
  strike at cycles drawn uniformly over the run, each repairing
  ``repair_cycles`` later (0 = permanent), all with fail-stop policy.

The campaign grids that point over offered load × fault rate (×
optionally several repair times) through the resilient sweep harness —
so chaos storms inherit retries, per-point watchdog timeouts, parallel
fan-out and failure recording.  Every point's reliability accounting
plus the storm recipe lands on ``telemetry.reliability`` and is filed
in the ledger as a ``"chaos"`` record (dedup off: grid points
intentionally share config digest + seed), which is what the scorecard
reliability panel reads.

Storms are deterministic given ``storm_seed``: the fault draw and the
strike times come from one dedicated stream, identical across the load
grid so fault-rate curves differ only in the knob under study.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from ..errors import ConfigurationError
from ..faults import (
    CubeLinkFault,
    FaultPolicy,
    FaultSchedule,
    TreeUplinkFault,
    random_cube_link_faults,
    random_uplink_faults,
)
from ..metrics.series import LoadSweepSeries
from ..obs.flight import Flight, FlightRecorder
from ..obs.probe import Layer, find_probe
from ..profiles import Profile, get_profile
from ..sim.results import RunResult
from ..sim.run import Audit
from ..topology.tree import KAryNTree
from ..traffic.transport import Transport, TransportConfig, attach_reliability
from .degradation import _make_config, fault_population
from .sweep import default_loads, run_sweep


@dataclass(frozen=True)
class StormSpec:
    """One fault storm's recipe (picklable: parallel workers rebuild it).

    Attributes:
        fault_rate: fraction of the failable channel population struck
            over the course of the run.
        repair_cycles: down time per fault in cycles; 0 means the fault
            is permanent.
        storm_seed: seed of the storm's dedicated stream (fault draw +
            strike times); independent of the traffic seed.
        transport: reliable-transport tuning for the run.
    """

    fault_rate: float
    repair_cycles: int = 0
    storm_seed: int = 5
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate < 1.0:
            raise ConfigurationError(
                f"fault_rate {self.fault_rate} outside [0, 1)"
            )
        if self.repair_cycles < 0:
            raise ConfigurationError(
                f"repair_cycles must be >= 0, got {self.repair_cycles}"
            )


@dataclass(frozen=True)
class ChaosSeries:
    """One fault-rate level of a chaos campaign: a full load sweep.

    ``results`` holds the raw per-point results (reliability accounting
    on each ``telemetry.reliability``); the aggregate properties below
    average over the load grid, which is what the fault-rate curves
    plot.
    """

    storm: StormSpec
    series: LoadSweepSeries
    results: tuple[RunResult, ...]

    @property
    def mean_goodput_fraction(self) -> float:
        """Goodput (first-copy flits) as a capacity fraction, load-averaged."""
        if not self.results:
            return 0.0
        return sum(r.goodput_fraction for r in self.results) / len(self.results)

    @property
    def mean_retransmit_overhead(self) -> float:
        """Retransmitted share of injected packets, load-averaged."""
        if not self.results:
            return 0.0
        return sum(r.retransmit_overhead for r in self.results) / len(self.results)

    @property
    def total_given_up(self) -> int:
        return sum(r.given_up_packets for r in self.results)

    @property
    def total_dropped(self) -> int:
        return sum(r.dropped_packets for r in self.results)


def _storm_document(topo, storm: StormSpec) -> dict:
    """The storm recipe as run on ``topo``, with the fault count clamped
    to the safely failable population (trees cap at ``k - 1``
    up-channels per switch)."""
    population = fault_population(topo)
    requested = round(storm.fault_rate * population)
    if isinstance(topo, KAryNTree):
        count = min(requested, (topo.n - 1) * topo.switches_per_level * (topo.k - 1))
    else:
        count = min(requested, population)
    return {
        "fault_rate": storm.fault_rate,
        "repair_cycles": storm.repair_cycles,
        "storm_seed": storm.storm_seed,
        "faults": count,
        "population": population,
    }


def _draw_storm_schedule(engine, storm: StormSpec) -> FaultSchedule | None:
    """Build the fail-stop schedule for ``storm`` on a built engine.

    Returns ``None`` for a zero-fault storm (the chaos baseline row).
    """
    topo = engine.topology
    count = _storm_document(topo, storm)["faults"]
    if isinstance(topo, KAryNTree):
        specs = [
            TreeUplinkFault(s, p)
            for s, p in random_uplink_faults(topo, count, seed=storm.storm_seed)
        ]
    else:
        specs = [
            CubeLinkFault(node, dim, direction)
            for node, dim, direction in random_cube_link_faults(
                topo, count, seed=storm.storm_seed
            )
        ]
    if not specs:
        return None
    total = engine.config.total_cycles
    rng = random.Random(storm.storm_seed)
    schedule = FaultSchedule()
    for spec in specs:
        fail_at = rng.randrange(1, max(2, total))
        repair_at = fail_at + storm.repair_cycles if storm.repair_cycles else None
        schedule.add(
            spec, fail_at=fail_at, repair_at=repair_at, policy=FaultPolicy.FAIL_STOP
        )
    return schedule


@dataclass(frozen=True)
class Storm(Layer):
    """Run layer: a fail-stop fault storm.

    The schedule's pending strikes ride the engine's cycle hooks (and so
    any checkpoint); a flight recorder installed earlier gets every
    strike/repair stamped on its timeline as a ``fault_strike`` /
    ``fault_repair`` annotation.  The storm recipe joins
    ``telemetry.reliability["storm"]``, so install a transport layer
    first.
    """

    storm: StormSpec

    def install(self, engine) -> None:
        schedule = _draw_storm_schedule(engine, self.storm)
        if schedule is None:
            return
        schedule.install(engine)
        recorder = find_probe(engine.probe, FlightRecorder)
        if recorder is not None:
            for entry in schedule.entries:
                recorder.annotate(entry.fail_at, "fault_strike", str(entry.spec))
                if entry.repair_at is not None:
                    recorder.annotate(entry.repair_at, "fault_repair", str(entry.spec))

    def finish(self, engine, result):
        doc = _storm_document(engine.topology, self.storm)
        return attach_reliability(result, extra={"storm": doc})


def chaos_layers(storm: StormSpec, flight=None) -> tuple:
    """One chaos point's layers: an optional flight recorder (``flight``
    is a :class:`~repro.obs.flight.FlightConfig`), the reliable
    transport, the storm, and a post-run engine audit."""
    recorder = () if flight is None else (Flight(flight),)
    return recorder + (Transport(storm.transport), Storm(storm), Audit())


def default_transport(profile: Profile) -> TransportConfig:
    """Transport tuning scaled to a profile's time axis.

    The retransmission timer must exceed the uncontended round trip by a
    healthy margin or congestion alone triggers spurious retries; scale
    it with the measurement window so fast smoke profiles stay snappy.
    """
    return TransportConfig(base_timeout=max(128, profile.measure_cycles // 8))


def chaos_campaign(
    network: str = "tree",
    fault_rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20),
    repair_grid: tuple[int, ...] = (0,),
    loads=None,
    profile: Profile | None = None,
    vcs: int = 4,
    seed: int = 47,
    storm_seed: int = 5,
    k: int | None = None,
    n: int | None = None,
    algorithm: str | None = None,
    transport: TransportConfig | None = None,
    flight=None,
    parallel: bool = False,
    max_workers: int | None = None,
    retries: int = 0,
    timeout: float | None = None,
    record_failures: bool = True,
    progress=None,
    ledger=None,
    checkpoints=None,
) -> list[ChaosSeries]:
    """Grid fail-stop storms over fault rate × repair time × offered load.

    One :class:`ChaosSeries` per (fault_rate, repair_cycles) pair, each a
    full load sweep of :func:`chaos_layers` plans through the resilient
    harness.  Adaptive algorithms only — the storms are lane-level, so
    deterministic baselines reject them at validation (by design: the
    unprotected contrast belongs to the fault tests, not the campaign).

    Every completed point is appended to ``ledger`` as a ``"chaos"``
    record with dedup off (grid points share config digest + seed; the
    storm recipe on ``telemetry.reliability`` is what distinguishes
    them).  ``flight`` (a :class:`~repro.obs.flight.FlightConfig`)
    attaches a flight recorder to every point, with strike/repair
    annotations stamped on each timeline.  ``checkpoints`` (a
    :class:`~repro.experiments.sweep.CampaignCheckpoints`) makes every
    point checkpointed and resumable; a rerun with the same directory
    reloads finished points and resumes interrupted ones.
    """
    profile = profile or get_profile()
    if loads is None:
        loads = default_loads(profile.sweep_points)
    if transport is None:
        transport = default_transport(profile)
    out: list[ChaosSeries] = []
    for repair_cycles in repair_grid:
        for rate in fault_rates:
            storm = StormSpec(
                fault_rate=rate,
                repair_cycles=repair_cycles,
                storm_seed=storm_seed,
                transport=transport,
            )
            label = f"{network} chaos fr={rate:.2f}"
            if len(repair_grid) > 1:
                label += f" repair={repair_cycles}"
            collected: list[RunResult] = []
            series = run_sweep(
                partial(
                    _make_config, network, vcs=vcs, profile=profile, seed=seed,
                    k=k, n=n, algorithm=algorithm,
                ),
                loads,
                label,
                parallel=parallel,
                max_workers=max_workers,
                retries=retries,
                timeout=timeout,
                record_failures=record_failures,
                progress=progress,
                ledger=ledger,
                layers=chaos_layers(storm, flight),
                ledger_kind="chaos",
                ledger_dedup=False,
                on_result=collected.append,
                checkpoints=checkpoints,
            )
            out.append(
                ChaosSeries(storm=storm, series=series, results=tuple(collected))
            )
    return out


def degradation_rows(campaign: list[ChaosSeries]) -> list[dict]:
    """Flatten a campaign into fault-rate curve rows (one per series).

    The rows feed the CLI table and mirror what the scorecard
    reliability panel plots from the ledger.
    """
    return [
        {
            "fault_rate": cs.storm.fault_rate,
            "repair_cycles": cs.storm.repair_cycles,
            "goodput_fraction": cs.mean_goodput_fraction,
            "retransmit_overhead": cs.mean_retransmit_overhead,
            "dropped": cs.total_dropped,
            "given_up": cs.total_given_up,
            "points": len(cs.results),
            "failures": len(cs.series.failures),
        }
        for cs in campaign
    ]
