"""Overload campaigns: open-loop vs closed-loop behaviour past saturation.

The paper's sweeps stop at each network's saturation point; an overload
campaign drives the same configurations *past* it (up to 2× the paper's
saturation load) and contrasts two operating modes:

* **open loop** — the plain reliable transport
  (:mod:`repro.traffic.transport`): sources inject at the offered rate
  and retransmit blindly into the congested fabric.  Past saturation,
  duplicates and queueing collapse goodput while tail latency grows
  without bound — the classic congestion-collapse curve;
* **closed loop** — the ECN-style control loop of
  :mod:`repro.traffic.congestion` (hot-link marking + per-destination
  AIMD windows), optionally paired with age-based lane arbitration
  (``config.arbiter = "age"``) so the oldest packets drain first.
  Age arbitration trades the tail for the median under deep overload
  (it improves p50 but lets young packets pile up behind old ones,
  inflating p99), so both campaign modes default to round-robin and
  ``arbiter_closed="age"`` is an explicit opt-in.

One overload point = one simulation with ``collect_latencies`` on (the
collapse panel plots p99, which needs the full sample), audited after
the run.  The campaign grids both modes over an offered-load axis
expressed as multiples of the paper's saturation reference, through the
resilient sweep harness; every point lands in the ledger as a
``"congestion"`` record (dedup off: modes share config digest + seed)
with the mode document on ``telemetry.reliability["overload"]`` — which
is what the scorecard's congestion-collapse panel reads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial

from ..metrics.series import LoadSweepSeries
from ..obs.flight import Flight, FlightConfig
from ..obs.probe import Layer
from ..obs.report import paper_reference
from ..profiles import Profile, get_profile
from ..sim.config import SimulationConfig
from ..sim.results import RunResult
from ..sim.run import Audit, RunPlan, build_engine, run_plan
from ..traffic.congestion import Congestion, CongestionConfig
from ..traffic.transport import Transport, TransportConfig, attach_reliability
from .chaos import default_transport
from .degradation import _make_config
from .sweep import run_sweep

#: overload axis when the paper gives no saturation reference for a shape
FALLBACK_SATURATION = 0.6

#: campaign-default control loop, tuned on the paper's 4-ary 4-tree at
#: 1.5-2x saturation: windows sized near the per-flow bandwidth-delay
#: product (min 3, cap 10) so binding trims the queueing tail without
#: pushing the fabric below its knee, one additive step per clean ACK,
#: and marking from windowed blocked-time only (the instantaneous
#: occupancy trigger stays off; full lanes are the steady state past
#: saturation and marking on them pins every window at the floor)
DEFAULT_CONTROL = CongestionConfig(
    window_cycles=128,
    hot_fraction=0.7,
    initial_window=6.0,
    min_window=3.0,
    max_window=10.0,
    additive_increase=1.0,
    multiplicative_decrease=0.7,
    cooldown=256,
)


def saturation_reference(
    network: str, k: int, n: int, algorithm: str, vcs: int, pattern: str
) -> float:
    """The paper's saturation load for a configuration (fraction of
    capacity), falling back to :data:`FALLBACK_SATURATION` for shapes
    the paper does not report."""
    ref = paper_reference(network, k, n, algorithm, vcs, pattern)
    return ref.saturation if ref is not None else FALLBACK_SATURATION


def overload_loads(
    saturation: float,
    points: int,
    lo_factor: float = 0.5,
    max_factor: float = 2.0,
) -> list[float]:
    """Offered-load grid as saturation multiples, ``lo``..``max`` inclusive."""
    if points < 2:
        return [round(saturation * max_factor, 9)]
    step = (max_factor - lo_factor) / (points - 1)
    return [round(saturation * (lo_factor + i * step), 9) for i in range(points)]


@dataclass(frozen=True)
class OverloadSpec:
    """One overload mode's recipe (picklable: workers rebuild it).

    Attributes:
        closed_loop: install the congestion control loop (True) or the
            plain reliable transport (False).
        saturation: the paper's saturation load for the swept shape;
            recorded so the collapse panel can plot saturation multiples.
        arbiter: lane arbitration policy for the run.
        transport: reliable-transport tuning.
        control: congestion-loop tuning (ignored when open loop).
        flight: attach a flight recorder with this tuning; the timeline
            document (window dynamics, mark/decrease/collapse-onset
            annotations) rides on ``telemetry.flight`` into the ledger,
            where the scorecard's dynamics panel reads it.
    """

    closed_loop: bool
    saturation: float = FALLBACK_SATURATION
    arbiter: str = "round_robin"
    transport: TransportConfig = field(default_factory=TransportConfig)
    control: CongestionConfig = field(default_factory=CongestionConfig)
    flight: "FlightConfig | None" = None

    @property
    def mode(self) -> str:
        return "closed" if self.closed_loop else "open"


@dataclass(frozen=True)
class Overload(Layer):
    """Run layer: the mode document of one overload point, joined to
    ``telemetry.reliability["overload"]`` (install a transport layer
    first)."""

    spec: OverloadSpec

    def finish(self, engine, result):
        doc = {
            "mode": self.spec.mode,
            "arbiter": self.spec.arbiter,
            "saturation": self.spec.saturation,
            "factor": round(engine.config.load / self.spec.saturation, 6),
        }
        return attach_reliability(result, extra={"overload": doc})


def overload_config(config: SimulationConfig, spec: OverloadSpec) -> SimulationConfig:
    """One overload point's config: latency collection forced on (the
    collapse panel needs p99) and the spec's arbiter, so both knobs are
    part of the recorded config document."""
    return dataclasses.replace(config, arbiter=spec.arbiter, collect_latencies=True)


def overload_layers(spec: OverloadSpec) -> tuple:
    """One overload point's layers: an optional flight recorder, the
    open- or closed-loop transport, the mode document and a post-run
    engine audit."""
    recorder = () if spec.flight is None else (Flight(spec.flight),)
    if spec.closed_loop:
        transport = Congestion(config=spec.transport, control=spec.control)
    else:
        transport = Transport(spec.transport)
    return recorder + (transport, Overload(spec), Audit())


def run_overload_point(
    config: SimulationConfig, spec: OverloadSpec, checkpoint=None
) -> RunResult:
    """Simulate one overload point in one mode (see :func:`overload_config`
    and :func:`overload_layers`); ``checkpoint`` makes it resumable."""
    plan = RunPlan(overload_config(config, spec), overload_layers(spec), checkpoint)
    # built through this module's build_engine, not repro.sim.run's: the
    # cube-overload benchmark patches it here to time set-up
    return run_plan(plan, build_engine)


@dataclass(frozen=True)
class OverloadSeries:
    """One mode of an overload campaign: a full offered-load sweep."""

    spec: OverloadSpec
    series: LoadSweepSeries
    results: tuple[RunResult, ...]

    def _past_saturation(self) -> list[RunResult]:
        return [
            r for r in self.results if r.config.load > self.spec.saturation
        ]

    @property
    def overload_goodput_fraction(self) -> float:
        """Mean goodput fraction over the points past saturation."""
        past = self._past_saturation()
        if not past:
            return 0.0
        return sum(r.goodput_fraction for r in past) / len(past)

    @property
    def overload_p99_latency(self) -> float | None:
        """Worst p99 latency over the points past saturation."""
        worst = None
        for r in self._past_saturation():
            pct = r.latency_percentiles()
            if pct is not None and (worst is None or pct["p99"] > worst):
                worst = pct["p99"]
        return worst

    @property
    def total_given_up(self) -> int:
        return sum(r.given_up_packets for r in self.results)


def congestion_campaign(
    network: str = "tree",
    modes: tuple[bool, ...] = (False, True),
    loads=None,
    max_factor: float = 2.0,
    profile: Profile | None = None,
    vcs: int = 4,
    pattern: str = "uniform",
    seed: int = 29,
    k: int | None = None,
    n: int | None = None,
    algorithm: str | None = None,
    transport: TransportConfig | None = None,
    control: CongestionConfig | None = None,
    flight: FlightConfig | None = None,
    arbiter_open: str = "round_robin",
    arbiter_closed: str = "round_robin",
    parallel: bool = False,
    max_workers: int | None = None,
    retries: int = 0,
    timeout: float | None = None,
    record_failures: bool = True,
    progress=None,
    ledger=None,
    checkpoints=None,
) -> list[OverloadSeries]:
    """Grid open-loop vs closed-loop runs over an overload axis.

    One :class:`OverloadSeries` per entry of ``modes`` (False = open
    loop, True = closed loop), each a full offered-load sweep of
    overload points (:func:`run_overload_point`) from 0.5× to
    ``max_factor``× the paper's saturation reference for the swept
    shape.  Every completed point is appended to ``ledger`` as a
    ``"congestion"`` record with dedup off (modes intentionally share
    config digest + seed; the mode document on
    ``telemetry.reliability`` is what distinguishes them).
    ``checkpoints`` (a
    :class:`~repro.experiments.sweep.CampaignCheckpoints`) makes every
    point checkpointed and resumable; a rerun with the same directory
    reloads finished points and resumes interrupted ones.
    """
    profile = profile or get_profile()
    saturation = saturation_reference(
        network,
        k or (4 if network == "tree" else 16),
        n or (4 if network == "tree" else 2),
        algorithm or ("tree_adaptive" if network == "tree" else "duato"),
        vcs,
        pattern,
    )
    if loads is None:
        loads = overload_loads(
            saturation, profile.sweep_points, max_factor=max_factor
        )
    if transport is None:
        transport = default_transport(profile)
    if control is None:
        control = DEFAULT_CONTROL
    make = partial(
        _make_config, network, vcs=vcs, profile=profile, seed=seed,
        k=k, n=n, algorithm=algorithm, pattern=pattern,
    )
    out: list[OverloadSeries] = []
    for closed_loop in modes:
        spec = OverloadSpec(
            closed_loop=closed_loop,
            saturation=saturation,
            arbiter=arbiter_closed if closed_loop else arbiter_open,
            transport=transport,
            control=control,
            flight=flight,
        )
        label = f"{network} congestion {spec.mode}-loop"
        collected: list[RunResult] = []
        series = run_sweep(
            lambda load: overload_config(make(load), spec),
            loads,
            label,
            parallel=parallel,
            max_workers=max_workers,
            retries=retries,
            timeout=timeout,
            record_failures=record_failures,
            progress=progress,
            ledger=ledger,
            layers=overload_layers(spec),
            ledger_kind="congestion",
            ledger_dedup=False,
            on_result=collected.append,
            checkpoints=checkpoints,
        )
        out.append(
            OverloadSeries(spec=spec, series=series, results=tuple(collected))
        )
    return out


def collapse_rows(campaign: list[OverloadSeries]) -> list[dict]:
    """Flatten a campaign into collapse-curve rows (one per point).

    The rows feed the CLI table and mirror what the scorecard's
    congestion panel plots from the ledger: goodput and p99 latency vs
    offered load (in saturation multiples), per mode.
    """
    rows = []
    for series in campaign:
        for result in series.results:
            pct = result.latency_percentiles()
            rows.append(
                {
                    "mode": series.spec.mode,
                    "arbiter": series.spec.arbiter,
                    "load": result.config.load,
                    "factor": round(
                        result.config.load / series.spec.saturation, 6
                    ),
                    "goodput_fraction": result.goodput_fraction,
                    "p99_latency": pct["p99"] if pct is not None else None,
                    "retransmit_overhead": result.retransmit_overhead,
                    "given_up": result.given_up_packets,
                }
            )
    return rows
