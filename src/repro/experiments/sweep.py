"""Offered-load sweeps, with a resilient campaign harness.

A sweep runs one simulation per offered-load point and assembles a
:class:`~repro.metrics.series.LoadSweepSeries`.  Two execution modes:

* **serial** (default) — one process; right for the single-CPU benchmark
  environment and for reproducibility layering.
* **process pool** — ``parallel=True`` fans points out over
  ``ProcessPoolExecutor`` workers (simulation points are embarrassingly
  parallel, the classic HPC sweep shape); results are identical because
  every point carries its own seeded RNG streams.

Completed points are memoized in an in-process cache keyed by the full
run recipe, so the Figure 7 comparison reuses the raw runs of Figures 5
and 6 instead of simulating everything twice.  Passing a
:class:`~repro.experiments.runcache.RunCache` additionally persists every
completed point to disk (atomic write-then-rename), so a crashed or
killed campaign resumes from its last finished point.

Resilience knobs — a single bad point must not abort a campaign:

* ``timeout`` — per-point wall-clock budget in seconds.  The point runs
  in a watchdog subprocess that is terminated on expiry, turning a hung
  simulation into a catchable
  :class:`~repro.errors.PointTimeoutError`.
* ``retries`` — failed points (deadlock, engine invariant violation,
  timeout) are re-attempted up to this many extra times, each attempt
  with a fresh derived seed, since transient pathologies are often
  seed-specific.
* ``record_failures`` — when set, a point that exhausts its attempts is
  filed as a structured :class:`~repro.metrics.series.FailedPoint` on
  ``series.failures`` and the sweep carries on; when unset (default) the
  last error propagates, preserving the historical fail-fast behavior.

Configuration errors always propagate immediately: they would fail every
attempt of every point, so retrying or recording them only hides a bug.

Campaigns are observable: pass ``progress`` a callable and it receives a
:class:`PointProgress` after every point — completion counts, the
point's outcome and the worker engine's cycles/sec (from the run's
:class:`~repro.obs.telemetry.RunTelemetry`, which survives the process
boundary of parallel workers) — so a long sweep can render a live
progress line instead of going dark for minutes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import signal
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial

from ..errors import (
    ConfigurationError,
    PointTimeoutError,
    RoutingError,
    SimulationError,
    WorkerDiedError,
)
from ..metrics.series import FailedPoint, LoadSweepSeries
from ..sim.checkpoint import CheckpointPolicy, clear_checkpoints, has_resumable
from ..sim.config import SimulationConfig
from ..sim.results import RunResult
from ..sim.run import RunPlan, run_plan, simulate
from .runcache import RunCache

#: in-process memo: cache key -> RunResult
_CACHE: dict[tuple, RunResult] = {}

#: per-point failures the resilient harness retries/records; anything
#: else (ConfigurationError above all) is a campaign-level bug and raises
_RETRYABLE = (SimulationError, RoutingError, PointTimeoutError)

#: seed stride between retry attempts (a prime, to dodge accidental
#: correlation with user seed conventions like 0/1/2/...)
_RESEED_STRIDE = 7919

#: set when a KeyboardInterrupt reached the campaign layer, so worker
#: threads stop retrying points whose watchdogs were just terminated
_INTERRUPTED = threading.Event()

#: live watchdog subprocesses, so an interrupt can terminate them all
#: instead of leaving orphans behind blocked pipe reads
_ACTIVE_WATCHDOGS: set = set()

#: supervisor poll granularity (seconds) for the watchdog pipe loop
_POLL_SLICE = 0.25

#: fraction of the hard timeout at which the supervisor sends the
#: worker SIGUSR1 — the soft-timeout escalation: checkpoint + snapshot
_SOFT_TIMEOUT_FRACTION = 0.5

#: worker heartbeat cadence (seconds) through the watchdog pipe
_HEARTBEAT_SECONDS = 1.0

#: beats may be delayed by GIL pressure; only this much silence from a
#: worker (alive or not) is treated as death
_HEARTBEAT_GRACE = 15.0

#: exponential backoff (seconds) before relaunching after a dead worker
_BACKOFF_BASE = 0.25
_BACKOFF_CAP = 2.0


@dataclasses.dataclass(frozen=True)
class CampaignCheckpoints:
    """Campaign-level checkpoint supervision for :func:`run_sweep`.

    Every point gets its own subdirectory of ``directory`` (named by a
    digest of the campaign label + the point's cache key, so chaos and
    congestion grid cells that share a plain config recipe never
    collide).  Each point directory holds the point's periodic
    checkpoints, its manifest, and — once the point finishes — its
    result document as a one-entry :class:`RunCache`, which is what a
    later ``--resume`` reloads completed points from even for layered
    campaigns, where the global cache is bypassed.
    """

    directory: str
    interval_cycles: int = 1000
    keep: int = 2

    def point_dir(self, label: str, key: tuple) -> str:
        digest = hashlib.sha256(
            json.dumps([label, list(key)], sort_keys=False).encode()
        ).hexdigest()[:32]
        return str(pathlib.Path(self.directory) / digest)

    def policy(self, point_dir: str) -> CheckpointPolicy:
        return CheckpointPolicy(
            directory=point_dir,
            interval_cycles=self.interval_cycles,
            keep=self.keep,
        )


@dataclasses.dataclass(frozen=True)
class PointProgress:
    """One progress report from a running sweep campaign.

    Attributes:
        done: points finished so far (including this one).
        total: points in the campaign.
        offered: the point's offered load.
        label: the point's config label.
        status: ``"ok"`` (simulated), ``"cached"`` (memo or disk hit) or
            ``"failed"`` (recorded as a :class:`FailedPoint`).
        cycles_per_sec: the worker engine's throughput for this point,
            when the result carries telemetry (cached and failed points
            report ``None``).
        flight: compact digest of the point's flight-recorder timeline
            (``rows``, ``annotations``, ``collapse_onset``) when the run
            was flight-instrumented; ``None`` otherwise.  The full
            document stays on the result's telemetry — this is just
            enough for a live ``--watch`` status line.
    """

    done: int
    total: int
    offered: float
    label: str
    status: str
    cycles_per_sec: float | None
    flight: dict | None = None


def _cache_key(config: SimulationConfig) -> tuple:
    return (
        config.network,
        config.k,
        config.n,
        config.algorithm,
        config.vcs,
        config.buffer_flits,
        config.packet_flits,
        config.pattern,
        tuple(sorted(config.pattern_kwargs.items())),
        round(config.load, 9),
        config.warmup_cycles,
        config.total_cycles,
        config.seed,
        config.arbiter,
    )


def clear_cache() -> int:
    """Drop all memoized runs; returns how many were dropped."""
    n = len(_CACHE)
    _CACHE.clear()
    return n


def run_point(
    config: SimulationConfig, use_cache: bool = True, cache: RunCache | None = None
) -> RunResult:
    """Simulate one point, memoizing the result (and persisting it when a
    disk ``cache`` is supplied)."""
    key = _cache_key(config)
    if use_cache:
        if key in _CACHE:
            return _CACHE[key]
        if cache is not None:
            result = cache.get(key)
            if result is not None:
                _CACHE[key] = result
                return result
    result = simulate(config)
    if use_cache:
        _CACHE[key] = result
        if cache is not None:
            cache.put(key, result)
    return result


def default_loads(points: int, lo: float = 0.1, hi: float = 1.0) -> list[float]:
    """Evenly spaced offered-load grid, as in the paper's CNF x-axis."""
    if points < 2:
        raise ConfigurationError(f"a sweep needs >= 2 points, got {points}")
    step = (hi - lo) / (points - 1)
    return [round(lo + i * step, 6) for i in range(points)]


# -- resilient point execution --------------------------------------------------


def _reseeded(config: SimulationConfig, attempt: int) -> SimulationConfig:
    """Attempt 0 is the recipe as given; retries derive fresh seeds."""
    if attempt == 0:
        return config
    return dataclasses.replace(config, seed=config.seed + _RESEED_STRIDE * attempt)


def _watchdog_child(plan: RunPlan, conn, heartbeat: float | None = None) -> None:
    """Subprocess body: run the plan and ship the result (or error) back.

    With ``heartbeat`` set, a daemon thread pulses ``("hb", None)``
    through the pipe so the supervisor can tell a busy worker from a
    dead one; the lock keeps beats and the final payload from
    interleaving (``Connection.send`` is not thread-safe).  When the
    plan checkpoints, SIGUSR1 is routed to the checkpoint probe so the
    supervisor's soft-timeout escalation lands as a checkpoint plus a
    diagnostic snapshot.
    """
    lock = threading.Lock()
    stop = threading.Event()
    if heartbeat:
        def _beat() -> None:
            while not stop.wait(heartbeat):
                try:
                    with lock:
                        conn.send(("hb", None))
                except Exception:  # noqa: BLE001 - parent gone; just stop
                    return

        threading.Thread(target=_beat, daemon=True, name="sweep-heartbeat").start()
    if plan.checkpoint is not None:
        from ..sim.checkpoint import install_escalation_handler

        install_escalation_handler()
    try:
        payload = ("ok", run_plan(plan))
    except Exception as exc:  # noqa: BLE001 - shipped to the parent verbatim
        payload = ("err", exc)
    stop.set()
    try:
        with lock:
            conn.send(payload)
    except Exception:
        # an unpicklable exotic error: degrade to its text form
        with lock:
            conn.send(("err", SimulationError(f"{type(payload[1]).__name__}: {payload[1]}")))
    finally:
        conn.close()


def _run_with_timeout(plan: RunPlan, timeout: float) -> RunResult:
    """Run one point's plan under a wall-clock watchdog in a subprocess.

    The supervisor polls the worker pipe in short slices, filtering
    heartbeats.  At ``_SOFT_TIMEOUT_FRACTION`` of the budget (with
    checkpointing active) the worker gets SIGUSR1 — the soft timeout:
    it checkpoints and writes a diagnostic snapshot but keeps running.
    At the hard deadline the worker is terminated.

    Raises:
        PointTimeoutError: budget exceeded; the subprocess is terminated,
            so even an engine stuck in an infinite loop is contained.
        WorkerDiedError: the worker vanished (or went silent past the
            heartbeat grace) without reporting a result.
    """
    recv, send = multiprocessing.Pipe(duplex=False)
    config = plan.config
    proc = multiprocessing.Process(
        target=_watchdog_child, args=(plan, send, _HEARTBEAT_SECONDS)
    )
    proc.start()
    _ACTIVE_WATCHDOGS.add(proc)
    send.close()
    deadline = time.monotonic() + timeout
    soft_at = None
    if plan.checkpoint is not None and hasattr(signal, "SIGUSR1"):
        soft_at = time.monotonic() + timeout * _SOFT_TIMEOUT_FRACTION
    last_beat = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            if now >= deadline:
                proc.terminate()
                proc.join()
                raise PointTimeoutError(
                    f"point {config.label()} exceeded its {timeout:g}s wall-clock budget"
                )
            wait = min(_POLL_SLICE, max(0.0, deadline - now))
            if soft_at is not None:
                wait = min(wait, max(0.0, soft_at - now))
            if recv.poll(wait):
                try:
                    tag, payload = recv.recv()
                except EOFError:
                    raise WorkerDiedError(
                        f"worker for {config.label()} died without reporting a result"
                    ) from None
                if tag == "hb":
                    last_beat = time.monotonic()
                    continue
                break
            now = time.monotonic()
            if soft_at is not None and now >= soft_at:
                soft_at = None
                with contextlib.suppress(OSError):
                    os.kill(proc.pid, signal.SIGUSR1)
            if now - last_beat > _HEARTBEAT_GRACE:
                proc.terminate()
                proc.join()
                raise WorkerDiedError(
                    f"worker for {config.label()} stopped heartbeating "
                    f"({_HEARTBEAT_GRACE:g}s of silence)"
                )
    finally:
        _ACTIVE_WATCHDOGS.discard(proc)
        recv.close()
        proc.join()
    if tag == "ok":
        return payload
    raise payload


def _point_task(
    config: SimulationConfig,
    retries: int = 0,
    timeout: float | None = None,
    layers: tuple = (),
    checkpoints: CampaignCheckpoints | None = None,
    point_dir: str | None = None,
):
    """Run one point's plan (``config`` + ``layers``) with bounded
    retry-with-reseed.

    Returns ``("ok", result)`` or ``("fail", FailedPoint, last_error)``;
    non-retryable errors propagate.  Top-level so process pools can pickle
    it.

    With ``checkpoints`` supervision, two deviations from plain
    retry-with-reseed: a retry after a timeout or a dead worker keeps
    the *original* seed when the point directory holds a resumable
    checkpoint (resuming a reseeded recipe would reject the checkpoint
    as stale — the whole point is to not lose the completed cycles),
    and a dead worker earns exponential backoff before the relaunch,
    since worker death usually means host pressure, not a bad seed.
    Deadlocks and engine errors still reseed: resuming a deadlocked
    run's own state would deadlock again.
    """
    seeds: list[int] = []
    last: Exception | None = None
    for attempt in range(retries + 1):
        if _INTERRUPTED.is_set():
            # the campaign is tearing down: a retry here would race the
            # interrupt handler's worker cleanup
            raise KeyboardInterrupt
        if isinstance(last, WorkerDiedError):
            delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** (attempt - 1)))
            if _INTERRUPTED.wait(delay):
                raise KeyboardInterrupt
        resume = (
            checkpoints is not None
            and point_dir is not None
            and isinstance(last, (PointTimeoutError, WorkerDiedError))
            and has_resumable(point_dir, config)
        )
        cfg = config if resume else _reseeded(config, attempt)
        seeds.append(cfg.seed)
        ckpt = None
        if checkpoints is not None and point_dir is not None:
            ckpt = checkpoints.policy(point_dir)
        plan = RunPlan(cfg, layers, ckpt)
        try:
            if timeout is None:
                return ("ok", run_plan(plan))
            return ("ok", _run_with_timeout(plan, timeout))
        except _RETRYABLE as exc:
            last = exc
    failure = FailedPoint(
        offered=config.load,
        error=type(last).__name__,
        message=str(last),
        attempts=len(seeds),
        seeds=tuple(seeds),
    )
    return ("fail", failure, last)


def _terminate_workers(pool) -> None:
    """Best-effort kill of everything a campaign has in flight."""
    for proc in list(_ACTIVE_WATCHDOGS):
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 - already-dead processes etc.
            pass
    procs = getattr(pool, "_processes", None)  # ProcessPoolExecutor only
    if procs:
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001
                pass


def _run_parallel(
    pending,
    retries,
    timeout,
    max_workers,
    layers=(),
    consume=None,
    checkpoints=None,
    point_dirs=None,
):
    """Fan points out over a pool, consuming outcomes in submission order.

    On ``KeyboardInterrupt`` the pool's workers and all live watchdog
    subprocesses are terminated, but every point that had *already
    finished* is still flushed through ``consume`` — into the series,
    the disk cache and the ledger — before the interrupt propagates, so
    an interrupted campaign keeps its completed work.
    """
    workers = min(max_workers or os.cpu_count() or 1, len(pending))
    task = partial(
        _point_task,
        retries=retries,
        timeout=timeout,
        layers=layers,
        checkpoints=checkpoints,
    )
    # with a timeout every task already manages its own watchdog
    # subprocess, so the fan-out layer only needs threads to block on pipes
    pool_cls = ProcessPoolExecutor if timeout is None else ThreadPoolExecutor
    pool = pool_cls(max_workers=workers)
    futures = [
        pool.submit(task, config, point_dir=point_dirs[i] if point_dirs else None)
        for i, config in enumerate(pending)
    ]
    consumed = 0
    try:
        for config, fut in zip(pending, futures):
            consume(config, fut.result())
            consumed += 1
    except KeyboardInterrupt:
        # snapshot completion *before* killing workers: termination flips
        # still-running futures into error states we must not flush
        finished = [f.done() and not f.cancelled() for f in futures]
        _INTERRUPTED.set()
        _terminate_workers(pool)
        for idx in range(consumed, len(futures)):
            if finished[idx] and futures[idx].exception() is None:
                try:
                    consume(pending[idx], futures[idx].result())
                except Exception:  # noqa: BLE001 - teardown must not mask the interrupt
                    pass
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# -- campaigns ------------------------------------------------------------------


def run_sweep(
    config_factory: Callable[[float], SimulationConfig],
    loads: Sequence[float],
    label: str,
    parallel: bool = False,
    max_workers: int | None = None,
    use_cache: bool = True,
    retries: int = 0,
    timeout: float | None = None,
    record_failures: bool = False,
    cache: RunCache | None = None,
    progress: Callable[[PointProgress], None] | None = None,
    ledger=None,
    layers: tuple = (),
    ledger_kind: str | None = None,
    ledger_dedup: bool = True,
    on_result: Callable[[RunResult], None] | None = None,
    checkpoints: CampaignCheckpoints | None = None,
) -> LoadSweepSeries:
    """Run one configuration over a load grid.

    Args:
        config_factory: maps an offered load (fraction of capacity) to a
            full run recipe.
        loads: the offered-load grid.
        label: legend label for the resulting series.
        parallel: fan points out over a process pool.
        max_workers: pool size; defaults to ``os.cpu_count()``.
        use_cache: memoize/reuse identical points within this process.
        retries: extra attempts (with fresh derived seeds) per failed point.
        timeout: per-point wall-clock budget in seconds; enforced by a
            terminating watchdog subprocess.
        record_failures: file exhausted points as ``series.failures``
            entries instead of raising (the resilient-campaign mode).
        cache: optional on-disk :class:`RunCache`; completed points are
            persisted atomically and reloaded on the next campaign.
        progress: optional live-telemetry sink; called once per finished
            point with a :class:`PointProgress` (cached hits included).
        ledger: optional :class:`~repro.obs.ledger.Ledger`; every point
            that produced a result (cached hits included) is appended as
            a ``"sweep"`` record, deduplicated by config digest + seed,
            so repeated campaigns accrete one durable results file.
        layers: picklable run layers (:class:`~repro.obs.probe.Layer`)
            composed onto every point's engine: instrumentation
            (forensics, flight recorder) or extra machinery (reliable
            transport, fault storms).  Each point runs as a
            :class:`~repro.sim.run.RunPlan` of its config and these
            layers (parallel workers included).  Caches are bypassed:
            a plain cached run lacks the layers' documents, and a
            layered run must not satisfy later plain campaigns either.
        ledger_kind: override the kind ledger records are filed under
            (default ``"sweep"``).
        ledger_dedup: pass ``dedup=False`` for campaigns whose points
            intentionally share a config digest + seed (e.g. a chaos
            grid varying only the storm parameters).
        on_result: optional callable invoked with every
            :class:`RunResult` added to the series (cached hits
            included), for campaigns that need the raw results beyond
            the series' load points.
        checkpoints: optional :class:`CampaignCheckpoints` supervision.
            Every pending point runs with a per-point checkpoint
            directory (periodic snapshots + manifest); finished points
            persist their result there as a one-entry :class:`RunCache`
            and drop their snapshots.  A later campaign passing the same
            directory reloads completed points from those per-point
            caches (even when ``layers`` bypass the global cache) and
            restarts interrupted points from their newest valid
            checkpoint.  With a ``timeout``, supervision also enables
            worker heartbeats, the SIGUSR1 soft-timeout escalation and
            resume-from-checkpoint retries.
    """
    if layers:
        # the memo/disk cache is keyed by recipe alone; layered and
        # plain runs would collide there (see the docstring)
        use_cache = False
        cache = None
    _INTERRUPTED.clear()
    kind = ledger_kind or "sweep"
    if not loads:
        raise ConfigurationError("empty load grid")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be positive, got {timeout}")
    configs = [config_factory(load) for load in loads]
    sample = configs[0]
    series = LoadSweepSeries(
        label=label,
        network=sample.network,
        algorithm=sample.algorithm,
        vcs=sample.vcs,
        pattern=sample.pattern,
    )

    total = len(configs)
    done = 0

    def report(config: SimulationConfig, status: str, result=None) -> None:
        nonlocal done
        done += 1
        if progress is None:
            return
        telemetry = result.telemetry if result is not None else None
        flight = None
        if telemetry is not None and telemetry.flight is not None:
            doc = telemetry.flight
            flight = {
                "rows": doc["rows"],
                "annotations": [a["kind"] for a in doc["annotations"]],
                "collapse_onset": doc["collapse_onset"],
            }
        progress(
            PointProgress(
                done=done,
                total=total,
                offered=config.load,
                label=config.label(),
                status=status,
                cycles_per_sec=telemetry.cycles_per_sec if telemetry else None,
                flight=flight,
            )
        )

    # Classify by cache key — never by config equality: two configs that
    # compare equal are the same *recipe* regardless of which factory call
    # produced them, and key sets keep this O(n).
    pending: list[SimulationConfig] = []
    for config in configs:
        key = _cache_key(config)
        result = _CACHE.get(key) if use_cache else None
        if result is None and use_cache and cache is not None:
            result = cache.get(key)
            if result is not None:
                _CACHE[key] = result
        if result is None and checkpoints is not None:
            # the point's own one-entry cache — how --resume reloads
            # completed points even for layered campaigns
            result = RunCache(checkpoints.point_dir(label, key)).get(key)
        if result is not None:
            series.add(result)
            if ledger is not None:
                ledger.append_run(result, kind=kind, dedup=ledger_dedup)
            if on_result is not None:
                on_result(result)
            report(config, "cached")
        else:
            pending.append(config)
    if not pending:  # fully cached: no pool, no subprocesses, no work
        return series

    def consume(config: SimulationConfig, outcome) -> None:
        if outcome[0] == "ok":
            result = outcome[1]
            if use_cache:
                _CACHE[_cache_key(result.config)] = result
                if cache is not None:
                    cache.put(_cache_key(result.config), result)
            if checkpoints is not None:
                # file under the ORIGINAL recipe's key (a reseeded retry
                # must still satisfy the same grid point on resume), then
                # drop the now-redundant snapshots
                pdir = checkpoints.point_dir(label, _cache_key(config))
                RunCache(pdir).put(_cache_key(config), result)
                clear_checkpoints(pdir)
            series.add(result)
            if ledger is not None:
                ledger.append_run(result, kind=kind, dedup=ledger_dedup)
            if on_result is not None:
                on_result(result)
            report(config, "ok", result)
        else:
            if not record_failures:
                raise outcome[2]
            series.add_failure(outcome[1])
            report(config, "failed")

    point_dirs = None
    if checkpoints is not None:
        point_dirs = [
            checkpoints.point_dir(label, _cache_key(config)) for config in pending
        ]
    if parallel and len(pending) > 1:
        _run_parallel(
            pending,
            retries,
            timeout,
            max_workers,
            layers=layers,
            consume=consume,
            checkpoints=checkpoints,
            point_dirs=point_dirs,
        )
    else:
        for i, config in enumerate(pending):
            key = _cache_key(config)
            if use_cache and key in _CACHE:  # duplicate earlier in this grid
                series.add(_CACHE[key])
                if ledger is not None:
                    ledger.append_run(_CACHE[key], kind=kind, dedup=ledger_dedup)
                if on_result is not None:
                    on_result(_CACHE[key])
                report(config, "cached")
                continue
            consume(
                config,
                _point_task(
                    config,
                    retries=retries,
                    timeout=timeout,
                    layers=layers,
                    checkpoints=checkpoints,
                    point_dir=point_dirs[i] if point_dirs else None,
                ),
            )
    return series
