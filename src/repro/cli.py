"""Command-line interface: ``repro-net`` / ``python -m repro``.

Subcommands:

* ``run`` — one simulation point, printing the §6 metrics (``--json``
  emits the versioned run document with telemetry instead);
* ``sweep`` — a load sweep for one configuration (one CNF curve), with
  live per-point progress on stderr (``--json`` for machine output);
* ``trace`` — one instrumented run: packet-lifecycle event trace
  (Chrome ``trace_event`` and/or JSONL) plus windowed per-lane counters
  (compose ``--flight`` / ``--statehash`` for the timeline and digest
  chain alongside the trace);
* ``diff`` — the divergence bisection debugger: compare two runs' state
  digest chains (run documents, ledger records or config JSON), locate
  the first divergent interval, replay both sides to the exact first
  divergent cycle and name the subsystem/link/lane/flit that differs
  (exit 0 identical, 4 diverged);
* ``fig5`` / ``fig6`` / ``fig7`` — regenerate a paper figure's series
  (``--plot`` adds terminal scatter plots for fig5/fig6);
* ``tables`` — print Tables 1 and 2 next to the paper's values;
* ``drain`` — batch-drain one full permutation and report the makespan;
* ``faults`` — fault-degradation experiments on either network (add
  ``--transient`` for a mid-run fail/repair window with a throughput
  timeline);
* ``chaos`` — randomized fail-stop fault storms with the reliable
  transport installed: goodput-degradation and retransmit-overhead
  curves over a fault-rate × repair-time × load grid, appended to the
  ledger as ``chaos`` records for the scorecard's reliability panel;
* ``analyze`` — congestion forensics from a ``--ledger`` JSONL file:
  the latency-attribution breakdown, wait-for graph digest (deadlock
  precursors) and link-hotspot ranking of a ``--forensics`` run, with
  optional standalone SVG heatmap/breakdown or HTML output;
* ``report`` — render the HTML reproduction scorecard (paper-reference
  overlays + fidelity scores) from a ``--ledger`` JSONL file;
* ``bench`` — record an engine performance baseline
  (``BENCH_<host>.json``: cycles/sec overall and per step phase, probes
  off/on) or ``--compare`` against one (exit 3 on regression);
* ``find-sat`` — bisect the offered load for the saturation point;
* ``dimensions`` — the cube-dimensionality study (§11 outlook);
* ``info`` — topology/normalization facts for a network.

``--cprofile`` (on ``run``, ``sweep`` and ``trace``) wraps the command
in :mod:`cProfile`; note ``--profile`` keeps its historical meaning of
the simulation *effort* profile (fast/default/full).  ``--ledger`` (on
``run``, ``sweep``, ``trace`` and ``faults``) appends every completed
run's document to an append-only JSONL metrics ledger that ``report``
renders into a scorecard.  ``--forensics`` (on ``run`` and ``sweep``)
attaches the congestion-forensics tier — per-packet latency
attribution, wait-for graph sampling, link hotspots — whose document
rides on the run's telemetry into the ledger for ``analyze``.
``--flight`` (on ``run``, ``sweep``, ``trace``, ``chaos`` and
``congestion``) attaches the flight recorder (:mod:`repro.obs.flight`):
a bounded multi-layer time series — engine rates, link occupancy,
transport retransmissions, congestion windows — riding on
``telemetry.flight`` into the run document and ledger for the
scorecard's dynamics panel.  ``--watch`` adds a live in-place status
line on stderr and ``--events PATH`` streams samples/annotations (or
per-point campaign records) as JSONL; both imply ``--flight``.
``--statehash`` (on ``run`` and ``trace``) attaches the state-digest
audit trail (:mod:`repro.obs.statehash`): a bounded chain of layered
Merkle-style state roots on ``telemetry.statehash``, the input of
``diff`` and the scorecard's audit panel; ``--audit`` additionally runs
the engine invariant audit at every digest boundary (and implies
``--statehash``).  ``--checkpoint DIR`` (on ``run``, ``sweep``,
``chaos`` and ``congestion``) writes digest-verified engine
checkpoints (:mod:`repro.sim.checkpoint`) every ``--checkpoint-every``
cycles; ``--resume DIR`` finishes an interrupted run or campaign from
the newest valid checkpoint, reloading already-completed campaign
points from their per-point caches.  Campaigns exit 130 on Ctrl-C and
143 on SIGTERM, flushing completed points either way.

Examples::

    repro-net run --network cube --algorithm duato --load 0.5 --json
    repro-net run --network cube --load 0.5 --statehash --json > a.json
    repro-net diff a.json b.json --out divergence.html
    repro-net run --network cube --pattern transpose --load 0.7 \\
        --forensics --ledger runs.jsonl
    repro-net analyze --ledger runs.jsonl --heatmap hotspots.svg
    repro-net sweep --pattern uniform --ledger runs.jsonl
    repro-net report --ledger runs.jsonl --out scorecard.html
    repro-net bench && repro-net bench --compare BENCH_$(hostname).json
    repro-net trace --network tree --vcs 2 --pattern transpose --load 0.8
    repro-net fig6 --pattern complement --profile fast --plot
    repro-net drain --network tree --pattern bitrev
    repro-net tables
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import signal
import sys
import threading

from .errors import ConfigurationError, ReproError
from .experiments.degradation import degradation_experiment, transient_experiment
from .experiments.dimension import dimension_study
from .experiments.drain import drain_permutation
from .experiments.fig5 import fig5_experiment
from .experiments.fig6 import fig6_experiment
from .experiments.fig7 import fig7_experiment
from .experiments.report import (
    render_ascii_plot,
    render_cnf,
    render_comparison,
    render_delay_table,
)
from .experiments.search import find_saturation
from .experiments.sweep import default_loads, run_sweep
from .experiments.tables import table1_rows, table2_rows
from .profiles import get_profile
from .sim.run import cube_config, tree_config
from .timing.normalization import cube_scaling, equal_cost_pairs, tree_scaling
from .topology.cube import KAryNCube
from .topology.tree import KAryNTree
from .traffic.patterns import PATTERNS


def _add_common(p: argparse.ArgumentParser, with_algo: bool = True) -> None:
    p.add_argument("--network", choices=("tree", "cube"), default="tree")
    p.add_argument("--k", type=int, default=None, help="radix (default: paper network)")
    p.add_argument("--n", type=int, default=None, help="dimension/levels")
    if with_algo:
        p.add_argument(
            "--algorithm",
            default=None,
            help="tree_adaptive (tree) or dor/duato (cube); default per network",
        )
    p.add_argument("--vcs", type=int, default=4)
    p.add_argument("--pattern", choices=sorted(PATTERNS), default="uniform")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--profile", default=None, help="fast, default or full")
    p.add_argument(
        "--arbiter",
        choices=("round_robin", "age"),
        default="round_robin",
        help="lane arbitration policy (age = oldest packet first)",
    )


def _add_observability(p: argparse.ArgumentParser) -> None:
    """Machine output, ledger and CPU-profiling flags shared by
    run/sweep/trace."""
    p.add_argument(
        "--json",
        action="store_true",
        help="emit a versioned machine-readable JSON document (with telemetry)",
    )
    p.add_argument(
        "--ledger",
        default=None,
        metavar="JSONL",
        help=(
            "append every completed run's versioned document to this JSONL "
            "metrics ledger (deduplicated by config digest + seed)"
        ),
    )
    p.add_argument(
        "--cprofile",
        nargs="?",
        const="-",
        default=None,
        metavar="STATS",
        help=(
            "run under cProfile; with no value print the top functions to "
            "stderr, with a path dump pstats there (--profile remains the "
            "simulation effort profile)"
        ),
    )


def _add_flight(p: argparse.ArgumentParser) -> None:
    """Flight-recorder flags shared by run/sweep/chaos/congestion."""
    p.add_argument(
        "--flight",
        nargs="?",
        const=0,
        default=None,
        type=int,
        metavar="CYCLES",
        help=(
            "attach the flight recorder (bounded multi-layer time series on "
            "telemetry.flight); optional value overrides the sampling "
            "interval in cycles (default 128)"
        ),
    )
    p.add_argument(
        "--watch",
        action="store_true",
        help=(
            "live in-place status line on stderr while the run/campaign "
            "progresses (implies --flight)"
        ),
    )
    p.add_argument(
        "--events",
        default=None,
        metavar="JSONL",
        help=(
            "stream flight samples/annotations to this JSONL file as they "
            "happen (implies --flight); campaigns stream one point record "
            "per completed point"
        ),
    )


def _flight_config(args):
    """The FlightConfig requested by --flight/--watch/--events, or None."""
    interval = getattr(args, "flight", None)
    if interval is None and not (
        getattr(args, "watch", False) or getattr(args, "events", None)
    ):
        return None
    from .obs.flight import FlightConfig

    if interval:
        return FlightConfig(interval_cycles=interval)
    return FlightConfig()


def _add_statehash(p: argparse.ArgumentParser) -> None:
    """State-digest audit-trail flags shared by run/trace."""
    p.add_argument(
        "--statehash",
        nargs="?",
        const=0,
        default=None,
        type=int,
        metavar="CYCLES",
        help=(
            "attach the state-digest audit trail (bounded Merkle-style "
            "digest chain on telemetry.statehash, the input of `diff`); "
            "optional value overrides the digest interval in cycles "
            "(default 128)"
        ),
    )
    p.add_argument(
        "--audit",
        action="store_true",
        help=(
            "run the engine invariant audit at every digest boundary "
            "(implies --statehash); violations then surface within one "
            "interval of their origin instead of at drain time"
        ),
    )


def _statehash_config(args):
    """The StateDigestConfig requested by --statehash/--audit, or None."""
    interval = getattr(args, "statehash", None)
    audit = getattr(args, "audit", False)
    if interval is None and not audit:
        return None
    from .obs.statehash import StateDigestConfig

    if interval:
        return StateDigestConfig(interval_cycles=interval, audit=audit)
    return StateDigestConfig(audit=audit)


def _watch_sampler(stream=None):
    """An ``on_sample`` callback rendering one in-place status line."""
    stream = stream or sys.stderr

    def on_sample(row) -> None:
        span = row["span"] or 1
        parts = [
            f"t={row['cycle'] + 1:>8,}",
            f"inj {row['injected'] / span:6.2f}",
            f"dlv {row['delivered'] / span:6.2f} fl/cyc",
            f"in-flight {row['in_flight']:>6,}",
            f"backlog {row['backlog']:>8,}",
        ]
        if "retx" in row:
            parts.append(f"retx {row['retx']:>5}")
        if "cwnd_mean" in row:
            parts.append(f"cwnd {row['cwnd_mean']:5.2f}")
            parts.append(f"held {row['held']:>5}")
        print("\r  " + "  ".join(parts) + "\x1b[K", end="", file=stream, flush=True)

    return on_sample


def _campaign_events(path):
    """A per-point JSONL event writer for campaign --events, or None."""
    if path is None:
        return None
    fh = open(path, "w", encoding="utf-8")

    def write(p) -> None:
        record = {
            "type": "point",
            "done": p.done,
            "total": p.total,
            "label": p.label,
            "offered": p.offered,
            "status": p.status,
            "flight": getattr(p, "flight", None),
        }
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()

    write.close = fh.close
    return write


def _campaign_progress(args):
    """Compose the progress callback for a campaign command.

    Honors ``--watch`` (in-place status line instead of one line per
    point) and ``--events`` (per-point JSONL records, flight digest
    included).  Returns ``(progress, close)``.
    """
    printer = _progress_printer(inplace=getattr(args, "watch", False))
    events = _campaign_events(getattr(args, "events", None))
    if events is None:
        return printer, lambda: None

    def progress(p) -> None:
        printer(p)
        events(p)

    return progress, events.close


def _add_checkpoint(p: argparse.ArgumentParser) -> None:
    """Checkpoint/resume flags shared by run/sweep/chaos/congestion."""
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "write digest-verified engine checkpoints into this directory "
            "(periodic snapshots + manifest); an interrupted run/campaign "
            "can later be finished with --resume DIR"
        ),
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        metavar="CYCLES",
        help="cycles between periodic checkpoints (default 1000)",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "resume from an existing checkpoint directory: completed "
            "campaign points reload from their per-point caches, "
            "interrupted ones restart from their newest valid checkpoint "
            "(corrupt or stale checkpoints are discarded with a recorded "
            "finding); keeps checkpointing into the same directory"
        ),
    )


def _checkpoint_dir(args) -> str | None:
    """The checkpoint directory requested by --checkpoint/--resume."""
    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    if resume is not None:
        if (
            checkpoint is not None
            and pathlib.Path(checkpoint).resolve() != pathlib.Path(resume).resolve()
        ):
            raise ConfigurationError(
                "--checkpoint and --resume name different directories"
            )
        if not pathlib.Path(resume).is_dir():
            raise ConfigurationError(
                f"--resume directory {resume!r} does not exist"
            )
        return resume
    return checkpoint


def _checkpoint_policy(args):
    """The per-run CheckpointPolicy requested on the command line, or None."""
    directory = _checkpoint_dir(args)
    if directory is None:
        return None
    from .sim.checkpoint import CheckpointPolicy

    return CheckpointPolicy(
        directory=directory, interval_cycles=args.checkpoint_every
    )


def _campaign_checkpoints(args):
    """The CampaignCheckpoints supervision requested, or None."""
    directory = _checkpoint_dir(args)
    if directory is None:
        return None
    from .experiments.sweep import CampaignCheckpoints

    return CampaignCheckpoints(
        directory=directory, interval_cycles=args.checkpoint_every
    )


class _SigtermInterrupt(KeyboardInterrupt):
    """SIGTERM, promoted to the KeyboardInterrupt teardown path."""


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Give SIGTERM the same grace as Ctrl-C for the enclosed campaign.

    Campaigns already checkpoint in-flight points and flush completed
    ones on KeyboardInterrupt; a supervisor's TERM (systemd, Slurm, CI
    runners) deserves the identical teardown instead of an abrupt die.
    The previous handler is restored on exit; off the main thread this
    is a no-op (signal handlers can only be installed there).
    """
    if threading.current_thread() is not threading.main_thread() or not hasattr(
        signal, "SIGTERM"
    ):
        yield
        return

    def raise_interrupt(signum, frame):
        raise _SigtermInterrupt

    previous = signal.signal(signal.SIGTERM, raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _open_ledger(args):
    """The Ledger named by ``--ledger``, or None."""
    path = getattr(args, "ledger", None)
    if path is None:
        return None
    from .obs.ledger import Ledger

    return Ledger(path)


def _make_config(args, load: float):
    profile = get_profile(args.profile)
    common = dict(
        vcs=args.vcs,
        pattern=args.pattern,
        load=load,
        seed=args.seed,
        warmup_cycles=profile.warmup_cycles,
        total_cycles=profile.total_cycles,
        arbiter=getattr(args, "arbiter", "round_robin"),
    )
    if args.network == "tree":
        return tree_config(k=args.k or 4, n=args.n or 4, **common)
    algorithm = getattr(args, "algorithm", None) or "duato"
    return cube_config(k=args.k or 16, n=args.n or 2, algorithm=algorithm, **common)


def _with_cprofile(args, body):
    """Run ``body`` under cProfile when ``--cprofile`` was given.

    ``--cprofile`` with no value prints the top cumulative functions to
    stderr; with a path it dumps a :mod:`pstats` file for ``snakeviz``
    and friends.  (The effort profile stays on ``--profile``.)
    """
    target = getattr(args, "cprofile", None)
    if target is None:
        return body()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return body()
    finally:
        profiler.disable()
        if target == "-":
            pstats.Stats(profiler, stream=sys.stderr).sort_stats(
                "cumulative"
            ).print_stats(25)
        else:
            profiler.dump_stats(target)
            print(f"cProfile stats written to {target}", file=sys.stderr)


def _run_surviving_deadlock(plan, survive: bool = True):
    """``(result, deadlock)`` of one plan.  With ``survive`` a deadlock
    returns the partial result and the error instead of raising: the
    probe documents up to the wedge are the post-mortem."""
    from .errors import DeadlockError
    from .sim.run import run_plan

    try:
        return run_plan(plan), None
    except DeadlockError as exc:
        if not survive:
            raise
        return exc.result, exc


def _observer_layers(args) -> tuple:
    """The flight-recorder and state-digest layers of a single run
    (--flight/--watch/--events, --statehash/--audit)."""
    layers = _flight_layers(args, live=True)
    statehash = _statehash_config(args)
    if statehash is not None:
        from .obs.statehash import Statehash

        layers += (Statehash(statehash),)
    return layers


def _flight_layers(args, live: bool = False) -> tuple:
    """The flight-recorder layer requested by --flight/--watch/--events.

    ``live`` (single runs) streams --watch and --events from the
    recorder itself; campaigns report per point instead.
    """
    flight = _flight_config(args)
    if flight is None:
        return ()
    from .obs.flight import Flight

    if not live:
        return (Flight(flight),)
    on_sample = _watch_sampler() if args.watch else None
    return (Flight(flight, on_sample=on_sample, events=args.events),)


def cmd_run(args) -> int:
    def body() -> int:
        import dataclasses

        from .sim.run import RunPlan

        config = _make_config(args, args.load)
        if args.latencies or args.forensics:
            config = dataclasses.replace(config, collect_latencies=True)
        layers = ()
        if args.forensics:
            from .obs.forensics import Forensics

            layers = (Forensics(sample_every=args.sample_every),)
        layers += _observer_layers(args)
        plan = RunPlan(config, layers, _checkpoint_policy(args))
        result, deadlock = _run_surviving_deadlock(plan, survive=args.forensics)
        if args.watch:
            print(file=sys.stderr)  # finish the in-place status line
        ledger = _open_ledger(args)
        if ledger is not None:
            ledger.append_run(result, kind="forensics" if args.forensics else "run")
        if args.json:
            from .metrics.io import run_result_to_dict

            doc = run_result_to_dict(result)
            if args.forensics:
                doc["deadlock"] = str(deadlock) if deadlock is not None else None
            print(json.dumps(doc, indent=1))
            return 1 if deadlock is not None else 0
        print(result.summary())
        if result.telemetry is not None:
            print(result.telemetry.summary())
            print(result.telemetry.phase_summary())
        pct = result.latency_percentiles()
        if pct is not None:
            from .obs.percentiles import format_percentiles

            print(format_percentiles(pct))
        if result.telemetry is not None and result.telemetry.forensics is not None:
            from .obs.forensics import describe_forensics

            print(describe_forensics(result.telemetry.forensics))
        if result.telemetry is not None and result.telemetry.flight is not None:
            from .obs.flight import describe_flight

            print(describe_flight(result.telemetry.flight))
        if result.telemetry is not None and result.telemetry.statehash is not None:
            from .obs.statehash import describe_statehash

            print(describe_statehash(result.telemetry.statehash))
        if deadlock is not None:
            print(f"error: {deadlock}", file=sys.stderr)
            return 1
        return 0

    return _with_cprofile(args, body)


def _progress_printer(stream=None, inplace=False):
    """Live per-point sweep progress (stderr by default).

    ``inplace`` rewrites one status line (``--watch``) instead of
    printing one line per point; either way a flight digest rides along
    when the point was flight-instrumented.
    """
    stream = stream or sys.stderr

    def report(p) -> None:
        rate = f"{p.cycles_per_sec:,.0f} cyc/s" if p.cycles_per_sec else p.status
        line = f"  [{p.done}/{p.total}] load {p.offered:.3f} {p.status:<6} {rate}"
        digest = getattr(p, "flight", None)
        if digest:
            annotations = ",".join(digest["annotations"]) or "-"
            line += f"  flight {digest['rows']} rows [{annotations}]"
        if inplace:
            end = "\n" if p.done >= p.total else ""
            print("\r" + line + "\x1b[K", end=end, file=stream, flush=True)
        else:
            print(line, file=stream)

    return report


def cmd_sweep(args) -> int:
    def body() -> int:
        profile = get_profile(args.profile)
        loads = default_loads(profile.sweep_points)
        telemetry: list = []

        layers = _flight_layers(args)
        if args.forensics:
            from .obs.forensics import Forensics

            layers = (Forensics(),) + layers
        campaign_progress, close_events = _campaign_progress(args)

        def progress(p) -> None:
            campaign_progress(p)
            if p.cycles_per_sec is not None:
                telemetry.append(p.cycles_per_sec)

        try:
            with _sigterm_as_interrupt():
                series = run_sweep(
                    lambda load: _make_config(args, load),
                    loads,
                    label=args.pattern,
                    progress=progress,
                    ledger=_open_ledger(args),
                    layers=layers,
                    ledger_kind="forensics" if args.forensics else None,
                    checkpoints=_campaign_checkpoints(args),
                )
        except _SigtermInterrupt:
            print(
                "terminated: completed points were flushed to the cache/ledger",
                file=sys.stderr,
            )
            return 143
        except KeyboardInterrupt:
            print(
                "interrupted: completed points were flushed to the cache/ledger",
                file=sys.stderr,
            )
            return 130
        finally:
            close_events()
        from .metrics.saturation import saturation_point

        if args.json:
            from .metrics.io import sweep_document

            print(json.dumps(sweep_document(series, telemetry), indent=1))
            return 0

        from .experiments.report import render_table

        rows = [
            [p.offered, p.offered_measured, p.accepted, p.latency_cycles, p.delivered_packets]
            for p in series.points
        ]
        print(
            render_table(
                ["offered", "measured", "accepted", "latency_cyc", "packets"],
                rows,
                title=f"{args.network} sweep, {args.pattern} traffic",
            )
        )
        print(f"saturation: {saturation_point(series):.3f} of capacity")
        return 0

    return _with_cprofile(args, body)


def cmd_trace(args) -> int:
    def body() -> int:
        from .obs import Attach, TraceProbe, WindowedCounterProbe
        from .sim.run import RunPlan

        config = _make_config(args, args.load)
        tracer = TraceProbe(max_events=args.max_events)
        counters = WindowedCounterProbe(window_cycles=args.window)
        layers = (Attach(tracer), Attach(counters)) + _observer_layers(args)
        result, deadlocked = _run_surviving_deadlock(RunPlan(config, layers))
        if args.watch:
            print(file=sys.stderr)

        ledger = _open_ledger(args)
        if ledger is not None:
            ledger.append_run(result, kind="trace")

        out = pathlib.Path(args.out)
        written = []
        if args.format in ("chrome", "both"):
            tracer.write_chrome_trace(out)
            written.append(str(out))
        if args.format in ("jsonl", "both"):
            jsonl = out.with_suffix(".jsonl") if args.format == "both" else out
            tracer.write_jsonl(jsonl)
            written.append(str(jsonl))
        if args.counters:
            pathlib.Path(args.counters).write_text(
                json.dumps({"window_cycles": args.window, "windows": counters.to_dicts()})
            )
            written.append(args.counters)

        if args.json:
            from .metrics.io import run_result_to_dict

            doc = run_result_to_dict(result)
            doc["trace"] = {
                "events": len(tracer.events),
                "truncated": tracer.truncated,
                "counter_windows": len(counters.windows),
                "written": written,
                "deadlock": str(deadlocked) if deadlocked is not None else None,
            }
            print(json.dumps(doc, indent=1))
            return 1 if deadlocked is not None else 0

        print(result.summary())
        if result.telemetry is not None:
            print(result.telemetry.summary())
            print(result.telemetry.phase_summary())
        print(
            f"trace: {len(tracer.events)} events"
            + (" (truncated)" if tracer.truncated else "")
            + f", {len(counters.windows)} counter windows -> {', '.join(written)}"
        )
        if result.telemetry is not None and result.telemetry.flight is not None:
            from .obs.flight import describe_flight

            print(describe_flight(result.telemetry.flight))
        if result.telemetry is not None and result.telemetry.statehash is not None:
            from .obs.statehash import describe_statehash

            print(describe_statehash(result.telemetry.statehash))
        blocked = counters.most_blocked(3)
        if blocked and blocked[0][1]["blocked_cycles"]:
            print("most blocked channel directions (switch, port):")
            for (switch, port), tot in blocked:
                if not tot["blocked_cycles"]:
                    continue
                print(
                    f"  sw{switch} port{port}: {tot['blocked_cycles']} blocked cycles, "
                    f"{tot['flits']} flits over {tot['cycles']} measured cycles"
                )
        if deadlocked is not None:
            print(f"error: {deadlocked}", file=sys.stderr)
            return 1
        return 0

    return _with_cprofile(args, body)


def cmd_diff(args) -> int:
    from .obs.diff import DIVERGENCE_EXIT_CODE, describe_diff, diff_runs

    doc = diff_runs(
        args.a,
        args.b,
        interval=args.interval,
        max_findings=args.max_findings,
    )
    if args.out:
        from .obs.report import render_diff_html

        pathlib.Path(args.out).write_text(render_diff_html(doc))
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(describe_diff(doc))
    return 0 if doc["identical"] else DIVERGENCE_EXIT_CODE


def cmd_fig5(args) -> int:
    cnf = fig5_experiment(args.pattern, get_profile(args.profile), seed=args.seed)
    print(render_cnf(cnf))
    if getattr(args, "plot", False):
        print()
        print(render_ascii_plot(cnf, "accepted"))
        print()
        print(render_ascii_plot(cnf, "latency"))
    return 0


def cmd_fig6(args) -> int:
    cnf = fig6_experiment(args.pattern, get_profile(args.profile), seed=args.seed)
    print(render_cnf(cnf))
    if getattr(args, "plot", False):
        print()
        print(render_ascii_plot(cnf, "accepted"))
        print()
        print(render_ascii_plot(cnf, "latency"))
    return 0


def cmd_fig7(args) -> int:
    print(render_comparison(fig7_experiment(args.pattern, get_profile(args.profile))))
    return 0


def cmd_drain(args) -> int:
    result = drain_permutation(_make_config(args, load=0.0))
    print(f"pattern:         {args.pattern}")
    print(f"packets drained: {result.packets}")
    print(f"makespan:        {result.makespan_cycles} cycles")
    print(f"avg latency:     {result.avg_latency_cycles:.1f} cycles")
    print(f"max latency:     {result.max_latency_cycles} cycles")
    print(f"throughput:      {result.throughput_flits_per_cycle:.2f} flits/cycle aggregate")
    return 0


def cmd_find_sat(args) -> int:
    estimate = find_saturation(
        lambda load: _make_config(args, load),
        resolution=args.resolution,
    )
    print(
        f"saturation: {estimate.load:.3f} of capacity "
        f"(bracket [{estimate.lo:.3f}, {estimate.hi:.3f}], "
        f"{estimate.evaluations} simulations)"
    )
    return 0


def cmd_dimensions(args) -> int:
    from .experiments.report import render_table

    rows = dimension_study(
        algorithm=args.algorithm or "duato",
        pattern=args.pattern,
        profile=get_profile(args.profile),
    )
    print(
        render_table(
            ["shape", "flit B", "wires", "T_clock ns", "sat bits/ns", "latency ns"],
            [
                [
                    r.variant.label,
                    r.variant.flit_bytes,
                    r.variant.wire.value,
                    round(r.variant.clock_ns, 2),
                    round(r.saturation_bits_per_ns, 1),
                    round(r.low_load_latency_ns, 1),
                ]
                for r in rows
            ],
            title="Cube dimensionality under physical constraints (N=256)",
        )
    )
    return 0


def cmd_faults(args) -> int:
    from .experiments.report import render_table

    profile = get_profile(args.profile)
    ledger = _open_ledger(args)
    if args.transient:
        result, row = transient_experiment(
            network=args.network,
            fraction=args.fraction,
            fail_at=args.fail_at,
            repair_at=args.repair_at,
            profile=profile,
            load=args.load,
            vcs=args.vcs,
            seed=args.seed,
            fault_seed=args.fault_seed,
            k=args.k,
            n=args.n,
            algorithm=getattr(args, "algorithm", None),
            ledger=ledger,
        )
        print(result.summary())
        print(f"faults: {row.faults} channel directions failed mid-run, then repaired")
        if result.throughput_timeline:
            peak = max(result.throughput_timeline) or 1
            print("delivered flits per interval (fault window dips, repair recovers):")
            for i, flits in enumerate(result.throughput_timeline):
                bar = "#" * round(40 * flits / peak)
                print(f"  t{i:<3d} {flits:>7d} {bar}")
        return 0
    try:
        fractions = tuple(float(f) for f in args.fractions.split(",") if f.strip())
    except ValueError:
        raise ConfigurationError(f"bad --fractions {args.fractions!r}") from None
    rows = degradation_experiment(
        network=args.network,
        fractions=fractions,
        profile=profile,
        load=args.load,
        vcs=args.vcs,
        seed=args.seed,
        fault_seed=args.fault_seed,
        k=args.k,
        n=args.n,
        algorithm=getattr(args, "algorithm", None),
        ledger=ledger,
    )
    print(
        render_table(
            ["fault frac", "failed chans", "accepted", "latency_cyc", "escape frac"],
            [
                [
                    r.fraction,
                    r.faults,
                    round(r.accepted, 4),
                    None if r.latency_cycles is None else round(r.latency_cycles, 1),
                    None if r.escape_fraction is None else round(r.escape_fraction, 3),
                ]
                for r in rows
            ],
            title=f"{args.network} fault degradation, load {args.load:g}",
        )
    )
    return 0


def cmd_chaos(args) -> int:
    from .experiments.chaos import chaos_campaign, degradation_rows
    from .experiments.report import render_table
    from .traffic.transport import TransportConfig

    profile = get_profile(args.profile)
    try:
        rates = tuple(float(f) for f in args.rates.split(",") if f.strip())
        repairs = tuple(int(f) for f in args.repairs.split(",") if f.strip())
    except ValueError:
        raise ConfigurationError(
            f"bad --rates {args.rates!r} or --repairs {args.repairs!r}"
        ) from None
    transport = None
    if args.base_timeout is not None or args.max_retries is not None:
        from .experiments.chaos import default_transport

        base = default_transport(profile)
        transport = TransportConfig(
            ack_delay=base.ack_delay,
            base_timeout=args.base_timeout or base.base_timeout,
            backoff=base.backoff,
            jitter=base.jitter,
            max_retries=(
                args.max_retries if args.max_retries is not None else base.max_retries
            ),
            seed=base.seed,
        )
    ledger = _open_ledger(args)
    networks = ("tree", "cube") if args.network == "both" else (args.network,)
    all_rows = []
    progress, close_events = _campaign_progress(args)
    try:
        for network in networks:
            print(f"chaos campaign: {network}", file=sys.stderr)
            try:
                with _sigterm_as_interrupt():
                    campaign = chaos_campaign(
                        network=network,
                        fault_rates=rates,
                        repair_grid=repairs,
                        profile=profile,
                        vcs=args.vcs,
                        seed=args.seed,
                        storm_seed=args.storm_seed,
                        k=args.k,
                        n=args.n,
                        algorithm=args.algorithm if args.network != "both" else None,
                        transport=transport,
                        flight=_flight_config(args),
                        parallel=args.parallel,
                        max_workers=args.workers,
                        retries=args.retries,
                        timeout=args.timeout,
                        progress=progress,
                        ledger=ledger,
                        checkpoints=_campaign_checkpoints(args),
                    )
            except _SigtermInterrupt:
                print(
                    "terminated: completed points were flushed to the ledger",
                    file=sys.stderr,
                )
                return 143
            except KeyboardInterrupt:
                print(
                    "interrupted: completed points were flushed to the ledger",
                    file=sys.stderr,
                )
                return 130
            for row in degradation_rows(campaign):
                all_rows.append({"network": network, **row})
    finally:
        close_events()
    if args.json:
        print(json.dumps({"rows": all_rows}, indent=1))
        return 0
    print(
        render_table(
            ["network", "fault rate", "repair", "goodput", "retx ovh",
             "dropped", "gave up", "failures"],
            [
                [
                    r["network"],
                    r["fault_rate"],
                    r["repair_cycles"] or "perm",
                    round(r["goodput_fraction"], 4),
                    round(r["retransmit_overhead"], 4),
                    r["dropped"],
                    r["given_up"],
                    r["failures"],
                ]
                for r in all_rows
            ],
            title="fail-stop chaos campaign (load-averaged per fault rate)",
        )
    )
    if ledger is not None:
        print(
            f"chaos records appended to {args.ledger}; render the goodput "
            "panel with: repro-net report --ledger "
            f"{args.ledger} --out scorecard.html",
            file=sys.stderr,
        )
    return 0


def cmd_congestion(args) -> int:
    from .experiments.congestion import collapse_rows, congestion_campaign
    from .experiments.report import render_table
    from .traffic.transport import TransportConfig

    profile = get_profile(args.profile)
    modes = {"both": (False, True), "open": (False,), "closed": (True,)}[args.mode]
    transport = None
    if (
        args.base_timeout is not None
        or args.backoff is not None
        or args.max_retries is not None
    ):
        from .experiments.chaos import default_transport

        base = default_transport(profile)
        transport = TransportConfig(
            ack_delay=base.ack_delay,
            base_timeout=args.base_timeout or base.base_timeout,
            backoff=args.backoff if args.backoff is not None else base.backoff,
            jitter=base.jitter,
            max_retries=(
                args.max_retries if args.max_retries is not None else base.max_retries
            ),
            seed=base.seed,
        )
    ledger = _open_ledger(args)
    print(f"congestion campaign: {args.network}", file=sys.stderr)
    progress, close_events = _campaign_progress(args)
    try:
        with _sigterm_as_interrupt():
            campaign = congestion_campaign(
                network=args.network,
                modes=modes,
                max_factor=args.max_factor,
                profile=profile,
                vcs=args.vcs,
                pattern=args.pattern,
                seed=args.seed,
                k=args.k,
                n=args.n,
                algorithm=args.algorithm,
                transport=transport,
                flight=_flight_config(args),
                arbiter_closed=args.arbiter_closed,
                parallel=args.parallel,
                max_workers=args.workers,
                retries=args.retries,
                timeout=args.timeout,
                progress=progress,
                ledger=ledger,
                checkpoints=_campaign_checkpoints(args),
            )
    except _SigtermInterrupt:
        print(
            "terminated: completed points were flushed to the ledger",
            file=sys.stderr,
        )
        return 143
    except KeyboardInterrupt:
        print(
            "interrupted: completed points were flushed to the ledger",
            file=sys.stderr,
        )
        return 130
    finally:
        close_events()
    rows = collapse_rows(campaign)
    if args.json:
        print(json.dumps({"rows": rows}, indent=1))
        return 0
    print(
        render_table(
            ["mode", "arbiter", "load", "x sat", "goodput", "p99 lat",
             "retx ovh", "gave up"],
            [
                [
                    r["mode"],
                    r["arbiter"],
                    round(r["load"], 3),
                    round(r["factor"], 2),
                    round(r["goodput_fraction"], 4),
                    r["p99_latency"],
                    round(r["retransmit_overhead"], 4),
                    r["given_up"],
                ]
                for r in rows
            ],
            title="overload campaign: open vs closed loop past saturation",
        )
    )
    if ledger is not None:
        print(
            f"congestion records appended to {args.ledger}; render the "
            f"collapse panel with: repro-net report --ledger {args.ledger} "
            "--out scorecard.html",
            file=sys.stderr,
        )
    return 0


def cmd_analyze(args) -> int:
    from .obs.ledger import Ledger

    matches = []
    for rec in Ledger(args.ledger).records():
        telemetry = (rec.get("run") or {}).get("telemetry") or {}
        if not telemetry.get("forensics"):
            continue
        if args.network and rec.get("network") != args.network:
            continue
        if args.pattern and rec.get("pattern") != args.pattern:
            continue
        if args.algorithm and rec.get("algorithm") != args.algorithm:
            continue
        matches.append(rec)
    if not matches:
        raise ConfigurationError(
            f"ledger {args.ledger} holds no forensics-instrumented runs "
            "matching the filters (record one with run/sweep --forensics)"
        )
    try:
        rec = matches[args.index]
    except IndexError:
        raise ConfigurationError(
            f"--index {args.index} out of range: {len(matches)} matching record(s)"
        ) from None
    doc = rec["run"]["telemetry"]["forensics"]
    label = (
        f"{rec.get('network', '?')} k={rec.get('k', '?')} n={rec.get('n', '?')} "
        f"{rec.get('algorithm', '?')} {rec.get('vcs', '?')}vc "
        f"{rec.get('pattern', '?')} load {rec.get('load', 0):g}"
    )

    if args.json:
        print(json.dumps({"record": label, "forensics": doc}, indent=1))
    else:
        if len(matches) > 1:
            which = args.index if args.index >= 0 else len(matches) + args.index
            print(
                f"{len(matches)} forensics record(s) in {args.ledger}; "
                f"analyzing [{which}] (select with --index)"
            )
        print(label)
        from .obs.forensics import describe_forensics

        print(describe_forensics(doc))

    written = []
    if args.heatmap or args.breakdown or args.out:
        from .obs.heatmap import (
            hotspot_heatmap_svg,
            latency_breakdown_svg,
            standalone_svg,
        )

        if args.heatmap:
            svg = hotspot_heatmap_svg(doc["hotspots"], metric=args.metric)
            pathlib.Path(args.heatmap).write_text(standalone_svg(svg))
            written.append(args.heatmap)
        if args.breakdown:
            svg = latency_breakdown_svg(doc["attribution"])
            pathlib.Path(args.breakdown).write_text(standalone_svg(svg))
            written.append(args.breakdown)
        if args.out:
            import html as _html

            page = (
                "<!doctype html>\n<meta charset='utf-8'>\n"
                f"<title>congestion forensics — {_html.escape(label)}</title>\n"
                f"<h1>Congestion forensics</h1>\n<p>{_html.escape(label)}</p>\n"
                + standalone_svg(latency_breakdown_svg(doc["attribution"]))
                + "\n"
                + standalone_svg(hotspot_heatmap_svg(doc["hotspots"], metric=args.metric))
                + "\n"
            )
            pathlib.Path(args.out).write_text(page)
            written.append(args.out)
    if written:
        print(f"wrote {', '.join(written)}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    from .obs.ledger import Ledger
    from .obs.report import write_scorecard

    ledger = Ledger(args.ledger)
    records = [
        rec
        for rec in ledger.records()
        if args.include_faults or rec["kind"] != "faults"
    ]
    from .metrics.io import run_result_from_dict

    results = [run_result_from_dict(rec["run"]) for rec in records]
    if not results:
        raise ConfigurationError(
            f"ledger {args.ledger} holds no scorable runs "
            "(fault records are excluded unless --include-faults)"
        )
    from .obs.report import partition_results

    figures = write_scorecard(results, args.out, title=args.title, tol=args.tol)
    _, chaos, congestion = partition_results(results)
    extras = f" + {len(chaos)} chaos run(s)" if chaos else ""
    if congestion:
        extras += f" + {len(congestion)} overload run(s)"
    print(
        f"scorecard: {len(results)} runs -> {len(figures)} figure(s)"
        f"{extras} -> {args.out}"
    )
    for fig in figures:
        if fig.score is None:
            print(f"  {fig.title}: no paper reference (unscored)")
        else:
            print(f"  {fig.title}: fidelity {fig.score:.0%}")
            for label, score in sorted(fig.fidelity.items()):
                ref = fig.refs[label]
                print(
                    f"    {label}: saturation {fig.saturation[label]:.3f} "
                    f"vs {ref.figure} {ref.saturation:.3f} -> {score:.0%}"
                )
    return 0


def cmd_bench(args) -> int:
    from .obs.bench import (
        REGRESSION_EXIT_CODE,
        compare,
        default_baseline_path,
        load_baseline,
        remeasure,
        run_bench,
        save_baseline,
    )

    if args.compare is None:
        doc = run_bench(repeats=args.repeats or 3, cycles=args.cycles)
        out = args.out or default_baseline_path()
        save_baseline(doc, out)
        if args.json:
            print(json.dumps(doc, indent=1))
            return 0
        print(f"bench baseline ({doc['host']}, python {doc['python']}) -> {out}")
        for entry in doc["entries"]:
            from .obs.telemetry import RunTelemetry

            t = RunTelemetry.from_dict(entry["telemetry"])
            print(f"  {entry['name']:<12} {entry['cycles_per_sec']:>12,.0f} cyc/s   "
                  f"{t.phase_summary()}")
        return 0

    baseline = load_baseline(args.compare)
    current = remeasure(baseline, repeats=args.repeats)
    if args.out:
        from .obs.bench import bench_document

        save_baseline(
            bench_document(current, args.repeats or baseline.get("repeats", 3)),
            args.out,
        )
    if args.json:
        from .obs.bench import compare_document

        doc = compare_document(baseline, current, threshold=args.threshold)
        print(json.dumps(doc, indent=1))
        return 0 if doc["passed"] else REGRESSION_EXIT_CODE
    findings = compare(baseline, current, threshold=args.threshold)
    for base, cur in zip(baseline["entries"], current):
        print(f"  {base['name']:<12} baseline {base['cycles_per_sec']:>12,.0f} "
              f"cyc/s   now {cur['cycles_per_sec']:>12,.0f} cyc/s")
    if findings:
        print(f"PERF REGRESSION vs {args.compare} (threshold {args.threshold:.0%}):",
              file=sys.stderr)
        for finding in findings:
            print(f"  {finding}", file=sys.stderr)
        return REGRESSION_EXIT_CODE
    print(f"ok: no entry slower than baseline by more than {args.threshold:.0%}")
    return 0


def cmd_tables(args) -> int:
    print(render_delay_table(table1_rows(), "Table 1 — 16-ary 2-cube routing delays (ns)"))
    print()
    print(render_delay_table(table2_rows(), "Table 2 — 4-ary 4-tree routing delays (ns)"))
    return 0


def cmd_info(args) -> int:
    if args.network == "tree":
        topo = KAryNTree(args.k or 4, args.n or 4)
        scaling = tree_scaling(topo.k, topo.n)
    else:
        topo = KAryNCube(args.k or 16, args.n or 2)
        scaling = cube_scaling(topo.k, topo.n)
    print(topo.describe())
    print(f"flit width:        {scaling.flit_bytes} bytes")
    print(f"packet length:     {scaling.packet_flits} flits (64 bytes)")
    print(f"node capacity:     {scaling.capacity_flits_per_cycle} flits/cycle (§5)")
    print("equal-cost pairs (§5):")
    for entry in equal_cost_pairs(max_nodes=4000):
        print(f"  N={entry['nodes']}: tree {entry['tree']}, cubes {entry['cubes']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-net",
        description=(
            "Reproduction of 'Network Performance under Physical Constraints' "
            "(Petrini & Vanneschi, ICPP 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one offered-load point")
    _add_common(p)
    p.add_argument("--load", type=float, default=0.5, help="fraction of capacity")
    p.add_argument(
        "--latencies",
        action="store_true",
        help="collect per-packet latency samples and print exact percentiles",
    )
    p.add_argument(
        "--forensics",
        action="store_true",
        help=(
            "attach the congestion-forensics tier (latency attribution, "
            "wait-for graph sampling, link hotspots); implies --latencies "
            "and survives a deadlock with a post-mortem"
        ),
    )
    p.add_argument(
        "--sample-every",
        type=int,
        default=200,
        help="wait-for graph sampling period in cycles (with --forensics)",
    )
    _add_flight(p)
    _add_statehash(p)
    _add_observability(p)
    _add_checkpoint(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a load sweep for one configuration")
    _add_common(p)
    p.add_argument(
        "--forensics",
        action="store_true",
        help=(
            "instrument every point with the congestion-forensics tier; "
            "ledger records are filed as kind=forensics for analyze"
        ),
    )
    _add_flight(p)
    _add_observability(p)
    _add_checkpoint(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "trace",
        help="one instrumented run: event trace + windowed lane counters",
    )
    _add_common(p)
    p.add_argument("--load", type=float, default=0.5, help="fraction of capacity")
    p.add_argument(
        "--out",
        default="trace.json",
        help="trace output path (Chrome trace_event JSON; .jsonl for jsonl)",
    )
    p.add_argument(
        "--format",
        choices=("chrome", "jsonl", "both"),
        default="chrome",
        help="chrome://tracing document, JSONL event stream, or both",
    )
    p.add_argument(
        "--window",
        type=int,
        default=200,
        help="counter window length in cycles",
    )
    p.add_argument(
        "--counters",
        default=None,
        help="also write the windowed counters to this JSON path",
    )
    p.add_argument(
        "--max-events",
        type=int,
        default=1_000_000,
        help="trace event cap (the trace is marked truncated past it)",
    )
    _add_flight(p)
    _add_statehash(p)
    _add_observability(p)
    p.set_defaults(func=cmd_trace)

    for name, func, help_ in (
        ("fig5", cmd_fig5, "fat-tree CNF curves (Figure 5)"),
        ("fig6", cmd_fig6, "cube CNF curves (Figure 6)"),
        ("fig7", cmd_fig7, "absolute comparison (Figure 7)"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument(
            "--pattern",
            choices=("uniform", "complement", "transpose", "bitrev"),
            default="uniform",
        )
        p.add_argument("--profile", default=None)
        p.add_argument("--seed", type=int, default=11 if name == "fig5" else 13)
        if name != "fig7":
            p.add_argument("--plot", action="store_true", help="add terminal scatter plots")
        p.set_defaults(func=func)

    p = sub.add_parser("drain", help="batch-drain one full permutation")
    _add_common(p)
    p.set_defaults(func=cmd_drain)

    p = sub.add_parser("faults", help="fault-degradation experiments (both networks)")
    _add_common(p)
    p.add_argument("--load", type=float, default=1.0, help="fraction of capacity")
    p.add_argument(
        "--fractions",
        default="0,0.05,0.1,0.2",
        help="comma-separated fault fractions of the channel population",
    )
    p.add_argument("--fault-seed", type=int, default=5, help="fault placement seed")
    p.add_argument(
        "--transient",
        action="store_true",
        help="single run with a mid-run fault window (fail at T, repair at T')",
    )
    p.add_argument("--fraction", type=float, default=0.1, help="fault fraction for --transient")
    p.add_argument("--fail-at", type=int, default=None, help="fault strike cycle")
    p.add_argument("--repair-at", type=int, default=None, help="fault repair cycle")
    p.add_argument(
        "--ledger",
        default=None,
        metavar="JSONL",
        help="append every fault run's document to this JSONL metrics ledger",
    )
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "chaos",
        help="fail-stop fault storms under reliable transport (goodput curves)",
    )
    p.add_argument(
        "--network",
        choices=("tree", "cube", "both"),
        default="both",
        help="paper network(s) to storm (default: both, for the scorecard panel)",
    )
    p.add_argument("--k", type=int, default=None, help="radix (default: paper network)")
    p.add_argument("--n", type=int, default=None, help="dimension/levels")
    p.add_argument(
        "--algorithm",
        default=None,
        help="adaptive algorithm override (lane-level storms need one); "
        "ignored with --network both",
    )
    p.add_argument("--vcs", type=int, default=4)
    p.add_argument("--seed", type=int, default=47, help="traffic seed")
    p.add_argument("--storm-seed", type=int, default=5, help="fault draw + strike seed")
    p.add_argument("--profile", default=None, help="fast, default or full")
    p.add_argument(
        "--rates",
        default="0,0.05,0.1,0.2",
        help="comma-separated fault rates (fraction of the channel population)",
    )
    p.add_argument(
        "--repairs",
        default="0",
        help="comma-separated per-fault down times in cycles (0 = permanent)",
    )
    p.add_argument(
        "--base-timeout",
        type=int,
        default=None,
        help="transport retransmission timer in cycles (default: profile-scaled)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retransmissions per message before giving up (default 4)",
    )
    p.add_argument("--parallel", action="store_true", help="fan points over a pool")
    p.add_argument("--workers", type=int, default=None, help="pool size")
    p.add_argument("--retries", type=int, default=0, help="attempts per failed point")
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point wall-clock budget in seconds (watchdog subprocess)",
    )
    p.add_argument("--json", action="store_true", help="emit the rows as JSON")
    _add_flight(p)
    p.add_argument(
        "--ledger",
        default=None,
        metavar="JSONL",
        help="append every chaos run as a kind=chaos record (report renders "
        "the goodput-degradation panel from them)",
    )
    _add_checkpoint(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "congestion",
        help="overload campaign past saturation: open vs closed loop (collapse curves)",
    )
    p.add_argument("--network", choices=("tree", "cube"), default="tree")
    p.add_argument("--k", type=int, default=None, help="radix (default: paper network)")
    p.add_argument("--n", type=int, default=None, help="dimension/levels")
    p.add_argument(
        "--algorithm",
        default=None,
        help="routing algorithm override; default per network",
    )
    p.add_argument("--vcs", type=int, default=4)
    p.add_argument("--pattern", choices=sorted(PATTERNS), default="uniform")
    p.add_argument("--seed", type=int, default=29, help="traffic seed")
    p.add_argument("--profile", default=None, help="fast, default or full")
    p.add_argument(
        "--mode",
        choices=("both", "open", "closed"),
        default="both",
        help="which control modes to sweep (default: both, for the contrast)",
    )
    p.add_argument(
        "--max-factor",
        type=float,
        default=2.0,
        help="top of the offered-load axis in saturation multiples",
    )
    p.add_argument(
        "--arbiter-closed",
        choices=("round_robin", "age"),
        default="round_robin",
        help="lane arbitration policy for closed-loop runs (age improves the "
        "median past saturation but inflates the tail; default: round_robin)",
    )
    p.add_argument(
        "--base-timeout",
        type=int,
        default=None,
        help="transport retransmission timer in cycles (default: profile-scaled)",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=None,
        help="timeout backoff multiplier per retry (1.0 reproduces a naive "
        "fixed-timer transport, the classic collapse regime; default 2.0)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retransmissions per message before giving up (default 4)",
    )
    p.add_argument("--parallel", action="store_true", help="fan points over a pool")
    p.add_argument("--workers", type=int, default=None, help="pool size")
    p.add_argument("--retries", type=int, default=0, help="attempts per failed point")
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point wall-clock budget in seconds (watchdog subprocess)",
    )
    p.add_argument("--json", action="store_true", help="emit the rows as JSON")
    _add_flight(p)
    p.add_argument(
        "--ledger",
        default=None,
        metavar="JSONL",
        help="append every overload run as a kind=congestion record (report "
        "renders the collapse panel from them)",
    )
    _add_checkpoint(p)
    p.set_defaults(func=cmd_congestion)

    p = sub.add_parser(
        "analyze",
        help="congestion forensics (attribution/wait-for/hotspots) from a ledger",
    )
    p.add_argument(
        "--ledger", required=True, metavar="JSONL", help="ledger to analyze"
    )
    p.add_argument(
        "--network", choices=("tree", "cube"), default=None, help="filter records"
    )
    p.add_argument(
        "--pattern", choices=sorted(PATTERNS), default=None, help="filter records"
    )
    p.add_argument("--algorithm", default=None, help="filter records")
    p.add_argument(
        "--index",
        type=int,
        default=-1,
        help="which matching record to analyze (default -1: the most recent)",
    )
    p.add_argument(
        "--heatmap",
        default=None,
        metavar="SVG",
        help="write the link-hotspot heatmap as a standalone SVG file",
    )
    p.add_argument(
        "--breakdown",
        default=None,
        metavar="SVG",
        help="write the latency-breakdown panel as a standalone SVG file",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="HTML",
        help="write an HTML page with both panels",
    )
    p.add_argument(
        "--metric",
        choices=("blocked_cycles", "flits"),
        default="blocked_cycles",
        help="heatmap cell metric (congestion vs utilization)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the raw forensics document instead of the text digest",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "diff",
        help="bisect the first divergent cycle between two digested runs",
    )
    p.add_argument(
        "a",
        help="first side: run document / ledger JSONL / config JSON",
    )
    p.add_argument(
        "b",
        help="second side: run document / ledger JSONL / config JSON",
    )
    p.add_argument(
        "--interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help=(
            "digest interval for re-runs (default 128); sides that already "
            "carry a chain at a different stride are re-run to align"
        ),
    )
    p.add_argument(
        "--max-findings",
        type=int,
        default=64,
        help="cap on per-field findings in the structured state diff",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="HTML",
        help="also write the divergence report as an HTML page",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the raw diff document instead of the text digest",
    )
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "report",
        help="render the HTML reproduction scorecard from a metrics ledger",
    )
    p.add_argument("--ledger", required=True, metavar="JSONL", help="ledger to score")
    p.add_argument("--out", default="scorecard.html", help="output HTML path")
    p.add_argument("--title", default="Reproduction scorecard")
    p.add_argument(
        "--tol",
        type=float,
        default=0.05,
        help="saturation-detection tolerance (fraction)",
    )
    p.add_argument(
        "--include-faults",
        action="store_true",
        help="also plot runs recorded by fault experiments (degraded points)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench",
        help="record or compare an engine performance baseline",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="JSON",
        help="baseline output path (default BENCH_<host>.json when recording)",
    )
    p.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help=(
            "re-measure the recipes in this baseline and exit 3 when any "
            "entry regressed past the threshold"
        ),
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="tolerated slowdown fraction before failing (default 0.15)",
    )
    p.add_argument("--repeats", type=int, default=None,
                   help="runs per entry; best-of is kept (default 3 / baseline's)")
    p.add_argument("--cycles", type=int, default=2000,
                   help="cycles per suite run when recording a new baseline")
    p.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the baseline document (recording) or the comparison "
            "document with per-entry deltas and pass/fail (--compare) as "
            "JSON; the regression exit code is unchanged"
        ),
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("find-sat", help="bisect the saturation point")
    _add_common(p)
    p.add_argument("--resolution", type=float, default=0.02)
    p.set_defaults(func=cmd_find_sat)

    p = sub.add_parser("dimensions", help="cube dimensionality study (§11)")
    p.add_argument("--pattern", choices=("uniform", "complement"), default="uniform")
    p.add_argument("--algorithm", choices=("dor", "duato"), default="duato")
    p.add_argument("--profile", default=None)
    p.set_defaults(func=cmd_dimensions)

    p = sub.add_parser("tables", help="print Tables 1 and 2 (Chien cost model)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("info", help="topology and normalization facts")
    p.add_argument("--network", choices=("tree", "cube"), default="tree")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
