"""Host-time attribution for traced benchmark runs.

Nothing here reaches inside ``src/``: a :class:`Tracer` wraps the public
entry points of the simulator's layers from the benchmark's side and
aggregates what it sees in memory.

* ``build_engine`` (patched by :func:`watch_builds` where the
  workload's entry point looks it up) is timed as set-up, with the
  topology constructor timed inside it; the engine it returns gets a
  one-shot ``run`` wrapper, so the instrumentation below goes on after
  every probe, transport and checkpoint policy the entry point installs,
  and the gap between ``build_engine`` returning and ``run`` starting is
  the install time.  Untraced units use the same wrapper, only to time
  set-up (``setup_s``).
* ``engine.routing.select``, every node source's ``advance`` and every
  ``engine.probe`` callback are timed per call.  Probe callbacks are
  billed to the engine phase that fires them, so engine phase times can
  be reported as self time (phase minus the wrapped calls inside it).
* ``Engine.step`` is wrapped to sample how many link directions are
  busy after each cycle (the useful-to-scanned ratio of the link scan).
* ``save_checkpoint`` is timed at fixed cycles (cube workloads) or
  wherever the campaign's checkpoint probe calls it (Fig-5 workers).
  The instrumentation is taken off the engine around every save, so the
  snapshot holds the plain engine.

Hot calls are aggregated (count + seconds); coarse events (a sweep
point, set-up, ``engine.run``, checkpoint writes) are kept as spans
linked to the span that was open when they began.  :meth:`Tracer.export` returns both as plain data, which is how a
pool worker ships its trace back on the point's result.
"""

from __future__ import annotations

import contextlib
import functools
import pickle
import time

from repro.errors import CheckpointError
from repro.experiments import sweep as _sweep
from repro.experiments.runcache import RunCache
from repro.sim import checkpoint as _checkpoint
from repro.sim import run as _run
from repro.sim.engine import Engine

#: engine phase that fires each probe callback (see ``Engine.step``);
#: callbacks not listed fire outside the timed phases
PROBE_PHASE = {
    "on_direction_blocked": "link",
    "on_head_delivered": "link",
    "on_tail_delivered": "link",
    "on_head_arrived": "link",
    "on_packets_generated": "injection",
    "on_packet_injected": "injection",
    "on_header_routed": "routing",
    "on_cycle": "routing",
}
PROBE_CALLBACKS = tuple(PROBE_PHASE) + ("on_run_start", "on_run_end", "on_packet_dropped")

#: the untouched point task, captured before any traced sweep patches it
_POINT_TASK = _sweep._point_task
_SAVE_CHECKPOINT = _checkpoint.save_checkpoint


class Tracer:
    """In-memory spans and hot-call aggregates for one traced unit."""

    def __init__(self):
        self.clock = time.perf_counter
        #: coarse spans: [name, start, end, parent index or None]
        self.spans: list[list] = []
        #: hot-call aggregates: name -> [calls, seconds, misses]
        self.calls: dict[str, list] = {}
        #: link-scan sample: [steps, busy directions, scanned directions]
        self.scan = [0, 0, 0]
        #: bytes of each successful checkpoint payload
        self.checkpoint_bytes: list[int] = []
        #: seconds the fixed-cycle checkpoints (:meth:`checkpoint_at`)
        #: took: work inside the unit's wall that its untraced twin skips
        self.fixed_checkpoint_s = 0.0
        self._originals: dict[int, tuple] = {}
        self._open: list[int] = []

    # -- recording ---------------------------------------------------------

    def acc(self, name: str) -> list:
        return self.calls.setdefault(name, [0, 0.0, 0])

    def parent(self) -> int | None:
        """Index of the innermost open span."""
        return self._open[-1] if self._open else None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self.parent()])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = self.clock()

    def span_seconds(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def export(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "calls": {k: list(v) for k, v in self.calls.items()},
            "scan": list(self.scan),
            "checkpoint_bytes": list(self.checkpoint_bytes),
        }

    def merge(self, doc: dict) -> None:
        """Fold another tracer's :meth:`export` (e.g. a worker's) in."""
        offset = len(self.spans)
        for name, start, end, parent in doc["spans"]:
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset]
            )
        for name, (n, secs, miss) in doc["calls"].items():
            a = self.acc(name)
            a[0] += n
            a[1] += secs
            a[2] += miss
        for i, v in enumerate(doc["scan"]):
            self.scan[i] += v
        self.checkpoint_bytes.extend(doc["checkpoint_bytes"])

    # -- engine instrumentation --------------------------------------------

    def attach(self, engine: Engine) -> None:
        """Wrap select, sources, probe and step on a built engine."""
        routing = engine.routing
        sources = [node.source for node in engine.nodes]
        probe = engine.probe
        self._originals[id(engine)] = (sources, probe)
        clock = self.clock

        select_fn = routing.select
        sel = self.acc("routing.select")

        def select(s, lane, pkt):
            t0 = clock()
            out = select_fn(s, lane, pkt)
            sel[1] += clock() - t0
            sel[0] += 1
            if out is None:
                sel[2] += 1
            return out

        routing.select = select
        adv = self.acc("traffic.advance")
        for node in engine.nodes:
            node.source = _TimedSource(node.source, adv, clock)
        if probe is not None:
            engine.probe = _TimedProbe(probe, self, clock)

        dirs = engine.dirs
        scan = self.scan
        n_dirs = len(dirs)

        def step():
            progress = Engine.step(engine)
            scan[0] += 1
            scan[1] += sum(1 for d in dirs if d.nbusy)
            scan[2] += n_dirs
            return progress

        engine.step = step

    def detach(self, engine: Engine) -> None:
        """Restore the engine exactly as :meth:`attach` found it."""
        sources, probe = self._originals.pop(id(engine))
        del engine.routing.select
        del engine.step
        for node, src in zip(engine.nodes, sources):
            node.source = src
        engine.probe = probe

    @contextlib.contextmanager
    def detached(self, engine: Engine):
        attached = id(engine) in self._originals
        if attached:
            self.detach(engine)
        try:
            yield
        finally:
            if attached:
                self.attach(engine)

    def save_checkpoint(self, engine: Engine, path):
        """``save_checkpoint`` timed as one span, on the plain engine.

        A :class:`CheckpointError` is recorded as a failed write and
        re-raised, so the caller sees what an untraced run would.
        """
        with self.detached(engine), self.span("checkpoint.write"):
            try:
                header = _SAVE_CHECKPOINT(engine, path)
            except CheckpointError:
                self.acc("checkpoint.failed")[0] += 1
                raise
        self.checkpoint_bytes.append(header["payload_bytes"])
        return header

    def checkpoint_at(self, engine: Engine, cycles, directory) -> None:
        """Save a checkpoint at each of ``cycles`` during the run.

        One hook is armed at a time (the next is armed after a save), so
        no benchmark callable is pending in the engine when it is
        pickled.  Failures are recorded and the run carries on.
        """
        pending = sorted(c for c in cycles if engine.cycle <= c < engine.config.total_cycles)

        def hook(eng):
            cycle = pending.pop(0)
            t0 = self.clock()
            try:
                self.save_checkpoint(eng, f"{directory}/ckpt-{cycle:08d}.bin")
            except CheckpointError:
                pass
            self.fixed_checkpoint_s += self.clock() - t0
            if pending:
                eng.add_cycle_hook(pending[0], hook)

        if pending:
            engine.add_cycle_hook(pending[0], hook)

    def run(self, engine: Engine, checkpoint_cycles, directory):
        """Run ``engine`` instrumented, checkpointing at ``checkpoint_cycles``."""
        self.attach(engine)
        if checkpoint_cycles:
            self.checkpoint_at(engine, checkpoint_cycles, directory)
        with self.span("engine.run"):
            try:
                return engine.run()
            finally:
                self.detach(engine)
                self.acc("engine.flit_hops")[0] += sum(d.flits for d in engine.dirs)

    def timed_topology(self, cls):
        """``cls`` with its constructor recorded as a ``setup.topology`` span."""

        def make(*args, **kwargs):
            with self.span("setup.topology"):
                return cls(*args, **kwargs)

        return make


@contextlib.contextmanager
def watch_builds(
    module, builds: list, tracer: Tracer | None = None, checkpoint_cycles=(), directory=None
):
    """Patch ``module.build_engine`` to time the set-up of every engine it builds.

    Each engine it returns gets a one-shot ``run`` wrapper, which appends
    ``(build started, run started)`` (``perf_counter`` times) to
    ``builds``: the build plus whatever the entry point installs before
    its first cycle.  With a ``tracer``, the build and the topology
    constructors (patched in :mod:`repro.sim.run`, where the real
    ``build_engine`` looks them up) are recorded as spans and the run
    goes through :meth:`Tracer.run`.
    """
    build = module.build_engine
    clock = time.perf_counter
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())

    def build_engine(config, probe=None):
        started = clock()
        with span("setup.build"):
            engine = build(config, probe=probe)
        built = clock()

        def run():
            del engine.run
            ran = clock()
            builds.append((started, ran))
            if tracer is None:
                return engine.run()
            tracer.spans.append(["setup.install", built, ran, tracer.parent()])
            return tracer.run(engine, checkpoint_cycles, directory)

        engine.run = run
        return engine

    saved = (module.build_engine, _run.KAryNCube, _run.KAryNTree)
    module.build_engine = build_engine
    if tracer is not None:
        _run.KAryNCube = tracer.timed_topology(saved[1])
        _run.KAryNTree = tracer.timed_topology(saved[2])
    try:
        yield
    finally:
        module.build_engine, _run.KAryNCube, _run.KAryNTree = saved


class _TimedSource:
    """A node source whose ``advance`` is timed; everything else forwards.

    ``queue`` is the inner source's own deque (sources never rebind it),
    so the engine's per-cycle ``queue`` reads cost no extra call.
    """

    __slots__ = ("inner", "queue", "advance")

    def __init__(self, inner, acc, clock):
        self.inner = inner
        self.queue = inner.queue
        self.advance = _timed(inner.advance, acc, clock)

    @property
    def active(self):
        return self.inner.active

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _TimedProbe:
    """Forwards every probe callback, timing each under ``probe.<name>``."""

    def __init__(self, inner, tracer: Tracer, clock):
        self.inner = inner
        for name in PROBE_CALLBACKS:
            setattr(self, name, _timed(getattr(inner, name), tracer.acc(f"probe.{name}"), clock))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _timed(fn, acc, clock):
    def call(*args):
        t0 = clock()
        out = fn(*args)
        acc[1] += clock() - t0
        acc[0] += 1
        return out

    return call


#: no-op calls per calibration round
CALIBRATION_CALLS = 50_000


def calibrate() -> dict:
    """Per-call cost of the hot-call wrappers, measured on a no-op.

    Returns ``{"caller": s, "callee": s}``: the seconds each wrapped call
    adds to the calling phase beyond what the wrapper records, and the
    seconds the recorded time exceeds the bare call.  Metrics subtract
    ``calls * cost`` from each side.  Workers are forked from the
    measuring process on the same host, so one calibration serves all.
    """
    clock = time.perf_counter

    def noop(*args):
        return None

    acc = [0, 0.0, 0]
    wrapped = _timed(noop, acc, clock)
    best = None
    for _ in range(3):
        acc[1] = 0.0
        t0 = clock()
        for i in range(CALIBRATION_CALLS):
            noop(i)
        bare = clock() - t0
        t0 = clock()
        for i in range(CALIBRATION_CALLS):
            wrapped(i)
        total = clock() - t0
        sample = (
            (total - acc[1]) / CALIBRATION_CALLS,
            max(0.0, (acc[1] - bare) / CALIBRATION_CALLS),
        )
        best = sample if best is None or sum(sample) < sum(best) else best
    return {"caller": best[0], "callee": best[1]}


# -- Fig-5 campaign workers ----------------------------------------------------


def campaign_point_task(config, *, trace, **kwargs):
    """Stand-in for the sweep's point task in a benchmark campaign.

    Runs the real task and ships back, on the result (as the attribute
    ``perfbench``), the time its engine's run began (``run_started``).
    With ``trace``, the worker's engines are traced and its checkpoint
    saves timed, and the trace goes back too, with the task's start time
    and the pickled size of its outcome.  The parent patches this in for
    the sweep's ``_point_task``; the pool pickles it by name.
    """
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    builds: list = []
    saved = _checkpoint.save_checkpoint
    if tracer is not None:
        _checkpoint.save_checkpoint = tracer.save_checkpoint
    point = tracer.span("sweep.point") if tracer is not None else contextlib.nullcontext()
    try:
        with watch_builds(_run, builds, tracer), point:
            outcome = _POINT_TASK(config, **kwargs)
    finally:
        _checkpoint.save_checkpoint = saved
    if outcome[0] == "ok":
        doc = {"run_started": builds[0][1]}
        if tracer is not None:
            doc.update(tracer.export())
            doc["task_started"] = started
            doc["result_bytes"] = len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        outcome[1].perfbench = doc
    return outcome


@contextlib.contextmanager
def campaign_tasks(tracer: Tracer | None, ledger):
    """Run a campaign's points through :func:`campaign_point_task`.

    With a ``tracer``, the workers trace their points, and the parent's
    ``RunCache.put`` and ``ledger.append_run`` are timed.
    """
    _sweep._point_task = functools.partial(campaign_point_task, trace=tracer is not None)
    put = RunCache.put
    if tracer is not None:
        clock = tracer.clock
        append = ledger.append_run
        put_acc = tracer.acc("runcache.put")
        append_acc = tracer.acc("ledger.append")

        def timed_put(cache, key, result):
            t0 = clock()
            out = put(cache, key, result)
            put_acc[1] += clock() - t0
            put_acc[0] += 1
            return out

        def timed_append(result, **kwargs):
            t0 = clock()
            out = append(result, **kwargs)
            append_acc[1] += clock() - t0
            append_acc[0] += 1
            return out

        RunCache.put = timed_put
        ledger.append_run = timed_append
    try:
        yield
    finally:
        _sweep._point_task = _POINT_TASK
        RunCache.put = put
        vars(ledger).pop("append_run", None)
