"""Congestion forensics: latency attribution, wait-for graphs, hotspots.

The paper explains every saturation curve with the same mechanism —
blocked wormholes piling up behind hot channels (§7) — but the base
observability tier only records *that* blocking happened.  This module
attributes every cycle of packet latency to a cause and localizes the
congestion:

* :class:`LatencyAttributionProbe` — decomposes each delivered packet's
  end-to-end latency (``created → tail_delivered``) into four exhaustive,
  mutually exclusive components:

  - **source_wait** — cycles queued at the source before the single
    injection channel accepted the header (``injected − created``);
  - **routing_stall** — cycles an already-arrived header waited in the
    routing phase because every candidate output lane was busy (the
    adaptivity-limited term);
  - **blocked** — cycles flits sat in lane buffers unable to advance:
    header flits waiting on link arbitration/credits beyond the pipeline
    minimum, plus body flits serialized behind other worms multiplexing
    the same links;
  - **transfer** — the contention-free pipeline cost: three cycles per
    hop (T_routing + T_crossbar + T_link, the §5 normalization) plus
    ``size − 1`` cycles of tail serialization.

  The decomposition is exact by construction: the engine checkpoints the
  header at injection, at every routing decision (``on_header_routed``),
  at every downstream arrival (``on_head_arrived``) and at delivery, and
  each inter-checkpoint gap splits into its pipeline minimum (transfer)
  and its excess (stall or blocked).  The invariant

      routing_stall + blocked + transfer == tail_delivered − injected

  (and with ``source_wait`` added, ``== tail_delivered − created``) holds
  for every delivered packet on every routing algorithm; a counter
  records any violation and the property-based tests sweep all five
  paper configurations.  Percentiles come from streaming log2-bucketed
  histograms (:class:`StreamingHistogram`), so memory stays O(64) per
  component regardless of run length.

* :class:`WaitForGraphSampler` — periodically snapshots the lane-level
  wait-for graph: every unrouted header (``Engine.unrouted_headers``)
  waits on the holders of its legal candidate output lanes
  (:meth:`~repro.routing.base.RoutingAlgorithm.candidates`, read-only and
  RNG-free so sampling never perturbs the run).  Cycle detection over
  that graph flags deadlock *precursors* — for a deadlock-free algorithm
  a wait cycle means heavy transient contention; for an unsafe one it is
  the wedge forming, and the sampler captures a
  :func:`~repro.sim.diagnostics.capture_snapshot` diagnostic *before*
  the watchdog's ``DeadlockError`` fires.  Each sample also records the
  blocked-chain depth and the root channel (the single output lane the
  most headers are waiting on).

* :class:`HotspotProbe` — per-physical-link flit and blocked-cycle
  aggregation over the measurement window, the data behind the
  :mod:`repro.obs.heatmap` SVG heatmaps embedded in the scorecard.

:class:`ForensicsProbe` composes all three through the ordinary
:class:`~repro.obs.probe.MultiProbe` machinery and serializes one
versioned ``forensics`` document that travels on
:class:`~repro.obs.telemetry.RunTelemetry` — and therefore through the
run JSON document, the ledger (``kind="forensics"``) and ``repro-net
analyze``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..sim.diagnostics import DeadlockSnapshot, capture_snapshot
from ..sim.packet import FAULT_SENTINEL
from .probe import Attach, Layer, MultiProbe, Probe, compose_probe

#: bump on breaking changes to the forensics document layout
FORENSICS_FORMAT_VERSION = 1

#: the additive latency components, in presentation order
COMPONENTS = ("source_wait", "routing_stall", "blocked", "transfer")

#: engine pipeline cost of one header hop: T_routing + T_crossbar + T_link
CYCLES_PER_HOP = 3


class StreamingHistogram:
    """Streaming log2-bucketed histogram of non-negative integers.

    Values land in bucket ``v.bit_length()`` (bucket 0 holds exactly the
    value 0, bucket b holds ``[2**(b-1), 2**b)``), so percentile queries
    resolve to the bucket's upper bound — an over-estimate by less than
    2x, constant memory, O(1) insert.  Exact count/sum/min/max ride
    along, so means and maxima are precise; only mid-distribution
    percentiles are quantized.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    def add(self, value: int) -> None:
        b = value.bit_length()
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Upper bound of the bucket holding the q-th quantile (0 empty)."""
        if not self.count:
            return 0
        rank = q * self.count
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= rank:
                upper = (1 << b) - 1 if b else 0
                # never report beyond the exact maximum
                return min(upper, self.max)
        return self.max

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min or 0,
            "max": self.max or 0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }


@dataclass(frozen=True)
class PacketAttribution:
    """The exhaustive latency decomposition of one delivered packet."""

    pid: int
    src: int
    dst: int
    size: int
    hops: int
    created: int
    injected: int
    delivered: int
    source_wait: int
    routing_stall: int
    blocked: int
    transfer: int

    @property
    def network_latency(self) -> int:
        """Injection to tail delivery — the §6 latency metric."""
        return self.delivered - self.injected

    @property
    def total(self) -> int:
        return self.source_wait + self.routing_stall + self.blocked + self.transfer

    def check(self) -> bool:
        """The attribution invariant: components sum to created→delivered
        (equivalently: stall + blocked + transfer == network latency)."""
        return (
            self.total == self.delivered - self.created
            and self.source_wait >= 0
            and self.routing_stall >= 0
            and self.blocked >= 0
            and self.transfer >= 0
        )


class _Flight:
    """Per-packet live attribution state between probe events."""

    __slots__ = ("checkpoint", "routed_at", "stall", "blocked", "hops")

    def __init__(self, checkpoint: int):
        #: cycle the header last arrived in an input lane
        self.checkpoint = checkpoint
        #: cycle of the most recent routing decision
        self.routed_at = checkpoint
        self.stall = 0
        self.blocked = 0
        self.hops = 0


class LatencyAttributionProbe(Probe):
    """Decompose every delivered packet's latency into its four causes.

    Args:
        include_warmup: also histogram packets injected before the
            warm-up boundary (default off, matching the engine's
            measurement-window rule for latency samples).
        keep_packets: retain up to this many full
            :class:`PacketAttribution` records in :attr:`packets` (0
            keeps none; tests use this for exhaustive invariant checks).
    """

    def __init__(self, include_warmup: bool = False, keep_packets: int = 0):
        self.include_warmup = include_warmup
        self.keep_packets = keep_packets
        self.packets: list[PacketAttribution] = []
        self.histograms = {name: StreamingHistogram() for name in COMPONENTS}
        self.histograms["network_latency"] = StreamingHistogram()
        self.sums = dict.fromkeys(COMPONENTS, 0)
        self.finished = 0
        self.invariant_violations = 0
        self._flights: dict[int, _Flight] = {}
        self._warmup = 0
        self._pattern = None

    def bind(self, engine) -> None:
        self._warmup = engine.config.warmup_cycles
        self._pattern = engine.config.pattern

    # -- event plumbing ------------------------------------------------------

    def on_packet_injected(self, cycle: int, packet) -> None:
        self._flights[packet.pid] = _Flight(cycle)

    def on_header_routed(self, cycle: int, switch: int, in_lane, out_lane) -> None:
        f = self._flights.get(in_lane.packet.pid)
        if f is None:  # injected before this probe attached
            return
        # the header arrived at `checkpoint`; routing it costs one cycle
        # (T_routing), every further cycle was a stall on busy lanes
        f.stall += cycle - f.checkpoint - 1
        f.routed_at = cycle
        f.hops += 1

    def on_head_arrived(self, cycle: int, lane, packet) -> None:
        f = self._flights.get(packet.pid)
        if f is None:
            return
        # crossbar + link pipeline minimum is 2 cycles after routing;
        # the excess is time blocked on credits/arbitration
        f.blocked += cycle - f.routed_at - 2
        f.checkpoint = cycle

    def on_head_delivered(self, cycle: int, packet) -> None:
        f = self._flights.get(packet.pid)
        if f is None:
            return
        f.blocked += cycle - f.routed_at - 2

    def on_tail_delivered(self, cycle: int, packet) -> None:
        f = self._flights.pop(packet.pid, None)
        if f is None:
            return
        # body flits need size-1 cycles behind the head; the rest of the
        # head→tail gap is link multiplexing with other worms
        tail_blocked = (cycle - packet.head_delivered) - (packet.size - 1)
        record = PacketAttribution(
            pid=packet.pid,
            src=packet.src,
            dst=packet.dst,
            size=packet.size,
            hops=f.hops,
            created=packet.created,
            injected=packet.injected,
            delivered=cycle,
            source_wait=packet.injected - packet.created,
            routing_stall=f.stall,
            blocked=f.blocked + tail_blocked,
            transfer=CYCLES_PER_HOP * f.hops + packet.size - 1,
        )
        if not record.check():
            self.invariant_violations += 1
        if not self.include_warmup and packet.injected < self._warmup:
            return
        self.finished += 1
        for name in COMPONENTS:
            value = getattr(record, name)
            self.sums[name] += value
            self.histograms[name].add(value)
        self.histograms["network_latency"].add(record.network_latency)
        if len(self.packets) < self.keep_packets:
            self.packets.append(record)

    def on_packet_dropped(self, cycle: int, packet, reason: str) -> None:
        # a killed worm never delivers: discard its open flight so the
        # per-pid state does not accumulate across a long fault storm
        self._flights.pop(packet.pid, None)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """The attribution section of the forensics document."""
        grand = sum(self.sums.values())
        return {
            "pattern": self._pattern,
            "packets": self.finished,
            "invariant_violations": self.invariant_violations,
            "share": {
                name: (self.sums[name] / grand if grand else 0.0)
                for name in COMPONENTS
            },
            "components": {
                name: hist.to_dict() for name, hist in self.histograms.items()
            },
        }


@dataclass(frozen=True)
class WaitForSample:
    """One wait-for graph snapshot.

    Attributes:
        cycle: engine cycle of the sample.
        waiting: unrouted headers (graph nodes with out-edges).
        edges: waiter→holder edges over distinct packet pairs.
        max_depth: longest acyclic blocked chain (a header waiting on a
            holder whose own header waits on ... ), in packets.
        cycle_pids: one detected wait cycle as a pid tuple (empty when
            the graph is acyclic — the healthy state).
        root: the most-waited-on output lane
            (``{"switch", "port", "vc", "waiters"}``) or None.
        waits_on_faulted: headers whose only wait targets include a
            faulted (permanently dead) lane.
    """

    cycle: int
    waiting: int
    edges: int
    max_depth: int
    cycle_pids: tuple[int, ...]
    root: dict | None
    waits_on_faulted: int

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["cycle_pids"] = list(self.cycle_pids)
        return doc


class WaitForGraphSampler(Probe):
    """Periodic lane-level wait-for graph snapshots with cycle detection.

    Args:
        sample_every: cycles between samples (the per-cycle cost when not
            sampling is one modulo).
        keep_samples: ring-buffer length of retained samples.
        max_cycle_pids: cap on the recorded wait-cycle path length.
    """

    def __init__(
        self,
        sample_every: int = 200,
        keep_samples: int = 64,
        max_cycle_pids: int = 16,
    ):
        self.sample_every = max(1, sample_every)
        self.keep_samples = keep_samples
        self.max_cycle_pids = max_cycle_pids
        self.samples: list[WaitForSample] = []
        self.samples_taken = 0
        self.cycles_detected = 0
        #: diagnostics captured the first time a wait cycle was seen —
        #: the deadlock precursor, available before any DeadlockError
        self.precursor: DeadlockSnapshot | None = None
        self.precursor_cycle: int | None = None
        self.engine = None

    def bind(self, engine) -> None:
        self.engine = engine

    def on_cycle(self, cycle: int) -> None:
        if cycle % self.sample_every == 0:
            self.sample(cycle)

    # -- the sampler ---------------------------------------------------------

    def sample(self, cycle: int) -> WaitForSample:
        """Snapshot the wait-for graph now (read-only on engine state)."""
        engine = self.engine
        routing = engine.routing
        adj: dict[int, set[int]] = {}
        lane_waiters: dict[int, tuple] = {}  # id(out lane) -> (lane, set of pids)
        waiting = 0
        waits_on_faulted = 0
        for s, inlane in engine.unrouted_headers():
            pkt = inlane.packet
            if pkt is FAULT_SENTINEL:
                continue
            waiting += 1
            cands = routing.candidates(s, inlane, pkt)
            if cands is None:
                # unknown policy: over-approximate with every held output
                # lane at the switch (a superset of any legal candidate
                # set, so true wait cycles are never missed)
                cands = [
                    lane for port in engine.out_lanes[s] for lane in port
                ]
            succ = adj.setdefault(pkt.pid, set())
            faulted = False
            for lane in cands:
                holder = lane.packet
                if holder is None and lane.sink is not None:
                    # lane released but downstream buffer still draining
                    holder = lane.sink.packet
                if holder is None:
                    continue
                if holder is FAULT_SENTINEL:
                    faulted = True
                    continue
                if holder.pid == pkt.pid:
                    continue
                succ.add(holder.pid)
                key = id(lane)
                entry = lane_waiters.get(key)
                if entry is None:
                    lane_waiters[key] = (lane, {pkt.pid})
                else:
                    entry[1].add(pkt.pid)
            if faulted:
                waits_on_faulted += 1

        cycle_pids = self._find_cycle(adj)
        max_depth = self._max_chain_depth(adj)
        root = None
        if lane_waiters:
            lane, pids = max(lane_waiters.values(), key=lambda e: len(e[1]))
            root = {
                "switch": lane.switch,
                "port": lane.port,
                "vc": lane.vc,
                "waiters": len(pids),
            }
        sample = WaitForSample(
            cycle=cycle,
            waiting=waiting,
            edges=sum(len(v) for v in adj.values()),
            max_depth=max_depth,
            cycle_pids=cycle_pids,
            root=root,
            waits_on_faulted=waits_on_faulted,
        )
        self.samples_taken += 1
        if cycle_pids:
            self.cycles_detected += 1
            if self.precursor is None:
                self.precursor = capture_snapshot(engine)
                self.precursor_cycle = cycle
        self.samples.append(sample)
        if len(self.samples) > self.keep_samples:
            del self.samples[0]
        return sample

    def _find_cycle(self, adj: dict[int, set[int]]) -> tuple[int, ...]:
        """One wait cycle as a pid path, or () when the graph is acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = dict.fromkeys(adj, WHITE)
        for start in adj:
            if color[start] != WHITE:
                continue
            path: list[int] = []
            stack = [(start, iter(adj[start]))]
            color[start] = GRAY
            path.append(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    c = color.get(succ, BLACK)  # holders that aren't
                    # themselves waiting have no out-edges: terminal
                    if c == GRAY:
                        i = path.index(succ)
                        return tuple(path[i:][: self.max_cycle_pids])
                    if c == WHITE:
                        color[succ] = GRAY
                        path.append(succ)
                        stack.append((succ, iter(adj[succ])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    path.pop()
                    stack.pop()
        return ()

    @staticmethod
    def _max_chain_depth(adj: dict[int, set[int]]) -> int:
        """Longest waiter→holder chain, counted in packets.

        A terminal holder (a packet that is not itself waiting) closes a
        chain; back edges (wait cycles) contribute their acyclic prefix.
        Iterative post-order DFS with memoization — a saturated network
        can hold chains far deeper than the recursion limit.
        """
        depth: dict[int, int] = {}
        for root in adj:
            if root in depth:
                continue
            provisional = {root: 1}
            onstack = {root}
            stack = [(root, iter(adj[root]))]
            while stack:
                node, it = stack[-1]
                descended = False
                for succ in it:
                    if succ in depth:
                        d = 1 + depth[succ]
                    elif succ in onstack:
                        d = 2  # back edge: count the revisited holder once
                    elif succ in adj:
                        provisional[succ] = 1
                        onstack.add(succ)
                        stack.append((succ, iter(adj[succ])))
                        descended = True
                        break
                    else:
                        d = 2  # terminal holder below this waiter
                    if d > provisional[node]:
                        provisional[node] = d
                if not descended:
                    stack.pop()
                    onstack.discard(node)
                    depth[node] = provisional.pop(node)
                    if stack:
                        parent = stack[-1][0]
                        if 1 + depth[node] > provisional[parent]:
                            provisional[parent] = 1 + depth[node]
        return max(depth.values(), default=0)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """The wait-for section of the forensics document."""
        worst = None
        for s in self.samples:
            if s.root is not None and (
                worst is None or s.root["waiters"] > worst["waiters"]
            ):
                worst = s.root
        return {
            "sample_every": self.sample_every,
            "samples": self.samples_taken,
            "max_waiting": max((s.waiting for s in self.samples), default=0),
            "max_depth": max((s.max_depth for s in self.samples), default=0),
            "cycles_detected": self.cycles_detected,
            "precursor_cycle": self.precursor_cycle,
            "precursor": (
                self.precursor.describe() if self.precursor is not None else None
            ),
            "worst_root": worst,
            "last_samples": [s.to_dict() for s in self.samples[-8:]],
        }


class HotspotProbe(Probe):
    """Per-physical-link flit and blocked-cycle totals (hotspot data).

    One record per unidirectional channel: flits crossed during the
    measurement window (from the direction's warm-up-corrected counter)
    and cycles the direction was busy-but-blocked.  Feeds the scorecard
    heatmaps (:mod:`repro.obs.heatmap`).
    """

    def __init__(self) -> None:
        self._blocked: dict[int, list] = {}
        self.engine = None
        self._warmup = 0

    def bind(self, engine) -> None:
        self.engine = engine
        self._warmup = engine.config.warmup_cycles
        self._blocked = {id(d): [d, 0] for d in engine.dirs}

    def on_direction_blocked(self, cycle: int, direction) -> None:
        if cycle >= self._warmup:
            self._blocked[id(direction)][1] += 1

    def __getstate__(self) -> dict:
        # id(direction) keys die across processes; checkpoint the
        # direction objects and re-key on restore
        state = dict(self.__dict__)
        state["_blocked"] = [list(rec) for rec in self._blocked.values()]
        return state

    def __setstate__(self, state: dict) -> None:
        blocked = state.pop("_blocked")
        self.__dict__.update(state)
        self._blocked = {id(rec[0]): rec for rec in blocked}

    def records(self) -> list[dict]:
        """Per-direction hotspot records (all directions, even idle)."""
        out = []
        for d, blocked in self._blocked.values():
            out.append(
                {
                    "switch": d.switch,
                    "port": d.port,
                    "to_node": d.to_node,
                    "flits": d.measured_flits,
                    "blocked_cycles": blocked,
                }
            )
        return out

    def summary(self, top: int = 8) -> dict:
        """The hotspot section of the forensics document."""
        records = self.records()
        hot = sorted(records, key=lambda r: r["blocked_cycles"], reverse=True)
        config = self.engine.config
        return {
            "network": config.network,
            "k": config.k,
            "n": config.n,
            "num_switches": self.engine.topology.num_switches,
            "measured_cycles": max(0, config.total_cycles - config.warmup_cycles),
            "total_blocked_cycles": sum(r["blocked_cycles"] for r in records),
            "total_flits": sum(r["flits"] for r in records),
            "top": [r for r in hot[:top] if r["blocked_cycles"] > 0],
            "links": records,
        }


class ForensicsProbe(MultiProbe):
    """The full forensics tier as one attachable probe.

    Composes :class:`LatencyAttributionProbe` (:attr:`attribution`),
    :class:`WaitForGraphSampler` (:attr:`waitfor`) and
    :class:`HotspotProbe` (:attr:`hotspots`); :meth:`summary` serializes
    all three into the versioned forensics document, attached to
    :class:`~repro.obs.telemetry.RunTelemetry` at run end (a deadlocked
    run's partial result included).
    """

    def __init__(
        self,
        sample_every: int = 200,
        include_warmup: bool = False,
        keep_packets: int = 0,
    ):
        self.attribution = LatencyAttributionProbe(
            include_warmup=include_warmup, keep_packets=keep_packets
        )
        self.waitfor = WaitForGraphSampler(sample_every=sample_every)
        self.hotspots = HotspotProbe()
        super().__init__([self.attribution, self.waitfor, self.hotspots])

    def on_run_end(self, engine) -> None:
        super().on_run_end(engine)
        attach_forensics(engine.result, self)

    def summary(self) -> dict:
        return {
            "format": FORENSICS_FORMAT_VERSION,
            "attribution": self.attribution.summary(),
            "waitfor": self.waitfor.summary(),
            "hotspots": self.hotspots.summary(),
        }


def describe_forensics(doc: dict) -> str:
    """Multi-line human-readable digest of one forensics document.

    The text form of what the scorecard panels draw, shared by
    ``repro-net run --forensics`` and ``repro-net analyze``.
    """
    lines: list[str] = []
    attr = doc.get("attribution") or {}
    packets = attr.get("packets", 0)
    lines.append(
        f"latency attribution ({attr.get('pattern', '?')} traffic, "
        f"{packets} packets):"
    )
    if packets:
        from .percentiles import percentile_table

        components = attr.get("components", {})
        share = attr.get("share", {})
        for name in COMPONENTS:
            lines.append(
                percentile_table(
                    name, components.get(name, {}), share.get(name, 0.0)
                )
            )
        lines.append(
            percentile_table("network total", components.get("network_latency", {}))
        )
    else:
        lines.append("  no delivered packets in the measurement window")
    violations = attr.get("invariant_violations", 0)
    if violations:
        lines.append(f"  WARNING: {violations} attribution invariant violation(s)")

    wf = doc.get("waitfor") or {}
    lines.append(
        f"wait-for graph: {wf.get('samples', 0)} samples "
        f"(every {wf.get('sample_every', '?')} cyc), "
        f"max {wf.get('max_waiting', 0)} blocked headers, "
        f"max chain depth {wf.get('max_depth', 0)}"
    )
    if wf.get("cycles_detected"):
        pc = wf.get("precursor_cycle")
        lines.append(
            f"  DEADLOCK PRECURSOR: wait cycle first seen at cycle {pc} "
            f"({wf['cycles_detected']} sample(s) with cycles)"
        )
    root = wf.get("worst_root")
    if root:
        lines.append(
            f"  hottest root channel: sw{root['switch']} port{root['port']} "
            f"vc{root['vc']} ({root['waiters']} waiters)"
        )

    hot = doc.get("hotspots") or {}
    total = hot.get("total_blocked_cycles", 0)
    lines.append(
        f"hotspots ({hot.get('network', '?')}, "
        f"{hot.get('num_switches', '?')} switches): "
        f"{total} blocked link-cycles, {hot.get('total_flits', 0)} link flits"
    )
    for rec in hot.get("top", []):
        to = " (ejection)" if rec.get("to_node") else ""
        lines.append(
            f"  sw{rec['switch']} port{rec['port']}{to}: "
            f"{rec['blocked_cycles']} blocked cycles, {rec['flits']} flits"
        )
    return "\n".join(lines)


def attach_forensics(result, probe: ForensicsProbe):
    """Fold ``probe``'s forensics document into ``result.telemetry``.

    Returns the result (telemetry is frozen, so it is replaced rather
    than mutated); a result with no telemetry is returned unchanged.
    """
    if result.telemetry is not None:
        result.telemetry = dataclasses.replace(
            result.telemetry, forensics=probe.summary()
        )
    return result


@dataclass(frozen=True)
class Forensics(Layer):
    """Run layer: the forensics tier; its document lands on the result's
    telemetry, so it survives pickling (parallel sweep workers), the run
    JSON document and the ledger."""

    sample_every: int = 200

    def install(self, engine) -> None:
        compose_probe(engine, ForensicsProbe(sample_every=self.sample_every))


def run_with_forensics(
    config, sample_every: int = 200, keep_packets: int = 0, probe=None
):
    """One forensics-instrumented run that survives a deadlock.

    Returns ``(result, probe, deadlock)`` where ``deadlock`` is the
    caught :class:`~repro.errors.DeadlockError` or None.  On deadlock
    the partial result still carries the forensics document — including
    the sampler's precursor snapshot, which by then has usually seen the
    wedge form — because the post-mortem is the whole point.

    ``probe`` composes an extra observer (e.g. a flight recorder)
    alongside the forensics tier; the returned probe is always the
    :class:`ForensicsProbe`.
    """
    from ..errors import DeadlockError
    from ..sim.run import RunPlan, run_plan

    forensics = ForensicsProbe(sample_every=sample_every, keep_packets=keep_packets)
    layers = (Attach(forensics),) + (() if probe is None else (Attach(probe),))
    try:
        return run_plan(RunPlan(config, layers)), forensics, None
    except DeadlockError as exc:
        return exc.result, forensics, exc
