"""The flit-level wormhole simulation engine (paper §4).

Every clock cycle runs three phases, in an order that guarantees a flit
advances through at most one pipeline stage per cycle (the §5
normalization makes T_link = T_crossbar = T_routing = 1 clock):

1. **Link phase** — for every unidirectional channel with buffered output
   flits, an arbiter picks one output lane holding a flit and a credit;
   that flit crosses to the downstream input lane (or ejection lane).
   The policy is ``config.arbiter``: round-robin (paper default) or
   oldest-packet-first by creation cycle (``"age"``), which bounds tail
   latency under sustained overload.  Node injection runs in the same
   phase: each node streams at most one flit per cycle of its current
   packet into an injection lane (the single injection channel / source
   throttling of §3).
2. **Crossbar phase** — every crossbar-bound (input → output) lane pair
   forwards one flit if the output lane has space, returning a credit
   upstream; flits that arrived in this cycle's link phase are held one
   cycle (``last_arrival`` stamp).  Forwarding the tail releases the input
   lane and the crossbar path.
3. **Routing phase** — each switch routes at most one new header per
   cycle; pending headers are served round-robin and a header that cannot
   be routed (all candidate lanes busy) simply retries next cycle.

The link and crossbar phases are one array kernel.  Every lane counter
lives in the flat arrays of a :class:`~repro.router.lane.LaneArrays`
indexed by lane id, so each phase is a fixed handful of numpy operations
over all lanes at once (:func:`~repro.router.arbiter.grant` arbitrates
every direction in one step), whatever the load.  Python runs only for
*events*: a header entering an input lane (it joins the routing queue), a
header or tail reaching its destination node, a tail leaving an output
lane, a tail leaving an input lane through the crossbar, and, with a probe
attached, a busy direction that could not send.

**Event order.**  A phase first moves all of its flits with array
operations, then fires its events in ascending ``engine.dirs`` index
order: the order a sequential scan of the directions produces.  An event
handler writes only the counters of its own lanes.  Routing-queue order,
packet ids, transport ACK tie-breaks, ``collect_latencies`` order and
probe call streams therefore do not depend on how the kernel batches
its work, and runs reproduce the stored golden state digests
(``tests/golden/``).

Injection and routing stay Python loops over nodes and switches.  Nodes
already streaming a packet advance one flit each in one array step after
the loop.  :meth:`Engine.audit` verifies the global invariants (buffer
bounds, credit consistency, lane-pair consistency, flit conservation)
after any run.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ConfigurationError, DeadlockError, SimulationError
from ..obs.telemetry import PHASE_NAMES, RunTelemetry, config_digest
from ..router.arbiter import grant
from ..router.lane import EjectionLane, InputLane, LaneArrays, LinkDirection, OutputLane
from ..routing.base import RoutingAlgorithm
from ..topology.base import Topology
from ..topology.cube import KAryNCube
from ..traffic.generator import BernoulliInjector
from .config import SimulationConfig
from .diagnostics import capture_snapshot
from .packet import FAULT_SENTINEL, Packet
from .results import RunResult

#: effectively infinite credit for ejection channels (the node consumes
#: flits as fast as the link can deliver them)
_EJECT_CREDITS = 1 << 60


class _Node:
    """Per-node injection state: the single injection channel of §3."""

    __slots__ = ("nid", "source", "lanes", "rr", "packet", "last_sent", "lane")

    def __init__(self, nid: int, source, lanes: list[InputLane]):
        self.nid = nid
        self.source = source
        #: injection lanes at the attached switch port
        self.lanes = lanes
        self.rr = 0
        #: packet currently being streamed into the network
        self.packet: Packet | None = None
        #: injection lane of that packet (None when idle)
        self.lane: InputLane | None = None
        #: flits the previous packet streamed (0 after a kill)
        self.last_sent = 0

    @property
    def sent(self) -> int:
        """Flits of the current (or, when idle, the previous) packet sent.

        While a packet streams, its injection lane holds every flit it
        has received of it, so the lane's counter is the count.
        """
        return self.lane.received if self.lane is not None else self.last_sent


class Engine:
    """One simulation run over a built network.

    Args:
        topology: the network under test.
        routing: a routing algorithm compatible with the topology.
        injector: per-node traffic sources.
        config: run recipe (must be consistent with the other arguments).
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        injector: BernoulliInjector,
        config: SimulationConfig,
    ):
        if injector.num_nodes != topology.num_nodes:
            raise ConfigurationError(
                f"injector built for {injector.num_nodes} nodes, "
                f"topology has {topology.num_nodes}"
            )
        self.topology = topology
        self.config = config
        self.injector = injector
        vcs = config.vcs
        cap = config.buffer_flits

        num_switches = topology.num_switches
        base_ports = topology.ports_per_switch()
        is_direct = isinstance(topology, KAryNCube)
        total_ports = base_ports + (1 if is_direct else 0)

        #: in_lanes[switch][port] -> list of InputLane (may be empty for
        #: unused directions, e.g. root up-ports).  A cube router's node
        #: port has a single injection channel (P = 17 in §5); a tree leaf
        #: port carries the full V lanes (P = 2kV).
        self.in_lanes: list[list[list[InputLane]]] = [
            [
                [InputLane(s, p, v, cap) for v in range(1 if p == base_ports else vcs)]
                for p in range(total_ports)
            ]
            for s in range(num_switches)
        ]
        self.out_lanes: list[list[list[OutputLane]]] = [
            [[OutputLane(s, p, v, cap) for v in range(vcs)] for p in range(total_ports)]
            for s in range(num_switches)
        ]

        self.dirs: list[LinkDirection] = []
        self._wire_switch_links()
        self._wire_node_links()
        self._prune_unwired()
        #: every lane counter, as flat arrays (the link/crossbar kernel's state)
        self.lanes = LaneArrays(
            self.dirs,
            [lane for ports in self.in_lanes for port in ports for lane in port],
            cap,
            _EJECT_CREDITS,
        )
        #: per node: the injection lane id of the packet it is streaming, or -1
        self._stream = np.full(topology.num_nodes, -1, dtype=np.int64)

        # cycle hooks (fault schedules, instrumentation): cycle -> callbacks.
        # _next_hook_cycle caches the earliest key so the hot loop pays a
        # single int comparison per cycle; -1 means no hooks armed.
        self._cycle_hooks: dict[int, list] = {}
        self._next_hook_cycle = -1

        #: attached observability probe (repro.obs); None keeps the hot
        #: loop on its fast path with only `is not None` guards
        self.probe = None

        # routing bookkeeping
        self.pending: list[list[InputLane]] = [[] for _ in range(num_switches)]
        self.route_rr = [0] * num_switches
        self._in_route_queue = [False] * num_switches
        self.route_queue: list[int] = []

        # statistics
        self.cycle = 0
        self.injected_packets_total = 0
        self.delivered_packets_total = 0
        self.injected_flits_total = 0
        self.delivered_flits_total = 0
        #: worms destroyed in flight by fail-stop faults (kill_packet)
        self.dropped_packets_total = 0
        self.dropped_flits_total = 0
        self.result = RunResult(config=config, measured_cycles=config.total_cycles - config.warmup_cycles)
        #: rolling counter behind RunResult.throughput_timeline
        self._interval_delivered = 0
        self._last_progress = 0
        #: cycle the current run() entered at — an attribute rather than a
        #: run() local so a checkpointed engine can resume_run() and still
        #: report telemetry.cycles over the whole logical run
        self._run_started_at = 0
        self._next_pid = 0
        #: high-water mark of packets simultaneously in flight (telemetry)
        self._peak_in_flight = 0
        #: cumulative wall seconds per step phase, indexed like PHASE_NAMES
        #: (5 perf_counter reads per cycle — well under 1% of a step)
        self._phase_seconds = [0.0, 0.0, 0.0, 0.0]
        self._phase_at_start = (0.0, 0.0, 0.0, 0.0)
        self._warmup_snapshot_taken = config.warmup_cycles == 0
        #: oldest-first arbitration (config.arbiter == "age"); checked once
        #: per direction/switch in the hot loops
        self._age_arbiter = config.arbiter == "age"

        routing.attach(self)
        self.routing = routing
        self._build_nodes()

    # -- construction ----------------------------------------------------------

    def _wire_switch_links(self) -> None:
        for link in self.topology.switch_links():
            for sa, pa, sb, pb in (
                (link.switch_a, link.port_a, link.switch_b, link.port_b),
                (link.switch_b, link.port_b, link.switch_a, link.port_a),
            ):
                outs = self.out_lanes[sa][pa]
                ins = self.in_lanes[sb][pb]
                for out, inp in zip(outs, ins):
                    if out.sink is not None or inp.src_out is not None:
                        raise SimulationError(
                            f"port wired twice: switch {sa} port {pa} -> switch {sb} port {pb}"
                        )
                    out.sink = inp
                    inp.src_out = out
                self.dirs.append(LinkDirection(outs))

    def _wire_node_links(self) -> None:
        self.eject_lanes: list[list[EjectionLane]] = [[] for _ in range(self.topology.num_nodes)]
        self._injection_lanes: list[list[InputLane]] = [[] for _ in range(self.topology.num_nodes)]
        for nl in self.topology.node_links():
            s, p, node = nl.switch, nl.port, nl.node
            # ejection: switch output lanes -> per-VC ejection sinks
            outs = self.out_lanes[s][p]
            for out in outs:
                ej = EjectionLane(node)
                out.sink = ej
                self.eject_lanes[node].append(ej)
            self.dirs.append(LinkDirection(outs, to_node=True))
            # injection: the node feeds the switch input lanes directly
            self._injection_lanes[node] = self.in_lanes[s][p]

    def _prune_unwired(self) -> None:
        """Drop lanes on unconnected ports (e.g. root external links)."""
        for s in range(self.topology.num_switches):
            for p in range(len(self.out_lanes[s])):
                outs = self.out_lanes[s][p]
                if outs and outs[0].sink is None:
                    self.out_lanes[s][p] = []
                    self.in_lanes[s][p] = []

    def _build_nodes(self) -> None:
        self.nodes = [
            _Node(nid, self.injector.sources[nid], self._injection_lanes[nid])
            for nid in range(self.topology.num_nodes)
        ]
        self.active_nodes = [node for node in self.nodes if node.source.active]

    def preload_packet(self, src: int, dst: int, created: int = 0) -> None:
        """Queue one packet at a source before the run starts.

        Useful for deterministic unit tests, examples and debugging: the
        packet joins the node's source queue (behind any stochastic
        traffic) and is injected through the normal single-channel path.

        Raises:
            ConfigurationError: for out-of-range nodes or ``src == dst``.
        """
        nodes = self.topology.num_nodes
        if not (0 <= src < nodes and 0 <= dst < nodes):
            raise ConfigurationError(f"nodes out of range: {src}->{dst} (N={nodes})")
        if src == dst:
            raise ConfigurationError("a packet needs distinct source and destination")
        node = self.nodes[src]
        node.source.queue.append((created, dst))
        if node not in self.active_nodes:
            self.active_nodes.append(node)

    # -- observability -------------------------------------------------------------

    def attach_probe(self, probe) -> None:
        """Attach an observability probe (see :mod:`repro.obs.probe`).

        The probe's ``bind`` runs immediately so it can pre-size per-lane
        state from the live engine.  Only one probe slot exists; compose
        several with :class:`~repro.obs.probe.MultiProbe`.

        Raises:
            ConfigurationError: when a probe is already attached.
        """
        if self.probe is not None:
            raise ConfigurationError(
                "a probe is already attached; compose probes with MultiProbe"
            )
        probe.bind(self)
        self.probe = probe

    def _start_run(self) -> tuple[int, float]:
        """Snapshot cycle, wall clock and phase timers at run entry."""
        self._phase_at_start = tuple(self._phase_seconds)
        if self.probe is not None:
            self.probe.on_run_start(self)
        return self.cycle, time.perf_counter()

    def _finish_run(self, started_at_cycle: int, wall_start: float) -> None:
        """Attach telemetry to the result and close out the probe."""
        wall = time.perf_counter() - wall_start
        cycles = self.cycle - started_at_cycle
        self.result.telemetry = RunTelemetry(
            config_hash=config_digest(self.config),
            seed=self.config.seed,
            cycles=cycles,
            wall_clock_s=wall,
            cycles_per_sec=cycles / wall if wall > 0 else 0.0,
            peak_in_flight=self._peak_in_flight,
            phase_seconds={
                name: self._phase_seconds[i] - self._phase_at_start[i]
                for i, name in enumerate(PHASE_NAMES)
            },
        )
        if self.probe is not None:
            self.probe.on_run_end(self)

    # -- cycle hooks ---------------------------------------------------------------

    def add_cycle_hook(self, cycle: int, fn) -> None:
        """Schedule ``fn(engine)`` to run at the start of cycle ``cycle``.

        Hooks fire before the link phase, so state changed by a hook (a
        fault struck or repaired, say) is visible to every phase of that
        same cycle.  Hooks may re-arm themselves or add hooks for the
        same or later cycles while running.

        Raises:
            ConfigurationError: when ``cycle`` lies in the past.
        """
        if cycle < self.cycle:
            raise ConfigurationError(
                f"cannot hook cycle {cycle}; the engine is already at {self.cycle}"
            )
        self._cycle_hooks.setdefault(cycle, []).append(fn)
        if self._next_hook_cycle < 0 or cycle < self._next_hook_cycle:
            self._next_hook_cycle = cycle

    def _run_cycle_hooks(self, t: int) -> None:
        # hooks may add same-cycle hooks while running, hence the loop;
        # bookkeeping is settled BEFORE each hook runs so a hook that
        # snapshots the engine (checkpointing) captures exactly the
        # not-yet-run remainder — never itself, never a stale next-cycle
        while self._next_hook_cycle == t:
            pending = self._cycle_hooks[t]
            fn = pending.pop(0)
            if not pending:
                del self._cycle_hooks[t]
                self._next_hook_cycle = (
                    min(self._cycle_hooks) if self._cycle_hooks else -1
                )
            fn(self)

    # -- one simulation cycle ----------------------------------------------------

    def step(self) -> bool:
        """Advance one cycle; returns True when any flit moved (progress)."""
        t = self.cycle
        if t == self._next_hook_cycle:
            self._run_cycle_hooks(t)
        warm = t >= self.config.warmup_cycles
        if warm and not self._warmup_snapshot_taken:
            # freeze the cumulative per-direction flit counters so the
            # utilization analyses can report measurement-window rates
            self._warmup_snapshot_taken = True
            self.lanes.flits_at_warmup[:] = self.lanes.flits
        phases = self._phase_seconds
        clock = time.perf_counter
        start = clock()
        progress = self._link_phase(t, warm)
        now = clock()
        phases[0] += now - start
        start = now
        progress |= self._injection_phase(t, warm)
        now = clock()
        phases[1] += now - start
        start = now
        progress |= self._crossbar_phase(t)
        now = clock()
        phases[2] += now - start
        start = now
        progress |= self._routing_phase(t)

        res = self.result
        interval = self.config.interval_cycles
        if interval and warm and (t - self.config.warmup_cycles + 1) % interval == 0:
            res.throughput_timeline.append(self._interval_delivered)
            self._interval_delivered = 0

        if self.probe is not None:
            self.probe.on_cycle(t)
        phases[3] += clock() - start
        self.cycle = t + 1
        return progress

    def _link_phase(self, t: int, warm: bool) -> bool:
        """Phase 1a: at most one flit per direction crosses its link."""
        k = self.lanes
        buffered, credits, sent, received = k.buffered, k.credits, k.sent, k.received
        vcs, ndirs = k.vcs, k.ndirs
        # one row per virtual channel, one column per direction
        eligible = (np.minimum(buffered, credits) > 0).reshape(vcs, ndirs)
        age = k.age.reshape(vcs, ndirs) if self._age_arbiter else None
        dirs, lane_vc = grant(eligible, k.rr, age)
        probe = self.probe
        blocked = None
        if probe is not None:
            # busy directions where no lane had both a flit and a credit
            stuck = k.nbusy > 0
            stuck[dirs] = False
            blocked = stuck.nonzero()[0]
        if not dirs.size:
            if blocked is not None:
                for d in blocked.tolist():
                    probe.on_direction_blocked(t, self.dirs[d])
            return False

        out = lane_vc * ndirs + dirs
        buffered[out] -= 1
        credits[out] -= 1
        sent[out] += 1
        k.flits[dirs] += 1
        k.nbusy[dirs[(buffered[out] == 0).nonzero()[0]]] -= 1
        k.rr[dirs] = (lane_vc + 1) % vcs
        sink = k.sink[out]
        received[sink] += 1
        k.last_arrival[sink] = t
        # ejection directions come last, and dirs is ascending
        ejected = dirs.size - int(dirs.searchsorted(k.first_ejection))
        if ejected:
            self.delivered_flits_total += ejected
            if warm:
                self.result.delivered_flits += ejected
                self._interval_delivered += ejected

        # ---- events, in direction order: headers entering a lane, tails
        # leaving one
        head = received[sink] == 1
        tail = sent[out] == k.out_size[out]
        ev = (head | tail).nonzero()[0]
        rows = list(zip(out[ev].tolist(), head[ev].tolist(), tail[ev].tolist()))
        if blocked is not None and blocked.size:
            # interleave the blocked directions: index i < len(rows) is a
            # flit event, the rest are blocked directions
            n = len(rows)
            order = np.argsort(np.concatenate((dirs[ev], blocked)), kind="stable")
            blocked_dirs = blocked.tolist()
            rows = [rows[i] if i < n else blocked_dirs[i - n] for i in order.tolist()]
        outs = k.outs
        for row in rows:
            if type(row) is int:
                probe.on_direction_blocked(t, self.dirs[row])
                continue
            o, is_head, is_tail = row
            lane = outs[o]
            pkt = lane.packet
            snk = lane.sink
            if lane.direction.to_node:
                if is_head:
                    snk.packet = pkt
                    pkt.head_delivered = t
                    if probe is not None:
                        probe.on_head_delivered(t, pkt)
                if is_tail:
                    self._deliver(t, snk, pkt)
            elif is_head:
                snk.packet = pkt
                snk.head_cycle = t
                k.in_size[snk.lid] = pkt.size
                self._enqueue_header(snk)
                if probe is not None:
                    probe.on_head_arrived(t, snk, pkt)
            if is_tail:
                # tail left this switch: free the output lane
                lane.packet = None
                sent[o] = 0
        return True

    def _deliver(self, t: int, sink: EjectionLane, pkt: Packet) -> None:
        """The tail of ``pkt`` reached its node: the packet is delivered
        and its ejection lane is free again."""
        pkt.delivered = t
        sink.packet = None
        self.lanes.received[sink.lid] = 0
        self.delivered_packets_total += 1
        if self.probe is not None:
            self.probe.on_tail_delivered(t, pkt)
        if pkt.injected >= self.config.warmup_cycles:
            res = self.result
            res.delivered_packets += 1
            lat = t - pkt.injected
            res.latency_sum += lat
            res.head_latency_sum += pkt.head_delivered - pkt.injected
            if lat > res.latency_max:
                res.latency_max = lat
            if self.config.collect_latencies:
                res.latencies.append(lat)

    def _injection_phase(self, t: int, warm: bool) -> bool:
        """Phase 1b: sources advance; idle nodes start their next packet
        and streaming nodes send their next flit."""
        k = self.lanes
        stream = self._stream
        # nodes mid-packet at the phase start; a packet started below
        # sends its header only this cycle
        streaming = (stream >= 0).nonzero()[0]
        probe = self.probe
        res = self.result
        default_size = self.config.packet_flits
        progress = False
        for node in self.active_nodes:
            src = node.source
            created = src.advance(t)
            if created:
                if warm:
                    res.generated_packets += created
                if probe is not None:
                    probe.on_packets_generated(t, node.nid, created)
            if node.packet is not None or not src.queue:
                continue
            # allocate a free injection lane (rotating fair choice)
            lanes = node.lanes
            n = len(lanes)
            lane = None
            for off in range(n):
                idx = (node.rr + off) % n
                if lanes[idx].packet is None:
                    lane = lanes[idx]
                    node.rr = (idx + 1) % n
                    break
            if lane is None:
                continue
            entry = src.queue.popleft()
            # trace-driven sources carry an explicit per-message size
            size = entry[2] if len(entry) > 2 else default_size
            pkt = Packet(self._next_pid, node.nid, entry[1], size, entry[0])
            self._next_pid += 1
            pkt.injected = t
            lane.packet = pkt
            lane.head_cycle = t
            lid = lane.lid
            k.received[lid] = 1
            k.last_arrival[lid] = t
            k.in_size[lid] = size
            self._enqueue_header(lane)
            self.injected_packets_total += 1
            self.injected_flits_total += 1
            in_flight = (
                self.injected_packets_total
                - self.delivered_packets_total
                - self.dropped_packets_total
            )
            if in_flight > self._peak_in_flight:
                self._peak_in_flight = in_flight
            if warm:
                res.injected_packets += 1
            if probe is not None:
                probe.on_packet_injected(t, pkt)
            progress = True
            if size == 1:  # degenerate tiny packets
                node.last_sent = 1
            else:
                node.packet = pkt
                node.lane = lane
                stream[node.nid] = lid

        if streaming.size:
            lids = stream[streaming]
            got = k.received[lids]
            room = (got - k.forwarded[lids] < k.cap).nonzero()[0]
            if room.size:
                lids, got = lids[room], got[room] + 1
                k.received[lids] = got
                k.last_arrival[lids] = t
                self.injected_flits_total += lids.size
                progress = True
                done = streaming[room[(got == k.in_size[lids]).nonzero()[0]]]
                if done.size:
                    stream[done] = -1
                    nodes = self.nodes
                    for nid in done.tolist():
                        node = nodes[nid]
                        node.last_sent = node.packet.size
                        node.packet = None
                        node.lane = None
        return progress

    def _crossbar_phase(self, t: int) -> bool:
        """Phase 2: every bound input lane forwards one flit if it can."""
        k = self.lanes
        bound, forwarded, buffered = k.bound, k.forwarded, k.buffered
        lanes = (bound >= 0).nonzero()[0]
        out = bound[lanes]
        fwd = forwarded[lanes]
        occ = buffered[out]
        # flits that arrived this cycle are held until the next one
        held = k.last_arrival[lanes] == t
        go = ((k.received[lanes] - fwd > held) & (occ < k.cap)).nonzero()[0]
        if not go.size:
            return False
        lanes, out, fwd, occ = lanes[go], out[go], fwd[go] + 1, occ[go]
        forwarded[lanes] = fwd
        buffered[out] = occ + 1
        # lanes of one direction may wake together: accumulate
        np.add.at(k.nbusy, out[(occ == 0).nonzero()[0]] % k.ndirs, 1)
        src = k.src[lanes]
        k.credits[src[(src >= 0).nonzero()[0]]] += 1
        done = lanes[(fwd == k.in_size[lanes]).nonzero()[0]]
        if done.size:
            # tail through the crossbar: release the input lane
            k.received[done] = 0
            forwarded[done] = 0
            bound[done] = -1
            sinks = k.sinks
            for i in done.tolist():
                sinks[i].packet = None
        return True

    def _routing_phase(self, t: int) -> bool:
        """Phase 3: each switch routes at most one pending header."""
        if not self.route_queue:
            return False
        progress = False
        probe = self.probe
        age_arb = self._age_arbiter
        k = self.lanes
        select = self.routing.select
        still = []
        for s in self.route_queue:
            pend = self.pending[s]
            if not pend:
                self._in_route_queue[s] = False
                continue
            n = len(pend)
            if age_arb:
                # oldest header first; sort stability breaks ties on
                # arrival order within the pending list
                order = sorted(range(n), key=lambda i2: pend[i2].packet.created)
            else:
                order = None
                rr = self.route_rr[s] % n
            routed = -1
            for off in range(n):
                if order is not None:
                    idx = order[off]
                else:
                    idx = rr + off
                    if idx >= n:
                        idx -= n
                lane = pend[idx]
                if lane.head_cycle == t:
                    # the header itself arrived in this cycle's link
                    # phase; routing it costs one full T_routing
                    continue
                pkt = lane.packet
                out = select(s, lane, pkt)
                if out is not None:
                    o = out.lid
                    k.bound[lane.lid] = o
                    out.packet = pkt
                    k.out_size[o] = pkt.size
                    k.age[o] = pkt.created
                    routed = idx
                    if probe is not None:
                        probe.on_header_routed(t, s, lane, out)
                    break
            if routed >= 0:
                pend.pop(routed)
                self.route_rr[s] = routed % len(pend) if pend else 0
                progress = True
            if pend:
                still.append(s)
            else:
                self._in_route_queue[s] = False
        self.route_queue = still
        return progress

    def _enqueue_header(self, lane: InputLane) -> None:
        s = lane.switch
        self.pending[s].append(lane)
        if not self._in_route_queue[s]:
            self._in_route_queue[s] = True
            self.route_queue.append(s)

    # -- full run ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to ``config.total_cycles`` and return the measurements.

        Raises:
            DeadlockError: if the watchdog sees no flit movement for
                ``config.watchdog_cycles`` cycles while packets are in
                flight (indicates a routing bug, not an expected outcome).
        """
        start_cycle, wall_start = self._start_run()
        self._run_started_at = start_cycle
        return self._run_to_total(wall_start)

    def resume_run(self) -> RunResult:
        """Continue a restored run to ``config.total_cycles``.

        The checkpoint/restore counterpart of :meth:`run` (see
        :mod:`repro.sim.checkpoint`): probes keep the accumulated state
        they were pickled with, so ``on_run_start`` must *not* re-fire —
        a statehash chain or flight timeline continues seamlessly across
        the restore.  Telemetry spans the whole logical run
        (``_run_started_at`` travelled inside the checkpoint); only the
        wall-clock fields measure this process's share.
        """
        return self._run_to_total(time.perf_counter())

    def _run_to_total(self, wall_start: float) -> RunResult:
        watchdog = self.config.watchdog_cycles
        total = self.config.total_cycles
        start_cycle = self._run_started_at
        while self.cycle < total:
            if self.step():
                self._last_progress = self.cycle
            elif (
                watchdog
                and self.in_flight_packets() > 0
                and self.cycle - self._last_progress >= watchdog
            ):
                self._finish_run(start_cycle, wall_start)
                raise self._deadlock(
                    f"no flit movement for {watchdog} cycles at cycle {self.cycle} "
                    f"with {self.in_flight_packets()} packets in flight "
                    f"({self.config.label()})"
                )
        self.result.in_flight_at_end = self.in_flight_packets()
        self._finish_run(start_cycle, wall_start)
        return self.result

    def run_until_drained(self, max_cycles: int = 1_000_000) -> int:
        """Run until every queued and in-flight packet is delivered.

        Used for batch experiments (e.g. draining one full permutation,
        the "global permutation pattern" of §6) where the metric is the
        makespan rather than a steady-state rate.  Ignores
        ``config.total_cycles``; statistics windows still apply as
        configured.

        Returns:
            The cycle at which the network became empty.

        Raises:
            DeadlockError: when the watchdog fires, or nothing is
                delivered by ``max_cycles``.
        """
        watchdog = self.config.watchdog_cycles
        start_cycle, wall_start = self._start_run()
        while True:
            if self.in_flight_packets() == 0 and all(
                node.source.done() for node in self.active_nodes
            ):
                self._finish_run(start_cycle, wall_start)
                return self.cycle
            if self.cycle >= max_cycles:
                self._finish_run(start_cycle, wall_start)
                raise self._deadlock(
                    f"drain did not complete within {max_cycles} cycles "
                    f"({self.in_flight_packets()} packets in flight)"
                )
            if self.step():
                self._last_progress = self.cycle
            elif (
                watchdog
                and self.in_flight_packets() > 0
                and self.cycle - self._last_progress >= watchdog
            ):
                self._finish_run(start_cycle, wall_start)
                raise self._deadlock(
                    f"no flit movement for {watchdog} cycles at cycle {self.cycle} "
                    f"during drain ({self.config.label()})"
                )

    def _deadlock(self, message: str) -> DeadlockError:
        """Build a DeadlockError carrying a diagnostic network snapshot
        and the run's partial result (raised after ``_finish_run``)."""
        snapshot = capture_snapshot(self)
        exc = DeadlockError(f"{message}\n{snapshot.describe()}", snapshot=snapshot)
        exc.result = self.result
        return exc

    def in_flight_packets(self) -> int:
        """Packets injected but neither delivered nor dropped."""
        return (
            self.injected_packets_total
            - self.delivered_packets_total
            - self.dropped_packets_total
        )

    def state_fingerprint(self, detail: bool = False) -> dict:
        """Layered digest of the complete simulation state at this cycle.

        The backend validation contract (see DESIGN.md): any alternative
        engine backend must produce identical fingerprints at identical
        cycles for identical configs.  Covers lanes, credits, routing,
        injection queues, transport/AIMD state and RNG stream positions;
        excludes measurement accumulators and wall-clock state.  With
        ``detail``, per-link, per-lane and per-node leaf digests are
        included for divergence localization.  Delegates to
        :func:`repro.obs.statehash.engine_fingerprint`.
        """
        from ..obs.statehash import engine_fingerprint

        return engine_fingerprint(self, detail=detail)

    def kill_packet(self, pkt: Packet, reason: str = "fault") -> int:
        """Tear down an in-flight worm (fail-stop fault semantics).

        Flushes every flit of ``pkt`` still buffered in the network,
        releases all input, output and ejection lanes it holds, restores
        the credit counters of the flushed lane pairs, unbinds it from
        the crossbar and the routing queues, and stops the source if the
        worm was still streaming in (the unstreamed remainder is never
        injected, so flit conservation holds).  The drop is stamped on
        the packet, counted in the engine totals and the measurement
        window, and reported through ``on_packet_dropped``.

        Safe to call from a cycle hook: hooks fire before the link phase
        so no phase iteration is in progress.

        Returns:
            The number of flits flushed from the network (0 when the
            packet already left it — delivered or previously dropped).

        Raises:
            SimulationError: when asked to kill the fault sentinel.
        """
        if pkt is FAULT_SENTINEL:
            raise SimulationError("cannot kill the fault sentinel")
        if pkt.delivered >= 0 or pkt.dropped >= 0:
            return 0
        t = self.cycle
        flushed = 0
        k = self.lanes

        node = self.nodes[pkt.src]
        if node.packet is pkt:
            node.packet = None
            node.lane = None
            node.last_sent = 0
            self._stream[node.nid] = -1

        for lane in k.sinks[: k.num_inputs]:
            if lane.packet is not pkt:
                continue
            i = lane.lid
            if k.bound[i] < 0:
                # an unbound header is still waiting in the routing queue
                pend = self.pending[lane.switch]
                if lane in pend:
                    pend.remove(lane)
            flushed += int(k.received[i] - k.forwarded[i])
            lane.packet = None
            k.received[i] = k.forwarded[i] = 0
            k.bound[i] = -1
            if lane.src_out is not None:
                # the (output lane -> input lane) pair carries a single
                # packet, so after the flush the downstream buffer is
                # empty and the upstream credit counter returns to cap
                k.credits[lane.src_out.lid] = k.cap

        for lane in k.outs:
            if lane.packet is pkt:
                o = lane.lid
                buffered = int(k.buffered[o])
                if buffered:
                    k.nbusy[lane.direction.lid] -= 1
                    flushed += buffered
                lane.packet = None
                k.buffered[o] = k.sent[o] = 0

        for ej in self.eject_lanes[pkt.dst]:
            if ej.packet is pkt:
                ej.packet = None
                k.received[ej.lid] = 0

        pkt.dropped = t
        self.dropped_packets_total += 1
        self.dropped_flits_total += flushed
        if pkt.injected >= self.config.warmup_cycles:
            self.result.dropped_packets += 1
            self.result.dropped_flits += flushed
        if self.probe is not None:
            self.probe.on_packet_dropped(t, pkt, reason)
        return flushed

    @property
    def bindings(self) -> list[InputLane]:
        """Crossbar-bound input lanes, in (switch, port, vc) order."""
        k = self.lanes
        return [k.sinks[i] for i in np.flatnonzero(k.bound >= 0).tolist()]

    @property
    def delivered_flits_per_node(self) -> list[int]:
        """Flits delivered to each node during the measurement window
        (fairness/hotspot analyses)."""
        per = [0] * self.topology.num_nodes
        if self._warmup_snapshot_taken:
            for d in self.dirs:
                if d.to_node:
                    per[d.lanes[0].sink.node] += d.measured_flits
        return per

    def unrouted_headers(self):
        """Yield every input lane holding a header that routing has not
        bound yet, as ``(switch, lane)`` pairs.

        These are exactly the *waiting* parties of the network's wait-for
        relation: a blocked wormhole chain always terminates at one of
        them (or at an ejection channel).  Read-only over live engine
        state — used by the deadlock snapshot and the wait-for graph
        sampler, safe to call between cycles.
        """
        for s in self.route_queue:
            for lane in self.pending[s]:
                if lane.bound is None and lane.packet is not None:
                    yield s, lane

    # -- invariants ----------------------------------------------------------------

    def audit(self) -> None:
        """Verify global invariants; raises SimulationError on violation.

        Checked after runs by the test-suite:

        * buffer occupancies within ``[0, cap]``;
        * a free input lane holds no flits and no crossbar binding;
        * crossbar bindings join lanes of one packet;
        * lane pairs are in step: an output lane that has sent flits of
          its packet feeds a sink holding that same packet, which has
          received exactly those flits (no interleaved packets, no lane
          released before its tail);
        * credit counters mirror downstream free space exactly;
        * ``nbusy`` counts the lanes of each direction holding flits;
        * flit conservation: every injected flit is either delivered or
          buffered in exactly one lane.
        """
        k = self.lanes
        cap = k.cap
        n_in = k.num_inputs
        sinks, outs = k.sinks, k.outs

        def first(bad: np.ndarray, lanes: list, what: str) -> None:
            hits = np.flatnonzero(bad)
            if hits.size:
                raise SimulationError(f"{what}: {lanes[int(hits[0])]!r}")

        received, forwarded, bound = k.received[:n_in], k.forwarded[:n_in], k.bound[:n_in]
        in_buffered = received - forwarded
        first((in_buffered < 0) | (in_buffered > cap), sinks, "input buffer out of range")
        free = np.array([lane.packet is None for lane in sinks[:n_in]], dtype=bool)
        first(
            free & ((received != 0) | (forwarded != 0) | (bound >= 0)),
            sinks,
            "free input lane with residue",
        )
        for i in np.flatnonzero(bound >= 0).tolist():
            lane = sinks[i]
            if lane.bound.packet is not lane.packet:
                raise SimulationError(f"binding mismatch: {lane!r} -> {lane.bound!r}")
        for o in np.flatnonzero(k.sent > 0).tolist():
            lane = outs[o]
            sink = lane.sink
            if sink.packet is not lane.packet or sink.received != int(k.sent[o]):
                raise SimulationError(f"lane pair out of step: {lane!r} -> {sink!r}")
        first((k.buffered < 0) | (k.buffered > cap), outs, "output buffer out of range")
        free_space = cap - (k.received - k.forwarded)[k.sink]
        drift = ~np.tile(k.to_node, k.vcs) & (k.credits != free_space)
        for o in np.flatnonzero(drift)[:1].tolist():
            raise SimulationError(
                f"credit drift: {outs[o]!r} credits={int(k.credits[o])}, "
                f"downstream free space={int(free_space[o])}"
            )
        busy = np.count_nonzero(k.buffered.reshape(k.vcs, k.ndirs) > 0, axis=0)
        for d in np.flatnonzero(busy != k.nbusy)[:1].tolist():
            raise SimulationError(
                f"nbusy drift: direction {d} nbusy={int(k.nbusy[d])}, busy lanes={int(busy[d])}"
            )
        # delivered_flits_total counts every ejected flit (including those
        # of packets still partially in flight) and dropped_flits_total
        # every flit flushed by a fail-stop kill, so what remains in the
        # network is exactly the sum of lane buffers.
        buffered_flits = int(in_buffered.sum()) + int(k.buffered.sum())
        in_network = (
            self.injected_flits_total
            - self.delivered_flits_total
            - self.dropped_flits_total
        )
        if buffered_flits != in_network:
            raise SimulationError(
                f"flit conservation violated: buffered={buffered_flits}, "
                f"injected-delivered={in_network}"
            )
