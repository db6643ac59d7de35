"""Layered state digests: a Merkle-style audit trail of engine state.

ROADMAP item 1 (the vectorized multi-backend engine) needs a way to
prove a new backend *byte-identical* to this reference implementation —
and when it is not, to say **when and where** the two diverged, not just
that the final run documents differ.  This module is that contract.

Every K cycles the :class:`StateDigestProbe` folds the complete mutable
engine state into one 64-bit **root digest** built bottom-up:

- per-lane leaf records (occupancy, flit pid, credit counters) hashed
  per :class:`~repro.router.lane.LinkDirection` into **link digests**,
  plus the routing state (round-robin pointers, pending headers, the
  route queue, crossbar bindings) — together the **fabric** digest;
- per-node **injection** digests (injection channel state, source
  queues, geometric-arrival cursors);
- the **transport** digest (ARQ registries, the timer wheel, AIMD
  windows and ECN marker state) when a reliable transport is installed;
- the **rng** digest (every source stream's position plus the
  transport's jitter stream).

Roots are linked into a tamper-evident chain seeded by the config
digest (``chain[i] = H(chain[i-1] ‖ root[i])``), bounded like the
flight recorder by pairwise decimation, and ride ``telemetry.statehash``
into run documents and the ledger.  :func:`engine_fingerprint` (exposed
as ``Engine.state_fingerprint``) is the instantaneous form;
:func:`state_snapshot` is the un-hashed nested view the divergence
debugger (:mod:`repro.obs.diff`) walks to name the exact lane, flit or
credit counter that differs.

Determinism rules: digests cover only *simulation* state — never wall
clock, ``id()`` values, measurement accumulators or phase timers — so
two runs of one config produce byte-identical chains, and a future
backend can replay a chain entry-for-entry.

Example::

    from repro.obs.statehash import Statehash
    from repro.sim.run import RunPlan, run_plan
    result = run_plan(RunPlan(config, (Statehash(),)))
    print(result.telemetry.statehash["chain_head"])
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct
from array import array

from ..errors import ConfigurationError
from ..traffic.transport import ReliableTransport
from .probe import Layer, Probe, compose_probe, find_probe
from .telemetry import config_digest

#: bump on breaking changes to the digest document layout
STATEHASH_FORMAT_VERSION = 1

#: digest algorithm tag recorded in every document; digests are the
#: first 64 bits of BLAKE2b, rendered as 16 hex chars
DIGEST_ALGO = "blake2b-64"

#: hashed in place of absent values (an empty lane, an unset RTT); far
#: outside any cycle count, pid or credit value yet inside int64
_NONE = -(1 << 62) - 11


# -- hashing primitives --------------------------------------------------------


def _hex(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _ints(values) -> bytes:
    """Canonical byte form of an int64 stream (little-endian on every
    platform this targets; ``array`` keeps the hot path allocation-light)."""
    return array("q", values).tobytes()


def _f2i(x) -> int:
    """A float's exact IEEE-754 bit pattern as int64 (None -> sentinel).

    Hashing bit patterns instead of ``repr`` keeps float state (AIMD
    windows, RTT estimates) byte-exact with zero formatting ambiguity.
    """
    if x is None:
        return _NONE
    return struct.unpack("<q", struct.pack("<d", float(x)))[0]


def _pid(packet) -> int:
    return _NONE if packet is None else packet.pid


def _rng_digest(rng) -> bytes:
    """Digest of a ``random.Random`` stream position.

    ``getstate()`` for the Mersenne Twister is ``(version, 625 uints,
    gauss_next)``; ``hash()`` of that int tuple folds it in C (tuple/int
    hashing is unsalted — ``PYTHONHASHSEED`` only perturbs str/bytes —
    so the value is stable across processes on one interpreter build).
    This runs for every node every sample; pickling or packing 625
    words per call was the probe's single largest cost.  The RNG leaf
    is the one interpreter-specific digest — see the DESIGN.md backend
    validation contract.  Exotic states fall back to a pinned pickle.
    """
    if rng is None:
        return b"no-rng"
    version, internal, gauss = rng.getstate()
    if version == 3 and type(internal) is tuple:
        return _ints((version, hash(internal), _f2i(gauss)))
    state = pickle.dumps((version, internal, gauss), protocol=4)
    return hashlib.blake2b(state, digest_size=8).digest()


# -- per-subsystem leaf records ------------------------------------------------


def direction_label(d) -> str:
    """The direction's stable name (same convention as the flight
    recorder): ``n<node><`` for ejection links, ``s<switch>p<port>``
    for fabric links."""
    if d.to_node:
        return f"n{d.lanes[0].sink.node}<"
    return f"s{d.switch}p{d.port}"


def _lane_record(d, lane) -> list[int]:
    """One output lane plus its sink as an int64 leaf record."""
    p = lane.packet
    rec = [
        lane.vc,
        _NONE if p is None else p.pid,
        lane.buffered,
        lane.sent,
        lane.credits,
    ]
    sink = lane.sink
    sp = sink.packet
    rec.append(_NONE if sp is None else sp.pid)
    rec.append(sink.received)
    if not d.to_node:
        rec.append(sink.forwarded)
        rec.append(sink.last_arrival)
        bound = sink.bound
        if bound is None:
            rec += (_NONE, _NONE, _NONE)
        else:
            rec += (bound.switch, bound.port, bound.vc)
    return rec


def _routing_ints(engine) -> list[int]:
    """Routing state: rr pointers, pending headers (order is semantic),
    the route queue (order is semantic) and crossbar bindings (in
    (switch, port, vc) order, whatever order a backend keeps them in)."""
    vals = list(engine.route_rr)
    vals.append(_NONE)
    for s, lanes in enumerate(engine.pending):
        if not lanes:
            continue
        vals.append(s)
        for lane in lanes:
            vals += (lane.port, lane.vc, _pid(lane.packet))
    vals.append(_NONE)
    vals += engine.route_queue
    vals.append(_NONE)
    for lane in engine.bindings:
        vals += (lane.switch, lane.port, lane.vc, _pid(lane.packet))
    return vals


def _fabric(engine, detail: bool):
    """(fabric digest, per-link digests, per-lane digests) — the latter
    two only materialized when ``detail`` is set (diff-time, not the
    sampling hot path).  The hot path inlines :func:`_lane_record` —
    same bytes, no per-lane call or list churn; every sample walks every
    lane, so this loop is most of the probe's marginal cost."""
    links = {} if detail else None
    lanes = {} if detail else None
    none = _NONE
    flat = []
    if detail:
        for idx, d in enumerate(engine.dirs):
            lane_recs = [_lane_record(d, lane) for lane in d.lanes]
            seg = [idx, d.rr, d.nbusy, d.flits, int(d.to_node)]
            for rec in lane_recs:
                seg += rec
            flat += seg
            label = direction_label(d)
            links[label] = _hex(_ints(seg))
            lanes[label] = {
                f"vc{lane.vc}": _hex(_ints(rec))
                for lane, rec in zip(d.lanes, lane_recs)
            }
    else:
        k = engine.lanes
        rr, nbusy, flits = k.rr.tolist(), k.nbusy.tolist(), k.flits.tolist()
        buffered, sent, credits = k.buffered.tolist(), k.sent.tolist(), k.credits.tolist()
        received, forwarded = k.received.tolist(), k.forwarded.tolist()
        last_arrival, bound = k.last_arrival.tolist(), k.bound.tolist()
        outs = k.outs
        append = flat.append
        for idx, d in enumerate(engine.dirs):
            to_node = d.to_node
            append(idx)
            append(rr[idx])
            append(nbusy[idx])
            append(flits[idx])
            append(1 if to_node else 0)
            for lane in d.lanes:
                o = lane.lid
                p = lane.packet
                append(lane.vc)
                append(none if p is None else p.pid)
                append(buffered[o])
                append(sent[o])
                append(credits[o])
                sink = lane.sink
                i = sink.lid
                sp = sink.packet
                append(none if sp is None else sp.pid)
                append(received[i])
                if not to_node:
                    append(forwarded[i])
                    append(last_arrival[i])
                    b = bound[i]
                    if b < 0:
                        flat += (none, none, none)
                    else:
                        out = outs[b]
                        append(out.switch)
                        append(out.port)
                        append(out.vc)
    routing = hashlib.blake2b(_ints(_routing_ints(engine)), digest_size=8)
    fabric_hex = _hex(_ints(flat) + routing.digest())
    return fabric_hex, links, lanes


def _node_ints(node, counters) -> list[int]:
    """One node's injection-side state: the injection channel, its input
    lanes at the switch boundary, and the (possibly transport-wrapped)
    source queue and arrival cursor.  ``counters`` holds the engine's
    sink ``received``/``forwarded``/``last_arrival``/``bound`` arrays as
    lists and its output lanes."""
    received, forwarded, last_arrival, bound, outs = counters
    vals = [node.nid, node.rr, node.sent, _pid(node.packet)]
    vals.append(_NONE if node.lane is None else node.lane.vc)
    for lane in node.lanes:
        i = lane.lid
        vals += (lane.vc, _pid(lane.packet), received[i], forwarded[i], last_arrival[i])
        b = bound[i]
        if b < 0:
            vals += (_NONE, _NONE, _NONE)
        else:
            out = outs[b]
            vals += (out.switch, out.port, out.vc)
    src = node.source
    vals.append(int(bool(getattr(src, "active", False))))
    for entry in getattr(src, "queue", ()):
        vals.append(len(entry))
        vals.extend(int(v) for v in entry)
    nxt = getattr(src, "_next", None)
    vals.append(_NONE if nxt is None else nxt)
    inner = getattr(src, "inner", None)
    if inner is not None:  # transport-wrapped: the raw source underneath
        vals.append(int(bool(inner.active)))
        for entry in inner.queue:
            vals.append(len(entry))
            vals.extend(int(v) for v in entry)
        inxt = getattr(inner, "_next", None)
        vals.append(_NONE if inxt is None else inxt)
    return vals


def _injection(engine, detail: bool):
    node_digests = []
    nodes = {} if detail else None
    k = engine.lanes
    counters = (
        k.received.tolist(), k.forwarded.tolist(), k.last_arrival.tolist(),
        k.bound.tolist(), k.outs,
    )
    for node in engine.nodes:
        h = hashlib.blake2b(_ints(_node_ints(node, counters)), digest_size=8)
        node_digests.append(h.digest())
        if detail:
            nodes[str(node.nid)] = h.hexdigest()
    return _hex(b"".join(node_digests)), nodes


def _msg_ints(msg) -> tuple:
    return (
        msg.src, msg.dst, msg.seq, msg.size, msg.created, msg.attempts,
        int(msg.acked), int(msg.gave_up), msg.delivered_first, msg.deadline,
        int(msg.claimed), msg.last_sent,
    )


def _congestion_ints(engine, control) -> list[int]:
    if control is None:
        return [_NONE]
    vals = [
        control.released, control.held, control.clean_acks, control.marked_acks,
        control.timeouts, control.decreases,
        _f2i(control.min_cwnd_seen), _f2i(control.max_cwnd_seen),
    ]
    for (src, dst), state in sorted(control._windows.items()):
        cwnd, in_flight, last_decrease = state
        vals += (src, dst, _f2i(cwnd), in_flight, last_decrease)
    marker = control.marker
    if marker is None:
        return vals
    # marker sets are keyed by id(direction): map to engine.dirs indices
    # so the digest is stable across processes and backends
    dir_index = {id(d): i for i, d in enumerate(engine.dirs)}
    vals.append(_NONE)
    vals += (
        marker.packets_marked, marker.windows, marker.hot_link_windows,
        marker.peak_hot_links, marker._window_end,
    )
    vals += sorted(marker._marked)
    vals.append(_NONE)
    vals += sorted(dir_index[h] for h in marker._hot)
    vals.append(_NONE)
    for key in sorted(marker._blocked, key=lambda k: dir_index[k]):
        vals += (dir_index[key], marker._blocked[key][1])
    return vals


def _transport_ints(engine, tp) -> list[int]:
    vals = [
        tp.messages, tp.acked, tp.gave_up, tp.retransmissions, tp.duplicates,
        tp.late_acks, tp.drops_seen, tp.max_attempts, tp._counter,
        _f2i(tp.rtt_estimate),
    ]
    for (src, dst), seq in sorted(tp._next_seq.items()):
        vals += (src, dst, seq)
    vals.append(_NONE)
    for node, count in sorted(tp._unresolved.items()):
        vals += (node, count)
    vals.append(_NONE)
    for node in sorted(tp._fifo):
        vals.append(node)
        for msg in tp._fifo[node]:
            vals += _msg_ints(msg)
    vals.append(_NONE)
    for node in sorted(tp._waiting):
        vals.append(node)
        for msg in tp._waiting[node]:
            vals += _msg_ints(msg)
    vals.append(_NONE)
    for pid in sorted(tp._by_pid):
        vals.append(pid)
        vals += _msg_ints(tp._by_pid[pid])
    vals.append(_NONE)
    for due, counter, kind, msg, tag in sorted(tp._events, key=lambda e: (e[0], e[1])):
        vals += (due, counter, kind, msg.src, msg.dst, msg.seq, tag)
    vals.append(_NONE)
    vals += _congestion_ints(engine, tp.congestion)
    return vals


def _transport_hex(engine) -> str:
    tp = find_probe(engine.probe, ReliableTransport)
    if tp is None:
        return _hex(b"")
    return _hex(_ints(_transport_ints(engine, tp)))


def _rng_hex(engine) -> str:
    parts = []
    for node in engine.nodes:
        src = node.source
        inner = getattr(src, "inner", src)
        parts.append(_rng_digest(getattr(inner, "rng", None)))
    tp = find_probe(engine.probe, ReliableTransport)
    parts.append(b"no-transport" if tp is None else _rng_digest(tp._rng))
    return _hex(b"".join(parts))


# -- the fingerprint -----------------------------------------------------------


def engine_fingerprint(engine, detail: bool = False, at_cycle: int | None = None) -> dict:
    """The layered digest of ``engine``'s complete simulation state.

    Returns ``{"cycle", "root", "fabric", "injection", "transport",
    "rng"}``; with ``detail`` also ``"links"``/``"lanes"``/``"nodes"``
    (per-link, per-lane and per-node leaf digests, for divergence
    localization).  ``at_cycle`` overrides the cycle folded into the
    root: probes sample from ``on_cycle(t)`` where the state is already
    post-step but ``engine.cycle`` has not yet advanced to ``t + 1``.

    This is the **backend validation contract** (DESIGN.md): any
    alternative engine backend must produce identical fingerprints at
    identical cycles for identical configs.
    """
    fabric_hex, links, lanes = _fabric(engine, detail)
    injection_hex, nodes = _injection(engine, detail)
    transport_hex = _transport_hex(engine)
    rng_hex = _rng_hex(engine)
    cycle = engine.cycle if at_cycle is None else at_cycle
    meta = (
        cycle,
        engine.injected_packets_total, engine.delivered_packets_total,
        engine.dropped_packets_total, engine.injected_flits_total,
        engine.delivered_flits_total, engine.dropped_flits_total,
        engine._next_pid,
    )
    root = _hex(
        _ints(meta)
        + (fabric_hex + injection_hex + transport_hex + rng_hex).encode("ascii")
    )
    fp = {
        "cycle": cycle,
        "root": root,
        "fabric": fabric_hex,
        "injection": injection_hex,
        "transport": transport_hex,
        "rng": rng_hex,
    }
    if detail:
        fp["links"] = links
        fp["lanes"] = lanes
        fp["nodes"] = nodes
    return fp


#: subsystem keys of a fingerprint, in document order
SUBSYSTEMS = ("fabric", "injection", "transport", "rng")


# -- the un-hashed snapshot (diff-time field-level view) -----------------------


def _opt_pid(packet):
    return None if packet is None else packet.pid


def state_snapshot(engine) -> dict:
    """The fingerprint's pre-image as a nested JSON-able dict.

    Same coverage and canonicalization as :func:`engine_fingerprint`,
    but with named fields instead of digests — the divergence debugger
    flattens two snapshots into path -> value maps and reports exactly
    which lane, flit or counter differs.  Costs far more than a
    fingerprint; meant for diff-time, not per-interval sampling.
    """
    links = {}
    for d in engine.dirs:
        lane_docs = {}
        for lane in d.lanes:
            sink = lane.sink
            if d.to_node:
                sink_doc = {"node": sink.node, "packet": _opt_pid(sink.packet),
                            "received": sink.received}
            else:
                bound = sink.bound
                sink_doc = {
                    "packet": _opt_pid(sink.packet),
                    "received": sink.received,
                    "forwarded": sink.forwarded,
                    "last_arrival": sink.last_arrival,
                    "bound": None if bound is None
                    else f"s{bound.switch}p{bound.port}vc{bound.vc}",
                }
            lane_docs[f"vc{lane.vc}"] = {
                "packet": _opt_pid(lane.packet),
                "buffered": lane.buffered,
                "sent": lane.sent,
                "credits": lane.credits,
                "sink": sink_doc,
            }
        links[direction_label(d)] = {
            "rr": d.rr, "nbusy": d.nbusy, "flits": d.flits, "lanes": lane_docs,
        }
    routing = {
        "route_rr": list(engine.route_rr),
        "pending": {
            str(s): [[lane.port, lane.vc, _opt_pid(lane.packet)] for lane in lanes]
            for s, lanes in enumerate(engine.pending) if lanes
        },
        "route_queue": list(engine.route_queue),
        "bindings": [
            [lane.switch, lane.port, lane.vc, _opt_pid(lane.packet)]
            for lane in engine.bindings
        ],
    }
    injection = {}
    for node in engine.nodes:
        src = node.source
        inner = getattr(src, "inner", None)
        source_doc = {
            "active": bool(getattr(src, "active", False)),
            "queue": [list(entry) for entry in getattr(src, "queue", ())],
            "next": getattr(src, "_next", None),
        }
        if inner is not None:
            source_doc["inner_queue"] = [list(entry) for entry in inner.queue]
            source_doc["inner_next"] = getattr(inner, "_next", None)
        injection[str(node.nid)] = {
            "rr": node.rr,
            "sent": node.sent,
            "packet": _opt_pid(node.packet),
            "lane": None if node.lane is None else node.lane.vc,
            "lanes": {
                f"vc{lane.vc}": {
                    "packet": _opt_pid(lane.packet),
                    "received": lane.received,
                    "forwarded": lane.forwarded,
                    "last_arrival": lane.last_arrival,
                    "bound": None if lane.bound is None
                    else f"s{lane.bound.switch}p{lane.bound.port}vc{lane.bound.vc}",
                }
                for lane in node.lanes
            },
            "source": source_doc,
        }
    tp = find_probe(engine.probe, ReliableTransport)
    transport = None if tp is None else _transport_snapshot(engine, tp)
    rng = {
        "sources": {
            str(node.nid): _rng_digest(
                getattr(getattr(node.source, "inner", node.source), "rng", None)
            ).hex()
            for node in engine.nodes
        },
        "jitter": None if tp is None else _rng_digest(tp._rng).hex(),
    }
    return {
        "cycle": engine.cycle,
        "counters": {
            "injected_packets": engine.injected_packets_total,
            "delivered_packets": engine.delivered_packets_total,
            "dropped_packets": engine.dropped_packets_total,
            "injected_flits": engine.injected_flits_total,
            "delivered_flits": engine.delivered_flits_total,
            "dropped_flits": engine.dropped_flits_total,
            "next_pid": engine._next_pid,
        },
        "fabric": {"links": links, "routing": routing},
        "injection": injection,
        "transport": transport,
        "rng": rng,
    }


def _msg_doc(msg) -> dict:
    return {
        "src": msg.src, "dst": msg.dst, "seq": msg.seq, "size": msg.size,
        "created": msg.created, "attempts": msg.attempts,
        "acked": msg.acked, "gave_up": msg.gave_up,
        "delivered_first": msg.delivered_first, "deadline": msg.deadline,
        "claimed": msg.claimed, "last_sent": msg.last_sent,
    }


def _transport_snapshot(engine, tp) -> dict:
    control = tp.congestion
    congestion = None
    if control is not None:
        marker = control.marker
        marker_doc = None
        if marker is not None:
            dir_index = {id(d): i for i, d in enumerate(engine.dirs)}
            labels = [direction_label(d) for d in engine.dirs]
            marker_doc = {
                "packets_marked": marker.packets_marked,
                "windows": marker.windows,
                "hot_link_windows": marker.hot_link_windows,
                "peak_hot_links": marker.peak_hot_links,
                "window_end": marker._window_end,
                "marked_pids": sorted(marker._marked),
                "hot_links": sorted(labels[dir_index[h]] for h in marker._hot),
                "blocked": {
                    labels[dir_index[key]]: marker._blocked[key][1]
                    for key in marker._blocked
                },
            }
        congestion = {
            "counters": {
                "released": control.released, "held": control.held,
                "clean_acks": control.clean_acks, "marked_acks": control.marked_acks,
                "timeouts": control.timeouts, "decreases": control.decreases,
            },
            "min_cwnd_seen": control.min_cwnd_seen,
            "max_cwnd_seen": control.max_cwnd_seen,
            "windows": {
                f"{src}->{dst}": list(state)
                for (src, dst), state in sorted(control._windows.items())
            },
            "marker": marker_doc,
        }
    return {
        "counters": {
            "messages": tp.messages, "acked": tp.acked, "gave_up": tp.gave_up,
            "retransmissions": tp.retransmissions, "duplicates": tp.duplicates,
            "late_acks": tp.late_acks, "drops_seen": tp.drops_seen,
            "max_attempts": tp.max_attempts, "event_counter": tp._counter,
        },
        "rtt_estimate": tp.rtt_estimate,
        "next_seq": {f"{s}->{d}": n for (s, d), n in sorted(tp._next_seq.items())},
        "unresolved": {str(n): c for n, c in sorted(tp._unresolved.items()) if c},
        "fifo": {
            str(n): [_msg_doc(m) for m in tp._fifo[n]]
            for n in sorted(tp._fifo) if tp._fifo[n]
        },
        "waiting": {
            str(n): [_msg_doc(m) for m in tp._waiting[n]]
            for n in sorted(tp._waiting) if tp._waiting[n]
        },
        "by_pid": {str(pid): _msg_doc(tp._by_pid[pid]) for pid in sorted(tp._by_pid)},
        "events": [
            [due, counter, kind, msg.src, msg.dst, msg.seq, tag]
            for due, counter, kind, msg, tag in sorted(
                tp._events, key=lambda e: (e[0], e[1])
            )
        ],
        "congestion": congestion,
    }


# -- the probe -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StateDigestConfig:
    """Sampling knobs for the state-digest audit trail.

    Args:
        interval_cycles: cycles between digest samples; every sample is
            a full state fingerprint, so this is the overhead dial (the
            default keeps the probe under the CI overhead gate).
        max_intervals: buffer bound; reaching it pairwise-decimates the
            chain (stride doubles), like the flight recorder, so a
            million-cycle run still fits one run document.
        audit: run :meth:`Engine.audit` at every digest boundary —
            invariant violations then surface within one interval of
            their origin instead of at drain time.
    """

    interval_cycles: int = 128
    max_intervals: int = 512
    audit: bool = False

    def __post_init__(self) -> None:
        if self.interval_cycles < 1:
            raise ConfigurationError(
                f"digest interval must be >= 1 cycle, got {self.interval_cycles}"
            )
        if self.max_intervals < 8 or self.max_intervals % 2:
            raise ConfigurationError(
                f"max_intervals must be even and >= 8, got {self.max_intervals}"
            )


class StateDigestProbe(Probe):
    """Samples layered state digests every K cycles into a hash chain.

    The chain is seeded by the config digest (``genesis``), so two
    chains are only comparable when the configs match — and a truncated
    or tampered chain cannot reproduce the recorded ``chain_head``.
    After decimation the chain values still commit to *all* sampled
    roots (dropped rows included); the divergence debugger therefore
    compares per-cycle **roots**, and uses ``chain_head`` as the
    whole-run integrity summary.
    """

    def __init__(self, config: StateDigestConfig | None = None):
        self.config = config or StateDigestConfig()
        self.engine = None
        #: (cycle, fingerprint) samples, oldest first; bounded
        self._entries: list[tuple[int, dict]] = []
        self._chain: list[str] = []
        self._chain_head = ""
        self._genesis = ""
        self._interval_end = 0
        self._stride = self.config.interval_cycles
        self._decimations = 0
        self._audits = 0

    def bind(self, engine) -> None:
        self.engine = engine

    def on_run_start(self, engine) -> None:
        self.engine = engine
        self._entries = []
        self._chain = []
        self._decimations = 0
        self._audits = 0
        self._stride = self.config.interval_cycles
        self._genesis = config_digest(engine.config)
        self._chain_head = self._genesis
        # genesis sample: state before the first stepped cycle
        self._sample(engine.cycle)
        self._interval_end = engine.cycle + self._stride

    def on_cycle(self, cycle: int) -> None:
        # on_cycle(t) runs with post-step state for cycle t; the sample
        # is stamped t + 1 so a replay that steps to engine.cycle == t+1
        # fingerprints the identical state
        if cycle + 1 < self._interval_end:
            return
        self._sample(cycle + 1)
        self._interval_end += self._stride
        if self.config.audit:
            self.engine.audit()
            self._audits += 1

    def on_run_end(self, engine) -> None:
        last = self._entries[-1][0] if self._entries else -1
        if engine.cycle > last:
            self._sample(engine.cycle)
        engine.result.telemetry = dataclasses.replace(
            engine.result.telemetry, statehash=self.document()
        )

    # -- internals -------------------------------------------------------------

    def _sample(self, at_cycle: int) -> None:
        fp = engine_fingerprint(self.engine, at_cycle=at_cycle)
        self._chain_head = _hex((self._chain_head + fp["root"]).encode("ascii"))
        self._entries.append((at_cycle, fp))
        self._chain.append(self._chain_head)
        if len(self._entries) >= self.config.max_intervals:
            self._coalesce()

    def _coalesce(self) -> None:
        """Halve the buffer, doubling the stride; index 0 (the genesis
        sample) always survives, so decimated chains stay alignable."""
        self._entries = self._entries[::2]
        self._chain = self._chain[::2]
        self._decimations += 1
        self._stride = self.config.interval_cycles * (1 << self._decimations)

    def document(self) -> dict:
        """The bounded digest chain as a JSON-able run-document block."""
        return {
            "format": STATEHASH_FORMAT_VERSION,
            "algo": DIGEST_ALGO,
            "interval": self.config.interval_cycles,
            "stride": self._stride,
            "max_intervals": self.config.max_intervals,
            "decimations": self._decimations,
            "entries": len(self._entries),
            "audited": self._audits,
            "genesis": self._genesis,
            "cycles": [c for c, _ in self._entries],
            "roots": [fp["root"] for _, fp in self._entries],
            "subsystems": {
                name: [fp[name] for _, fp in self._entries] for name in SUBSYSTEMS
            },
            "chain": list(self._chain),
            "chain_head": self._chain_head,
        }


# -- conveniences --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Statehash(Layer):
    """Run layer: the digest chain on ``result.telemetry.statehash``.
    Under a checkpoint it doubles as the restore verifier: a resumed
    run's chain is byte-identical to an uninterrupted one's."""

    config: StateDigestConfig | None = None

    def install(self, engine) -> None:
        compose_probe(engine, StateDigestProbe(self.config))


def describe_statehash(doc: dict) -> str:
    """One text block summarizing a digest-chain document."""
    lines = [
        f"state digests: {doc['entries']} samples, stride {doc['stride']} "
        f"cycles ({doc['algo']})",
        f"  genesis (config digest)  {doc['genesis']}",
        f"  chain head               {doc['chain_head']}",
    ]
    if doc.get("decimations"):
        lines.append(
            f"  decimated {doc['decimations']}x from interval {doc['interval']}"
        )
    if doc.get("audited"):
        lines.append(f"  invariant audits passed  {doc['audited']}")
    if doc["cycles"]:
        lines.append(
            f"  cycle {doc['cycles'][-1]} root          {doc['roots'][-1]}"
        )
    return "\n".join(lines)
