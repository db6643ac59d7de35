"""Virtual-channel lanes and link directions (paper §4, Fig. 4).

Wormhole switching allocates a virtual channel to one packet from header to
tail, so a lane never interleaves flits of different packets and can be
represented by counters instead of per-flit objects:

* an :class:`InputLane` tracks how many flits of its current packet it has
  ``received`` from the link and ``forwarded`` through the crossbar; the
  buffered amount is ``received - forwarded`` and is bounded by ``cap``;
* an :class:`OutputLane` tracks flits buffered after the crossbar and
  ``sent`` on the link, plus the credit counter of §4: initialized to the
  downstream input lane's buffer size, decremented per flit sent,
  incremented per acknowledgment (the downstream crossbar forwarding a
  flit).

A :class:`LinkDirection` groups the output lanes multiplexed on one
physical channel direction; the engine's link phase moves at most one flit
per direction per cycle, chosen by an arbiter among lanes that have a flit
and a credit.

The counters of every lane of one engine live in a :class:`LaneArrays`
structure of flat integer arrays indexed by lane id, which the engine's link
and crossbar phases update in bulk (see :mod:`repro.sim.engine`).  The lane
objects keep their wiring (``sink``, ``src_out``, ``direction``) and the
packet they hold, so routing, faults and probes work on objects; their
counter attributes are properties over the arrays that always return plain
``int`` values.  Building the arrays gives every lane its id (``lid``) and
a reference to them (``_k``); a lane has no counters before that.

One modeled simplification (see DESIGN.md): an output lane is allocatable
to a new packet only once its *downstream input lane* has fully drained the
previous packet, so the (output lane → input lane) pair always carries a
single packet.  With 4-flit buffers and 16/32-flit packets this removes an
overlap window of at most 4 flits per hop, identically for both networks.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..sim.packet import Packet


def _counter(array: str, doc: str) -> property:
    """A lane attribute stored at ``LaneArrays.<array>[lane.lid]``."""

    def get(self) -> int:
        return getattr(self._k, array).item(self.lid)

    def put(self, value: int) -> None:
        getattr(self._k, array)[self.lid] = value

    return property(get, put, doc=doc)


class InputLane:
    """Input buffer of one virtual channel at one switch port."""

    __slots__ = ("switch", "port", "vc", "cap", "packet", "src_out", "head_cycle", "lid", "_k")

    def __init__(self, switch: int, port: int, vc: int, cap: int):
        self.switch = switch
        self.port = port
        self.vc = vc
        self.cap = cap
        #: packet currently allocated to this lane (None = free)
        self.packet: Packet | None = None
        #: upstream output lane feeding this lane (None for injection
        #: lanes, which are fed directly by the node)
        self.src_out: OutputLane | None = None
        #: cycle the current packet's header arrived; routing waits one
        #: full cycle after it (T_routing)
        self.head_cycle = -1
        #: cycle the current packet's header arrived; routing waits one
        #: full cycle after it (T_routing)
        self.head_cycle = -1

    received = _counter("received", "flits of the current packet received from the link so far")
    forwarded = _counter("forwarded", "flits forwarded through the crossbar so far")
    last_arrival = _counter(
        "last_arrival",
        "cycle stamp of the most recent flit arrival, used to prevent a flit "
        "from crossing link and crossbar in the same cycle",
    )

    @property
    def buffered(self) -> int:
        return self.received - self.forwarded

    @property
    def bound(self) -> OutputLane | None:
        """Output lane this lane is bound to in the crossbar (None before
        the header is routed)."""
        b = self._k.bound.item(self.lid)
        return None if b < 0 else self._k.outs[b]

    @bound.setter
    def bound(self, out: OutputLane | None) -> None:
        self._k.bound[self.lid] = -1 if out is None else out.lid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pid = self.packet.pid if self.packet else None
        return (
            f"InputLane(sw={self.switch}, port={self.port}, vc={self.vc}, "
            f"pkt={pid}, buf={self.buffered})"
        )


class OutputLane:
    """Output buffer of one virtual channel at one switch port."""

    __slots__ = ("switch", "port", "vc", "cap", "packet", "sink", "direction", "lid", "_k")

    def __init__(self, switch: int, port: int, vc: int, cap: int):
        self.switch = switch
        self.port = port
        self.vc = vc
        self.cap = cap
        #: packet owning this lane (None = unallocated)
        self.packet: Packet | None = None
        #: downstream input lane (or EjectionLane) across the link
        self.sink: InputLane | EjectionLane | None = None
        #: link direction this lane is multiplexed onto
        self.direction: LinkDirection | None = None

    buffered = _counter("buffered", "flits buffered, waiting for the link")
    sent = _counter("sent", "flits of the current packet already sent on the link")
    credits = _counter("credits", "free buffer slots at the downstream input lane (§4 ack counter)")

    def is_free(self) -> bool:
        """Allocatable to a new packet (see module docstring)."""
        if self.packet is not None:
            return False
        sink = self.sink
        return sink is None or sink.packet is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pid = self.packet.pid if self.packet else None
        return (
            f"OutputLane(sw={self.switch}, port={self.port}, vc={self.vc}, "
            f"pkt={pid}, buf={self.buffered}, cred={self.credits})"
        )


class EjectionLane:
    """Node-side sink of one virtual channel of the ejection channel.

    The node consumes arriving flits immediately (the physical bottleneck
    — one flit per cycle on the node link — is enforced by the link-phase
    arbiter), so the lane only tracks reassembly progress of the current
    packet (``received``, stored with the input lanes' counters).
    """

    __slots__ = ("node", "packet", "lid", "_k")

    def __init__(self, node: int):
        self.node = node
        self.packet: Packet | None = None

    received = _counter("received", "flits of the current packet consumed so far")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pid = self.packet.pid if self.packet else None
        return f"EjectionLane(node={self.node}, pkt={pid}, rcv={self.received})"


class LinkDirection:
    """One direction of a physical channel: V output lanes, one flit/cycle.

    ``nbusy`` counts member lanes with buffered flits; the engine
    maintains it on every buffered-count 0↔1 transition.
    """

    __slots__ = ("lanes", "to_node", "lid", "_k")

    def __init__(self, lanes: list[OutputLane], to_node: bool = False):
        self.lanes = lanes
        for lane in lanes:
            lane.direction = self
        #: True for ejection channels (sinks are EjectionLanes)
        self.to_node = to_node

    rr = _counter("rr", "round-robin pointer for the fair arbiter")
    nbusy = _counter("nbusy", "number of lanes with buffered > 0")
    flits = _counter("flits", "flits transferred over this direction since cycle 0")
    flits_at_warmup = _counter(
        "flits_at_warmup",
        "snapshot of ``flits`` taken by the engine at the warm-up boundary, "
        "so utilization analyses can report measurement-window rates",
    )

    @property
    def measured_flits(self) -> int:
        """Flits transferred during the measurement window only."""
        return self.flits - self.flits_at_warmup

    @property
    def switch(self) -> int:
        """Sending switch of this direction."""
        return self.lanes[0].switch

    @property
    def port(self) -> int:
        """Sending port of this direction."""
        return self.lanes[0].port


#: lane ids as shared int objects: every engine of a size numbers its lanes
#: with the same objects instead of allocating thousands of fresh ints
_ID_CACHE: list[int] = []


def _ids(n: int) -> list[int]:
    """The ints ``0 .. n-1`` (and possibly more), shared between engines."""
    if len(_ID_CACHE) < n:
        _ID_CACHE.extend(range(len(_ID_CACHE), n))
    return _ID_CACHE


class LaneArrays:
    """Structure-of-arrays storage of every lane counter of one engine.

    Three id spaces, each a family of flat arrays:

    * **output lanes** are numbered vc-major, ``lid = vc * D + direction``
      (``D`` directions of ``V`` lanes each), so ``buffered.reshape(V, D)``
      has one row per virtual channel and a per-direction question is a
      handful of row operations;
    * **sinks** are the input lanes in (switch, port, vc) order followed by
      the ejection lanes in direction order; ``bound`` holds the crossbar
      binding of an input lane as an output-lane id (-1 = unbound);
    * **directions** are ``engine.dirs`` indices.

    Counters are int32; ids used for indexing (``sink``, ``src``,
    ``bound``), ``credits`` (ejection lanes start near 2**60), ``age`` and
    ``nbusy`` (the target of ``np.add.at``) are int64.  ``age`` (the held
    packet's creation cycle, the oldest-first arbitration key) and the two
    ``size`` arrays (the held packet's length, for tail detection) are
    kernel bookkeeping, written whenever a packet takes the lane.
    ``outs`` and ``sinks`` map ids back to lane objects.
    """

    def __init__(
        self, dirs: list[LinkDirection], in_lanes: list[InputLane], cap: int, eject_credits: int
    ):
        vcs = len(dirs[0].lanes) if dirs else 0
        ndirs = len(dirs)
        self.vcs = vcs
        self.ndirs = ndirs
        self.cap = cap
        ejects = [lane.sink for d in dirs if d.to_node for lane in d.lanes]
        self.sinks: list[InputLane | EjectionLane] = in_lanes + ejects
        self.num_inputs = len(in_lanes)
        ids = _ids(max(ndirs, vcs * ndirs, len(self.sinks)))
        to_node = []
        for d, i in zip(dirs, ids):
            d.lid = i
            d._k = self
            to_node.append(d.to_node)
        for lane, i in zip(self.sinks, ids):
            lane.lid = i
            lane._k = self
        self.outs: list[OutputLane] = []
        sink_of = []
        i = 0
        for v in range(vcs):
            for d in dirs:
                lane = d.lanes[v]
                lane.lid = ids[i]
                lane._k = self
                self.outs.append(lane)
                sink_of.append(lane.sink.lid)
                i += 1

        def zeros(n: int) -> np.ndarray:
            return np.zeros(n, dtype=np.int32)

        nout = len(self.outs)
        nsink = len(self.sinks)
        # directions
        self.to_node = np.array(to_node, dtype=bool)
        #: the engine wires the fabric first: every direction from this
        #: index on is an ejection channel
        self.first_ejection = ndirs - int(self.to_node.sum())
        if self.to_node[: self.first_ejection].any():
            raise SimulationError("ejection directions must follow the fabric directions")
        self.rr = zeros(ndirs)
        self.nbusy = np.zeros(ndirs, dtype=np.int64)
        self.flits = zeros(ndirs)
        self.flits_at_warmup = zeros(ndirs)
        # output lanes
        self.buffered = zeros(nout)
        self.sent = zeros(nout)
        self.credits = np.where(np.tile(self.to_node, vcs), eject_credits, cap)
        self.age = np.zeros(nout, dtype=np.int64)
        self.out_size = zeros(nout)
        self.sink = np.array(sink_of, dtype=np.int64)
        # sinks (input lanes, then ejection lanes)
        self.received = zeros(nsink)
        self.forwarded = zeros(nsink)
        self.last_arrival = np.full(nsink, -1, dtype=np.int32)
        self.bound = np.full(nsink, -1, dtype=np.int64)
        self.in_size = zeros(nsink)
        # the output lane feeding each fabric input lane; -1 for injection
        # and ejection lanes
        self.src = np.full(nsink, -1, dtype=np.int64)
        fabric = (self.sink < self.num_inputs).nonzero()[0]
        self.src[self.sink[fabric]] = fabric
