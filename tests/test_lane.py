"""Unit tests for virtual-channel lanes (repro.router.lane).

Lane counters live in the engine's :class:`~repro.router.lane.LaneArrays`,
so the counter cases drive a tiny engine one cycle at a time and watch a
single preloaded worm cross it.  Corruption of the counters (overflow,
interleaved packets, early release) is caught by :meth:`Engine.audit`;
those cases live in ``test_audit.py``.
"""

from repro.obs.probe import Probe
from repro.router.lane import InputLane, LinkDirection, OutputLane
from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.sim.run import build_engine, cube_config


def pkt(pid=0, size=4):
    return Packet(pid=pid, src=0, dst=1, size=size, created=0)


def idle_engine(packet_flits=4) -> Engine:
    """A 4-ary 2-cube with no stochastic traffic."""
    return build_engine(
        cube_config(k=4, n=2, algorithm="dor", load=0.0, packet_flits=packet_flits)
    )


def fabric_lanes_holding(engine, packet):
    return [
        lane
        for lane in engine.lanes.sinks[: engine.lanes.num_inputs]
        if lane.packet is packet and lane.src_out is not None
    ]


def step_until(engine, condition, limit=200):
    for _ in range(limit):
        engine.step()
        if condition():
            return
    raise AssertionError("condition never held")


class TestInputLane:
    def test_initial_state(self):
        lane = idle_engine().in_lanes[0][0][0]
        assert lane.packet is None
        assert lane.buffered == 0
        assert lane.received == 0 and lane.forwarded == 0
        assert lane.bound is None
        assert lane.last_arrival == -1

    def test_header_allocates(self):
        eng = idle_engine()
        eng.preload_packet(0, 2)
        step_until(eng, lambda: eng.injected_packets_total == 1)
        p = eng.nodes[0].packet
        step_until(eng, lambda: fabric_lanes_holding(eng, p))
        (lane,) = fabric_lanes_holding(eng, p)
        arrived = eng.cycle - 1
        assert lane.received == 1
        assert lane.buffered == 1
        assert lane.last_arrival == arrived
        assert lane.head_cycle == arrived

    def test_body_flits(self):
        eng = idle_engine()
        eng.preload_packet(0, 2)
        step_until(eng, lambda: eng.injected_packets_total == 1)
        p = eng.nodes[0].packet
        step_until(eng, lambda: fabric_lanes_holding(eng, p))
        (lane,) = fabric_lanes_holding(eng, p)
        step_until(eng, lambda: lane.received == 2)
        assert lane.packet is p
        assert lane.last_arrival == eng.cycle - 1
        assert lane.head_cycle < lane.last_arrival

    def test_release_after_tail(self):
        eng = idle_engine()
        eng.preload_packet(0, 2)
        step_until(eng, lambda: eng.delivered_packets_total == 1)
        for lane in eng.lanes.sinks[: eng.lanes.num_inputs]:
            assert lane.packet is None
            assert lane.buffered == 0
            assert lane.bound is None
        eng.audit()


class TestOutputLane:
    def test_free_when_unallocated_and_sink_drained(self):
        out = OutputLane(0, 0, 0, cap=4)
        sink = InputLane(1, 1, 0, cap=4)
        out.sink = sink
        assert out.is_free()
        out.packet = pkt()
        assert not out.is_free()

    def test_not_free_while_sink_occupied(self):
        out = OutputLane(0, 0, 0, cap=4)
        sink = InputLane(1, 1, 0, cap=4)
        out.sink = sink
        sink.packet = pkt()
        assert not out.is_free()

    def test_free_with_no_sink(self):
        out = OutputLane(0, 0, 0, cap=4)
        assert out.is_free()


class TestEjectionLane:
    def test_single_flit_progress(self):
        eng = idle_engine(packet_flits=3)
        eng.preload_packet(0, 1)
        ejection = eng.eject_lanes[1]
        seen = []
        step_until(
            eng,
            lambda: seen.append(sum(ej.received for ej in ejection))
            or eng.delivered_packets_total == 1,
        )
        assert [n for n in seen if n] == [1, 2]  # the tail frees the lane
        assert all(ej.packet is None for ej in ejection)  # ready for the next packet
        assert eng.delivered_flits_total == 3

    def test_back_to_back_packets(self):
        eng = idle_engine(packet_flits=2)
        eng.preload_packet(0, 1)
        eng.preload_packet(0, 1)
        delivered = []
        eng.attach_probe(_TailLog(delivered))
        step_until(eng, lambda: eng.delivered_packets_total == 2)
        assert [pid for pid, _ in delivered] == [0, 1]
        assert delivered[0][1] < delivered[1][1]
        assert all(ej.packet is None and ej.received == 0 for ej in eng.eject_lanes[1])


class _TailLog(Probe):
    """Records (pid, cycle) of every delivered tail."""

    def __init__(self, log):
        self.log = log

    def on_tail_delivered(self, cycle, packet):
        self.log.append((packet.pid, cycle))


class TestLinkDirection:
    def test_wires_back_reference(self):
        eng = idle_engine()
        d = eng.dirs[0]
        assert all(lane.direction is d for lane in d.lanes)
        assert d.nbusy == 0
        assert not d.to_node

    def test_to_node_flag(self):
        d = LinkDirection([OutputLane(0, 0, 0, cap=4)], to_node=True)
        assert d.to_node
