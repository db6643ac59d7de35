"""Tests for the engine's invariant audit — the safety net itself.

Each test corrupts a live engine in a specific way and asserts the audit
detects exactly that violation; a watchdog that cannot bark is worse than
none.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.packet import Packet
from repro.sim.run import build_engine, cube_config


@pytest.fixture
def engine():
    eng = build_engine(
        cube_config(k=4, n=2, algorithm="dor", load=0.3, seed=3,
                    warmup_cycles=50, total_cycles=400)
    )
    eng.run()
    eng.audit()  # healthy after a normal run
    return eng


def some_wired_outlane(engine):
    for s in range(engine.topology.num_switches):
        for port_lanes in engine.out_lanes[s]:
            for lane in port_lanes:
                if lane.direction is not None and not lane.direction.to_node:
                    return lane
    raise AssertionError("no internal output lane found")


class TestAuditDetectsCorruption:
    def test_credit_drift(self, engine):
        some_wired_outlane(engine).credits += 1
        with pytest.raises(SimulationError, match="credit drift"):
            engine.audit()

    def test_output_buffer_overflow(self, engine):
        lane = some_wired_outlane(engine)
        lane.buffered = lane.cap + 1
        with pytest.raises(SimulationError, match="out of range"):
            engine.audit()

    def test_input_buffer_underflow(self, engine):
        # tampering with a lane's counters trips either the buffer-range
        # check or the upstream credit mirror, whichever is visited first
        lane = some_wired_outlane(engine).sink
        lane.packet = Packet(0, 0, 1, 4, 0)
        lane.forwarded = lane.received + 1
        with pytest.raises(SimulationError, match="out of range|credit drift"):
            engine.audit()

    def test_residue_on_free_lane(self, engine):
        lane = some_wired_outlane(engine).sink
        lane.packet = None
        lane.received = 3
        lane.forwarded = 3
        with pytest.raises(SimulationError, match="residue"):
            engine.audit()

    def test_binding_mismatch(self, engine):
        inlane = some_wired_outlane(engine).sink
        outlane = some_wired_outlane(engine)
        a = Packet(1, 0, 1, 8, 0)
        b = Packet(2, 0, 1, 8, 0)
        inlane.packet = a
        inlane.received = 1
        inlane.bound = outlane
        outlane.packet = b
        with pytest.raises(
            SimulationError, match="binding mismatch|credit drift|conservation"
        ):
            engine.audit()

    def test_flit_leak(self, engine):
        engine.injected_flits_total += 1  # a flit that never existed
        with pytest.raises(SimulationError, match="conservation"):
            engine.audit()


    # -- lane-array corruption: the checks the lane classes used to make
    # on every flit, now made once over the whole state by the audit

    def test_input_lane_overflow(self, busy):
        lane = next(l for l in fabric_sinks(busy) if l.packet is not None)
        busy.lanes.received[lane.lid] += lane.cap  # more flits than credits allow
        with pytest.raises(SimulationError, match="input buffer out of range"):
            busy.audit()

    def test_input_lane_interleaving(self, busy):
        # a flit of another packet lands on an allocated, unrouted lane
        out = next(
            o for o in mid_worm(busy) if not o.direction.to_node and o.sink.bound is None
        )
        out.sink.packet = Packet(10**6, 0, 1, 8, 0)
        with pytest.raises(SimulationError, match="lane pair out of step"):
            busy.audit()

    def test_input_lane_released_before_tail(self, busy):
        lane = next(
            o.sink for o in mid_worm(busy) if not o.direction.to_node
        )
        # what a crossbar releasing the lane early would leave behind
        k = busy.lanes
        lane.packet = None
        k.received[lane.lid] = k.forwarded[lane.lid] = 0
        k.bound[lane.lid] = -1
        with pytest.raises(SimulationError, match="lane pair out of step"):
            busy.audit()

    def test_ejection_lane_interleaving(self, busy):
        out = next(o for o in mid_worm(busy) if o.direction.to_node)
        out.sink.packet = Packet(10**6, 0, 1, 8, 0)
        with pytest.raises(SimulationError, match="lane pair out of step"):
            busy.audit()

    def test_nbusy_drift(self, busy):
        busy.lanes.nbusy[0] += 1
        with pytest.raises(SimulationError, match="nbusy drift"):
            busy.audit()


@pytest.fixture
def busy():
    """An engine stopped mid-run at high load, worms spread over the fabric."""
    eng = build_engine(
        cube_config(k=4, n=2, algorithm="dor", load=0.9, seed=3,
                    warmup_cycles=50, total_cycles=300)
    )
    eng.run()
    eng.audit()
    return eng


def fabric_sinks(engine):
    return [l for l in engine.lanes.sinks[: engine.lanes.num_inputs] if l.src_out is not None]


def mid_worm(engine):
    """Output lanes that have sent part of their packet."""
    return [o for o in engine.lanes.outs if o.sent > 0]


class TestWiringChecks:
    def test_double_wiring_detected(self):
        # wiring the same port twice must fail fast at construction
        from repro.routing.base import make_routing
        from repro.sim.engine import Engine
        from repro.topology.base import SwitchLink
        from repro.topology.cube import KAryNCube
        from repro.traffic.generator import BernoulliInjector
        from repro.traffic.patterns import UniformPattern

        class BrokenCube(KAryNCube):
            def switch_links(self):
                links = super().switch_links()
                return links + [links[0]]  # duplicate

        cfg = cube_config(k=4, n=2)
        with pytest.raises(SimulationError, match="wired twice"):
            Engine(
                BrokenCube(4, 2),
                make_routing("dor"),
                BernoulliInjector(UniformPattern(16), 0.1, 16),
                cfg,
            )