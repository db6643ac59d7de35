"""The probe interface: flit-level engine instrumentation points.

The engine owns exactly one probe slot (``Engine.probe``), ``None`` by
default.  When a probe is attached the engine calls the methods below at
well-defined points of its three-phase cycle; when no probe is attached
the hot loop pays only a handful of ``is not None`` checks per cycle, so
an uninstrumented run keeps its full throughput (the CI smoke benchmark
in ``benchmarks/obs_overhead.py`` enforces this).

:class:`Probe` is both the interface and the null implementation: every
callback is a no-op, so concrete probes override only the events they
care about.  Attaching a bare ``Probe()`` measures the dispatch overhead
of the instrumentation itself — the "null probe" of the benchmark.

Event vocabulary (``cycle`` is always the engine cycle of the event):

=====================  =========================================================
callback               fires when
=====================  =========================================================
``on_packets_generated``  a source process created new packets (they join the
                          node's injection queue; source queueing time starts)
``on_packet_injected``    a packet's header entered an injection lane (network
                          latency starts; the packet object now has a pid)
``on_header_routed``      the routing phase bound an input lane to an output
                          lane (one event per hop of the header)
``on_head_arrived``       the header flit crossed a link into the input lane
                          of the *next* switch (one event per hop, paired
                          with the ``on_header_routed`` that sent it; the
                          final hop fires ``on_head_delivered`` instead)
``on_direction_blocked``  a link direction had buffered flits but moved none
                          this cycle (no lane held both a flit and a credit)
``on_head_delivered``     the header flit reached the destination node
``on_tail_delivered``     the tail flit reached the destination (delivery)
``on_packet_dropped``     a fail-stop fault destroyed an in-flight worm
                          (its lanes were flushed; it will never deliver)
``on_cycle``              the cycle's three phases all completed
``on_run_start/end``      bracketing ``Engine.run`` / ``run_until_drained``
=====================  =========================================================

A :class:`Layer` is the unit a :class:`~repro.sim.run.RunPlan` composes:
``install(engine)`` before the first cycle (usually composing a probe
via :func:`compose_probe`), ``finish(engine, result)`` after the last.
"""

from __future__ import annotations

from dataclasses import dataclass


class Probe:
    """No-op probe: the interface and the disabled default in one class.

    Subclasses override the events they need.  ``bind`` runs once at
    attach time, before any event, so probes can pre-size per-lane state
    from the live engine (lane population, warm-up window, topology).
    """

    def bind(self, engine) -> None:
        """Called by :meth:`Engine.attach_probe` with the live engine."""

    # -- run lifecycle -------------------------------------------------------

    def on_run_start(self, engine) -> None:
        """A full run (``run`` or ``run_until_drained``) is starting."""

    def on_run_end(self, engine) -> None:
        """The run finished (also called when a deadlock aborts it)."""

    # -- packet lifecycle ----------------------------------------------------

    def on_packets_generated(self, cycle: int, node: int, count: int) -> None:
        """``count`` new packets joined ``node``'s injection queue."""

    def on_packet_injected(self, cycle: int, packet) -> None:
        """``packet``'s header entered an injection lane at its source."""

    def on_header_routed(self, cycle: int, switch: int, in_lane, out_lane) -> None:
        """A header was routed through ``switch``: ``in_lane`` bound to
        ``out_lane`` (``in_lane.packet`` identifies the packet)."""

    def on_head_arrived(self, cycle: int, lane, packet) -> None:
        """``packet``'s header flit crossed a link and now occupies input
        ``lane`` at the next switch (it joins that switch's routing
        queue).  Together with ``on_packet_injected`` and
        ``on_header_routed`` this checkpoints the header at every hop, so
        a probe can attribute each cycle of head latency to routing
        stall vs. blocked-in-network time."""

    def on_head_delivered(self, cycle: int, packet) -> None:
        """``packet``'s header reached its destination node."""

    def on_tail_delivered(self, cycle: int, packet) -> None:
        """``packet``'s tail reached its destination (fully delivered)."""

    def on_packet_dropped(self, cycle: int, packet, reason: str) -> None:
        """``packet`` was destroyed in flight (fail-stop fault teardown):
        every lane it held was flushed and it will never be delivered.
        ``reason`` names the cause (currently always ``"fault"``)."""

    # -- fabric state --------------------------------------------------------

    def on_direction_blocked(self, cycle: int, direction) -> None:
        """``direction`` held buffered flits but none could cross this
        cycle (every busy lane was out of credits)."""

    def on_cycle(self, cycle: int) -> None:
        """All three phases of ``cycle`` completed."""


#: alias making intent explicit at call sites that attach a do-nothing
#: probe to measure instrumentation dispatch overhead
NullProbe = Probe


class MultiProbe(Probe):
    """Fan one engine's events out to several probes, in order.

    Used by the CLI ``trace`` subcommand to run the event trace and the
    windowed counters in a single simulation, and by
    :func:`compose_probe` to stack run layers.
    """

    def __init__(self, probes):
        self.probes = list(probes)

    def bind(self, engine) -> None:
        for p in self.probes:
            p.bind(engine)

    def on_run_start(self, engine) -> None:
        for p in self.probes:
            p.on_run_start(engine)

    def on_run_end(self, engine) -> None:
        for p in self.probes:
            p.on_run_end(engine)

    def on_packets_generated(self, cycle: int, node: int, count: int) -> None:
        for p in self.probes:
            p.on_packets_generated(cycle, node, count)

    def on_packet_injected(self, cycle: int, packet) -> None:
        for p in self.probes:
            p.on_packet_injected(cycle, packet)

    def on_header_routed(self, cycle: int, switch: int, in_lane, out_lane) -> None:
        for p in self.probes:
            p.on_header_routed(cycle, switch, in_lane, out_lane)

    def on_head_arrived(self, cycle: int, lane, packet) -> None:
        for p in self.probes:
            p.on_head_arrived(cycle, lane, packet)

    def on_head_delivered(self, cycle: int, packet) -> None:
        for p in self.probes:
            p.on_head_delivered(cycle, packet)

    def on_tail_delivered(self, cycle: int, packet) -> None:
        for p in self.probes:
            p.on_tail_delivered(cycle, packet)

    def on_packet_dropped(self, cycle: int, packet, reason: str) -> None:
        for p in self.probes:
            p.on_packet_dropped(cycle, packet, reason)

    def on_direction_blocked(self, cycle: int, direction) -> None:
        for p in self.probes:
            p.on_direction_blocked(cycle, direction)

    def on_cycle(self, cycle: int) -> None:
        for p in self.probes:
            p.on_cycle(cycle)


def find_probe(tree, cls):
    """The first ``cls`` instance in a probe tree (depth first through
    :class:`MultiProbe` composition), or ``None``."""
    if isinstance(tree, cls):
        return tree
    for child in getattr(tree, "probes", ()):
        found = find_probe(child, cls)
        if found is not None:
            return found
    return None


def compose_probe(engine, probe):
    """Attach ``probe`` to ``engine`` after whatever probe it already has.

    The existing probe tree is already bound, so only ``probe`` is
    bound.  Returns ``probe``.
    """
    if engine.probe is None:
        engine.attach_probe(probe)
    else:
        engine.probe = MultiProbe([engine.probe, probe])
        probe.bind(engine)
    return probe


class Layer:
    """One composable piece of a run plan; the null layer.

    Layers are picklable recipes (frozen dataclasses in practice): all
    per-run state lives on the engine they install onto, so one layer
    serves every point of a sweep, and the copy that rides inside a
    checkpoint finishes the restored run.
    """

    def install(self, engine) -> None:
        """Wire into a freshly built ``engine`` before its first cycle."""

    def finish(self, engine, result):
        """Post-run work on the completed (or restored) ``engine``;
        returns the result."""
        return result


@dataclass(frozen=True)
class Attach(Layer):
    """Compose one ready-made probe (single use: a probe binds to one
    engine)."""

    probe: Probe

    def install(self, engine) -> None:
        compose_probe(engine, self.probe)
