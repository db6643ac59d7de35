"""Routing-switch building blocks (paper §4, Fig. 4).

The modeled switch has, per bidirectional channel and direction, V virtual
channel *lanes* (input and output buffers), an internal crossbar binding
input lanes to output lanes for the duration of a packet (wormhole
switching), credit ("ack") counters that mirror the downstream input-lane
buffer space, and fair round-robin arbiters multiplexing lanes onto the
physical links.

Flits are never materialized as objects: wormhole allocation means a lane
holds flits of one packet at a time, so a lane is a handful of counters
(:class:`~repro.router.lane.InputLane`, :class:`~repro.router.lane.OutputLane`)
kept in flat arrays (:class:`~repro.router.lane.LaneArrays`), and flit
movement is array arithmetic.
"""

from .arbiter import grant
from .lane import EjectionLane, InputLane, LaneArrays, LinkDirection, OutputLane

__all__ = [
    "grant",
    "EjectionLane",
    "InputLane",
    "LaneArrays",
    "LinkDirection",
    "OutputLane",
]
