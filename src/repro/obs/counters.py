"""Windowed per-lane occupancy and blocked-cycle counters.

In the spirit of SpiNNaker's ``network_tester`` (programmable per-link,
per-window counters), a :class:`WindowedCounterProbe` divides the
measurement window into fixed-length windows and, for every link
direction, records per window:

* **flits** — flits that crossed the direction in the window (delta of
  the direction's cumulative counter);
* **blocked_cycles** — cycles in which the direction held buffered
  flits but moved none (all busy lanes out of credits): the direct
  measure of head-of-line blocking the paper's §8 argues about;
* **occupancy** — per-VC mean buffered flits in the direction's output
  lanes, sampled every cycle.

Counters start at the config's warm-up cycle by default, so the reported
rates describe the measurement window only — unlike the engine's raw
cumulative :attr:`~repro.router.lane.LinkDirection.flits` counters they
never mix warm-up transients into steady-state numbers.

The per-cycle occupancy sweep adds the engine's whole ``buffered`` lane
array into a running sum (one array operation per cycle); this probe is
for *instrumented* runs (the ``trace`` CLI, saturation forensics), not
for bulk sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .probe import Probe


@dataclass(frozen=True)
class DirectionWindow:
    """One direction's counters over one window.

    Attributes:
        switch / port / to_node: the direction's identity.
        flits: flits that crossed in the window.
        blocked_cycles: cycles the direction was busy but stalled.
        occupancy: per-VC mean buffered flits over the window.
    """

    switch: int
    port: int
    to_node: bool
    flits: int
    blocked_cycles: int
    occupancy: tuple[float, ...]


@dataclass(frozen=True)
class CounterWindow:
    """All directions' counters over one window ``[start, end)``."""

    start: int
    end: int
    directions: tuple[DirectionWindow, ...]

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "directions": [
                {
                    "switch": d.switch,
                    "port": d.port,
                    "to_node": d.to_node,
                    "flits": d.flits,
                    "blocked_cycles": d.blocked_cycles,
                    "occupancy": list(d.occupancy),
                }
                for d in self.directions
            ],
        }


class WindowedCounterProbe(Probe):
    """Accumulate per-direction counters over fixed-length windows.

    Args:
        window_cycles: window length; the engine's cycle axis is split
            into consecutive windows of this many cycles.
        include_warmup: also count the warm-up period (default: counters
            begin at ``config.warmup_cycles``, the measurement window).
    """

    def __init__(self, window_cycles: int = 200, include_warmup: bool = False):
        if window_cycles < 1:
            raise ConfigurationError(
                f"window_cycles must be >= 1, got {window_cycles}"
            )
        self.window_cycles = window_cycles
        self.include_warmup = include_warmup
        self.windows: list[CounterWindow] = []
        self._engine = None

    def bind(self, engine) -> None:
        self._engine = engine
        self._dirs = engine.dirs
        self._index = {id(d): i for i, d in enumerate(self._dirs)}
        self._start_cycle = 0 if self.include_warmup else engine.config.warmup_cycles
        self._window_start: int | None = None
        n = len(self._dirs)
        self._lanes = engine.lanes
        self._blocked = [0] * n
        #: per output lane (LaneArrays order): summed buffered flits
        self._occ = np.zeros(engine.lanes.buffered.shape, dtype=np.int64)
        self._flit_base = [0] * n

    def __getstate__(self) -> dict:
        # the id(direction) index dies across processes; _dirs carries
        # the same objects in order, so rebuild it on restore
        state = dict(self.__dict__)
        state.pop("_index", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if hasattr(self, "_dirs"):
            self._index = {id(d): i for i, d in enumerate(self._dirs)}

    # -- callbacks -----------------------------------------------------------

    def on_direction_blocked(self, cycle: int, direction) -> None:
        if cycle < self._start_cycle:
            return
        self._blocked[self._index[id(direction)]] += 1

    def on_cycle(self, cycle: int) -> None:
        if cycle < self._start_cycle:
            return
        if self._window_start is None:
            # on_cycle fires after the cycle's flit movement, so the
            # first window's baseline is each counter's value at the
            # *start* of this cycle: the warm-up snapshot (or zero when
            # counting from cycle 0)
            self._window_start = cycle
            if not self.include_warmup:
                self._flit_base = self._lanes.flits_at_warmup.tolist()
        self._occ += self._lanes.buffered
        if cycle - self._window_start + 1 >= self.window_cycles:
            self._flush(cycle + 1)

    def on_run_end(self, engine) -> None:
        if self._window_start is not None and engine.cycle > self._window_start:
            self._flush(engine.cycle)

    def _flush(self, end: int) -> None:
        start = self._window_start
        cycles = end - start
        k = self._lanes
        flits = k.flits.tolist()
        occ = self._occ.reshape(k.vcs, k.ndirs).T.tolist()
        records = tuple(
            DirectionWindow(
                switch=d.switch,
                port=d.port,
                to_node=d.to_node,
                flits=flits[i] - self._flit_base[i],
                blocked_cycles=self._blocked[i],
                occupancy=tuple(s / cycles for s in occ[i]),
            )
            for i, d in enumerate(self._dirs)
        )
        self.windows.append(CounterWindow(start=start, end=end, directions=records))
        # the flush runs at the end of the window's last cycle, so the
        # live counters are exactly the next window's baseline
        self._window_start = end
        self._blocked = [0] * len(self._dirs)
        self._flit_base = flits
        self._occ[:] = 0

    # -- analysis ------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Plain-data form of every window, for JSON export."""
        return [w.to_dict() for w in self.windows]

    def totals(self) -> dict[tuple[int, int], dict]:
        """Whole-measurement totals per direction ``(switch, port)``."""
        out: dict[tuple[int, int], dict] = {}
        for w in self.windows:
            for d in w.directions:
                entry = out.setdefault(
                    (d.switch, d.port),
                    {"flits": 0, "blocked_cycles": 0, "cycles": 0,
                     "to_node": d.to_node},
                )
                entry["flits"] += d.flits
                entry["blocked_cycles"] += d.blocked_cycles
                entry["cycles"] += w.cycles
        return out

    def most_blocked(self, n: int = 5) -> list[tuple[tuple[int, int], dict]]:
        """The ``n`` directions with the most blocked cycles overall."""
        return sorted(
            self.totals().items(),
            key=lambda kv: kv[1]["blocked_cycles"],
            reverse=True,
        )[:n]

    def hottest(self, n: int = 5) -> list[tuple[tuple[int, int], dict]]:
        """The ``n`` directions that carried the most flits overall."""
        return sorted(
            self.totals().items(), key=lambda kv: kv[1]["flits"], reverse=True
        )[:n]
