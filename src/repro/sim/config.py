"""Simulation run configuration.

A :class:`SimulationConfig` is a complete, validated recipe for one
simulation run; :func:`repro.sim.run.simulate` turns it into a result.
Defaults follow the paper: 4-flit lane buffers, 64-byte packets (expressed
in flits by the caller via the network scaling), a 2000-cycle warm-up and
a 20000-cycle horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

#: built-in algorithms usable on each network family
TREE_ALGORITHMS = ("tree_adaptive", "tree_deterministic")
CUBE_ALGORITHMS = ("dor", "duato")

#: most virtual channels per direction; the link arbiter keeps a lookup
#: table of V * 2**V entries (repro.router.arbiter)
MAX_VCS = 16

#: extension registry: algorithm name -> network family ("tree"/"cube").
#: Populated by :func:`repro.routing.base.register` for algorithm classes
#: that declare a ``network`` attribute — custom algorithms (e.g. the
#: deliberately unsafe routings used by the fault-tolerance tests) become
#: valid config values without editing the built-in tuples.
_EXTRA_ALGORITHMS: dict[str, str] = {}


def register_algorithm_family(name: str, network: str) -> None:
    """Declare a registered routing algorithm's network family."""
    if network not in ("tree", "cube"):
        raise ConfigurationError(f"unknown network family {network!r}")
    _EXTRA_ALGORITHMS[name] = network


def algorithms_for(network: str) -> tuple[str, ...]:
    """All algorithm names valid on a network family (built-in + extras)."""
    builtin = TREE_ALGORITHMS if network == "tree" else CUBE_ALGORITHMS
    extras = tuple(
        sorted(n for n, fam in _EXTRA_ALGORITHMS.items() if fam == network and n not in builtin)
    )
    return builtin + extras


@dataclass
class SimulationConfig:
    """Recipe for a single simulation run.

    Attributes:
        network: ``"tree"`` (k-ary n-tree) or ``"cube"`` (k-ary n-cube).
        k, n: topology parameters.
        algorithm: ``"tree_adaptive"``, ``"dor"`` or ``"duato"``.
        vcs: virtual channels per physical channel direction.
        buffer_flits: input and output lane depth in flits (paper: 4).
        packet_flits: packet length in flits (32 tree / 16 cube for the
            paper's 64-byte packets).
        pattern: traffic pattern name (see :mod:`repro.traffic.patterns`).
        pattern_kwargs: extra pattern constructor arguments (hotspot etc.).
        load: offered bandwidth as a fraction of the network capacity.
        capacity_flits_per_cycle: per-node capacity used to translate
            ``load`` into an injection rate (§5 normalization).
        warmup_cycles: statistics ignored before this cycle.
        total_cycles: the run halts at this cycle.
        seed: master RNG seed (controls traffic and tie-breaking).
        arbiter: lane arbitration policy — ``"round_robin"`` (paper
            default, fair rotation) or ``"age"`` (oldest packet first by
            creation cycle, bounding tail latency under overload).
        collect_latencies: record every packet latency (for percentile
            analysis) instead of aggregates only.
        interval_cycles: when > 0, record delivered flits per interval of
            this length over the measurement window
            (``RunResult.throughput_timeline``) for stability and warm-up
            adequacy analysis.
        watchdog_cycles: raise :class:`~repro.errors.DeadlockError` after
            this many consecutive cycles without any flit movement while
            packets are in flight; 0 disables the watchdog.
    """

    network: str
    k: int
    n: int
    algorithm: str
    vcs: int
    packet_flits: int
    capacity_flits_per_cycle: float
    pattern: str = "uniform"
    pattern_kwargs: dict = field(default_factory=dict)
    load: float = 0.1
    buffer_flits: int = 4
    warmup_cycles: int = 2000
    total_cycles: int = 20000
    seed: int = 1
    arbiter: str = "round_robin"
    collect_latencies: bool = False
    interval_cycles: int = 0
    watchdog_cycles: int = 3000

    def __post_init__(self) -> None:
        if self.network not in ("tree", "cube"):
            raise ConfigurationError(f"unknown network family {self.network!r}")
        allowed = algorithms_for(self.network)
        if self.algorithm not in allowed:
            raise ConfigurationError(
                f"algorithm {self.algorithm!r} not usable on {self.network!r}; "
                f"allowed: {', '.join(allowed)}"
            )
        if self.k < 2 or self.n < 1:
            raise ConfigurationError(f"invalid topology k={self.k}, n={self.n}")
        if not 1 <= self.vcs <= MAX_VCS:
            raise ConfigurationError(
                f"need 1 to {MAX_VCS} virtual channels, got {self.vcs}"
            )
        if self.algorithm == "dor" and (self.vcs < 2 or self.vcs % 2):
            raise ConfigurationError(
                f"dor splits lanes into two virtual networks and needs an "
                f"even vc count >= 2, got {self.vcs}"
            )
        if self.algorithm == "duato" and self.vcs < 3:
            raise ConfigurationError(
                f"duato needs vcs >= 3 (V-2 adaptive + 2 escape), got {self.vcs}"
            )
        if self.buffer_flits < 1:
            raise ConfigurationError(f"buffer_flits must be >= 1, got {self.buffer_flits}")
        if self.packet_flits < 2:
            raise ConfigurationError(
                f"a wormhole packet needs header and tail: packet_flits >= 2, got {self.packet_flits}"
            )
        if not 0.0 <= self.load:
            raise ConfigurationError(f"negative load {self.load}")
        if self.capacity_flits_per_cycle <= 0:
            raise ConfigurationError("capacity_flits_per_cycle must be positive")
        if not 0 <= self.warmup_cycles < self.total_cycles:
            raise ConfigurationError(
                f"need 0 <= warmup < total, got warmup={self.warmup_cycles}, "
                f"total={self.total_cycles}"
            )
        if self.arbiter not in ("round_robin", "age"):
            raise ConfigurationError(
                f"unknown arbiter {self.arbiter!r}; allowed: round_robin, age"
            )
        if self.watchdog_cycles < 0:
            raise ConfigurationError("watchdog_cycles must be >= 0")
        if self.interval_cycles < 0:
            raise ConfigurationError("interval_cycles must be >= 0")

    @property
    def num_nodes(self) -> int:
        return self.k**self.n

    @property
    def injection_flits_per_cycle(self) -> float:
        """Per-node offered load in flits/cycle."""
        return self.load * self.capacity_flits_per_cycle

    def label(self) -> str:
        """Compact identifier used in reports and logs."""
        return (
            f"{self.network}-{self.k}ary{self.n}-{self.algorithm}-{self.vcs}vc-"
            f"{self.pattern}-load{self.load:.3f}"
        )
