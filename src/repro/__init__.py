"""repro — reproduction of *Network Performance under Physical Constraints*
(Fabrizio Petrini and Marco Vanneschi, ICPP 1997).

A flit-level wormhole-routing simulator for k-ary n-trees (fat-trees) and
k-ary n-cubes (tori), with the paper's five routing configurations,
Chien's router cost model and the physical-constraint normalization that
makes the two networks comparable.

Quick start::

    from repro import simulate, tree_config, cube_config

    tree = simulate(tree_config(vcs=4, pattern="uniform", load=0.5,
                                warmup_cycles=200, total_cycles=1200))
    cube = simulate(cube_config(algorithm="duato", pattern="uniform",
                                load=0.5, warmup_cycles=200, total_cycles=1200))
    print(tree.accepted_fraction, cube.accepted_fraction)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .errors import (
    AnalysisError,
    ConfigurationError,
    DeadlockError,
    PointTimeoutError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from .faults import (
    CubeLinkFault,
    FaultSchedule,
    ScheduledFault,
    TreeUplinkFault,
    inject_cube_link_faults,
    inject_tree_uplink_faults,
    random_cube_link_faults,
    random_uplink_faults,
    validate_escape_connectivity,
)
from .obs import (
    Ledger,
    MultiProbe,
    NullProbe,
    Probe,
    RunTelemetry,
    TraceProbe,
    WindowedCounterProbe,
    config_digest,
    write_scorecard,
)
from .profiles import DEFAULT, FAST, FULL, Profile, get_profile
from .sim.config import SimulationConfig
from .sim.engine import Engine
from .sim.results import RunResult
from .sim.run import RunPlan, build_engine, cube_config, run_plan, simulate, tree_config
from .timing.chien import RouterDelays, table1_cube_delays, table2_tree_delays
from .timing.normalization import NetworkScaling, cube_scaling, tree_scaling
from .topology.cube import KAryNCube
from .topology.tree import KAryNTree
from .traffic.patterns import PATTERNS, make_pattern
from .workloads import Trace, run_trace

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "ConfigurationError",
    "DeadlockError",
    "ReproError",
    "RoutingError",
    "SimulationError",
    "TopologyError",
    "DEFAULT",
    "FAST",
    "FULL",
    "Profile",
    "get_profile",
    "SimulationConfig",
    "Engine",
    "RunResult",
    "RunPlan",
    "build_engine",
    "run_plan",
    "cube_config",
    "simulate",
    "tree_config",
    "RouterDelays",
    "table1_cube_delays",
    "table2_tree_delays",
    "NetworkScaling",
    "cube_scaling",
    "tree_scaling",
    "KAryNCube",
    "KAryNTree",
    "PATTERNS",
    "make_pattern",
    "PointTimeoutError",
    "CubeLinkFault",
    "FaultSchedule",
    "ScheduledFault",
    "TreeUplinkFault",
    "inject_cube_link_faults",
    "inject_tree_uplink_faults",
    "random_cube_link_faults",
    "random_uplink_faults",
    "validate_escape_connectivity",
    "Trace",
    "run_trace",
    "Ledger",
    "MultiProbe",
    "NullProbe",
    "Probe",
    "RunTelemetry",
    "TraceProbe",
    "WindowedCounterProbe",
    "config_digest",
    "write_scorecard",
    "__version__",
]
