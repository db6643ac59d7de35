"""High-level simulation entry points: the one run pipeline.

A :class:`RunPlan` is one experiment: a
:class:`~repro.sim.config.SimulationConfig`, the layers composed onto
the engine (transport, congestion loop, fault storm, flight recorder,
state digests, forensics, audit — see :class:`~repro.obs.probe.Layer`)
and an optional checkpoint policy.  :func:`run_plan` is the only place
a run is built, checkpointed, resumed and finished; :func:`simulate` is
the plain-config shorthand.  :func:`tree_config` and :func:`cube_config`
build paper-faithful configurations (flit widths, capacities and packet
sizes from the §5 normalization) with one call.

Example::

    from repro.obs.flight import Flight
    from repro.sim.run import RunPlan, run_plan, tree_config

    result = run_plan(RunPlan(tree_config(vcs=4, load=0.5), (Flight(),)))
    print(result.accepted_fraction, result.telemetry.flight["rows"])
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.probe import Attach, Layer
from ..routing.base import make_routing
from ..timing.normalization import cube_scaling, tree_scaling
from ..topology.cube import KAryNCube
from ..topology.tree import KAryNTree
from ..traffic.generator import BernoulliInjector
from ..traffic.patterns import make_pattern
from .config import SimulationConfig
from .engine import Engine
from .results import RunResult


def build_engine(config: SimulationConfig, probe=None) -> Engine:
    """Instantiate topology, routing, traffic and engine for a config.

    Args:
        config: the run recipe.
        probe: optional observability probe (:mod:`repro.obs`) attached
            before the first cycle, so it sees the whole run.
    """
    if config.network == "tree":
        topo = KAryNTree(config.k, config.n)
    else:
        topo = KAryNCube(config.k, config.n)
    routing = make_routing(config.algorithm)
    pattern = make_pattern(config.pattern, topo.num_nodes, **config.pattern_kwargs)
    injector = BernoulliInjector(
        pattern,
        flits_per_cycle=config.injection_flits_per_cycle,
        packet_flits=config.packet_flits,
        seed=config.seed,
    )
    engine = Engine(topo, routing, injector, config)
    if probe is not None:
        engine.attach_probe(probe)
    return engine


@dataclass(frozen=True)
class Audit(Layer):
    """Verify the engine's global invariants after the run, so a layer
    that corrupted the network fails loudly instead of skewing a curve."""

    def finish(self, engine, result):
        engine.audit()
        return result


@dataclass(frozen=True)
class RunPlan:
    """One run: a config, the layers composed onto its engine (installed
    in order, which fixes probe dispatch order and so the digests) and
    an optional :class:`~repro.sim.checkpoint.CheckpointPolicy`.

    Picklable whenever its layers are, so campaign pools ship plans to
    worker processes.
    """

    config: SimulationConfig
    layers: tuple = ()
    checkpoint: object = None


def run_plan(plan: RunPlan, build=None) -> RunResult:
    """Run ``plan`` to completion and return its measurements.

    With a checkpoint policy, a valid checkpoint in its directory
    finishes the interrupted run on the layers restored from the
    snapshot (byte-identical document, wall-clock aside).  Otherwise:
    build the engine, install each layer, attach checkpoints, run, and
    call each layer's ``finish``.  ``build`` replaces this module's
    :func:`build_engine`, which is looked up at call time.

    Raises:
        DeadlockError: as :meth:`Engine.run` does; its ``result`` is the
            partial result (layers not finished).
    """
    layers = plan.layers
    restored = None
    if plan.checkpoint is not None:
        from .checkpoint import resume_point

        restored = resume_point(plan.checkpoint, plan.config)
    if restored is not None:
        engine, layers = restored
        result = engine.resume_run()
    else:
        engine = (build or build_engine)(plan.config)
        for layer in layers:
            layer.install(engine)
        if plan.checkpoint is not None:
            from .checkpoint import attach_checkpoints

            attach_checkpoints(engine, plan.checkpoint, layers)
        result = engine.run()
    for layer in layers:
        result = layer.finish(engine, result)
    return result


def simulate(config: SimulationConfig, probe=None, checkpoint=None) -> RunResult:
    """Run one plain simulation, optionally instrumented by ``probe``
    (:mod:`repro.obs`) and made resumable by ``checkpoint``; see
    :func:`run_plan`.  The result always carries
    :class:`~repro.obs.telemetry.RunTelemetry`."""
    layers = () if probe is None else (Attach(probe),)
    return run_plan(RunPlan(config, layers, checkpoint))


def tree_config(
    k: int = 4,
    n: int = 4,
    vcs: int = 4,
    pattern: str = "uniform",
    load: float = 0.1,
    algorithm: str = "tree_adaptive",
    **overrides,
) -> SimulationConfig:
    """Paper-normalized k-ary n-tree configuration (§5 defaults).

    2-byte flits (64-byte packets = 32 flits), capacity 1 flit/cycle/node,
    adaptive routing (``algorithm="tree_deterministic"`` selects the
    oblivious baseline).  ``overrides`` reach :class:`SimulationConfig`
    directly (seed, warmup_cycles, total_cycles, ...).
    """
    scaling = tree_scaling(k, n)
    return SimulationConfig(
        network="tree",
        k=k,
        n=n,
        algorithm=algorithm,
        vcs=vcs,
        packet_flits=overrides.pop("packet_flits", scaling.packet_flits),
        capacity_flits_per_cycle=scaling.capacity_flits_per_cycle,
        pattern=pattern,
        load=load,
        **overrides,
    )


def cube_config(
    k: int = 16,
    n: int = 2,
    algorithm: str = "duato",
    vcs: int = 4,
    pattern: str = "uniform",
    load: float = 0.1,
    **overrides,
) -> SimulationConfig:
    """Paper-normalized k-ary n-cube configuration (§5 defaults).

    4-byte flits (64-byte packets = 16 flits), capacity ``8/k`` flits per
    cycle per node (0.5 for the 16-ary 2-cube).
    """
    scaling = cube_scaling(k, n)
    return SimulationConfig(
        network="cube",
        k=k,
        n=n,
        algorithm=algorithm,
        vcs=vcs,
        packet_flits=overrides.pop("packet_flits", scaling.packet_flits),
        capacity_flits_per_cycle=scaling.capacity_flits_per_cycle,
        pattern=pattern,
        load=load,
        **overrides,
    )


def quick_run(**kwargs) -> RunResult:
    """Tiny-network smoke helper used by examples and docs.

    Any keyword accepted by :func:`tree_config`; defaults to a 2-ary
    2-tree at light load with short windows so it completes in
    milliseconds.
    """
    defaults = dict(k=2, n=2, vcs=2, load=0.2, warmup_cycles=50, total_cycles=400)
    defaults.update(kwargs)
    return simulate(tree_config(**defaults))
