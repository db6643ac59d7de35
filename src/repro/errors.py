"""Exception hierarchy for the repro package.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch package failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TopologyError(ReproError):
    """Invalid topology parameters or malformed topology queries.

    Raised, for example, when a k-ary n-tree is requested with ``k < 2`` or
    when a node id outside ``[0, N)`` is passed to a coordinate helper.
    """


class RoutingError(ReproError):
    """A routing algorithm was asked to route an impossible request.

    This indicates an internal inconsistency (e.g. a packet whose current
    switch is not on any minimal path to its destination) and should never
    occur during a well-formed simulation.
    """


class ConfigurationError(ReproError):
    """Invalid simulation or experiment configuration values."""


class SimulationError(ReproError):
    """The simulation engine detected an inconsistent runtime state.

    The engine performs cheap invariant checks (credit underflow, buffer
    overflow, livelock watchdog); a violation raises this error rather than
    silently corrupting statistics.
    """


class DeadlockError(SimulationError):
    """The progress watchdog concluded the network is deadlocked.

    The routing algorithms implemented here are deadlock-free by
    construction, so this error signals an implementation bug, a custom
    user routing function that is not deadlock-free, or an injected fault
    that an unprotected (deterministic) algorithm cannot route around.

    Attributes:
        snapshot: a :class:`repro.sim.diagnostics.DeadlockSnapshot` of the
            stalled network (blocked packets, held lanes, cycle counters),
            or ``None`` when the raiser had no engine at hand.
        result: the run's partial :class:`~repro.sim.results.RunResult`
            (probe documents attached) when an engine run raised it;
            in-process only, it is not pickled.
    """

    def __init__(self, message: str, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot
        self.result = None

    def __reduce__(self):
        # keep the snapshot across pickling (sweep worker processes)
        return (type(self), (self.args[0], self.snapshot))


class PointTimeoutError(ReproError):
    """A sweep point exceeded its wall-clock budget and was terminated.

    Raised by the resilient sweep harness; the simulation process is
    killed, so no partial statistics survive — unless checkpointing was
    active, in which case the retry resumes from the newest valid
    checkpoint instead of starting over.
    """


class WorkerDiedError(SimulationError):
    """A supervised sweep worker died or stopped heartbeating.

    Derives from :class:`SimulationError` so the resilient sweep's retry
    machinery treats it like any other transient point failure; the
    supervisor additionally applies backoff before relaunching, since a
    dead worker usually means host pressure (OOM killer, preemption)
    rather than a simulation bug.
    """


class CheckpointError(ReproError):
    """A checkpoint could not be written, read or verified.

    Covers unpicklable live resources (an open event-stream file
    handle), truncated or corrupt payloads, digest mismatches between
    the header and the restored engine's fingerprint, and checkpoints
    recorded under a different config digest (stale)."""


class AnalysisError(ReproError):
    """Post-processing failure, e.g. saturation requested on an empty sweep."""
