"""Resilient-campaign tests: retries, timeouts, recorded failures, disk cache.

Includes the headline acceptance scenario for the fault-tolerance work: a
load sweep where one point is *forced* to deadlock (a deliberately unsafe
custom routing algorithm with no virtual-channel discipline on a ring)
completes anyway, files that point as a structured failure and returns
results for every other point.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    PointTimeoutError,
    SimulationError,
)
from repro.experiments import sweep
from repro.experiments.runcache import RunCache
from repro.experiments.sweep import _RESEED_STRIDE, clear_cache, run_point, run_sweep
from repro.metrics.io import series_from_dict, series_to_dict
from repro.obs.probe import Layer
from repro.routing.base import ROUTING_ALGORITHMS, RoutingAlgorithm, register
from repro.sim.run import cube_config, simulate

from .conftest import small_cube_config


def small_factory(load: float):
    return small_cube_config(load=load)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


# -- a deliberately unsafe routing algorithm --------------------------------
#
# All-clockwise ring routing with no lane discipline: the wrap-around
# closes a cyclic channel dependency, so once every buffer along the ring
# fills, the worms hold-and-wait forever.  Registering it (with a network
# family) makes the name sweepable through the ordinary config layer —
# exactly how a user would plug in an experimental algorithm.


@register
class UnsafeRingRouting(RoutingAlgorithm):
    """Contrast case: adaptive freedom without Duato's escape structure."""

    name = "unsafe_ring"
    network = "cube"

    def attach(self, engine) -> None:
        super().attach(engine)
        self.topo = engine.topology
        self.eject_port = self.topo.ports_per_switch()

    def select(self, switch, inlane, packet):
        if switch == packet.dst:
            return self.pick_free_lane(self.out[switch][self.eject_port])
        return self.pick_free_lane(self.out[switch][self.topo.port_for(0, 1)])


def ring_config(load: float):
    """8-node ring, long worms, tiny buffers: wedges beyond ~0.3 load."""
    return cube_config(
        k=8, n=1, algorithm="unsafe_ring", vcs=2, load=load, seed=3,
        packet_flits=32, buffer_flits=2,
        warmup_cycles=100, total_cycles=1100, watchdog_cycles=300,
    )


# -- interrupt handling ------------------------------------------------------
#
# Module-level so the process pool can pickle them: a run layer that
# raises KeyboardInterrupt on the high-load point, plain (the interrupt
# arrives before the cheap points are consumed) or slow (the cheap
# points finish first, exercising the finished-but-unconsumed flush).


class _InterruptAbove(Layer):
    def install(self, engine):
        if engine.config.load > 0.25:
            raise KeyboardInterrupt


class _InterruptSlowly(Layer):
    def install(self, engine):
        if engine.config.load > 0.25:
            import time

            time.sleep(3.0)
            raise KeyboardInterrupt


class TestInterruptedParallelSweep:
    def test_completed_points_flushed_to_ledger(self, tmp_path):
        from repro.obs.ledger import Ledger

        ledger = Ledger(tmp_path / "runs.jsonl")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                small_factory, [0.1, 0.2, 0.9], label="interrupted",
                parallel=True, max_workers=2,
                layers=(_InterruptAbove(),), ledger=ledger,
            )
        # loads 0.1 and 0.2 were consumed before the interrupt landed
        offered = [rec["run"]["config"]["load"] for rec in ledger.records()]
        assert offered == [0.1, 0.2]

    def test_finished_but_unconsumed_points_flushed(self, tmp_path):
        from repro.obs.ledger import Ledger

        ledger = Ledger(tmp_path / "runs.jsonl")
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                small_factory, [0.9, 0.1, 0.2], label="interrupted",
                parallel=True, max_workers=3,
                layers=(_InterruptSlowly(),), ledger=ledger,
            )
        # the interrupting point came *first* in submission order, so
        # the cheap points were never consumed in the normal loop; the
        # interrupt handler must still flush them (they had finished)
        offered = sorted(rec["run"]["config"]["load"] for rec in ledger.records())
        assert offered == [0.1, 0.2]

    def test_next_campaign_starts_clean(self, tmp_path):
        # the interrupt flag is campaign-scoped: a later sweep in the
        # same process must run normally
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                small_factory, [0.1, 0.9], label="interrupted",
                parallel=True, max_workers=2, layers=(_InterruptAbove(),),
            )
        series = run_sweep(small_factory, [0.1, 0.2], label="clean")
        assert series.complete and len(series.points) == 2


class TestCustomAlgorithmRegistration:
    def test_registered_name_validates_in_config(self):
        assert "unsafe_ring" in ROUTING_ALGORITHMS
        assert ring_config(0.1).algorithm == "unsafe_ring"

    def test_unregistered_name_still_rejected(self):
        with pytest.raises(ConfigurationError, match="not usable"):
            cube_config(algorithm="no_such_algorithm")


class TestForcedDeadlockSweep:
    def test_sweep_survives_a_deadlocking_point(self):
        # the acceptance scenario: loads 0.1 and 0.2 are below the unsafe
        # ring's wedge threshold, 0.9 deadlocks on every attempt
        series = run_sweep(
            ring_config, [0.1, 0.2, 0.9], label="unsafe ring",
            retries=1, record_failures=True,
        )
        assert series.offered() == [0.1, 0.2]
        assert len(series.points) == 2
        assert not series.complete
        (failure,) = series.failures
        assert failure.offered == 0.9
        assert failure.error == "DeadlockError"
        assert "deadlock at cycle" in failure.message
        assert failure.attempts == 2
        assert failure.seeds == (3, 3 + _RESEED_STRIDE)

    def test_failfast_mode_still_raises(self):
        with pytest.raises(DeadlockError):
            run_sweep(ring_config, [0.1, 0.9], label="unsafe ring")

    def test_failures_survive_serialization(self):
        series = run_sweep(
            ring_config, [0.1, 0.9], label="unsafe ring",
            record_failures=True,
        )
        clone = series_from_dict(series_to_dict(series))
        assert clone.failures == series.failures
        assert clone.points == series.points
        assert not clone.complete


class TestRetryWithReseed:
    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        good = simulate(small_cube_config(load=0.2, total_cycles=300))
        calls = []

        def flaky(plan):
            calls.append(plan.config.seed)
            if len(calls) == 1:
                raise SimulationError("transient wedge")
            return good

        monkeypatch.setattr(sweep, "run_plan", flaky)
        series = run_sweep(
            small_factory, [0.2], label="flaky",
            retries=2, record_failures=True, use_cache=False,
        )
        assert series.complete
        assert len(series.points) == 1
        assert calls == [7, 7 + _RESEED_STRIDE]  # base seed, then reseeded

    def test_attempts_and_seeds_recorded_on_exhaustion(self, monkeypatch):
        def always_down(plan):
            raise SimulationError("permanent wedge")

        monkeypatch.setattr(sweep, "run_plan", always_down)
        series = run_sweep(
            small_factory, [0.2], label="down",
            retries=2, record_failures=True, use_cache=False,
        )
        (failure,) = series.failures
        assert failure.attempts == 3
        assert failure.seeds == (7, 7 + _RESEED_STRIDE, 7 + 2 * _RESEED_STRIDE)
        assert failure.error == "SimulationError"

    def test_configuration_errors_never_swallowed(self, monkeypatch):
        def broken(plan):
            raise ConfigurationError("campaign-level bug")

        monkeypatch.setattr(sweep, "run_plan", broken)
        with pytest.raises(ConfigurationError):
            run_sweep(
                small_factory, [0.2], label="bug",
                retries=5, record_failures=True, use_cache=False,
            )

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="retries"):
            run_sweep(small_factory, [0.2], label="x", retries=-1)


class TestTimeout:
    def test_hung_point_becomes_structured_failure(self):
        # a microscopic budget times out even the smallest real run; the
        # watchdog subprocess is terminated rather than joined forever
        series = run_sweep(
            small_factory, [0.2], label="hung",
            timeout=0.001, record_failures=True, use_cache=False,
        )
        (failure,) = series.failures
        assert failure.error == "PointTimeoutError"
        assert "wall-clock budget" in failure.message

    def test_generous_budget_passes(self):
        series = run_sweep(
            small_factory, [0.2], label="fine",
            timeout=120.0, record_failures=True, use_cache=False,
        )
        assert series.complete
        assert len(series.points) == 1

    def test_timeout_error_propagates_without_recording(self):
        with pytest.raises(PointTimeoutError):
            run_sweep(
                small_factory, [0.2], label="hung",
                timeout=0.001, use_cache=False,
            )

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            run_sweep(small_factory, [0.2], label="x", timeout=0.0)


class TestRunCache:
    def test_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        cfg = small_cube_config(load=0.2, total_cycles=300)
        result = simulate(cfg)
        key = sweep._cache_key(cfg)
        cache.put(key, result)
        assert len(cache) == 1
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.config == result.config
        assert loaded.delivered_packets == result.delivered_packets
        assert loaded.latency_sum == result.latency_sum
        assert loaded.throughput_timeline == result.throughput_timeline

    def test_miss_returns_none(self, tmp_path):
        assert RunCache(tmp_path).get(("no", "such", "key")) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cfg = small_cube_config(load=0.2, total_cycles=300)
        key = sweep._cache_key(cfg)
        cache.put(key, simulate(cfg))
        cache.path_for(key).write_text("{ truncated garbage")
        assert cache.get(key) is None

    def test_key_collision_is_a_miss(self, tmp_path):
        # an entry renamed onto another key's path must not be misread
        cache = RunCache(tmp_path)
        cfg = small_cube_config(load=0.2, total_cycles=300)
        key = sweep._cache_key(cfg)
        cache.put(key, simulate(cfg))
        other = sweep._cache_key(small_cube_config(load=0.3, total_cycles=300))
        cache.path_for(key).rename(cache.path_for(other))
        assert cache.get(other) is None

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        cfg = small_cube_config(load=0.2, total_cycles=300)
        cache.put(sweep._cache_key(cfg), simulate(cfg))
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = RunCache(tmp_path)
        cfg = small_cube_config(load=0.2, total_cycles=300)
        cache.put(sweep._cache_key(cfg), simulate(cfg))
        assert not list(tmp_path.glob("*.tmp"))

    def test_sweep_resumes_from_disk(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path)
        first = run_sweep(
            small_factory, [0.2, 0.3], label="campaign", cache=cache
        )
        assert len(cache) == 2

        clear_cache()  # a fresh process would start with an empty memo

        def exploding(plan):
            raise AssertionError("should have been served from disk")

        monkeypatch.setattr(sweep, "run_plan", exploding)
        second = run_sweep(
            small_factory, [0.2, 0.3], label="campaign", cache=cache
        )
        assert second.accepted() == first.accepted()
        assert second.complete

    def test_run_point_writes_through(self, tmp_path):
        cache = RunCache(tmp_path)
        cfg = small_cube_config(load=0.2, total_cycles=300)
        run_point(cfg, cache=cache)
        assert len(cache) == 1
        clear_cache()
        # second call hits disk, repopulating the memo without simulating
        assert run_point(cfg, cache=cache).delivered_packets >= 0
