"""State-digest audit trail (PR 9): layered digests on a bounded chain.

Unit coverage for :mod:`repro.obs.statehash` — document shape, chain
integrity, decimation bounds, replay alignment — plus the property the
whole debugger rests on: the digest chain is a pure function of the
config, identical whether or not passive observers (trace, counters,
forensics, flight) ride alongside.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import MultiProbe, TraceProbe, WindowedCounterProbe, config_digest
from repro.obs.flight import FlightRecorder
from repro.obs.statehash import (
    DIGEST_ALGO,
    STATEHASH_FORMAT_VERSION,
    SUBSYSTEMS,
    StateDigestConfig,
    StateDigestProbe,
    describe_statehash,
    Statehash,
    engine_fingerprint,
    state_snapshot,
)
from repro.obs.probe import Attach
from repro.sim.run import RunPlan, build_engine, run_plan, simulate
from repro.traffic.transport import Transport, TransportConfig

from .conftest import small_cube_config, small_tree_config


def _chain_of(config, statehash=None, probe=None) -> dict:
    extra = () if probe is None else (Attach(probe),)
    plan = RunPlan(config, (Statehash(statehash),) + extra)
    return run_plan(plan).telemetry.statehash


class TestConfig:
    def test_defaults_valid(self):
        cfg = StateDigestConfig()
        assert cfg.interval_cycles == 128
        assert cfg.max_intervals == 512
        assert cfg.audit is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(interval_cycles=0),
            dict(max_intervals=6),   # even but below the floor
            dict(max_intervals=9),   # odd: coalescing halves pairs
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            StateDigestConfig(**kwargs)


class TestDocumentShape:
    def test_chain_document(self):
        config = small_tree_config()
        doc = _chain_of(config, StateDigestConfig(interval_cycles=64))
        assert doc["format"] == STATEHASH_FORMAT_VERSION
        assert doc["algo"] == DIGEST_ALGO
        assert doc["interval"] == 64
        assert doc["genesis"] == config_digest(config)
        n = doc["entries"]
        assert n == len(doc["cycles"]) == len(doc["roots"]) == len(doc["chain"])
        assert set(doc["subsystems"]) == set(SUBSYSTEMS)
        for series in doc["subsystems"].values():
            assert len(series) == n
        # genesis sample precedes the first stepped cycle; the tail
        # sample lands on the final cycle
        assert doc["cycles"][0] == 0
        assert doc["cycles"][-1] == config.total_cycles
        assert doc["chain_head"] == doc["chain"][-1]

    def test_chain_links_commit_to_roots(self):
        # chain[i] = H(chain[i-1] ‖ root[i]), seeded by the genesis
        # config digest — recomputable by any consumer
        doc = _chain_of(small_tree_config(), StateDigestConfig(interval_cycles=64))
        head = doc["genesis"]
        for root, link in zip(doc["roots"], doc["chain"]):
            head = hashlib.blake2b((head + root).encode("ascii"), digest_size=8).hexdigest()
            assert link == head

    def test_describe_mentions_chain(self):
        doc = _chain_of(small_tree_config())
        text = describe_statehash(doc)
        assert "state digests" in text
        assert doc["chain_head"] in text
        assert doc["genesis"] in text


class TestDecimation:
    def test_bounded_with_doubling_stride(self):
        doc = _chain_of(
            small_tree_config(),
            StateDigestConfig(interval_cycles=4, max_intervals=8),
        )
        assert doc["entries"] < 8
        assert doc["decimations"] >= 1
        assert doc["stride"] == 4 * 2 ** doc["decimations"]
        # genesis always survives, so decimated chains stay alignable
        assert doc["cycles"][0] == 0


class TestReplayAlignment:
    def test_replayed_engine_reproduces_recorded_roots(self):
        # the cycle-stamping contract: an uninstrumented engine stepped
        # to a sampled cycle fingerprints the identical state
        config = small_cube_config(load=0.4)
        doc = _chain_of(config, StateDigestConfig(interval_cycles=128))
        engine = build_engine(config)
        for cycle, root in zip(doc["cycles"], doc["roots"]):
            while engine.cycle < cycle:
                engine.step()
            assert engine_fingerprint(engine)["root"] == root

    def test_detail_fingerprint_same_root(self):
        engine = build_engine(small_tree_config(load=0.4))
        for _ in range(200):
            engine.step()
        fp = engine_fingerprint(engine)
        detail = engine_fingerprint(engine, detail=True)
        assert detail["root"] == fp["root"]
        assert detail["fabric"] == fp["fabric"]
        assert detail["links"] and detail["lanes"] and detail["nodes"]

    def test_engine_state_fingerprint_method(self):
        engine = build_engine(small_tree_config(load=0.4))
        for _ in range(100):
            engine.step()
        assert engine.state_fingerprint() == engine_fingerprint(engine)

    def test_snapshot_matches_fingerprint_coverage(self):
        engine = build_engine(small_cube_config(load=0.4))
        for _ in range(200):
            engine.step()
        snap = state_snapshot(engine)
        assert set(snap) == {
            "cycle", "counters", "fabric", "injection", "transport", "rng"
        }
        assert snap["cycle"] == engine.cycle
        assert len(snap["injection"]) == len(engine.nodes)
        assert len(snap["fabric"]["links"]) == len(engine.dirs)


class TestDeterminism:
    def test_chain_byte_identical_across_reruns(self):
        config = small_tree_config(load=0.5)
        a = json.dumps(_chain_of(config), sort_keys=True)
        b = json.dumps(_chain_of(config), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        a = _chain_of(small_tree_config(seed=7))
        b = _chain_of(small_tree_config(seed=8))
        assert a["roots"] != b["roots"]
        assert a["chain_head"] != b["chain_head"]

    def test_reliable_transport_chain_deterministic(self):
        def run():
            result = run_plan(
                RunPlan(
                    small_tree_config(load=0.6),
                    (
                        Statehash(),
                        Transport(TransportConfig(base_timeout=16, jitter=8, seed=3)),
                    ),
                )
            )
            return result.telemetry.statehash

        assert json.dumps(run(), sort_keys=True) == json.dumps(run(), sort_keys=True)


class TestProbeNonInterference:
    """The audit trail must digest the *engine*, not the observers."""

    @pytest.mark.parametrize(
        "extra", ["trace", "counters", "flight", "forensics", "stack"]
    )
    def test_chain_identical_under_observer_stacks(self, extra):
        config = small_cube_config(load=0.4)
        bare = _chain_of(config)
        if extra == "forensics":
            from repro.obs.forensics import run_with_forensics

            result, _, deadlock = run_with_forensics(
                config, probe=StateDigestProbe()
            )
            assert deadlock is None
            instrumented = result.telemetry.statehash
        else:
            observer = {
                "trace": lambda: TraceProbe(),
                "counters": lambda: WindowedCounterProbe(window_cycles=100),
                "flight": lambda: FlightRecorder(),
                "stack": lambda: MultiProbe(
                    [TraceProbe(), WindowedCounterProbe(window_cycles=100),
                     FlightRecorder()]
                ),
            }[extra]()
            instrumented = _chain_of(config, probe=observer)
        assert instrumented["roots"] == bare["roots"]
        assert instrumented["chain"] == bare["chain"]
        assert instrumented["chain_head"] == bare["chain_head"]


class TestAudit:
    def test_audit_counts_boundaries(self):
        doc = _chain_of(
            small_tree_config(),
            StateDigestConfig(interval_cycles=100, audit=True),
        )
        assert doc["audited"] >= 1
        assert "invariant audits passed" in describe_statehash(doc)
