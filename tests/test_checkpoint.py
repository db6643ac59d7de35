"""Checkpoint/restore and resumable-campaign regression tests.

The contract under test (see :mod:`repro.sim.checkpoint`): a restored
engine reproduces ``state_fingerprint()`` byte-identically, a resumed
run's document is byte-identical to an uninterrupted run's (wall-clock
telemetry aside), corrupt or stale checkpoints are rejected with
structured discard findings instead of being trusted, and campaign
supervision resumes interrupted points from their newest valid
checkpoint with the *original* seed."""

import dataclasses
import json
import os
import pathlib
import pickle
import signal
import time
from functools import partial

import pytest

from repro.errors import CheckpointError, PointTimeoutError, WorkerDiedError
from repro.experiments.chaos import Storm, StormSpec, chaos_layers
from repro.experiments.congestion import (
    OverloadSpec,
    overload_config,
    overload_layers,
)
from repro.experiments.runcache import RunCache
from repro.experiments.sweep import (
    CampaignCheckpoints,
    _cache_key,
    _point_task,
    run_sweep,
)
from repro.obs.flight import Flight, FlightConfig, FlightRecorder
from repro.obs.forensics import Forensics
from repro.obs.probe import Layer, find_probe
from repro.obs.statehash import StateDigestConfig, Statehash
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointPolicy,
    CheckpointProbe,
    attach_checkpoints,
    checkpoint_files,
    clear_checkpoints,
    has_resumable,
    install_escalation_handler,
    load_checkpoint,
    newest_valid_checkpoint,
    read_manifest,
    resume_point,
    save_checkpoint,
)
from repro.sim.packet import FAULT_SENTINEL
from repro.sim.run import Audit, RunPlan, build_engine, cube_config, run_plan, simulate
from repro.traffic.congestion import Congestion, CongestionConfig
from repro.traffic.transport import Transport, TransportConfig

from .conftest import small_tree_config
from .test_determinism import _canonical
from .test_property_forensics import FIVE_CONFIGS, _build


def _policy(directory, interval=250, **kwargs):
    return CheckpointPolicy(str(directory), interval_cycles=interval, **kwargs)


# -- the checkpoint file -------------------------------------------------------


class TestCheckpointFile:
    def test_save_load_fingerprint_roundtrip(self, tmp_path):
        engine = build_engine(small_tree_config(load=0.5))
        path = tmp_path / "ckpt-000000000000.rckpt"
        header = save_checkpoint(engine, path)
        assert header["cycle"] == 0
        assert header["root"] == engine.state_fingerprint()["root"]
        restored, loaded_header = load_checkpoint(path)
        assert loaded_header == header
        assert restored.state_fingerprint() == engine.state_fingerprint()

    def test_fault_sentinel_identity_survives_pickling(self):
        # every `pkt is FAULT_SENTINEL` check in routing/diagnostics
        # must keep working after a restore
        clone = pickle.loads(pickle.dumps(FAULT_SENTINEL))
        assert clone is FAULT_SENTINEL

    def test_corrupt_payload_rejected(self, tmp_path):
        engine = build_engine(small_tree_config())
        path = tmp_path / "ckpt-000000000000.rckpt"
        save_checkpoint(engine, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.kind == "corrupt"

    def test_stale_config_rejected(self, tmp_path):
        engine = build_engine(small_tree_config(seed=7))
        path = tmp_path / "ckpt-000000000000.rckpt"
        save_checkpoint(engine, path)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, config=small_tree_config(seed=8))
        assert exc.value.kind == "stale"

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt-000000000000.rckpt"
        path.write_bytes(b"not a checkpoint\x00\x01")
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.kind == "corrupt"

    def test_unpicklable_live_resource_raises(self, tmp_path):
        # a flight recorder streaming through a live callback cannot
        # ride inside a snapshot; the failure must be loud and typed
        recorder = FlightRecorder(
            FlightConfig(interval_cycles=64), on_sample=lambda row: None
        )
        engine = build_engine(small_tree_config(), probe=recorder)
        with pytest.raises(CheckpointError):
            save_checkpoint(engine, tmp_path / "ckpt-000000000000.rckpt")

    def test_discards_recorded_in_manifest(self, tmp_path):
        config = small_tree_config()
        engine = build_engine(config)
        good = tmp_path / "ckpt-000000000000.rckpt"
        save_checkpoint(engine, good)
        bad = tmp_path / "ckpt-000000000100.rckpt"  # newer, but corrupt
        blob = bytearray(good.read_bytes())
        blob[-1] ^= 0xFF
        bad.write_bytes(bytes(blob))
        loaded = newest_valid_checkpoint(tmp_path, config=config)
        assert loaded is not None
        assert loaded[1]["cycle"] == 0  # fell back past the corrupt file
        discarded = read_manifest(tmp_path)["discarded"]
        assert [d["kind"] for d in discarded] == ["corrupt"]
        assert discarded[0]["file"] == bad.name


# -- plans resumed by TestResumeIdentity ---------------------------------------


def _tree_plan(*layers, interval=250, **overrides):
    return RunPlan(_build(dict(network="tree", vcs=2), **overrides), layers), interval


def _small_plan(*layers, load):
    return RunPlan(small_tree_config(load=load), layers), 200


_OVERLOAD = OverloadSpec(
    closed_loop=True,
    saturation=0.4,
    arbiter="age",
    transport=TransportConfig(base_timeout=32, jitter=4),
    control=CongestionConfig(window_cycles=32),
)

#: every layer, alone and stacked: resuming from a mid-run snapshot must
#: reproduce the uninterrupted run byte for byte
_RESUME_PLANS = {
    "statehash": lambda: _tree_plan(
        Statehash(StateDigestConfig(interval_cycles=100))
    ),
    "flight": lambda: _tree_plan(Flight(FlightConfig(interval_cycles=64))),
    "reliable-transport": lambda: _small_plan(
        Transport(TransportConfig(base_timeout=16, jitter=8, seed=3)), load=0.6
    ),
    "closed-congestion-loop": lambda: _small_plan(
        Congestion(
            config=TransportConfig(base_timeout=32, jitter=8, seed=3),
            control=CongestionConfig(window_cycles=32, hot_fraction=0.3),
        ),
        load=0.8,
    ),
    "chaos-storm": lambda: _tree_plan(
        *chaos_layers(StormSpec(fault_rate=0.2, storm_seed=9)), interval=200, load=0.6
    ),
    "overload-point": lambda: (
        RunPlan(
            overload_config(small_tree_config(load=0.6), _OVERLOAD),
            overload_layers(_OVERLOAD),
        ),
        200,
    ),
    "stacked": lambda: _small_plan(
        Congestion(
            config=TransportConfig(base_timeout=32, jitter=8, seed=3),
            control=CongestionConfig(window_cycles=32, hot_fraction=0.3),
        ),
        Storm(StormSpec(fault_rate=0.2, storm_seed=9)),
        Flight(FlightConfig(interval_cycles=64)),
        Statehash(StateDigestConfig(interval_cycles=100)),
        Forensics(),
        Audit(),
        load=0.8,
    ),
}


# -- resume identity -----------------------------------------------------------


class TestResumeIdentity:
    @pytest.mark.parametrize("spec", FIVE_CONFIGS)
    def test_resumed_run_matches_uninterrupted(self, spec, tmp_path):
        config = _build(spec)
        reference = _canonical(simulate(config))
        policy = _policy(tmp_path)
        # the checkpointed run itself must not perturb the simulation
        assert _canonical(simulate(config, checkpoint=policy)) == reference
        # mid-run snapshots remain on disk; a second call restores the
        # newest one and replays only the tail
        assert has_resumable(tmp_path, config)
        assert _canonical(simulate(config, checkpoint=policy)) == reference

    def test_interrupted_run_resumes_byte_identically(self, tmp_path):
        config = _build(dict(network="cube", algorithm="dor", vcs=4))
        reference = _canonical(simulate(config))
        policy = _policy(tmp_path, interval=200)
        engine = build_engine(config)
        attach_checkpoints(engine, policy)
        engine.add_cycle_hook(450, _boom)
        _BOOM["armed"] = True
        try:
            with pytest.raises(KeyboardInterrupt):
                engine.run()
        finally:
            _BOOM["armed"] = False
        # the crash landed between checkpoints 400 and 600
        assert [h["cycle"] for h in _headers(tmp_path)] == [200, 400]
        assert _canonical(simulate(config, checkpoint=policy)) == reference

    def test_loaded_paper_cube_resumes_byte_identically(self, tmp_path):
        # a 256-node Duato cube near saturation: crossbar bindings chain
        # worms across the whole torus, which once drove the engine's
        # pickle past the interpreter's recursion limit
        config = cube_config(
            algorithm="duato", load=0.9, seed=5, warmup_cycles=200, total_cycles=1300
        )
        reference = _canonical(simulate(config))
        policy = _policy(tmp_path, interval=1200)
        engine = build_engine(config)
        attach_checkpoints(engine, policy)
        engine.add_cycle_hook(1250, _boom)
        _BOOM["armed"] = True
        try:
            with pytest.raises(KeyboardInterrupt):
                engine.run()
        finally:
            _BOOM["armed"] = False
        assert [h["cycle"] for h in _headers(tmp_path)] == [1200]
        assert _canonical(simulate(config, checkpoint=policy)) == reference

    @pytest.mark.parametrize("case", sorted(_RESUME_PLANS))
    def test_plan_resumes_byte_identically(self, case, tmp_path):
        plan, interval = _RESUME_PLANS[case]()
        reference = run_plan(plan)
        checkpointed = dataclasses.replace(plan, checkpoint=_policy(tmp_path, interval))
        run_plan(checkpointed)
        resumed = run_plan(checkpointed)
        if reference.telemetry.statehash is not None:
            assert (
                resumed.telemetry.statehash["chain"]
                == reference.telemetry.statehash["chain"]
            )
        assert _canonical(resumed) == _canonical(reference)

    def test_resume_point_without_checkpoints_returns_none(self, tmp_path):
        assert resume_point(_policy(tmp_path), small_tree_config()) is None

    def test_stale_checkpoints_fall_through_to_fresh_run(self, tmp_path):
        policy = _policy(tmp_path)
        simulate(small_tree_config(seed=7), checkpoint=policy)
        other = small_tree_config(seed=8)
        # the directory holds only seed-7 snapshots: a seed-8 run must
        # discard them (structured finding) and run from scratch
        assert _canonical(simulate(other, checkpoint=policy)) == _canonical(
            simulate(other)
        )
        kinds = {d["kind"] for d in read_manifest(tmp_path)["discarded"]}
        assert kinds == {"stale"}

    def test_older_format_checkpoint_discarded_as_stale(self, tmp_path):
        # a version-2 snapshot carries no plan layers; resuming it would
        # skip the finish step, so it must be rejected, not trusted
        config = small_tree_config()
        reference = _canonical(simulate(config))
        simulate(config, checkpoint=_policy(tmp_path / "v3"))
        newest = checkpoint_files(tmp_path / "v3")[0]
        header, payload = newest.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        assert doc["format"] == CHECKPOINT_FORMAT_VERSION == 3
        doc["format"] = 2
        old = tmp_path / "v2" / newest.name
        old.parent.mkdir()
        old.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
        policy = _policy(tmp_path / "v2")
        assert _canonical(simulate(config, checkpoint=policy)) == reference
        discarded = read_manifest(tmp_path / "v2")["discarded"]
        assert [(d["file"], d["kind"]) for d in discarded] == [(old.name, "stale")]


# -- probe housekeeping --------------------------------------------------------


class TestProbeHousekeeping:
    def test_keep_prunes_and_manifest_tracks(self, tmp_path):
        config = small_tree_config()  # 600 cycles
        policy = _policy(tmp_path, interval=100, keep=2)
        simulate(config, checkpoint=policy)
        headers = _headers(tmp_path)
        assert [h["cycle"] for h in headers] == [400, 500]
        manifest = read_manifest(tmp_path)
        assert [e["cycle"] for e in manifest["checkpoints"]] == [400, 500]
        assert manifest["config"] == headers[0]["config"]
        assert manifest["completed"] is False

    def test_clear_checkpoints_marks_completed(self, tmp_path):
        simulate(small_tree_config(), checkpoint=_policy(tmp_path, interval=200))
        clear_checkpoints(tmp_path)
        assert checkpoint_files(tmp_path) == []
        manifest = read_manifest(tmp_path)
        assert manifest["checkpoints"] == []
        assert manifest["completed"] is True

    def test_has_resumable_filters_by_config(self, tmp_path):
        config = small_tree_config(seed=7)
        simulate(config, checkpoint=_policy(tmp_path))
        assert has_resumable(tmp_path, config)
        assert not has_resumable(tmp_path, small_tree_config(seed=8))
        assert not has_resumable(tmp_path / "absent", config)

    def test_escalation_request_checkpoints_at_next_boundary(self, tmp_path):
        config = small_tree_config()
        engine = build_engine(config)
        probe = attach_checkpoints(engine, _policy(tmp_path, interval=200))
        engine.add_cycle_hook(250, _request_checkpoint)
        engine.run()
        assert probe.escalations == 1
        # periodic at 200 (pruned later), escalation lands at 251
        assert 251 in [h["cycle"] for h in _headers(tmp_path)]
        snapshots = list(pathlib.Path(tmp_path).glob("escalation-*.json"))
        assert len(snapshots) == 1
        doc = json.loads(snapshots[0].read_text())
        assert doc["cycle"] == 251
        assert doc["reason"] == "soft-timeout escalation"

    def test_sigusr1_routes_to_live_probes(self, tmp_path):
        if not hasattr(signal, "SIGUSR1"):
            pytest.skip("no SIGUSR1 on this platform")
        previous = signal.getsignal(signal.SIGUSR1)
        try:
            assert install_escalation_handler()
            config = small_tree_config()
            engine = build_engine(config)
            probe = attach_checkpoints(engine, _policy(tmp_path, interval=200))
            engine.add_cycle_hook(250, _self_sigusr1)
            engine.run()
            assert probe.escalations == 1
        finally:
            signal.signal(signal.SIGUSR1, previous)


# -- campaign supervision ------------------------------------------------------


class TestCampaignSupervision:
    def test_sweep_resume_reloads_completed_points(self, tmp_path):
        loads = [0.2, 0.4, 0.6]
        factory = partial(small_tree_config)
        collected: list = []
        reference = run_sweep(
            lambda load: factory(load=load),
            loads,
            "ckpt-test",
            use_cache=False,
            on_result=collected.append,
        )
        reference_docs = sorted(_canonical(r) for r in collected)

        checkpoints = CampaignCheckpoints(str(tmp_path / "camp"), interval_cycles=200)
        _CALLS["n"] = 0
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                lambda load: factory(load=load),
                loads,
                "ckpt-test",
                use_cache=False,
                layers=(_InterruptThirdPoint(),),
                checkpoints=checkpoints,
            )
        # the two completed points were flushed to their per-point caches
        cached = [
            RunCache(checkpoints.point_dir("ckpt-test", _cache_key(factory(load=l)))).get(
                _cache_key(factory(load=l))
            )
            for l in loads
        ]
        assert sum(r is not None for r in cached) == 2

        resumed: list = []
        series = run_sweep(
            lambda load: factory(load=load),
            loads,
            "ckpt-test",
            use_cache=False,
            checkpoints=checkpoints,
            on_result=resumed.append,
        )
        assert len(series) == len(reference)
        assert sorted(_canonical(r) for r in resumed) == reference_docs

    def test_completed_point_clears_its_checkpoints(self, tmp_path):
        config = small_tree_config(load=0.3)
        checkpoints = CampaignCheckpoints(str(tmp_path / "camp"), interval_cycles=200)
        run_sweep(
            lambda load: small_tree_config(load=load),
            [0.3],
            "ckpt-clear",
            use_cache=False,
            checkpoints=checkpoints,
        )
        pdir = checkpoints.point_dir("ckpt-clear", _cache_key(config))
        assert checkpoint_files(pdir) == []
        assert read_manifest(pdir)["completed"] is True
        assert RunCache(pdir).get(_cache_key(config)) is not None

    def test_dead_worker_resumes_with_original_seed(self, tmp_path):
        config = small_tree_config(load=0.3)
        reference = _canonical(simulate(config))
        checkpoints = CampaignCheckpoints(str(tmp_path / "camp"), interval_cycles=200)
        pdir = checkpoints.point_dir("ckpt-died", _cache_key(config))
        flag = tmp_path / "died-once"
        outcome = _point_task(
            config,
            retries=1,
            timeout=60,
            layers=(_DieAfterCheckpointing(str(flag)),),
            checkpoints=checkpoints,
            point_dir=pdir,
        )
        assert outcome[0] == "ok"
        # the retry resumed the original recipe instead of reseeding
        assert outcome[1].config.seed == config.seed
        assert _canonical(outcome[1]) == reference

    def test_dead_worker_without_checkpoints_reseeds(self, tmp_path):
        config = small_tree_config(load=0.3)
        flag = tmp_path / "died-once"
        outcome = _point_task(
            config,
            retries=1,
            timeout=60,
            layers=(_DieAfterCheckpointing(str(flag)),),
        )
        assert outcome[0] == "ok"
        assert outcome[1].config.seed != config.seed

    def test_worker_death_is_typed_and_retryable(self, tmp_path):
        config = small_tree_config(load=0.3)
        outcome = _point_task(
            config,
            retries=0,
            timeout=60,
            layers=(_DieAfterCheckpointing(str(tmp_path / "never-set")),),
        )
        # exhausted retries surface as a structured failure record
        assert outcome[0] == "fail"
        assert outcome[1].error == "WorkerDiedError"
        assert isinstance(outcome[2], WorkerDiedError)

    @pytest.mark.slow
    def test_timeout_resumes_with_original_seed(self, tmp_path):
        config = small_tree_config(load=0.3)
        reference = _canonical(simulate(config))
        checkpoints = CampaignCheckpoints(str(tmp_path / "camp"), interval_cycles=200)
        pdir = checkpoints.point_dir("ckpt-hang", _cache_key(config))
        flag = tmp_path / "hung-once"
        outcome = _point_task(
            config,
            retries=1,
            timeout=4.0,
            layers=(_HangAfterCheckpointing(str(flag)),),
            checkpoints=checkpoints,
            point_dir=pdir,
        )
        assert outcome[0] == "ok"
        assert outcome[1].config.seed == config.seed
        assert _canonical(outcome[1]) == reference


# -- SIGTERM parity with Ctrl-C ------------------------------------------------


class TestSigtermParity:
    def test_sigterm_exits_143_and_flushes(self, tmp_path, capsys, monkeypatch):
        if not hasattr(signal, "SIGTERM"):
            pytest.skip("no SIGTERM on this platform")
        from repro.cli import main
        from repro.sim import run as run_module

        # the signal comes from inside the first point's engine, at a
        # fixed cycle, so it always lands mid-sweep however fast the
        # engine runs
        build = run_module.build_engine

        def build_engine(config, probe=None):
            engine = build(config, probe=probe)
            engine.add_cycle_hook(50, _self_sigterm)
            return engine

        monkeypatch.setattr(run_module, "build_engine", build_engine)
        rc = main(
            [
                "sweep",
                "--profile",
                "default",
                "--checkpoint",
                str(tmp_path / "camp"),
            ]
        )
        assert rc == 143
        assert "terminated" in capsys.readouterr().err

    def test_sigterm_context_restores_previous_handler(self):
        if not hasattr(signal, "SIGTERM"):
            pytest.skip("no SIGTERM on this platform")
        from repro.cli import _SigtermInterrupt, _sigterm_as_interrupt

        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(_SigtermInterrupt):
            with _sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                # the signal lands between bytecodes; give it a window
                for _ in range(100):
                    time.sleep(0.01)
        assert signal.getsignal(signal.SIGTERM) is before
        # parity contract: SIGTERM tears down exactly like Ctrl-C
        assert issubclass(_SigtermInterrupt, KeyboardInterrupt)


# -- module-level hooks and layers (pickled by reference) ----------------------

_BOOM = {"armed": False}


def _boom(engine) -> None:
    """A crash injector that disarms itself, so the copy of this hook
    riding inside earlier checkpoints is inert after the resume."""
    if _BOOM["armed"]:
        _BOOM["armed"] = False
        raise KeyboardInterrupt


def _request_checkpoint(engine) -> None:
    find_probe(engine.probe, CheckpointProbe).request()


def _self_sigusr1(engine) -> None:
    os.kill(os.getpid(), signal.SIGUSR1)


def _self_sigterm(engine) -> None:
    os.kill(os.getpid(), signal.SIGTERM)


_CALLS = {"n": 0}


class _InterruptThirdPoint(Layer):
    def install(self, engine):
        _CALLS["n"] += 1
        if _CALLS["n"] >= 3:
            raise KeyboardInterrupt


def _headers(directory):
    from repro.sim.checkpoint import read_checkpoint_header

    return sorted(
        (read_checkpoint_header(p) for p in checkpoint_files(directory)),
        key=lambda h: h["cycle"],
    )


@dataclasses.dataclass(frozen=True)
class _DieAfterCheckpointing(Layer):
    """First run: finish the run (leaving snapshots behind), then die
    without reporting.  Later runs, resumed ones included, finish
    normally — the retry path."""

    flag: str

    def finish(self, engine, result):
        marker = pathlib.Path(self.flag)
        if not marker.exists():
            marker.touch()
            os._exit(1)
        return result


@dataclasses.dataclass(frozen=True)
class _HangAfterCheckpointing(Layer):
    """First run: finish the run, then hang past the wall-clock budget."""

    flag: str

    def finish(self, engine, result):
        marker = pathlib.Path(self.flag)
        if not marker.exists():
            marker.touch()
            time.sleep(600)
        return result
