"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They use small networks, so they finish in seconds; the paper-scale
workloads themselves are exercised by ``perfbench/run.py``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from perfbench.run import sampled  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SEED_SLOTS,
    WORKLOADS,
    Checker,
    CubeLight,
    CubeOverload,
    Fig5Panel,
    point_stats,
    sim_seed,
)
from repro.sim.run import cube_config, tree_config  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- names and the declared contract ---------------------------------------------


def test_benchmark_keys(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 1 <= len(bench["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") for arg in bench["command"])


def test_metric_and_workload_names_are_valid(bench):
    names = []
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert set(names) == set(WORKLOADS)
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))


def test_declared_metrics_match_the_emitted_ones(bench):
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_reference_covers_every_seed_slot():
    doc = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert doc["seed_slots"] == SEED_SLOTS
    for name, workload in WORKLOADS.items():
        slots = doc["workloads"][name]
        assert set(slots) == {str(sim_seed(s)) for s in range(SEED_SLOTS)}
        assert all(len(points) == len(workload.configs(0)) for points in slots.values())


def test_seed_picks_the_inputs():
    w = WORKLOADS["fig5-panel"]
    assert w.configs(3) == w.configs(3)
    assert w.configs(3)[0].seed != w.configs(4)[0].seed
    assert sim_seed(3) == sim_seed(3 + SEED_SLOTS)


# -- the correctness check -----------------------------------------------------------


def _small_cube(**overrides):
    base = dict(k=4, n=2, algorithm="dor", load=0.3, seed=5, warmup_cycles=100, total_cycles=600)
    base.update(overrides)
    return cube_config(**base)


def test_altered_reference_is_a_failed_operation(tmp_path):
    unit = CubeLight().run([_small_cube()], tmp_path)
    stats = [point_stats(r) for r in unit.results]
    assert Checker(stats).check(stats)

    altered = json.loads(json.dumps(stats))
    altered[0]["latency_sum"] += 1
    checker = Checker(altered)
    assert checker.run(lambda: unit) is None
    assert (checker.attempted, checker.failed) == (1, 1)


def test_exception_fails_every_point_of_the_unit():
    checker = Checker([{}, {}, {}])

    def boom():
        raise RuntimeError("simulated failure")

    assert checker.run(boom) is None
    assert (checker.attempted, checker.failed) == (3, 3)


# -- tracing leaves the simulation alone -----------------------------------------------


def _same_stats_traced_and_plain(workload, configs, tmp_path):
    plain = sampled(lambda: workload.run(configs, tmp_path))
    traced = sampled(lambda: workload.run(configs, tmp_path, Tracer()))
    assert [point_stats(r) for r in traced.results] == [point_stats(r) for r in plain.results]
    for unit in (plain, traced):
        assert 0 < unit.setup < unit.wall
        assert not any(hasattr(r, "perfbench") for r in unit.results)
    return plain, traced


def test_tracing_cube_leaves_statistics_identical(tmp_path):
    # 1100 cycles: the traced run also checkpoints at cycles 400 and 800
    plain, traced = _same_stats_traced_and_plain(
        CubeLight(), [_small_cube(total_cycles=1100)], tmp_path
    )
    metrics = layer_metrics(plain, traced)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["checkpoint.writes"] == 2 and metrics["checkpoint.failed"] == 0
    assert metrics["routing.select_calls"] > 0 and metrics["traffic.advance_us"] > 0
    assert 0 < metrics["engine.busy_dir_ratio"] < 1
    assert metrics["probe.event_us"] == 0  # no probe on the fast path
    assert 0 < traced.tracer.fixed_checkpoint_s < traced.wall


def test_tracing_closed_loop_leaves_statistics_identical(tmp_path):
    config = _small_cube(algorithm="duato", load=1.2, total_cycles=700)
    plain, traced = _same_stats_traced_and_plain(CubeOverload(), [config], tmp_path)
    metrics = layer_metrics(plain, traced)
    assert metrics["transport.acked"] > 0
    assert metrics["probe.on_cycle_us"] > 0 and metrics["probe.event_us"] > 0


def test_tracing_campaign_leaves_statistics_identical(tmp_path):
    configs = [
        tree_config(k=2, n=3, vcs=2, load=load, seed=3, warmup_cycles=100, total_cycles=1100)
        for load in (0.2, 0.8)
    ]
    plain, traced = _same_stats_traced_and_plain(Fig5Panel(), configs, tmp_path)
    metrics = layer_metrics(plain, traced)
    assert set(metrics) == set(PER_LAYER)
    # one checkpoint per point (interval 1000), written in the pool workers
    assert metrics["checkpoint.writes"] == 2
    assert metrics["harness.result_kb"] > 0 and metrics["runcache.put_ms"] > 0
    assert 0 < metrics["harness.engine_share"] <= 1
    assert traced.tracer.fixed_checkpoint_s == 0  # the workers' checkpoints are the campaign's


def test_tracer_detach_restores_the_engine():
    from repro.sim.run import build_engine

    engine = build_engine(_small_cube())
    before = (engine.probe, [n.source for n in engine.nodes], dict(vars(engine.routing)))
    tracer = Tracer()
    tracer.attach(engine)
    tracer.detach(engine)
    assert "step" not in vars(engine)
    assert (engine.probe, [n.source for n in engine.nodes], dict(vars(engine.routing))) == before


# -- the command ---------------------------------------------------------------------


def test_command_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cube-light", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_small_run_prints_one_json_result(tmp_path, monkeypatch, capsys):
    """The command's output contract, on a small cube standing in for a workload."""
    import perfbench.run as run

    small = CubeLight()
    small.configs = lambda seed: [_small_cube(seed=sim_seed(seed))]
    stats = [point_stats(r) for r in small.run(small.configs(2), tmp_path).results]
    monkeypatch.setitem(WORKLOADS, "cube-light", small)
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"workloads": {"cube-light": {str(sim_seed(2)): stats}}}))
    monkeypatch.setattr(run, "REFERENCE", ref)
    assert run.main(["--workload", "cube-light", "--seed", "2", "--seconds", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_config_seed_is_the_only_input_that_varies():
    for workload in WORKLOADS.values():
        a, b = workload.configs(0), workload.configs(1)
        assert [dataclasses.replace(c, seed=0) for c in a] == [dataclasses.replace(c, seed=0) for c in b]
