"""Divergence bisection debugger (PR 9): ``repro diff`` end to end.

Acceptance-criteria coverage for :mod:`repro.obs.diff`: identical runs
report no divergence; a seed- or arbiter-perturbed pair bisects to the
exact first divergent cycle and names the subsystem/link/lane in a
structured diff that is byte-identical across reruns.  Plus the CLI
exit-code contract (0 identical / 4 diverged) and the report panels.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.metrics.io import run_result_to_dict
from repro.obs.diff import (
    DIVERGENCE_EXIT_CODE,
    compare_chains,
    describe_diff,
    diff_runs,
    snapshot_diff,
)
from repro.obs.report import render_diff_html, statehash_entries
from repro.obs.statehash import Statehash
from repro.sim.run import RunPlan, run_plan
from repro.traffic.transport import Transport, TransportConfig

from .conftest import small_cube_config, small_tree_config


def _run_doc(config, **statehash_kwargs) -> dict:
    from repro.obs.statehash import StateDigestConfig

    result = run_plan(RunPlan(config, (Statehash(StateDigestConfig(**statehash_kwargs)),)))
    return run_result_to_dict(result)


class TestIdentical:
    def test_self_diff_from_configs(self):
        config = small_tree_config(load=0.4)
        doc = diff_runs(config, config)
        assert doc["identical"] is True
        assert doc["bisection"] is None
        assert doc["findings"] == []
        assert doc["config_fields_differ"] == []
        assert "IDENTICAL" in describe_diff(doc)

    def test_self_diff_from_run_documents(self, tmp_path):
        config = small_cube_config(load=0.4)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(_run_doc(config)))
        b.write_text(json.dumps(_run_doc(config)))
        doc = diff_runs(a, b)
        assert doc["identical"] is True
        # recorded chains are reused, not re-run
        assert doc["a"]["reran"] is False and doc["b"]["reran"] is False


class TestBisection:
    def test_seed_perturbation_bisects_to_cycle_zero(self):
        # different traffic seeds diverge before the first step: the
        # pre-generated arrival queues and RNG streams already differ
        doc = diff_runs(
            small_tree_config(seed=7), small_tree_config(seed=8)
        )
        assert doc["identical"] is False
        assert doc["config_fields_differ"] == ["seed"]
        assert doc["bisection"]["status"] == "exact"
        assert doc["bisection"]["cycle"] == 0
        assert "injection" in doc["bisection"]["subsystems"]
        subsystems = {f["subsystem"] for f in doc["findings"]}
        assert "injection" in subsystems

    def test_arbiter_perturbation_bisects_mid_run(self):
        # same seed, same traffic — the first divergence is the first
        # cycle the age arbiter picks a different winner, squarely in
        # the fabric; the exact cycle must be strictly past genesis
        doc = diff_runs(
            small_cube_config(load=0.5, arbiter="round_robin"),
            small_cube_config(load=0.5, arbiter="age"),
        )
        assert doc["identical"] is False
        assert doc["config_fields_differ"] == ["arbiter"]
        bisection = doc["bisection"]
        assert bisection["status"] == "exact"
        assert bisection["cycle"] > 0
        assert "fabric" in bisection["subsystems"]
        fabric = [f for f in doc["findings"] if f["subsystem"] == "fabric"]
        assert fabric
        # findings name the link and lane, not just the subsystem
        assert any(f["location"] and f["lane"] for f in fabric)
        text = describe_diff(doc)
        assert f"first divergent cycle {bisection['cycle']}" in text

    def test_bisected_cycle_is_exact(self):
        # replaying both sides to the reported cycle shows divergence
        # there and agreement one cycle earlier
        from repro.obs.diff import _replay_to
        from repro.obs.statehash import engine_fingerprint

        config_a = small_cube_config(load=0.5, arbiter="round_robin")
        config_b = small_cube_config(load=0.5, arbiter="age")
        cycle = diff_runs(config_a, config_b)["bisection"]["cycle"]
        before_a = _replay_to(config_a, cycle - 1)
        before_b = _replay_to(config_b, cycle - 1)
        assert (
            engine_fingerprint(before_a)["root"]
            == engine_fingerprint(before_b)["root"]
        )
        before_a.step()
        before_b.step()
        assert (
            engine_fingerprint(before_a)["root"]
            != engine_fingerprint(before_b)["root"]
        )

    def test_diff_document_byte_identical_across_reruns(self):
        pair = (
            small_cube_config(load=0.5, arbiter="round_robin"),
            small_cube_config(load=0.5, arbiter="age"),
        )
        a = json.dumps(diff_runs(*pair), sort_keys=True)
        b = json.dumps(diff_runs(*pair), sort_keys=True)
        assert a == b

    def test_bisect_disabled_reports_interval_only(self):
        doc = diff_runs(
            small_tree_config(seed=7), small_tree_config(seed=8), bisect=False
        )
        assert doc["identical"] is False
        assert doc["bisection"] == {"status": "skipped", "cycle": None}
        assert doc["findings"] == []

    def test_max_findings_truncates_deterministically(self):
        doc = diff_runs(
            small_tree_config(seed=7), small_tree_config(seed=8), max_findings=3
        )
        assert len(doc["findings"]) == 3
        assert doc["findings_dropped"] > 0


class TestUnreplayable:
    def test_transport_perturbed_run_flagged(self):
        # the reliable transport wraps the sources, so a plain-config
        # replay cannot reproduce the recorded chain; the debugger must
        # say so instead of bisecting to a wrong answer
        config = small_tree_config(load=0.6)

        def run(base_timeout):
            transport = TransportConfig(base_timeout=base_timeout, jitter=0, seed=3)
            result = run_plan(RunPlan(config, (Statehash(), Transport(transport))))
            return run_result_to_dict(result)

        doc = diff_runs(run(16), run(64))
        assert doc["identical"] is False
        assert doc["bisection"]["status"] == "unreplayable"
        assert doc["findings"] == []
        assert any("state-perturbing" in note for note in doc["notes"])
        assert "bisection unavailable" in describe_diff(doc)


class TestChainComparison:
    def test_incompatible_strides_raise(self):
        config = small_tree_config()
        # coprime strides whose LCM exceeds the run: after dropping
        # genesis (cycle 0) and the shared tail sample, no cycles align
        a = _run_doc(config, interval_cycles=23)["telemetry"]["statehash"]
        b = _run_doc(config, interval_cycles=29)["telemetry"]["statehash"]
        for chain in (a, b):
            chain["cycles"] = chain["cycles"][1:-1]
            chain["roots"] = chain["roots"][1:-1]
        with pytest.raises(ConfigurationError):
            compare_chains(a, b)

    def test_interval_mismatch_triggers_rerun(self, tmp_path):
        config = small_tree_config()
        a = tmp_path / "a.json"
        a.write_text(json.dumps(_run_doc(config, interval_cycles=64)))
        doc = diff_runs(a, config, interval=32)
        assert doc["identical"] is True
        assert doc["a"]["reran"] is True  # recorded at 64, requested 32
        assert doc["a"]["interval"] == 32


class TestSnapshotDiff:
    def test_classifies_paths(self):
        a = {"fabric": {"links": {"s0p1": {"lanes": {"vc0": {"credits": 3}}}}}}
        b = {"fabric": {"links": {"s0p1": {"lanes": {"vc0": {"credits": 5}}}}}}
        findings, dropped = snapshot_diff(a, b)
        assert dropped == 0
        (f,) = findings
        assert f["subsystem"] == "fabric"
        assert f["location"] == "s0p1"
        assert f["lane"] == "vc0"
        assert f["field"] == "credits"
        assert (f["a"], f["b"]) == (3, 5)

    def test_absent_leaf_reported(self):
        findings, _ = snapshot_diff({"injection": {"3": {"sent": 1}}}, {})
        (f,) = findings
        assert f["location"] == "node 3"
        assert f["b"] == "<absent>"


class TestReportPanels:
    def test_render_diff_html(self):
        doc = diff_runs(
            small_cube_config(load=0.5, arbiter="round_robin"),
            small_cube_config(load=0.5, arbiter="age"),
        )
        html = render_diff_html(doc)
        assert "<html" in html
        assert "DIVERGED" in html or "divergent" in html
        assert str(doc["bisection"]["cycle"]) in html
        assert doc["findings"][0]["path"] in html

    def test_statehash_entries_and_scorecard_section(self):
        from repro.obs.report import render_scorecard

        results = [
            run_plan(RunPlan(small_tree_config(seed=s), (Statehash(),))) for s in (7, 7)
        ]
        entries = statehash_entries(results)
        assert len(entries) == 2
        html = render_scorecard([], statehash=entries)
        assert "State-digest audit" in html
        # same recipe, same seed: replica chain heads must agree
        assert "consistent" in html and ">diverged<" not in html


class TestCli:
    def _write_run(self, capsys, tmp_path, name, *extra):
        code = main(
            [
                "run", "--network", "cube", "--k", "4", "--n", "2",
                "--algorithm", "dor", "--load", "0.2", "--profile", "fast",
                "--statehash", "--json", *extra,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        path = tmp_path / name
        path.write_text(out)
        return path

    def test_identical_pair_exits_zero(self, capsys, tmp_path):
        a = self._write_run(capsys, tmp_path, "a.json")
        b = self._write_run(capsys, tmp_path, "b.json")
        assert main(["diff", str(a), str(b)]) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_perturbed_pair_exits_divergence_code(self, capsys, tmp_path):
        a = self._write_run(capsys, tmp_path, "a.json")
        b = self._write_run(capsys, tmp_path, "b.json", "--seed", "12")
        out_html = tmp_path / "divergence.html"
        code = main(["diff", str(a), str(b), "--out", str(out_html), "--json"])
        assert code == DIVERGENCE_EXIT_CODE
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is False
        assert doc["bisection"]["status"] == "exact"
        assert out_html.read_text().startswith("<!DOCTYPE html>")

    def test_run_statehash_flag_attaches_chain(self, capsys, tmp_path):
        path = self._write_run(capsys, tmp_path, "a.json")
        doc = json.loads(path.read_text())
        assert doc["telemetry"]["statehash"]["entries"] >= 2

    def test_audit_flag_implies_statehash(self, capsys):
        code = main(
            [
                "run", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--load", "0.2", "--profile", "fast",
                "--audit", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["telemetry"]["statehash"]["audited"] >= 1

    def test_trace_composes_flight_and_statehash(self, capsys, tmp_path):
        code = main(
            [
                "trace", "--network", "tree", "--k", "2", "--n", "2",
                "--vcs", "2", "--load", "0.2", "--profile", "fast",
                "--flight", "--statehash",
                "--out", str(tmp_path / "trace.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flight timeline:" in out
        assert "state digests:" in out
