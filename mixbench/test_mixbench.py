"""Tests of the benchmark itself, on shrunken workloads.

    PYTHONPATH=src python -m pytest -q mixbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixerlab as ml
import run
import tracer
import workloads
from workloads import CliReportsWorkload, StackWorkload, StructureAuditWorkload

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = (".calls", ".gflop", ".state_updates", ".svds", ".mb_copied")


def small_workloads(tmp_path):
    return [
        StackWorkload("hydra-stack", "hydra", T=6, trace_ops=2),
        StackWorkload("softmax-stack", "softmax", T=24, trace_ops=2),
        StructureAuditWorkload(T=20, N=3, d_head=8, r=12, trace_ops=2),
        CliReportsWorkload(tmp_path / "cli", T=16, cases=4, trace_ops=2),
    ]


def test_traced_runs_repeat_counts_and_match_untraced_outputs(tmp_path):
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for wl in small_workloads(tmp_path):
        wl.setup(ml, 3)
        first, attempted, failed, rec1 = run.traced_run(ml, wl, 3)
        # failed counts traced outputs that differ from untraced ones and
        # ops whose spans do not account for their wall time
        assert (attempted, failed) == (2 * wl.trace_ops + 1, 0), rec1["errors"]
        second, _, failed, rec2 = run.traced_run(ml, wl, 3)
        assert failed == 0
        assert rec1["output_digests"] == rec2["output_digests"]
        exact = {k: v for k, v in first.items() if k.endswith(EXACT)}
        assert exact == {k: v for k, v in second.items() if k.endswith(EXACT)}
        assert {k: u for k, (_, u) in first.items()} == per_layer


def test_counts_follow_the_work():
    wl = StackWorkload("hydra-stack", "hydra", T=6, trace_ops=1)
    wl.setup(ml, 0)
    metrics, _, _, rec = run.traced_run(ml, wl, 0)
    blocks, d, T = len(wl.blocks), wl.cfg.d_model, wl.T
    assert metrics["blocks.block_forward.calls"][0] == blocks
    assert metrics["ssm.ssm_scan.calls"][0] == 2 * d * blocks
    assert metrics["ssm.ssm_scan.state_updates"][0] == 2 * d * blocks * T * 16
    assert metrics["blocks.ffw_apply.gflop"][0] == pytest.approx(2 * blocks * 4 * T * d * 4 * d / 1e9)
    assert metrics["blocks.init_stack.calls"][0] == 1
    spans = rec["spans"]
    top, self_sum = tracer.top_level_seconds(spans, 0)
    assert self_sum == pytest.approx(top, rel=1e-9)
    stages = [metrics[f"stage.{s}.s"][0] for s in tracer.STAGES]
    assert min(stages) > 0 and sum(stages) < top


def test_stack_reference_rejects_a_perturbed_output():
    for kind in ("hydra", "softmax"):
        wl = StackWorkload(kind, kind, T=8, trace_ops=1)
        wl.setup(ml, 1)
        x = wl.make_input(1, 0, "op")
        out = wl.run_op(x)
        assert wl.check(x, out) is None
        assert "exceeds" in wl.check(x, out + 1e-6)


def test_forwarding_one_input_twice_is_byte_identical():
    wl = StackWorkload("hydra-stack", "hydra", T=6, trace_ops=1)
    wl.setup(ml, 2)
    assert wl.digest(wl.run_op(wl.fixed_input(2))) == wl.digest(wl.run_op(wl.fixed_input(2)))


def test_structure_audit_negative_control():
    wl = StructureAuditWorkload(T=20, N=3, d_head=8, r=12)
    wl.setup(ml, 1)
    inp = wl.make_input(1, 0, "op")
    audits, mistag = wl.run_op(inp)
    assert wl.check(inp, (audits, mistag)) is None
    assert not mistag.ok
    passed = dataclasses.replace(mistag, violations=())
    assert "negative control" in wl.check(inp, (audits, passed))


def test_cli_reports_check_rejects_broken_reports(tmp_path):
    wl = CliReportsWorkload(tmp_path / "cli", T=16, cases=4)
    wl.setup(ml, 1)
    argvs = wl.make_input(1, 0, "op")
    codes, files = wl.run_op(argvs)
    assert wl.check(argvs, (codes, files)) is None
    assert "exit codes" in wl.check(argvs, ((0, 1), files))
    i = list(workloads.REPORT_FILES).index("equiv.csv")
    failing = files[i].replace(b",true", b",false", 1)
    assert "pass=false" in wl.check(argvs, (codes, files[:i] + (failing,) + files[i + 1:]))


def test_every_op_gets_a_distinct_input(tmp_path):
    for wl in small_workloads(tmp_path):
        wl.setup(ml, 5)
        digests = {wl.input_digest(wl.make_input(5, i, "op")) for i in range(4)}
        assert len(digests) == 4


def test_a_repeated_input_counts_as_a_failure(tmp_path, monkeypatch):
    wl = CliReportsWorkload(tmp_path / "cli", T=16, cases=4)
    wl.setup(ml, 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(wl, "make_input", lambda seed, index, tag: CliReportsWorkload.make_input(wl, seed, 0, tag))
    metrics, attempted, failed, _ = run.untraced_run(ml, wl, 1, seconds=2.0)
    assert failed == 1 and attempted >= 3
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}


def test_command_prints_the_result_last(tmp_path):
    res = subprocess.run(
        BENCH["command"] + ["--workload", "cli-reports", "--seed", "4", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable] + BENCH["command"][1:]
        + ["--workload", "cli-reports", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
