"""Smoke test of the benchmark at toy sizes; takes seconds.

    python3 -m pytest bench/test_smoke.py -q

Not part of the tier-1 suite (pytest collects ``tests/`` only by default).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
import spec

BENCH = Path(__file__).resolve().parent


def run_toy(capsys, workload, trace, seed=0):
    code = bench_run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                           "--trace", str(trace), "--toy"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(capsys, workload, trace):
    lines, result = run_toy(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in wanted]
    for m in wanted:
        value = result["metrics"][m.name]
        assert value["unit"] == m.unit
        assert isinstance(value["value"], (int, float))
        assert any(line.split()[:1] == [m.name] and m.unit in line for line in lines[:-1])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_spans_nest_inside_their_replicate_or_sample(capsys, workload):
    run_toy(capsys, workload, 1)
    path = bench_run.OUT_DIR / f"{workload}-toy-seed0-trace1.spans.json"
    spans = json.loads(path.read_text())
    assert spans
    roots = {"bench.setup", "bench.probe", "bench.sample", "cli.dispatch",
             "experiment.replicate", "bench.rmse_batch",
             "netmodel.reweighted_within_blocks"}
    for s in spans:
        assert s["op"]
        if s["parent"] < 0:
            assert s["name"] in roots
            continue
        parent = spans[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        assert s["op"] == parent["op"]
    replicate_ops = {s["op"] for s in spans if s["name"] == "experiment.replicate"}
    assert all(op.startswith("replicate-") for op in replicate_ops)
    assert {s["op"] for s in spans if s["name"] == "bench.sample"} <= {
        s["op"] for s in spans if s["name"] == "cli.dispatch"}


def test_reference_is_checked_and_a_changed_output_fails(capsys, monkeypatch):
    lines, result = run_toy(capsys, "cli-large", 0)
    assert result["correct"] is True
    assert not any("no reference outputs" in line for line in lines)

    real = bench_run.load_reference

    def shifted(*args):
        ref = real(*args)
        ref["mu_hat"]["vh"] += 1e-3
        return ref

    monkeypatch.setattr(bench_run, "load_reference", shifted)
    _, result = run_toy(capsys, "cli-large", 0)
    assert result["correct"] is False and result["failed"] >= 1


def test_manifest_matches_spec():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
