"""``tools/bench_record.py`` turns paired bench result files into one record."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def _result(directory, seed, sha, replicates_per_s, setup_s):
    directory.mkdir(exist_ok=True)
    record = {"workload": "desk-table1", "trace": 0, "seed": seed, "git_sha": sha,
              "cpu_count": 2, "numpy": "2.0", "blas": {"threads": 1}, "ops": 10 + seed}
    metrics = {"replicates_per_s": {"value": replicates_per_s, "unit": "1/s"},
               "setup_s": {"value": setup_s, "unit": "s"}}
    path = directory / f"desk-table1-seed{seed}-trace0.result.json"
    path.write_text(json.dumps({"metrics": metrics, "record": record}))


def test_bench_record_pairs_runs_by_seed(tmp_path):
    # seeds 2 and 10 sort the other way round as file names, so pairs by file
    # order would pair parent seed 10 with change seed 2
    parent, change, noise = tmp_path / "parent", tmp_path / "change", tmp_path / "noise"
    _result(parent, 2, "aaa", 100.0, 1.0)
    _result(parent, 10, "aaa", 90.0, 1.0)
    _result(change, 2, "bbb", 95.0, 0.5)
    _result(change, 10, "bbb", 99.0, 1.0)
    _result(noise, 2, "aaa", 100.0, 1.0)
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change),
                    "--noise", str(noise), "--out", str(out)], check=True)
    record = json.loads(out.read_text())
    desk = record["pairs"]["desk-table1/trace0"]
    assert desk["seeds"] == {"parent": [2, 10], "change": [2, 10], "paired": [2, 10]}
    rate = desk["metrics"]["replicates_per_s"]
    assert rate["parent"]["values"] == [100.0, 90.0] and rate["parent"]["median"] == 95.0
    assert rate["change"]["median"] == 97.0 and rate["change"]["runs"] == 2
    assert (rate["pairs"], rate["wins"], rate["losses"]) == (2, 1, 1)
    assert rate["better"] == "higher"
    setup = desk["metrics"]["setup_s"]
    assert (setup["wins"], setup["losses"]) == (1, 0)  # lower is better; a tie is neither
    assert desk["record"]["parent"]["shared"]["git_sha"] == "aaa"
    assert desk["record"]["change"]["per_run"] == {"2": {"seed": 2, "ops": 12},
                                                   "10": {"seed": 10, "ops": 20}}
    floor = record["noise_floor"]["desk-table1/trace0"]
    assert floor["seeds"]["paired"] == [2]
    assert floor["metrics"]["replicates_per_s"]["change_of_median"] == (100.0 - 95.0) / 95.0
