"""Turn paired benchmark result files into one committed record.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json
    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --noise PARENT_DIR2 --out ...

Each directory holds ``bench/run.py`` result files (``*.result.json``), one
per run, as ``.bench_out/`` keeps them: run each commit in its own checkout,
one seed per run.  For every workload, trace setting and metric present on
both sides, the record holds each side's median, quartiles, values and run
count, the seeds, and the pair wins: runs of the two sides are paired by
seed, and a pair is won by the side whose value is better in the metric's
direction (ties count for neither).  Each side also keeps the run record
its files carry (machine, library versions, BLAS threads), split into the
fields all its runs share and the per-run ones.

``--noise`` adds the same comparison of PARENT_DIR against a second set of
parent runs, as the noise floor.  Nothing under ``bench/`` is written:
``load`` and ``quartiles`` are imported from ``bench/compare.py`` by path.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _compare():
    sys.path.insert(0, str(BENCH))  # compare.py imports spec from its own folder
    found = importlib.util.spec_from_file_location("bench_compare", BENCH / "compare.py")
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module


compare = _compare()
METRICS = {m.name: m for m in compare.spec.END_TO_END + compare.spec.PER_LAYER}


def runs(directory) -> dict:
    """{(workload, trace): {seed: (metrics, record)}} of the result files in ``directory``."""
    files = sorted(Path(directory).glob("*.result.json"))
    if not files:
        raise SystemExit(f"no *.result.json files in {directory}")
    out: dict = {}
    for path in files:
        record = json.loads(path.read_text())["record"]
        for key, metrics in compare.load(str(path)).items():
            seeds = out.setdefault(key, {})
            if record["seed"] in seeds:
                raise SystemExit(f"{path}: seed {record['seed']} of {key[0]} appears twice")
            seeds[record["seed"]] = ({name: v[0] for name, v in metrics.items()}, record)
    return out


def _side(seeds: dict, name: str) -> dict:
    values = [metrics[name] for _, (metrics, _) in sorted(seeds.items()) if name in metrics]
    q1, q2, q3 = compare.quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "runs": len(values), "values": values}


def _record(seeds: dict) -> dict:
    """The run record fields every run shares, and the per-run rest by seed."""
    records = [record for _, (_, record) in sorted(seeds.items())]
    shared = {k: v for k, v in records[0].items() if all(r.get(k) == v for r in records)}
    per_run = {str(r["seed"]): {k: v for k, v in r.items() if k not in shared} for r in records}
    return {"shared": shared, "per_run": per_run}


def compare_sets(parent: dict, change: dict) -> dict:
    """The record of every workload and metric on both sides."""
    out = {}
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        a, b = parent[key], change[key]
        paired = sorted(a.keys() & b.keys())
        names = [{name for metrics, _ in side.values() for name in metrics} for side in (a, b)]
        metrics = {}
        for name in sorted(names[0] & names[1] & METRICS.keys()):
            m = METRICS[name]
            sign = 1.0 if m.better == "higher" else -1.0
            wins = losses = 0
            for seed in paired:
                gain = sign * (b[seed][0][name] - a[seed][0][name])
                wins += gain > 0
                losses += gain < 0
            pa, pb = _side(a, name), _side(b, name)
            change_of_median = ((pb["median"] - pa["median"]) / pa["median"]
                                if pa["median"] else None)
            metrics[name] = {
                "unit": m.unit,
                "better": m.better,
                "bound": m.bound,
                "parent": pa,
                "change": pb,
                "change_of_median": change_of_median,
                "pairs": len(paired),
                "wins": wins,
                "losses": losses,
            }
        out[f"{workload}/trace{trace}"] = {
            "seeds": {"parent": sorted(a), "change": sorted(b), "paired": paired},
            "record": {"parent": _record(a), "change": _record(b)},
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of the parent commit's result files")
    parser.add_argument("change", help="directory of the change's result files")
    parser.add_argument("--noise", help="a second directory of parent result files")
    parser.add_argument("--out", required=True, help="the record to write")
    args = parser.parse_args(argv)
    parent = runs(args.parent)
    record = {"pairs": compare_sets(parent, runs(args.change))}
    if args.noise:
        record["noise_floor"] = compare_sets(parent, runs(args.noise))
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
