"""Compare two sets of benchmark result files.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files (``.bench_out/*.result.json``) or directories
holding them, one file per run.  For every workload and metric present in
both, prints each side's median and quartiles over its runs and the change
of the median.  An end-to-end metric whose median got worse by more than
its bound in ``BENCHMARK.json`` is marked REGRESSION; one whose own spread
(quartile distance over median) on the base side exceeds the bound is
marked unresolved.  Exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import spec


def load(arg: str) -> dict:
    """{(workload, trace): {metric: [values]}} from files or directories."""
    path = Path(arg)
    files = sorted(path.glob("*.result.json")) if path.is_dir() else [path]
    out: dict = {}
    for f in files:
        result = json.loads(f.read_text())
        key = (result["record"]["workload"], result["record"]["trace"])
        for name, m in result["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    metrics = {m.name: m for m in spec.END_TO_END + spec.PER_LAYER}
    regressed = False
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        for name in base[key]:
            if name not in new[key] or name not in metrics:
                continue
            m = metrics[name]
            b1, b2, b3 = quartiles(base[key][name])
            n1, n2, n3 = quartiles(new[key][name])
            change = (n2 - b2) / b2 if b2 else float("nan")
            worse = change if m.better == "lower" else -change
            verdict = ""
            if m.bound is not None:
                spread = (b3 - b1) / b2 if b2 else float("nan")
                if worse > m.bound:
                    verdict, regressed = "REGRESSION", True
                elif spread > m.bound:
                    verdict = "unresolved"
            print(f"  {name:42s} base {b2:.6g} [{b1:.6g}, {b3:.6g}] "
                  f"new {n2:.6g} [{n1:.6g}, {n3:.6g}] {change:+.1%} {m.unit} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
