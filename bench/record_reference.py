"""Record the reference outputs the benchmark checks its first op against.

    python3 bench/record_reference.py --workload cli-large --seeds 0-31 [--toy]

For each seed: one set-up, then the outputs of op 0 (the first RMSE batch
and the command-line round), stored in ``bench/reference.json`` under the
workload name (``<name>/toy`` for toy sizes).  Record only from a commit
whose outputs are known good; the benchmark then flags any output that
moves by more than the tolerance in ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run as bench_run
import spec


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="'0-31' or one seed")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    bench_run.import_package()
    import workloads
    from tracing import Tracer

    workload = spec.WORKLOADS[args.workload]
    design = workload.toy if args.toy else workload.full
    key = args.workload + ("/toy" if args.toy else "")
    path = bench_run.REFERENCE
    reference = json.loads(path.read_text()) if path.is_file() else {}
    recorded = reference.setdefault(key, {})
    workdir = bench_run.OUT_DIR / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in parse_seeds(args.seeds):
            run = workloads.Run(design=design, seed=seed,
                                workdir=workdir, tracer=Tracer(enabled=False), reference=None)
            run.pop = workloads.setup(run, 0)
            table = workloads.run_batch(run, 0)[1] if design.sizes else None
            texts = workloads.cli_round(run, 0)[2]
            if run.tally.failed:
                print(f"seed {seed}: {run.tally.notes}", file=sys.stderr)
                return 1
            recorded[str(seed)] = workloads.summarize(workloads.rows_as_lists(table), texts)
            # written after every seed, so a long recording keeps what it has
            path.write_text(json.dumps(reference, sort_keys=True) + "\n")
            print(f"{key} seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
