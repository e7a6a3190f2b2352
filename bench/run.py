"""Benchmark command: run one workload and print its metrics.

    python3 bench/run.py --workload desk-table1 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout the script sits in.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs the traced pass and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with its run record, goes to ``.bench_out/``.

``--write-manifest`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def import_package():
    """Import rdsgls from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "rdsgls" / "__init__.py").is_file():
        raise ImportError(f"no rdsgls package under {src}")
    sys.path.insert(0, str(src))
    import rdsgls

    if Path(rdsgls.__file__).resolve().parent != (src / "rdsgls").resolve():
        raise ImportError(f"imported rdsgls from {rdsgls.__file__}, not from {src}")
    return rdsgls


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_record() -> dict:
    """BLAS builds from numpy's config and each loaded OpenBLAS's thread count."""
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in BLAS_THREAD_SYMBOLS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[f"{pkg.__name__}:{Path(path).name}"] = int(fn())
                    break
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
        "threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_record(args, design, ops: int) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "setups": design.setups,
        "cli_rounds_per_op": design.cli_rounds,
        "kernel_ref_s": design.kernel_ref_s,
        "ops": ops,
        "machine_settings": "none changed: no CPU pinning, frequency, cache or kernel setting "
                            "was touched; timings come from a shared machine",
    }


def load_reference(workload: str, seed: int, toy: bool):
    if not REFERENCE.is_file():
        return None
    key = workload + ("/toy" if toy else "")
    return json.loads(REFERENCE.read_text()).get(key, {}).get(str(seed))


def run_workload(args, design: spec.Design, tag: str) -> dict:
    """Run one workload; returns the full result with the run record."""
    import workloads
    from tracing import Tracer

    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(
        design=design,
        seed=args.seed,
        workdir=workdir,
        tracer=Tracer(enabled=bool(args.trace)),
        reference=load_reference(args.workload, args.seed, args.toy),
    )
    try:
        if args.trace:
            body = workloads.trace_pass(run, args.seconds)
        else:
            body = workloads.measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        run.tracer.write(OUT_DIR / f"{tag}.spans.json")
    tally = run.tally
    wanted = metrics_for(args)
    return {
        "correct": tally.wrong_outputs == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m.name: {"value": body["metrics"][m.name], "unit": m.unit} for m in wanted
        },
        "failed_share": tally.failed / max(tally.attempted, 1),
        "notes": tally.notes,
        "reference_checked": run.reference is not None,
        "computed": [m.name for m in wanted if m.computed],
        "unscaled": body.get("unscaled", {}),
        "samples": body.get("samples", {}),
        "record": run_record(args, design, body["ops"]),
    }


def metrics_for(args):
    return spec.PER_LAYER if args.trace else spec.END_TO_END


def print_summary(full: dict, wanted):
    record = full["record"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"ops {record['ops']} (sha {record['git_sha']}, {record['cpu_count']} cpus, "
          f"python {record['python']}, numpy {record['numpy']}, scipy {record['scipy']}, "
          f"blas {record['blas']['name']} threads {record['blas']['threads']})")
    for m in wanted:
        value = full["metrics"][m.name]["value"]
        label = "  (computed)" if m.computed else ""
        if m.name in full["unscaled"] and full["unscaled"][m.name] != value:
            label += f"  (unscaled {full['unscaled'][m.name]:.6g})"
        print(f"  {m.name:42s} {value:>16.6g} {m.unit}{label}")
    print(f"  {'failed_share':42s} {full['failed_share']:>16.6g} "
          f"({full['failed']} of {full['attempted']} operations)")
    if not full["reference_checked"]:
        print("  no reference outputs recorded for this seed; cross-checks only")
    for note in full["notes"]:
        print(f"  note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = spec.WORKLOADS[args.workload]
    design = workload.toy if args.toy else workload.full
    if design.blas_threads is not None:
        # read by OpenBLAS when numpy loads it, so it must be set before the import
        os.environ["OPENBLAS_NUM_THREADS"] = str(design.blas_threads)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}{'-toy' if args.toy else ''}-seed{args.seed}-trace{args.trace}"
    full = run_workload(args, design, tag)
    print_summary(full, metrics_for(args))
    (OUT_DIR / f"{tag}.result.json").write_text(json.dumps(full, indent=1) + "\n")
    line = {k: full[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
