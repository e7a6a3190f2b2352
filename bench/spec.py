"""What the benchmark measures: workloads, metrics, bounds and tolerances.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --write-manifest``), so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 30

# Reference outputs (RMSE rows, report mu_hat values, diagnostic points) may
# differ from the recorded ones by at most ABS_TOL + REL_TOL * |reference|.
# Wide enough for a solver change that moves results at the 1e-8 level,
# tight enough to catch a changed estimator.
REL_TOL = 1e-6
ABS_TOL = 1e-9


@dataclass(frozen=True)
class Design:
    """Sizes of one workload at one scale.

    ``sizes`` empty means the workload runs no replicated experiment, only
    the command-line round on its one sample.
    """

    nodes: int
    offspring: str
    cli_n: int
    # set-ups per run; setup_s is their median
    setups: int = 5
    # command-line rounds per op: the short n = 500 rounds need more
    # samples per run for a steady median
    cli_rounds: int = 3
    preferential_weight: float = 1.0
    sizes: tuple = ()
    outcomes: tuple = ()
    estimators: tuple = ()
    batch: int = 0
    jobs: int = 1
    # OpenBLAS threads; None keeps the library default (one per core).  The
    # n = 500 workloads use one: their solves gain nothing from a second
    # thread, and with two, a thread waiting on the shared second core made
    # the command timings swing by up to 30% between identical runs.
    blas_threads: int | None = None
    # median seconds of one calibration-kernel pass (calibrate.Kernel) on the
    # machine the bounds were set on; the loop's timings are scaled to that
    # speed.  None leaves them unscaled.
    kernel_ref_s: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Design
    toy: Design


# Median seconds of one calibration-kernel pass with one BLAS thread on the
# shared 2-core machine the bounds were set on (150 passes; quartiles 0.095
# and 0.109).  The experiment workloads scale their loop timings to it:
# their replicate and command timings follow the kernel as the machine's
# speed drifts.  cli-large's dense work at n = 5,000 with two BLAS threads,
# and the set-ups, do not follow it, so they report raw times.
KERNEL_REF_S = 0.1

ALL_ESTIMATORS = ("mean", "vh", "auto", "delta", "sbm_y", "sbm_z")
README_OUTCOMES = ("aligned", "correlated", "uncorrelated")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-table1",
            why=(
                "Table-1 blockmodel N=5000, fast law, 3 outcomes, n=100/500, six "
                "estimators, serial, plus n=500 CLI rounds: the acceptance design; one "
                "distance matrix per tree feeds 18 estimator calls"
            ),
            full=Design(
                nodes=5000, offspring="fast", cli_n=500, sizes=(100, 500),
                outcomes=README_OUTCOMES, estimators=ALL_ESTIMATORS, batch=5,
                blas_threads=1, kernel_ref_s=KERNEL_REF_S,
            ),
            toy=Design(
                nodes=600, offspring="fast", cli_n=60, sizes=(30, 60),
                outcomes=README_OUTCOMES, estimators=ALL_ESTIMATORS, batch=2,
                kernel_ref_s=KERNEL_REF_S,
            ),
        ),
        Workload(
            name="pref-slow",
            why=(
                "slow law with restarts, preferential weight 10, mean+vh at n=500, 2 "
                "workers: replicates are sampler and pool work that covariance changes "
                "should not move; plus n=500 CLI rounds"
            ),
            full=Design(
                nodes=5000, offspring="slow", cli_n=500, preferential_weight=10.0,
                sizes=(500,), outcomes=("aligned",), estimators=("mean", "vh"),
                batch=100, jobs=2, blas_threads=1, kernel_ref_s=KERNEL_REF_S,
            ),
            toy=Design(
                nodes=600, offspring="slow", cli_n=60, preferential_weight=10.0,
                sizes=(60,), outcomes=("aligned",), estimators=("mean", "vh"),
                batch=8, jobs=2, kernel_ref_s=KERNEL_REF_S,
            ),
        ),
        Workload(
            name="cli-large",
            why=(
                "CLI estimate x5 and diagnose on one n=5000 sample from an N=20000 "
                "blockmodel: cold tree cache each call, dense distance, covariance and "
                "Cholesky work at scale"
            ),
            full=Design(nodes=20000, offspring="fast", cli_n=5000, setups=3, cli_rounds=1),
            toy=Design(nodes=1500, offspring="fast", cli_n=200, setups=3, cli_rounds=1),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    computed: bool = False

    def manifest(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


# Identical runs on a shared 2-core machine differ by 10-30%, so the time
# bounds sit at the largest allowed share; peak RSS repeats to 0.1%.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("replicates_per_s", "1/s", "higher", 0.25),
    Metric("estimate_s", "s", "lower", 0.25),
    Metric("diagnose_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)


def _t(name):
    return Metric(name, "s", "lower")


def _count(name, better="lower", computed=False):
    return Metric(name, "count", better, computed=computed)


LAYERS = (
    "netmodel", "sampler", "referral", "covariance", "estimators",
    "diagnostics", "experiment", "fileio", "cli",
)

PER_LAYER = (
    _t("netmodel.dcsbm_sample_s"),
    _t("netmodel.reweighted_within_blocks_s"),
    _count("netmodel.pairs_tested", computed=True),
    _count("netmodel.edges_kept", "higher", computed=True),
    Metric("netmodel.edge_yield", "ratio", "higher"),
    _t("sampler.rds_without_replacement_s"),
    _t("sampler.rds_without_replacement_p90_s"),
    Metric("sampler.restarts", "1/replicate", "lower"),
    Metric("sampler.attempt_yield", "ratio", "higher"),
    _t("referral.distance_matrix_s"),
    Metric("referral.distance_matrix_builds", "1/op", "lower"),
    Metric("referral.dense_bytes", "B/op", "lower", computed=True),
    _t("referral.tree_distance_distribution_s"),
    _t("covariance.build_sigma_s"),
    _t("covariance.gls_solve_s"),
    Metric("covariance.solve_flops", "flop", "lower", computed=True),
    Metric("covariance.matrix_bytes", "B", "lower", computed=True),
    *(_t(f"estimators.{name}_s") for name in ALL_ESTIMATORS),
    _t("estimators.fgls_reweight_s"),
    _t("estimators.sbm_fgls_s"),
    _t("estimators.lag_statistics_s"),
    _count("estimators.fallbacks"),
    _count("estimators.calls", "higher"),
    _t("diagnostics.ranktwo_rse_value_s"),
    _t("diagnostics.ranktwo_rse_curve_s"),
    _t("experiment.replicate_s"),
    _t("experiment.replicate_p90_s"),
    _t("experiment.emit_diagnostics_s"),
    Metric("experiment.parallel_efficiency", "ratio", "higher"),
    _t("fileio.read_sample_s"),
    _t("fileio.write_report_s"),
    _t("fileio.write_diagnostics_s"),
    _t("cli.dispatch_self_s"),
    *(_t(f"{layer}.self_s") for layer in LAYERS if layer != "cli"),
    _t("trace.overhead_s"),
    Metric("trace.spans", "1/op", "lower"),
)


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }
