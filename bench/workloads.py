"""Set-up, timed closed loop and traced pass of the benchmark workloads.

Every workload draws a Table-1 blockmodel, keeps its largest component and
writes one referral sample CSV.  One loop iteration ("op") then runs, in
one process:

* for the experiment workloads, one ``run_rmse_experiment`` batch on the
  drawn graph (passed as ``graph=``, so the draw is not paid twice);
* on every workload, one command-line round on the sample: five
  ``rdsgls estimate`` calls and one ``rdsgls diagnose``, through
  ``rdsgls.cli.dispatch`` in-process.

The traced pass runs the same ops and then rebuilds each replicate and each
command from the public calls they make, with a span around each call, and
times the layers that are only reached inside an estimator as probe spans
on the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rdsgls import (
    AutoCovariance,
    ExperimentConfig,
    OutcomeSpec,
    RdsSample,
    ReferralTree,
    RmseRow,
    SamplingFailedError,
    SingularCovarianceError,
    WalkConfig,
    apply_estimator,
    build_sigma,
    dcsbm_sample,
    emit_diagnostics,
    fgls_reweight,
    gls_solve,
    lag_statistics,
    ranktwo_rse_curve,
    ranktwo_rse_value,
    rds_without_replacement,
    run_rmse_experiment,
    sbm_fgls,
    tree_distance_distribution,
)
from rdsgls import cli, fileio
from rdsgls.diagnostics import GREY_LINE_GRID
from rdsgls.presets import OFFSPRING_PRESETS, table1_dcsbm
from rdsgls.seeding import STREAM_OUTCOME, as_rng

import calibrate
import spec
from tracing import Tracer

EXPECTED_DEGREE = 30.0
# the outcome columns of the README's example config
OUTCOMES = {
    "aligned": OutcomeSpec("block_values", (1, 1, 0)),
    "correlated": OutcomeSpec("block_bernoulli", (0.7, 0.1, 0.9)),
    "uncorrelated": OutcomeSpec("bernoulli", (0.66,)),
}
SAMPLE_OUTCOME = "aligned"
# (estimator, reweight) of the five estimate calls of one command-line round
CLI_ESTIMATES = (
    ("mean", "none"), ("vh", "none"), ("auto", "vh"), ("delta", "vh"), ("sbm", "fgls"),
)
# `estimate --estimator sbm --reweight fgls` on the sample's blocks is sbm_z
CLI_SPAN = {"mean": "mean", "vh": "vh", "auto": "auto", "delta": "delta", "sbm": "sbm_z"}
PROBE_LAMBDA = 0.5
# within-block weight of the reweighting probe on non-preferential workloads
PROBE_WEIGHT = 10.0
PROBES_PER_BATCH = 5
# curve points kept in the reference file: every 20th of the 181-point grid
CURVE_STRIDE = 20


@dataclass
class Population:
    """What one set-up leaves behind for the loop."""

    graph: object  # largest component, unweighted
    z: np.ndarray
    sample_path: Path
    pairs_tested: int
    edges_kept: int


@dataclass
class Tally:
    """Operations attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    wrong_outputs: int = 0
    notes: list = field(default_factory=list)

    def mismatch(self, what: str, count: int = 1):
        """An output check failed: the op counts as failed and the run as incorrect."""
        self.failed += count
        self.wrong_outputs += 1
        self.notes.append(what)


def _walk(design: spec.Design, target_n: int) -> WalkConfig:
    return WalkConfig(
        offspring_pmf=tuple(OFFSPRING_PRESETS[design.offspring]),
        target_n=target_n,
        seed_rule="uniform",
    )


def pairs_tested(z: np.ndarray, B: np.ndarray) -> int:
    """Bernoulli trials dcsbm_sample draws: each block pair's full rectangle.

    A computed count for this commit's algorithm, which draws the whole
    square of every diagonal block and keeps the upper triangle.
    """
    sizes = np.bincount(z, minlength=B.shape[0]).astype(np.int64)
    total = 0
    for u in range(B.shape[0]):
        for v in range(u, B.shape[0]):
            if B[u, v] != 0:
                total += int(sizes[u] * sizes[v])
    return total


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


@dataclass
class Stats:
    """Counts taken at the layer boundaries of the traced pass."""

    draws: int = 0
    restarts: int = 0
    calls: int = 0
    fallbacks: int = 0
    builds: int = 0
    dense_bytes: int = 0

    def estimator_done(self, report, caught):
        self.calls += 1
        self.fallbacks += len(report.warnings)
        self.fallbacks += sum(issubclass(w.category, RuntimeWarning) for w in caught)

    def tree_done(self, tree):
        # the dense distance matrix is cached on the tree once built
        if "dist" in tree._cache:
            self.builds += 1
            self.dense_bytes += 2 * tree.n * tree.n


@dataclass
class Run:
    design: spec.Design
    seed: int
    workdir: Path
    tracer: Tracer
    reference: dict | None
    pop: Population | None = None
    tally: Tally = field(default_factory=Tally)
    first_outputs: dict | None = None
    drawn: set = field(default_factory=set)

    @property
    def primary_n(self) -> int:
        return max(self.design.sizes) if self.design.sizes else self.design.cli_n


# ------------------------------------------------------------------ set-up


def setup(run: Run, k: int, stats: Stats | None = None) -> Population:
    """Network draw, largest component, one referral sample written as CSV."""
    design, tracer, seed = run.design, run.tracer, run.seed
    weight = design.preferential_weight
    with tracer.span("bench.setup", op=f"setup-{k}"):
        params = table1_dcsbm(design.nodes, EXPECTED_DEGREE, rng_seed=seed)
        with tracer.span("netmodel.dcsbm_sample"):
            raw = dcsbm_sample(params, seed)
        with tracer.span("netmodel.largest_component"):
            graph, kept = raw.largest_component()
        z = params.z[kept]
        sampling = graph
        if weight != 1.0:
            with tracer.span("netmodel.reweighted_within_blocks"):
                sampling = graph.reweighted_within_blocks(z, weight)
        elif tracer.enabled:
            # probe: the same call a preferential workload makes
            with tracer.span("netmodel.reweighted_within_blocks"):
                graph.reweighted_within_blocks(z, PROBE_WEIGHT)
        y = OUTCOMES[SAMPLE_OUTCOME].realize(z, None)
        with tracer.span("sampler.rds_without_replacement", n=design.cli_n):
            sample, restarts = rds_without_replacement(
                sampling, _walk(design, design.cli_n), seed, y=y, blocks=z
            )
        path = run.workdir / "sample.csv"
        with tracer.span("fileio.write_sample"):
            fileio.write_sample(sample, path)
    if stats is not None:
        stats.draws += 1
        stats.restarts += restarts
    return Population(
        graph=graph,
        z=z,
        sample_path=path,
        pairs_tested=pairs_tested(params.z, params.B),
        edges_kept=int(raw.weights.nnz // 2),
    )


def setups(run: Run, ks, stats: Stats | None = None) -> list:
    """One set-up per k in ``ks``; returns the wall time of each.

    Every set-up draws the same graph; a different one is an output error.
    """
    times = []
    for k in ks:
        run.pop = None  # let the previous draw go before the next one
        t0 = time.perf_counter()
        run.pop = setup(run, k, stats)
        times.append(time.perf_counter() - t0)
        run.drawn.add((run.pop.pairs_tested, run.pop.edges_kept))
        if len(run.drawn) > 1:
            run.tally.mismatch(f"set-ups drew different graphs: {sorted(run.drawn)}")
    return times


# ------------------------------------------------------- one op, untraced


def batch_config(run: Run, b: int) -> ExperimentConfig:
    design = run.design
    return ExperimentConfig(
        outcomes={name: OUTCOMES[name] for name in design.outcomes},
        walk=_walk(design, max(design.sizes)),
        estimators=design.estimators,
        sizes=design.sizes,
        replicates=design.batch,
        base_seed=run.seed * 1_000_000 + b * design.batch,
        graph=run.pop.graph,
        graph_blocks=run.pop.z,
        preferential_weight=design.preferential_weight,
        jobs=design.jobs,
    )


def run_batch(run: Run, b: int):
    """One run_rmse_experiment call; returns (config, table, wall seconds)."""
    cfg = batch_config(run, b)
    with run.tracer.span("bench.rmse_batch", op=f"batch-{b}"):
        t0 = time.perf_counter()
        table = run_rmse_experiment(cfg)
        wall = time.perf_counter() - t0
    run.tally.attempted += cfg.replicates
    run.tally.failed += table.rows[0].failures
    return cfg, table, wall


def _dispatch(run: Run, argv: list, op: str):
    err = io.StringIO()
    with run.tracer.span("cli.dispatch", op=op, command=argv[0]):
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.dispatch(argv)
            wall = time.perf_counter() - t0
    run.tally.attempted += 1
    if code != 0:
        run.tally.failed += 1
        run.tally.notes.append(f"{' '.join(argv[:4])}: exit {code}: {err.getvalue().strip()}")
    return code, wall


def cli_round(run: Run, k: int):
    """Five estimate calls and one diagnose; returns (estimate s, diagnose s, texts)."""
    sample = str(run.pop.sample_path)
    op = f"sample-{k}"
    texts = {}
    estimate_s = 0.0
    for est, reweight in CLI_ESTIMATES:
        out = run.workdir / f"report-{est}.json"
        code, wall = _dispatch(
            run,
            ["estimate", "--sample", sample, "--estimator", est, "--reweight", reweight,
             "--out", str(out)],
            op,
        )
        estimate_s += wall
        texts[est] = out.read_text() if code == 0 else None
    out = run.workdir / "diagnostics.csv"
    code, diagnose_s = _dispatch(run, ["diagnose", "--sample", sample, "--out", str(out)], op)
    texts["diagnose"] = out.read_text() if code == 0 else None
    return estimate_s, diagnose_s, texts


# ---------------------------------------------------------- output checks


def summarize(rows, texts) -> dict:
    """The outputs compared against the reference: RMSE rows, mu_hat, diagnostics."""
    out = {"rows": rows, "mu_hat": {}, "points": None, "curve": None}
    for est, _ in CLI_ESTIMATES:
        if texts.get(est) is not None:
            out["mu_hat"][est] = json.loads(texts[est])["mu_hat"]
    if texts.get("diagnose") is not None:
        lines = list(csv.reader(io.StringIO(texts["diagnose"])))[1:]
        out["points"] = [[r[0], float(r[1]), float(r[2])] for r in lines if r[0] != "ranktwo_curve"]
        curve = [float(r[2]) for r in lines if r[0] == "ranktwo_curve"]
        out["curve"] = curve[::CURVE_STRIDE]
    return out


def _numbers(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)


def differences(got, want, path="") -> list:
    """Where got and want differ, numbers by more than the stated tolerance."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        if abs(got - want) <= spec.ABS_TOL + spec.REL_TOL * abs(want):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in differences(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list) and isinstance(got, (list, tuple)):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{path}/{i}")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check_op(run: Run, k: int, rows, texts):
    """Finite outputs; the first round against the reference; later rounds identical to it."""
    summary = summarize(rows, texts)
    if not all(math.isfinite(x) for x in _numbers(summary)):
        run.tally.mismatch(f"op {k}: non-finite output")
    if run.first_outputs is None:
        run.first_outputs = dict(texts)
        if run.reference is not None:
            for diff in differences(summary, run.reference)[:5]:
                run.tally.mismatch(f"op 0 differs from the reference: {diff}")
    elif texts != run.first_outputs:
        run.tally.mismatch(f"op {k}: command output differs from the first round's")
    return summary


def rows_as_lists(table) -> list | None:
    return [list(row) for row in table.to_csv_rows()] if table is not None else None


# ------------------------------------------------------------ untraced loop


def paced(seconds: float):
    """Op indices of a closed loop lasting about ``seconds``.

    Another op starts only while an op of the median length so far still
    ends before the deadline, so long ops do not overrun the run by most
    of an op.  The first op always runs.
    """
    deadline = time.perf_counter() + seconds
    durations = []
    k = 0
    while k == 0 or time.perf_counter() + _median(durations) <= deadline:
        t0 = time.perf_counter()
        yield k
        durations.append(time.perf_counter() - t0)
        k += 1


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(design: spec.Design, times: dict) -> dict:
    """The end-to-end timing metrics from the step times of one run."""
    if times["batch_s"]:
        throughput = design.batch / _median(times["batch_s"])
    else:
        throughput = 1.0 / _median(times["round_s"])
    return {
        "setup_s": _median(times["setup_s"]),
        "replicates_per_s": throughput,
        "estimate_s": _median(times["estimate_s"]),
        "diagnose_s": _median(times["diagnose_s"]),
    }


def measure(run: Run, seconds: float) -> dict:
    """The closed loop with tracing off; returns the end-to-end metrics.

    The loop runs on the first set-up's draw, and peak RSS is read before
    the remaining set-ups: like a user's run, it holds one network draw.
    Repeated draws leave heap fragments whose size varies by seed.

    Where the design names a kernel reference time, the calibration kernel
    runs after every op, and the loop's timing metrics are scaled by the
    run's slowdown against it.  ``setup_s`` and the raw values of every
    metric are returned unscaled.
    """
    ref_s = run.design.kernel_ref_s
    cal = calibrate.Calibration(ref_s) if ref_s else None
    times = {key: [] for key in ("batch_s", "estimate_s", "diagnose_s", "round_s")}
    times["setup_s"] = setups(run, range(1))
    k = 0
    for k in paced(seconds):
        table = None
        if run.design.sizes:
            _, table, wall = run_batch(run, k)
            times["batch_s"].append(wall)
        for _ in range(run.design.cli_rounds):
            e, d, texts = cli_round(run, k)
            times["estimate_s"].append(e)
            times["diagnose_s"].append(d)
            times["round_s"].append(e + d)
            check_op(run, k, rows_as_lists(table), texts)
        if cal:
            cal.tick()
    peak_rss = peak_rss_mb()
    times["setup_s"] += setups(run, range(1, run.design.setups))
    unscaled = end_to_end(run.design, times)
    unscaled["peak_rss_mb"] = peak_rss
    metrics = dict(unscaled)
    if cal:
        slowdown = cal.slowdown()
        metrics["replicates_per_s"] *= slowdown
        metrics["estimate_s"] /= slowdown
        metrics["diagnose_s"] /= slowdown
    return {
        "ops": k + 1,
        "samples": {**times, "kernel_s": cal.times if cal else []},
        "metrics": metrics,
        "unscaled": unscaled,
    }


# ------------------------------------------------------------- traced pass


def rebuild_replicate(run: Run, cfg, pop_state, seed: int, tracer: Tracer, stats: Stats):
    """One replicate from the public calls run_rmse_experiment makes.

    Returns (estimates keyed like run_rmse_experiment's, sample) or
    (None, None) when the sampler gives up.
    """
    sampling, contact, outcomes = pop_state
    with tracer.span("experiment.replicate", op=f"replicate-{seed}"):
        try:
            with tracer.span("sampler.rds_without_replacement", n=cfg.walk.target_n):
                sample, restarts = rds_without_replacement(sampling, cfg.walk, seed)
        except SamplingFailedError:
            return None, None
        stats.draws += 1
        stats.restarts += restarts
        with tracer.span("sampler.with_blocks"):
            sample = sample.with_blocks(run.pop.z)
        if contact is not None:
            with tracer.span("sampler.contact_degrees"):
                sample = RdsSample(
                    tree=sample.tree, node=sample.node,
                    degree=contact[sample.node], block=sample.block,
                )
        results = {}
        for n in cfg.sizes:
            with tracer.span("sampler.prefix", n=n):
                sub = sample.prefix(n)
            for out_name, y in outcomes.items():
                with tracer.span("sampler.with_outcome", n=n):
                    labeled = sub.with_outcome(y)
                for est in cfg.estimators:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        with tracer.span(f"estimators.{est}", n=n):
                            report = apply_estimator(est, labeled)
                    stats.estimator_done(report, caught)
                    results[(est, n, out_name)] = report.mu_hat
            stats.tree_done(sub.tree)
    return results, sample


def aggregate(cfg, per_replicate: list, mu_true: dict):
    """RMSE rows from per-replicate estimates, computed as run_rmse_experiment does."""
    estimates: dict = {}
    failures = sum(results is None for results in per_replicate)
    for results in per_replicate:
        for key, mu in (results or {}).items():
            estimates.setdefault(key, []).append(mu)
    rows = []
    for est in cfg.estimators:
        for n in cfg.sizes:
            for out_name in cfg.outcomes:
                vals = np.asarray(estimates.get((est, n, out_name), []))
                if vals.size == 0:
                    return None
                err = vals - mu_true[out_name]
                rows.append(RmseRow(
                    estimator=est, n=n, outcome=out_name,
                    rmse=float(np.sqrt(np.mean(err**2))),
                    bias=float(err.mean()),
                    sd=float(err.std(ddof=1)) if vals.size > 1 else 0.0,
                    replicates=int(vals.size),
                    failures=failures,
                ))
    return tuple(rows)


def probe(run: Run, sample: RdsSample, op: str, tracer: Tracer):
    """Time the layers reached only inside estimators, on a copy with a cold tree."""
    n = sample.n
    tree = ReferralTree(sample.tree.parent.copy())
    s = RdsSample(tree=tree, node=sample.node, degree=sample.degree,
                  outcome=sample.outcome, block=sample.block)
    with tracer.span("bench.probe", op=op):
        with tracer.span("referral.distance_matrix", n=n):
            tree.distance_matrix()
        with tracer.span("referral.tree_distance_distribution", n=n):
            tree_distance_distribution(tree)
        with tracer.span("estimators.lag_statistics", n=n):
            lag_statistics(s, 0.0)
        with tracer.span("diagnostics.ranktwo_rse_value", n=n):
            ranktwo_rse_value(tree, PROBE_LAMBDA)
        with tracer.span("diagnostics.ranktwo_rse_curve", n=n):
            ranktwo_rse_curve(tree, GREY_LINE_GRID)
        # the covariance the blockmodel estimator fitted, rebuilt from its report
        # (the leading constant term is left out: it does not move GLS weights)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reweighted = fgls_reweight(s, s.block)
            report = sbm_fgls(reweighted, s.block)
        ac = AutoCovariance(terms=tuple(zip(report.beta2, report.eigenvalues)),
                            nugget=report.nugget)
        with tracer.span("covariance.build_sigma", n=n):
            sigma = build_sigma(tree, ac)
        try:
            with tracer.span("covariance.gls_solve", n=n):
                gls_solve(sigma, reweighted.y)
        except SingularCovarianceError:
            run.tally.notes.append(f"{op}: probe covariance singular (not a failure)")


class Paired:
    """Times of the rebuilt work with tracing off and on, for the overhead."""

    def __init__(self):
        self.plain: list = []
        self.traced: list = []

    def overheads(self) -> list:
        return [t - p for p, t in zip(self.plain, self.traced)]


def traced_batch(run: Run, b: int, stats: Stats, paired: Paired, efficiency: list):
    tracer = run.tracer
    off = Tracer(enabled=False)
    cfg, table, wall = run_batch(run, b)
    # the population exactly as run_rmse_experiment prepares it
    rng = as_rng(cfg.base_seed, STREAM_OUTCOME)
    outcomes = {name: o.realize(run.pop.z, rng) for name, o in cfg.outcomes.items()}
    mu_true = {name: float(y.mean()) for name, y in outcomes.items()}
    sampling, contact = run.pop.graph, None
    if cfg.preferential_weight != 1.0:
        with tracer.span("netmodel.reweighted_within_blocks", op=f"batch-{b}"):
            sampling = run.pop.graph.reweighted_within_blocks(run.pop.z, cfg.preferential_weight)
        contact = np.diff(run.pop.graph.weights.indptr).astype(np.float64)
    state = (sampling, contact, outcomes)
    first_outcome = next(iter(outcomes.values()))
    probe_every = max(1, cfg.replicates // PROBES_PER_BATCH)
    per_replicate, serial = [], 0.0
    for r in range(cfg.replicates):
        seed = cfg.base_seed + r
        t0 = time.perf_counter()
        plain, _ = rebuild_replicate(run, cfg, state, seed, off, Stats())
        t1 = time.perf_counter()
        results, sample = rebuild_replicate(run, cfg, state, seed, tracer, stats)
        t2 = time.perf_counter()
        paired.plain.append(t1 - t0)
        paired.traced.append(t2 - t1)
        serial += t1 - t0
        if plain != results:
            run.tally.mismatch(f"replicate {seed}: traced and untraced rebuilds differ")
        per_replicate.append(results)
        if sample is not None and r % probe_every == 0:
            sub = sample.prefix(max(cfg.sizes)).with_outcome(first_outcome)
            probe(run, sub, f"replicate-{seed}", tracer)
    efficiency.append((serial, wall * cfg.jobs))
    if aggregate(cfg, per_replicate, mu_true) != table.rows:
        run.tally.mismatch(f"batch {b}: rebuilt replicates differ from run_rmse_experiment",
                           cfg.replicates)
    return table


def rebuild_round(run: Run, tracer: Tracer, stats: Stats, tag: str):
    """The command-line round from the public calls the commands make."""
    path = run.pop.sample_path
    n = run.design.cli_n
    texts = {}
    sample = None
    for est, reweight in CLI_ESTIMATES:
        out = run.workdir / f"rebuilt-{tag}-{est}.json"
        with tracer.span("bench.estimate", command=est):
            with tracer.span("fileio.read_sample", n=n):
                sample = fileio.read_sample(path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with tracer.span(f"estimators.{CLI_SPAN[est]}", n=n):
                    weighted = sample
                    if reweight == "vh":
                        inv = 1.0 / sample.degree
                        weighted = sample.with_outcome_values(
                            sample.y / (inv.mean() * sample.degree))
                    if reweight == "fgls":
                        with tracer.span("estimators.fgls_reweight", n=n):
                            weighted = fgls_reweight(sample)
                        with tracer.span("estimators.sbm_fgls", n=n):
                            report = sbm_fgls(weighted)
                    else:
                        report = cli.PLAIN_ESTIMATORS[est](weighted)
            stats.estimator_done(report, caught)
            stats.tree_done(sample.tree)
            with tracer.span("fileio.write_report", n=n):
                fileio.write_report(report, out)
        texts[est] = out.read_text()
    out = run.workdir / f"rebuilt-{tag}-diagnostics.csv"
    with tracer.span("bench.diagnose"):
        with tracer.span("fileio.read_sample", n=n):
            diag_sample = fileio.read_sample(path)
        with tracer.span("experiment.emit_diagnostics", n=n):
            dataset = emit_diagnostics(diag_sample)
        stats.fallbacks += len(dataset.warnings)
        stats.tree_done(diag_sample.tree)
        with tracer.span("fileio.write_diagnostics", n=n):
            fileio.write_diagnostics(dataset, out)
    texts["diagnose"] = out.read_text()
    return texts, sample


def traced_round(run: Run, k: int, stats: Stats, paired: Paired, dispatch_self: list):
    tracer = run.tracer
    _, _, texts = cli_round(run, k)
    dispatch_total = sum(s.duration for s in tracer.spans
                         if s.name == "cli.dispatch" and s.op == f"sample-{k}")
    t0 = time.perf_counter()
    plain, _ = rebuild_round(run, Tracer(enabled=False), Stats(), "plain")
    t1 = time.perf_counter()
    with tracer.span("bench.sample", op=f"sample-{k}"):
        rebuilt, sample = rebuild_round(run, tracer, stats, "traced")
    t2 = time.perf_counter()
    paired.plain.append(t1 - t0)
    paired.traced.append(t2 - t1)
    dispatch_self.append(dispatch_total - (t1 - t0))
    if not (texts == plain == rebuilt):
        run.tally.mismatch(f"sample round {k}: rebuilt calls differ from the commands")
    probe(run, sample, f"sample-{k}", tracer)
    return texts


def trace_pass(run: Run, seconds: float) -> dict:
    """Set-ups and the loop with spans; returns the per-layer metrics."""
    stats = Stats()
    setups(run, range(run.design.setups), stats)
    paired, efficiency, dispatch_self = Paired(), [], []
    ops = 0
    for k in paced(seconds):
        table = traced_batch(run, k, stats, paired, efficiency) if run.design.sizes else None
        texts = traced_round(run, k, stats, paired, dispatch_self)
        check_op(run, k, rows_as_lists(table), texts)
        ops = k + 1
    for err in run.tracer.nesting_errors()[:5]:
        run.tally.mismatch(f"trace: {err}")
    return {"ops": ops, "metrics": layer_metrics(run, stats, ops, paired, efficiency, dispatch_self)}


def layer_metrics(run: Run, stats: Stats, ops: int, paired: Paired, efficiency, dispatch_self):
    spans = run.tracer.spans
    n = run.primary_n

    def durations(name):
        return [s.duration for s in spans if s.name == name and s.attrs.get("n", n) == n]

    def med(name):
        return _median(durations(name))

    own = run.tracer.self_times()
    self_s = dict.fromkeys(spec.LAYERS, 0.0)
    for s, t in zip(spans, own):
        if s.layer in self_s and not s.op.startswith("setup-"):
            self_s[s.layer] += t
    pop = run.pop
    serial = sum(p for p, _ in efficiency)
    capacity = sum(c for _, c in efficiency)
    m = {
        "netmodel.dcsbm_sample_s": med("netmodel.dcsbm_sample"),
        "netmodel.reweighted_within_blocks_s": med("netmodel.reweighted_within_blocks"),
        "netmodel.pairs_tested": pop.pairs_tested,
        "netmodel.edges_kept": pop.edges_kept,
        "netmodel.edge_yield": pop.edges_kept / pop.pairs_tested,
        "sampler.rds_without_replacement_s": med("sampler.rds_without_replacement"),
        "sampler.rds_without_replacement_p90_s": _p90(durations("sampler.rds_without_replacement")),
        "sampler.restarts": stats.restarts / max(stats.draws, 1),
        "sampler.attempt_yield": stats.draws / (stats.draws + stats.restarts),
        "referral.distance_matrix_s": med("referral.distance_matrix"),
        "referral.distance_matrix_builds": stats.builds / ops,
        "referral.dense_bytes": stats.dense_bytes / ops,
        "referral.tree_distance_distribution_s": med("referral.tree_distance_distribution"),
        "covariance.build_sigma_s": med("covariance.build_sigma"),
        "covariance.gls_solve_s": med("covariance.gls_solve"),
        "covariance.solve_flops": n**3 / 3.0,
        "covariance.matrix_bytes": 8 * n * n,
        **{f"estimators.{e}_s": med(f"estimators.{e}") for e in spec.ALL_ESTIMATORS},
        "estimators.fgls_reweight_s": med("estimators.fgls_reweight"),
        "estimators.sbm_fgls_s": med("estimators.sbm_fgls"),
        "estimators.lag_statistics_s": med("estimators.lag_statistics"),
        "estimators.fallbacks": stats.fallbacks,
        "estimators.calls": stats.calls,
        "diagnostics.ranktwo_rse_value_s": med("diagnostics.ranktwo_rse_value"),
        "diagnostics.ranktwo_rse_curve_s": med("diagnostics.ranktwo_rse_curve"),
        "experiment.replicate_s": med("experiment.replicate"),
        "experiment.replicate_p90_s": _p90(durations("experiment.replicate")),
        "experiment.emit_diagnostics_s": med("experiment.emit_diagnostics"),
        "experiment.parallel_efficiency": serial / capacity if capacity else 0.0,
        "fileio.read_sample_s": med("fileio.read_sample"),
        "fileio.write_report_s": med("fileio.write_report"),
        "fileio.write_diagnostics_s": med("fileio.write_diagnostics"),
        "cli.dispatch_self_s": _median(dispatch_self),
        **{f"{layer}.self_s": self_s[layer] / ops for layer in spec.LAYERS if layer != "cli"},
        "trace.overhead_s": _median(paired.overheads()),
        "trace.spans": len(spans) / ops,
    }
    return m
