"""Monte Carlo experiment harness.

Reproduces the study designs at desk scale: exact variance-ratio tables
for the two-group chain on complete binary trees, replicated RMSE
comparisons across estimators on blockmodel or file-loaded networks, and
single-sample diagnostic datasets.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariance import one_sigma_inv_one_ranktwo
from .diagnostics import GREY_LINE_GRID, DiagnosticPoint, ranktwo_rse_curve
from .errors import InvalidParametersError, SamplingFailedError
from .estimators import ESTIMATORS, FGLS_FALLBACK_NOTE, JobBatch, apply_estimator, recipe_columns
from .netmodel import DcSbmParams, WeightedGraph, dcsbm_sample
from .presets import (
    outcome_bernoulli,
    outcome_block_bernoulli,
    outcome_block_values,
)
from .referral import complete_binary_distance_distribution
from .sampler import RdsSample, WalkConfig, rds_without_replacement
from .seeding import STREAM_OUTCOME, as_rng

# two-group chain facts: staying probability p gives eigenvalue 2p - 1,
# and a balanced 0/1 outcome has squared loading 1/4
TWO_GROUP_BETA2 = 0.25

OUTCOME_KINDS = ("block_values", "block_bernoulli", "bernoulli", "column")


@dataclass(frozen=True)
class OutcomeSpec:
    """How to synthesize one outcome column on the population.

    kinds: ``block_values`` (deterministic per block), ``block_bernoulli``
    (per-block rates), ``bernoulli`` (one global rate), ``column`` (the
    loaded attribute column named by the one value).
    """

    kind: str
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in OUTCOME_KINDS:
            raise InvalidParametersError(f"unknown outcome kind {self.kind!r}")
        if self.kind == "column":
            if len(self.values) != 1 or not self.values[0]:
                raise InvalidParametersError("column outcomes name one attribute column")
            return
        values = np.asarray(self.values, dtype=np.float64)
        if values.size == 0 or not np.all(np.isfinite(values)):
            raise InvalidParametersError(f"{self.kind} needs finite numeric values")
        if self.kind == "bernoulli" and values.size != 1:
            raise InvalidParametersError(f"bernoulli takes one rate, got {values.size}")
        if self.kind != "block_values" and not np.all((values >= 0) & (values <= 1)):
            raise InvalidParametersError(f"{self.kind} rates must lie in [0, 1]")

    def realize(self, z: np.ndarray, rng) -> np.ndarray:
        if self.kind == "block_values":
            return outcome_block_values(z, self.values)
        if self.kind == "block_bernoulli":
            return outcome_block_bernoulli(z, self.values, rng)
        if self.kind == "bernoulli":
            return outcome_bernoulli(len(z), self.values[0], rng)
        raise InvalidParametersError(f"cannot realize outcome kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a replicated RMSE run needs; exactly one network source."""

    outcomes: dict
    walk: WalkConfig
    estimators: tuple
    sizes: tuple
    replicates: int
    base_seed: int
    dcsbm: DcSbmParams | None = None
    graph: WeightedGraph | None = None
    graph_blocks: np.ndarray | None = None
    graph_outcomes: dict = field(default_factory=dict)
    preferential_weight: float = 1.0
    jobs: int = 1

    def __post_init__(self):
        if (self.dcsbm is None) == (self.graph is None):
            raise InvalidParametersError("provide exactly one of dcsbm or graph")
        if self.replicates < 1:
            raise InvalidParametersError("replicates must be >= 1")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise InvalidParametersError(f"unknown estimators: {sorted(unknown)}")
        if not self.sizes or min(self.sizes) < 1:
            raise InvalidParametersError(
                f"sizes must list one or more sample sizes >= 1, got {tuple(self.sizes)}"
            )
        for name in ("sizes", "estimators"):
            values = tuple(getattr(self, name))
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:  # each would add the same RMSE rows again
                raise InvalidParametersError(
                    f"{name} list {repeated[0]} twice: {' '.join(map(str, values))}")
        if self.jobs < 1:
            raise InvalidParametersError(f"jobs must be >= 1, got {self.jobs}")
        if self.walk.target_n < max(self.sizes):
            raise InvalidParametersError("walk target_n must cover the largest size")
        if not (np.isfinite(self.preferential_weight) and self.preferential_weight > 0):
            raise InvalidParametersError(
                f"preferential_weight must be finite and positive, got {self.preferential_weight}"
            )
        num_nodes = self.dcsbm.z.size if self.graph is None else self.graph.num_nodes
        if self.dcsbm is not None:
            num_blocks = self.dcsbm.num_blocks
        elif self.graph_blocks is not None:
            _check_node_values("graph_blocks", self.graph_blocks, num_nodes)
            num_blocks = int(np.max(self.graph_blocks)) + 1
        else:
            num_blocks = 1
        for name, spec in self.outcomes.items():
            if spec.kind == "column":
                if spec.values[0] not in self.graph_outcomes:
                    raise InvalidParametersError(
                        f"outcome {name!r}: the network has no attribute column "
                        f"{spec.values[0]!r}"
                    )
                _check_node_values(f"outcome {name!r} (attribute column {spec.values[0]!r})",
                                   self.graph_outcomes[spec.values[0]], num_nodes)
            elif spec.kind != "bernoulli" and len(spec.values) != num_blocks:
                raise InvalidParametersError(
                    f"outcome {name!r}: {spec.kind} gives {len(spec.values)} values "
                    f"for {num_blocks} blocks"
                )


def _check_node_values(what: str, values, num_nodes: int):
    """Raise unless ``values`` is one finite number per network node; name the first bad node."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < num_nodes:
        raise InvalidParametersError(f"{what} has no value for node {values.size} "
                                     f"of the {num_nodes}-node network")
    if values.size > num_nodes:
        raise InvalidParametersError(f"{what} has {values.size} values for the "
                                     f"{num_nodes}-node network; node {num_nodes} does not exist")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidParametersError(f"{what} is not finite at node {bad[0]}")


@dataclass(frozen=True)
class RmseRow:
    estimator: str
    n: int
    outcome: str
    rmse: float
    bias: float
    sd: float
    replicates: int
    failures: int


@dataclass(frozen=True)
class RmseTable:
    rows: tuple
    mu_true: dict

    def to_csv_rows(self):
        for r in self.rows:
            yield (r.estimator, r.n, r.outcome, r.rmse, r.bias, r.sd, r.replicates, r.failures)


def figure1_ratio(p_values, levels) -> list:
    """Exact GLS-to-mean variance ratios for the two-group chain.

    One row per (staying probability, tree size): the GLS variance comes
    from the closed-form quadratic form, the mean's variance from the
    distance PGF of the complete binary tree.  Ratios below one mean GLS
    wins; past the growth threshold the mean's variance stops decaying
    and the ratio falls toward zero.
    """
    levels = list(levels)
    if not levels:
        raise InvalidParametersError("levels must list one or more tree sizes")
    rows = []
    for L in levels:
        dist = complete_binary_distance_distribution(L)
        n = dist.n
        for p in p_values:
            if not 0.5 < p < 1:
                raise InvalidParametersError("p must lie in (1/2, 1)")
            lam = 2.0 * p - 1.0
            var_gls = 1.0 / one_sigma_inv_one_ranktwo(n, TWO_GROUP_BETA2, lam)
            var_mean = TWO_GROUP_BETA2 * float(dist.pgf_grid(np.array([lam]))[0])
            rows.append(
                {
                    "p": p,
                    "levels": L,
                    "n": n,
                    "var_gls": var_gls,
                    "var_mean": var_mean,
                    "ratio": var_gls / var_mean,
                }
            )
    return rows


# most replicates per chunk, serial or pooled: enough that each blockmodel
# stage of a chunk sweeps dozens of trees at once, few enough to keep little
# alive; a pooled run cuts smaller chunks when that gives each worker several
CHUNK_REPLICATES = 16


def _run_chunk(ctx: dict, reps) -> list:
    """Estimates keyed by (estimator, n, outcome) for each replicate of ``reps``, or None.

    Each replicate draws its own sample (seed ``base_seed + r``); one that
    exhausts its restarts gives None.  Then each estimator runs once on
    every (replicate, size) prefix of the chunk, whose outcome columns are
    one array gathered from the stacked population columns (``_estimate``),
    so each blockmodel stage is one forest sweep per term count for the
    whole chunk.  Only the estimates are read, so no report is built and no
    RSE computed; they are the one-column bits.  A chunk that
    raises runs again one prefix at a time, and so raises what the
    replicate-by-replicate loop raises first.  ``ctx`` holds the config,
    the sampling graph, the block labels and the outcome columns by name;
    the sampler reports contact counts of the sampling graph, whose
    sparsity pattern preferential reweighting leaves alone.
    """
    cfg, Y = ctx["cfg"], np.array(list(ctx["outcomes"].values()))  # Y: (outcomes, N)
    samples = []
    for r in reps:
        try:
            sample, _ = rds_without_replacement(ctx["graph"], cfg.walk, cfg.base_seed + r)
        except SamplingFailedError:
            samples.append(None)
            continue
        samples.append(sample.with_blocks(ctx["z"]))
    jobs = []  # (replicate within the chunk, n, (prefix, its (outcomes, n) columns))
    for i, sample in enumerate(samples):
        if sample is None:
            continue
        for n in cfg.sizes:
            sub = sample.prefix(n)
            jobs.append((i, n, (sub, Y.take(sub.node, axis=1))))
    try:
        estimates = _estimate(ctx, jobs)
    except Exception:
        # whatever it was, the prefix-by-prefix run re-raises the error
        # that the replicate-by-replicate loop meets first
        if len(jobs) < 2:
            raise
        estimates = [mu for job in jobs for mu in _estimate(ctx, [job])]
    results = [None if sample is None else {} for sample in samples]
    for (i, _, _), mu in zip(jobs, estimates):
        results[i].update(mu)
    return results


def _estimate(ctx: dict, jobs: list) -> list:
    """Each job's estimates keyed by (estimator, n, outcome); each estimator runs
    once, and ``auto`` and ``delta`` share one ``vh`` reweighting, which is
    dropped after the last estimator that uses it."""
    estimates = [{} for _ in jobs]
    batch = JobBatch(job for _, _, job in jobs)
    steps = {est: (ESTIMATORS[est].reweight, ESTIMATORS[est].labels)
             for est in ctx["cfg"].estimators}
    last = {step: est for est, step in steps.items()}
    for est, step in steps.items():
        mu = iter(recipe_columns(ESTIMATORS[est], batch, rse=False).mu.tolist())
        if last[step] == est:
            del batch.reweighted[step]
        for out, (_, n, _) in zip(estimates, jobs):
            for out_name in ctx["outcomes"]:
                out[(est, n, out_name)] = next(mu)
    return estimates


# the replicate context of a worker process, set once by its initializer
_worker_ctx: dict = {}


def _init_worker(ctx: dict):
    _worker_ctx.update(ctx)


def _run_worker_chunk(reps) -> list:
    return _run_chunk(_worker_ctx, reps)


def _chunks(replicates: int, jobs: int) -> list:
    """The replicate ranges of a run, in order.

    Serial runs take ``CHUNK_REPLICATES`` at a time.  Pooled runs take at
    most that, and fewer if needed to give each worker about four chunks:
    slow-law replicates restart and vary in cost, so one chunk per worker
    would leave workers idle behind the slowest.
    """
    size = CHUNK_REPLICATES if jobs == 1 else min(CHUNK_REPLICATES, -(-replicates // (4 * jobs)))
    return [range(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]


def _prepare_population(cfg: ExperimentConfig):
    """Sampling graph, labels, and realized outcome columns on the sampled frame.

    Preferential runs sample on the graph with same-block edges reweighted.
    """
    if cfg.dcsbm is not None:
        raw = dcsbm_sample(cfg.dcsbm, cfg.base_seed)
        graph, kept = raw.largest_component()
        z = cfg.dcsbm.z[kept]
    else:
        graph, kept = cfg.graph.largest_component()
        z = (
            cfg.graph_blocks[kept]
            if cfg.graph_blocks is not None
            else np.zeros(graph.num_nodes, dtype=np.int64)
        )
    rng = as_rng(cfg.base_seed, STREAM_OUTCOME)
    outcomes = {}
    for name, spec in cfg.outcomes.items():
        if spec.kind == "column":
            column = cfg.graph_outcomes[spec.values[0]]
            outcomes[name] = np.asarray(column, dtype=np.float64)[kept]
        else:
            outcomes[name] = spec.realize(z, rng)
    if cfg.preferential_weight != 1.0:
        graph = graph.reweighted_within_blocks(z, cfg.preferential_weight)
    return graph, z, outcomes


def run_rmse_experiment(cfg: ExperimentConfig) -> RmseTable:
    """Replicated estimator comparison against the frame truth.

    One population per config; per replicate one full-size referral sample,
    reused for every smaller size by prefix truncation.  Replicates that
    exhaust the restart budget are dropped and counted as failures.  The
    replicates run in chunks (``_chunks``, ``_run_chunk``), in this process
    or, with ``jobs > 1``, in a pool of no more workers than chunks; the
    chunks come back in order, so the rows and the first error raised are
    the serial run's.
    """
    graph, z, outcomes = _prepare_population(cfg)
    mu_true = {name: float(y.mean()) for name, y in outcomes.items()}
    ctx = {"cfg": cfg, "graph": graph, "z": z, "outcomes": outcomes}
    chunks = _chunks(cfg.replicates, cfg.jobs)
    workers = min(cfg.jobs, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            per_chunk = list(pool.map(_run_worker_chunk, chunks))
    else:
        per_chunk = [_run_chunk(ctx, reps) for reps in chunks]
    per_replicate = [results for chunk in per_chunk for results in chunk]

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
                    raise SamplingFailedError(
                        "every replicate failed to sample", failures, 0
                    )
                err = vals - mu_true[out_name]
                bias = float(err.mean())
                sd = float(err.std(ddof=1)) if vals.size > 1 else 0.0
                rmse = float(np.sqrt(np.mean(err**2)))
                rows.append(
                    RmseRow(
                        estimator=est,
                        n=n,
                        outcome=out_name,
                        rmse=rmse,
                        bias=bias,
                        sd=sd,
                        replicates=int(vals.size),
                        failures=failures,
                    )
                )
    return RmseTable(rows=tuple(rows), mu_true=mu_true)


# the estimators that fit a covariance: every one that reweights first
_FITTED = tuple(name for name, recipe in ESTIMATORS.items() if recipe.reweight != "none")


@dataclass(frozen=True)
class DiagnosticDataset:
    """Point cloud plus reference curve for one sample's diagnostic plot.

    ``warnings`` holds the reweighting fallback notes, then one note per
    estimator that gave no point.
    """

    points: tuple
    grey_grid: np.ndarray
    grey_rse: np.ndarray
    warnings: tuple


def emit_diagnostics(sample: RdsSample) -> DiagnosticDataset:
    """Diagnostic dataset from a single labeled sample.

    One point per estimated eigenvalue: one each for the two single-term
    estimators, one per non-leading eigenvalue for each blockmodel
    estimator (outcome blocks and demographic blocks).  Estimator failures
    downgrade to notes, after the notes of reweightings that fell back to
    the harmonic mean; an estimator that gives no point adds its report's
    own notes to say why.  The grey reference curve spans the default
    eigenvalue grid.
    """
    fallbacks = []
    notes = []
    points = []
    n = sample.n
    for name in _FITTED:
        try:
            report = apply_estimator(name, sample)
        except Exception as exc:  # per-point downgrade by design
            notes.append(f"{name}: {exc}")
            continue
        fallbacks.extend(note for note in report.warnings if note == FGLS_FALLBACK_NOTE)
        if report.rse is None or not report.eigenvalues:
            own = [note for note in report.warnings if note != FGLS_FALLBACK_NOTE]
            notes.append(": ".join([f"{name}: no spectral point available", *own]))
            continue
        for lam in report.eigenvalues:
            points.append(
                DiagnosticPoint(estimator=name, lambda_hat=float(lam), rse=report.rse, n=n)
            )
    grey = ranktwo_rse_curve(sample.tree, GREY_LINE_GRID)
    return DiagnosticDataset(
        points=tuple(points),
        grey_grid=GREY_LINE_GRID.copy(),
        grey_rse=grey,
        warnings=tuple(fallbacks + notes),
    )
