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
from .estimators import ESTIMATORS, FGLS_FALLBACK_NOTE, apply_estimator
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
        if self.jobs < 1:
            raise InvalidParametersError(f"jobs must be >= 1, got {self.jobs}")
        if self.walk.target_n < max(self.sizes):
            raise InvalidParametersError("walk target_n must cover the largest size")
        if not (np.isfinite(self.preferential_weight) and self.preferential_weight > 0):
            raise InvalidParametersError(
                f"preferential_weight must be finite and positive, got {self.preferential_weight}"
            )
        if self.dcsbm is not None:
            num_blocks = self.dcsbm.num_blocks
        elif self.graph_blocks is not None:
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
            elif spec.kind != "bernoulli" and len(spec.values) != num_blocks:
                raise InvalidParametersError(
                    f"outcome {name!r}: {spec.kind} gives {len(spec.values)} values "
                    f"for {num_blocks} blocks"
                )


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


def _run_replicate(ctx: dict, r: int):
    """Estimates keyed by (estimator, n, outcome) for replicate ``r``, or None.

    Only ``mu_hat`` is kept, so no estimator computes its RSE.  ``ctx``
    holds the config, the sampling graph, the block labels and the outcome
    columns; the sampler reports contact counts of the sampling graph,
    whose sparsity pattern preferential reweighting leaves alone.
    """
    cfg = ctx["cfg"]
    try:
        sample, _ = rds_without_replacement(ctx["graph"], cfg.walk, cfg.base_seed + r)
    except SamplingFailedError:
        return None
    sample = sample.with_blocks(ctx["z"])
    results = {}
    for n in cfg.sizes:
        sub = sample.prefix(n)
        for out_name, yvec in ctx["outcomes"].items():
            labeled = sub.with_outcome(yvec)
            for est in cfg.estimators:
                results[(est, n, out_name)] = apply_estimator(est, labeled, rse=False).mu_hat
    return results


# the replicate context of a worker process, set once by its initializer
_worker_ctx: dict = {}


def _init_worker(ctx: dict):
    _worker_ctx.update(ctx)


def _run_worker_replicate(r: int):
    return _run_replicate(_worker_ctx, r)


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
    exhaust the restart budget are dropped and counted as failures.
    """
    graph, z, outcomes = _prepare_population(cfg)
    mu_true = {name: float(y.mean()) for name, y in outcomes.items()}
    ctx = {"cfg": cfg, "graph": graph, "z": z, "outcomes": outcomes}
    if cfg.jobs > 1:
        with ProcessPoolExecutor(
            max_workers=cfg.jobs, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            per_replicate = list(pool.map(_run_worker_replicate, range(cfg.replicates)))
    else:
        per_replicate = [_run_replicate(ctx, r) for r in range(cfg.replicates)]

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
    the harmonic mean.  The grey reference curve spans the default
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
            notes.append(f"{name}: no spectral point available")
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
