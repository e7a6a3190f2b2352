"""Point estimators for the stationary mean of a referral sample.

Ranges from the plain sample mean through degree-weighted estimators to
feasible GLS: covariances estimated from the sample itself, either via a
blockmodel plug-in over observed labels or via single-geometric-term fits
to lag statistics.  Every estimate runs one path, ``run_recipe``: divide
the outcomes by estimated sampling weights, then estimate.  A ``Recipe``
names the two steps, and ``ESTIMATORS`` names the recipes; the command
line builds its own from its flags.  The Vandermonde chain estimator,
whose variance certifies the 1/n rate, lives here too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .covariance import (
    AutoCovariance,
    printed_rse,
    tree_covariance_mass,
    tree_gls_solve_forest,
)
from .diagnostics import ranktwo_rse_value
from .errors import (
    InsufficientDepthError,
    InvalidParametersError,
    InvalidSampleError,
    MissingLabelError,
    ReducedSystemError,
    SingularCovarianceError,
)
from .netmodel import SpectralDecomp, beta_coefficients, normalized_spectrum
from .sampler import RdsSample, referral_counts

EIGENVALUE_CLAMP = 0.999
AUTO_GRID_POINTS = 401


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """One estimator's output plus the covariance ingredients it used."""

    estimator: str
    mu_hat: float
    eigenvalues: tuple = ()
    beta2: tuple = ()
    nugget: float = 0.0
    rse: float | None = None
    weights: np.ndarray | None = None
    n: int = 0
    K: int | None = None
    warnings: tuple = ()

    def __post_init__(self):
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            object.__setattr__(self, "weights", w)
            if not abs(w.sum() - 1.0) <= 1e-10:
                raise InvalidParametersError("report weights must sum to one")

    def to_dict(self) -> dict:
        """JSON-facing view (weights omitted)."""
        return {
            "estimator": self.estimator,
            "mu_hat": self.mu_hat,
            "eigenvalues": list(self.eigenvalues),
            "beta2": list(self.beta2),
            "nugget": self.nugget,
            "rse": self.rse,
            "n": self.n,
            "K": self.K,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class LagStatistics:
    """Sample moments over node pairs at tree distances 0, 1, 2.

    ``gamma0``/``gamma1`` are centered cross-products around the supplied
    center; ``delta1``/``delta2`` are mean squared differences, which need
    no center.  Pair sets are ordered, so ``counts[1] == 2 (n - 1)``.
    """

    gamma0: float
    gamma1: float
    delta1: float
    delta2: float
    counts: dict


def _mean_report(name: str, Y: np.ndarray, *notes: str, mu: float | None = None,
                 **fields) -> EstimateReport:
    """The sample mean of ``Y`` under equal weights, as estimator ``name`` reports it.

    ``mean_estimator`` and every fallback to the sample mean report through
    here.  ``notes`` become the report's warnings, ``mu`` (a constant
    outcome's own value) replaces the mean, and ``fields`` fill the other
    report fields.
    """
    n = len(Y)
    return EstimateReport(name, float(Y.mean()) if mu is None else mu,
                          weights=np.full(n, 1.0 / n), n=n, warnings=notes, **fields)


def mean_estimator(sample: RdsSample, *, rse: bool = True) -> EstimateReport:
    """Unweighted sample average, with equal weights and no warnings.

    It fits no covariance, so it reports no RSE and ignores ``rse``, which
    every estimator of a ``Recipe`` takes.  The estimators that fall back
    to the sample mean report it the same way, under their own name.
    """
    return _mean_report("mean", sample.y)


def _positive_degrees(sample: RdsSample) -> np.ndarray:
    deg = sample.degree
    if np.any(~np.isfinite(deg)) or np.any(deg <= 0):
        raise InvalidSampleError("reported degrees must be positive")
    return deg


def vh_estimator(sample: RdsSample, *, rse: bool = True) -> EstimateReport:
    """Degree-weighted mean normalized by the harmonic mean of reported degrees.

    Like ``mean_estimator`` it reports no RSE and ignores ``rse``.
    """
    Y = sample.y
    inv = 1.0 / _positive_degrees(sample)
    weights = inv / inv.sum()
    return EstimateReport(
        estimator="vh",
        mu_hat=float(weights @ Y),
        weights=weights,
        n=sample.n,
    )


def lag_statistics(sample: RdsSample, m: float) -> LagStatistics:
    """Centered products at lags 0-1 and squared differences at lags 1-2."""
    Y = sample.y
    n = sample.n
    if n < 3:
        raise InsufficientDepthError("lag-2 statistics need at least 3 nodes")
    tree = sample.tree
    parents = tree.parent[1:]
    kids = np.arange(1, n)
    resid = Y - m

    gamma0 = float(np.mean(resid**2))
    prod1 = resid[parents] * resid[kids]
    gamma1 = float(prod1.mean())
    delta1 = float(np.mean((Y[parents] - Y[kids]) ** 2))

    # distance-2 pairs: grandparent-grandchild plus siblings
    deep = kids[parents > 0]
    gp = tree.parent[parents[parents > 0]]
    gp_sq = np.sum((Y[deep] - Y[gp]) ** 2)
    gp_count = deep.size

    # siblings: per parent, c (c - 1) ordered pairs with squared differences
    # summing to 2 (c sum y^2 - (sum y)^2); bincount adds in node order,
    # which is np.sum's order for fewer than 8 terms
    y_kids = Y[kids]
    c = np.bincount(parents, minlength=n)
    s1 = np.bincount(parents, weights=y_kids, minlength=n)
    s2 = np.bincount(parents, weights=y_kids**2, minlength=n)
    wide = np.flatnonzero(c >= 8)
    if wide.size:
        # np.sum adds 8 or more terms pairwise: keep its order there
        by_parent = kids[np.argsort(parents, kind="stable")]
        ends = np.cumsum(c)
        for p in wide:
            yk = Y[by_parent[ends[p] - c[p] : ends[p]]]
            s1[p] = np.sum(yk)
            s2[p] = np.sum(yk**2)
    groups = c >= 2
    # float_power calls the C library's pow, as ** on a NumPy scalar does;
    # ** on an array multiplies, which rounds differently about once in 1,200
    terms = 2.0 * (c[groups] * s2[groups] - np.float_power(s1[groups], 2))
    sib_sq = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    sib_count = int(c @ (c - 1))
    d2_count = 2 * gp_count + sib_count
    if d2_count == 0:
        raise InsufficientDepthError("tree has no node pairs at distance 2")
    delta2 = float((2.0 * gp_sq + sib_sq) / d2_count)
    return LagStatistics(
        gamma0=gamma0,
        gamma1=gamma1,
        delta1=delta1,
        delta2=delta2,
        counts={0: n, 1: 2 * (n - 1), 2: d2_count},
    )


def _single_term_report(name: str, sample: RdsSample, lam: float, beta2: tuple, rse: bool):
    """GLS under one geometric covariance term, ``lam`` clamped to +/-0.999.

    The solve of Sigma x = 1 has the O(n) closed form proportional to
    1 - lam (deg - 1); the scale ``beta2`` drops out of the normalized
    weights and is only reported.
    """
    lam = float(min(max(lam, -EIGENVALUE_CLAMP), EIGENVALUE_CLAMP))
    tree = sample.tree
    x = 1.0 - lam * (tree.degrees - 1.0)
    weights = x / x.sum()
    return EstimateReport(
        estimator=name,
        mu_hat=float(weights @ sample.y),
        eigenvalues=(lam,),
        beta2=beta2,
        rse=ranktwo_rse_value(tree, lam) if rse else None,
        weights=weights,
        n=sample.n,
    )


def auto_fgls(sample: RdsSample, *, rse: bool = True) -> EstimateReport:
    """Single-term feasible GLS from the lag-1 autocorrelation.

    Scans a grid of centering values m, fits (beta2, lambda) from the
    centered lag statistics, runs GLS under that covariance, and keeps the
    m whose estimate is closest to itself (a relaxed fixed point).  Without
    ``rse`` the report carries no RSE.
    """
    Y = sample.y
    n = sample.n
    if n == 1:
        return _mean_report("auto", Y, "single-node sample")
    if np.all(Y == Y[0]):
        return _mean_report("auto", Y, "constant outcome; returned the constant", mu=float(Y[0]))
    tree = sample.tree
    parents = tree.parent[1:]
    kids = np.arange(1, n)
    grid = np.linspace(Y.min(), Y.max(), AUTO_GRID_POINTS)

    # gamma0(m) and gamma1(m) are quadratics in m
    sy2 = np.mean(Y**2)
    sy = np.mean(Y)
    g0 = sy2 - 2.0 * grid * sy + grid**2
    e_prod = np.mean(Y[parents] * Y[kids])
    e_sum = np.mean(Y[parents] + Y[kids])
    g1 = e_prod - grid * e_sum + grid**2

    lam = np.clip(g1 / g0, -EIGENVALUE_CLAMP, EIGENVALUE_CLAMP)
    # the single-term GLS at every grid point, with its weights' sums in closed form
    excess = tree.degrees - 1.0
    mu = (Y.sum() - lam * (excess @ Y)) / (n - lam * excess.sum())
    gap = np.abs(mu - grid)
    ok = np.isfinite(gap)
    if not ok.any():
        return _mean_report("auto", Y, "grid search failed; fell back to the sample mean")
    gap[~ok] = np.inf
    best = int(np.argmin(gap))
    return _single_term_report("auto", sample, lam[best], (float(g0[best]),), rse)


def delta_fgls(sample: RdsSample, *, rse: bool = True) -> EstimateReport:
    """Single-term feasible GLS from squared differences at lags 1 and 2.

    Needs no centering: the lag ratio of mean squared differences
    identifies lambda, and the overall scale cancels in the GLS weights.
    The denominator carries a 1/sqrt(n) smoothing term.  Without ``rse``
    the report carries no RSE.
    """
    n = sample.n
    if n == 1:
        return _mean_report("delta", sample.y, "single-node sample")
    stats = lag_statistics(sample, 0.0)
    lam = (stats.delta2 - stats.delta1) / (stats.delta1 + n**-0.5)
    return _single_term_report("delta", sample, lam, (), rse)


def _tree_gls(systems, rse: bool = True) -> list:
    """Estimate, weights and printed-variant RSE of each system, or None.

    A system ``(tree, ac, y, constant)`` is ``ac`` plus ``constant`` 11'
    with outcome ``y`` on ``tree``; the covariances share a term count and
    one forest sweep.  A system that is singular, or whose solve is
    refused, gives None: a forest that fails is solved again one system at
    a time, so every other system keeps its forest bits.  Without ``rse``
    each RSE is None and its covariance-mass sweep is skipped.
    """
    try:
        out = []
        for res, (tree, ac, _, c) in zip(tree_gls_solve_forest(systems), systems):
            n = tree.n
            mass = tree_covariance_mass(tree, ac) + c * n * n if rse else None
            out.append((res.estimate, res.weights,
                        printed_rse(res.variance, mass, n) if rse else None))
        return out
    except (SingularCovarianceError, InvalidParametersError):
        if len(systems) == 1:
            return [None]
        return [_tree_gls([system], rse)[0] for system in systems]


def qhat_spectrum(counts: np.ndarray):
    """Steps shared by every blockmodel plug-in: symmetrize, normalize, decompose.

    Returns ``(eigenvalues, U, D)`` with the leading eigenvalue first and
    D the row sums of the symmetrized referral matrix ``counts``.  The
    input scale is irrelevant: only relative referral frequencies matter.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise InvalidParametersError("referral matrix must be square")
    if counts.sum() <= 0:
        raise InvalidParametersError("referral matrix has no mass")
    sym = 0.5 * (counts + counts.T)
    D = sym.sum(axis=1)
    if D.min() <= 0:
        raise MissingLabelError("a block has no referrals in or out")
    _, vals, U = normalized_spectrum(sym, D)
    return vals, U, D


def sbm_fgls(
    sample: RdsSample, labels: np.ndarray | None = None, *, rse: bool = True
) -> EstimateReport:
    """Blockmodel feasible GLS over an observed partition.

    Pipeline: referral frequencies between blocks -> symmetrized,
    degree-normalized spectrum -> per-node eigenfunctions -> spectral
    loadings of the outcome -> plug-in autocovariance -> covariance with
    the outcome's sample variance as a diagonal regularizer -> GLS.

    Labels run over 0..max(labels); blocks never visited by the sample
    are dropped (with a warning).  Eigenvalues are clamped to +/-0.999
    before the covariance build so the solve stays definite.  Without
    ``rse`` the report carries no RSE.  This is the batch stage
    ``_blockmodel_gls_columns`` on one column.
    """
    return _blockmodel_gls_columns([(sample, sample.y, _block_labels(sample, labels))], rse)[0]


def _block_labels(sample: RdsSample, labels) -> np.ndarray:
    """``labels``, or the sample's own blocks, as one int64 label per node."""
    if labels is None:
        if sample.block is None:
            raise MissingLabelError("sample has no block labels")
        labels = sample.block
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != sample.n:
        raise InvalidParametersError("labels must cover every sampled node")
    return labels


def _block_spectrum(sample: RdsSample, labels: np.ndarray):
    """The outcome-free part of the blockmodel GLS over ``labels``.

    Returns ``(k_eff, notes, eigenvalues, f_hat)``: the number of visited
    blocks, the dropped-block note, the referral spectrum and the per-node
    eigenfunctions.  Depends on the tree and the labels only, so it is
    cached on the tree by the label bytes: the ``fgls`` reweighting and the
    blockmodel estimator that follows it share one spectrum.
    """
    key = ("spectrum", labels.tobytes())
    cache = sample.tree._cache
    if key in cache:
        return cache[key]
    n = sample.n
    notes = []
    K = int(labels.max()) + 1
    present = np.unique(labels)
    if present.min() < 0:
        raise MissingLabelError("block labels must be nonnegative")
    if present.size < K:
        dropped = sorted(set(range(K)) - set(present.tolist()))
        notes.append(f"dropped blocks with no visits: {dropped}")
    z = np.searchsorted(present, labels)
    k_eff = present.size

    qhat = referral_counts(sample._sharing(block=z), k_eff)
    # renormalize to the counts' own total (n - 1) / n: this can move the last
    # bit of an entry, and the recorded report digests include it
    qhat = qhat * ((n - 1) / n / qhat.sum())

    vals, U, D = qhat_spectrum(qhat)
    f_hat = U[z] / np.sqrt(D)[z][:, None]
    vals.flags.writeable = False
    f_hat.flags.writeable = False
    cache[key] = (k_eff, tuple(notes), vals, f_hat)
    return cache[key]


def _blockmodel_gls_columns(columns, rse: bool) -> list:
    """``sbm_fgls`` of each ``(sample, y, labels)`` column, one report per column.

    ``labels`` is already checked by ``_block_labels``, and the sample gives
    the tree, the degrees and nothing else.  Each column's loadings on its
    labels' spectrum make its plug-in covariance.  The columns whose
    covariances share a term count share one forest sweep, and a column
    whose covariance is refused or singular falls back to the sample mean
    alone.  Each report is the one-column call's, bit for bit.  Without
    ``rse`` the reports carry no RSE.
    """
    fields, forests = [], {}
    for i, (sample, Y, blocks) in enumerate(columns):
        if sample.n == 1:
            fields.append(None)
            continue
        k_eff, notes, vals, f_hat = _block_spectrum(sample, blocks)
        beta_hat = f_hat.T @ Y / sample.n
        # the leading eigenvalue is 1 by construction: its spectral term is a
        # multiple of the all-ones matrix, which leaves the GLS weights
        # untouched; clamping the rest keeps the solve definite
        lam = np.clip(vals[1:], -EIGENVALUE_CLAMP, EIGENVALUE_CLAMP)
        beta2 = beta_hat[1:] ** 2
        nugget = float(Y.var(ddof=1))
        fields.append((notes, {"eigenvalues": tuple(lam), "beta2": tuple(beta2),
                               "nugget": nugget, "K": k_eff}))
        try:
            # loadings or a nugget that overflow to inf are refused here; the
            # solve they would feed is singular
            ac = AutoCovariance(terms=tuple(zip(beta2, lam)), nugget=nugget)
        except (SingularCovarianceError, InvalidParametersError):
            continue
        system = (sample.tree, ac, Y, float(beta_hat[0] ** 2))
        forests.setdefault(len(ac.terms), []).append((i, system))
    solved = {}
    for members in forests.values():
        keys, systems = zip(*members)
        solved.update(zip(keys, _tree_gls(systems, rse)))
    reports = []
    for i, ((sample, Y, _), field) in enumerate(zip(columns, fields)):
        if field is None:
            reports.append(_mean_report("sbm", Y, "single-node sample"))
            continue
        notes, kw = field
        out = solved.get(i)
        if out is None:
            note = "estimated covariance was singular; fell back to the sample mean"
            reports.append(_mean_report("sbm", Y, *notes, note, **kw))
            continue
        mu, weights, rse_value = out
        reports.append(EstimateReport("sbm", mu, rse=rse_value, weights=weights,
                                      n=sample.n, warnings=notes, **kw))
    return reports


def oracle_gls(sample: RdsSample, spec: SpectralDecomp, y: np.ndarray) -> EstimateReport:
    """GLS under the exact walk covariance (simulation-only reference).

    Builds the true autocovariance from the population spectrum and the
    outcome's spectral loadings, then solves the same system the feasible
    estimators approximate.  A non-finite outcome at a sampled node raises
    ``InvalidSampleError``.
    """
    n = sample.n
    Y = sample.with_outcome(y).y
    beta = beta_coefficients(y, spec)
    ac = AutoCovariance.from_spectrum(beta, spec.eigenvalues)
    if n == 1:
        return _mean_report("oracle_gls", Y, "single-node sample")
    (out,) = _tree_gls([(sample.tree, ac, Y, 0.0)])
    terms = {"eigenvalues": tuple(lam for _, lam in ac.terms),
             "beta2": tuple(b2 for b2, _ in ac.terms)}
    if out is None:
        note = "exact covariance singular (outcome spectrally flat); used the mean"
        return _mean_report("oracle_gls", Y, note, **terms)
    mu, weights, rse = out
    return EstimateReport("oracle_gls", mu, rse=rse, weights=weights, n=n, **terms)


FGLS_FALLBACK_NOTE = (
    "GLS estimate of the inverse-degree mean was not positive; "
    "using the harmonic mean instead"
)


def _reweighted(policy: str, columns: list, labels) -> tuple:
    """The reweight step of ``run_recipe`` on a flat list of ``(sample, y)`` columns.

    Returns one ``(sample, y / weights, blocks)`` per column, ``blocks`` its
    ``fgls`` block labels (else None), and one note tuple per column:
    ``(FGLS_FALLBACK_NOTE,)`` where the harmonic mean took over.  Columns
    are checked in turn as their one-column runs check them (``fgls``:
    ``labels``, a sample's degrees the first time it is seen, the blocks).
    Each sample's inverse degrees are computed once, and their ``fgls``
    normalizer once per distinct (sample, label set), all by one blockmodel
    call and not cached.  A reweighted value that overflows raises.
    """
    if policy == "none":
        return [(sample, y, None) for sample, y in columns], [()] * len(columns)
    if policy not in ("vh", "fgls"):
        raise InvalidParametersError(f"unknown reweighting {policy!r}")
    invs, blocks = {}, []
    for sample, y in columns:
        raw = None if labels is None or policy == "vh" else labels(sample.with_outcome_values(y))
        if id(sample) not in invs:
            invs[id(sample)] = 1.0 / _positive_degrees(sample)
        blocks.append(_block_labels(sample, raw) if policy == "fgls" else None)
    if policy == "vh":
        keys = [id(sample) for sample, _ in columns]
        scales = {key: (inv.mean(), ()) for key, inv in invs.items()}
    else:
        keys = [(id(sample), b.tobytes()) for (sample, _), b in zip(columns, blocks)]
        distinct = {key: (sample, invs[key[0]], b)
                    for key, (sample, _), b in zip(keys, columns, blocks)}
        scales = {}
        for key, report in zip(distinct, _blockmodel_gls_columns(list(distinct.values()), False)):
            h_inv = report.mu_hat
            scales[key] = ((h_inv, ()) if np.isfinite(h_inv) and h_inv > 0
                           else (float(invs[key[0]].mean()), (FGLS_FALLBACK_NOTE,)))
    weighted = [(sample, y / (scales[key][0] * sample.degree), b)
                for (sample, y), key, b in zip(columns, keys, blocks)]
    if not all(np.isfinite(w).all() for _, w, _ in weighted):
        raise InvalidSampleError("outcomes must be finite")
    return weighted, [scales[key][1] for key in keys]


def reweight(sample: RdsSample, policy: str, labels: np.ndarray | None = None) -> RdsSample:
    """Outcomes divided by estimated sampling weights, the first step of every estimator.

    ``none`` leaves the sample as it is.  ``vh`` divides by the reported
    degrees normalized by their harmonic mean, so the plain mean of the
    result is the VH estimate.  ``fgls`` estimates that normalizer (the
    stationary mean of 1/degree) by the blockmodel GLS on the inverse
    degrees over ``labels`` (default: the sample's blocks); if that
    estimate is not positive the plain harmonic mean takes over, with a
    ``RuntimeWarning`` on every such call (``run_recipe`` carries that note
    in the report instead).  Both reject non-positive degrees.  This is the
    reweight step of ``run_recipe`` on one column.
    """
    if policy == "none":
        return sample
    ((_, y, _),), (notes,) = _reweighted(policy, [(sample, sample.y)], lambda _: labels)
    for note in notes:
        warnings.warn(note, RuntimeWarning, stacklevel=2)
    return sample.with_outcome_values(y)


def fgls_reweight(sample: RdsSample, labels: np.ndarray | None = None) -> RdsSample:
    """``reweight(sample, "fgls", labels)``."""
    return reweight(sample, "fgls", labels)


def _encode_outcome_blocks(sample: RdsSample) -> np.ndarray:
    """Block labels from the distinct outcome values, in sorted order."""
    uniq = np.unique(sample.y)
    if uniq.size > 32:
        raise InvalidParametersError("outcome takes too many distinct values to define blocks")
    return np.searchsorted(uniq, sample.y)


class Recipe(NamedTuple):
    """An estimator as ``run_recipe`` runs it: reweight the outcomes, then estimate.

    ``reweight`` names a policy of ``reweight``; ``estimate`` takes the
    reweighted sample and a keyword-only ``rse``.  ``labels`` maps a sample
    to the block labels of the ``fgls`` reweighting, which a blockmodel
    estimator then uses too; without it both use the sample's own blocks.
    """

    reweight: str
    estimate: Callable[..., EstimateReport]
    labels: Callable[[RdsSample], np.ndarray] | None = None


ESTIMATORS = {
    "mean": Recipe("none", mean_estimator),
    "vh": Recipe("none", vh_estimator),
    "auto": Recipe("vh", auto_fgls),
    "delta": Recipe("vh", delta_fgls),
    "sbm_y": Recipe("fgls", sbm_fgls, _encode_outcome_blocks),
    "sbm_z": Recipe("fgls", sbm_fgls),
}
REWEIGHTINGS = tuple(dict.fromkeys(recipe.reweight for recipe in ESTIMATORS.values()))


def run_recipe(recipe: Recipe, sample: RdsSample, columns=None, *, rse: bool = True) -> list:
    """Reweight, then estimate: the one path of every estimate, one report per column.

    Runs on the sample's own outcome, or once per outcome column of
    ``columns``.  The reweighting's
    note comes first in a report's ``warnings``; nothing is warned.
    Without ``rse`` the estimators that fit a covariance report no RSE and
    skip its work; every other field and the weights are the same bits.
    A column that is singular falls back alone, and a column that raises
    raises what it raises on its own.  This is the batch of one job of
    ``run_recipe_batch``.
    """
    return run_recipe_batch(recipe, [(sample, columns)], rse=rse)[0]


def run_recipe_batch(recipe: Recipe, jobs, *, rse: bool = True) -> list:
    """``run_recipe`` of each ``(sample, columns)`` job, one list of reports per job.

    Every report equals its job's own ``run_recipe`` report bit for bit.
    The columns of all jobs travel as one flat list of ``(sample, y)``
    pairs, each job's taken from one C-contiguous (m, n) array, through the
    reweight step and the estimate; the reports are grouped by job only on
    return.  A sample is built per column only for an estimator that takes
    one.  With ``fgls`` and ``sbm_fgls`` two blockmodel stages run once for
    all jobs: the inverse-degree normalizer of each distinct (sample, label
    set), then every column's GLS, each one forest sweep
    (``tree_gls_solve_forest``) per term count.  A batch that raises raises
    what one of its jobs raises on its own; run the jobs one at a time to
    find the first.
    """
    policy, estimate, labels = recipe
    rows = [_outcome_rows(sample, columns) for sample, columns in jobs]
    columns, notes = _reweighted(
        policy, [(sample, y) for (sample, _), Y in zip(jobs, rows) for y in Y], labels)
    if policy == "fgls" and estimate is sbm_fgls:
        reports = _blockmodel_gls_columns(columns, rse)
    else:
        reports = [estimate(sample.with_outcome_values(y), rse=rse) for sample, y, _ in columns]
    reports = iter(replace(report, warnings=note + report.warnings) if note else report
                   for report, note in zip(reports, notes))
    return [[next(reports) for _ in Y] for Y in rows]


def _outcome_rows(sample: RdsSample, columns) -> np.ndarray:
    """A job's (m, n) outcome array: ``columns``, each checked as ``with_outcome_values``
    checks it, or the sample's own outcome.  It is C-contiguous, so that a
    row's dot products give the same bits whatever the layout of ``columns``."""
    if columns is None:
        columns = sample.y[None]
    elif not (isinstance(columns, np.ndarray) and columns.shape[1:] == (sample.n,)
              and np.isfinite(columns).all()):
        # column by column, so that the first bad column raises its own error
        columns = [sample.with_outcome_values(y).y for y in columns]
    return np.ascontiguousarray(columns, dtype=np.float64).reshape(-1, sample.n)


def _named(name: str) -> Recipe:
    if name not in ESTIMATORS:
        raise InvalidParametersError(f"unknown estimator {name!r}")
    return ESTIMATORS[name]


def apply_estimator(name: str, sample: RdsSample, *, rse: bool = True) -> EstimateReport:
    """``run_recipe`` of the named recipe of ``ESTIMATORS`` on the sample.

    Without ``rse``, ``auto`` and ``delta`` skip ``ranktwo_rse_value``,
    ``sbm_y`` and ``sbm_z`` the ``tree_covariance_mass`` sweep.
    """
    return run_recipe(_named(name), sample, rse=rse)[0]


def apply_estimator_columns(
    name: str, sample: RdsSample, columns, *, rse: bool = True
) -> list:
    """``apply_estimator`` on the sample once per outcome column, one report per column.

    Report i equals ``apply_estimator(name, sample.with_outcome_values(
    columns[i]), rse=rse)`` in every field and every bit of its weights;
    ``sbm_y`` and ``sbm_z`` solve all columns in stacked stages
    (``run_recipe``).
    """
    return run_recipe(_named(name), sample, columns, rse=rse)


def vandermonde_weights(eigenvalues: np.ndarray) -> np.ndarray:
    """Coefficients killing all non-leading spectral terms along a chain.

    Solves sum_a g_a lam_l^{a-1} = [l == 1] over the given eigenvalues,
    which must start with 1 and be pairwise distinct.
    """
    lams = np.asarray(eigenvalues, dtype=np.float64)
    K = lams.shape[0]
    if K < 1 or abs(lams[0] - 1.0) > 1e-12:
        raise InvalidParametersError("eigenvalues must start with the leading value 1")
    diffs = np.abs(lams[:, None] - lams[None, :]) + np.eye(K)
    if diffs.min() < 1e-12:
        raise ReducedSystemError(
            "repeated eigenvalues: reduced Vandermonde systems are unsupported"
        )
    V = np.power(lams[:, None], np.arange(K)[None, :])
    rhs = np.zeros(K)
    rhs[0] = 1.0
    return np.linalg.solve(V, rhs)


def vandermonde_estimator(sample: RdsSample, eigenvalues: np.ndarray) -> float:
    """Chain average over disjoint root-to-leaf runs on a complete binary tree.

    Takes one length-K run downward from every node K - 1 levels above the
    leaves (always descending to the first child), weights the K outcomes
    by the Vandermonde coefficients, and averages across runs.
    """
    lams = np.asarray(eigenvalues, dtype=np.float64)
    K = lams.shape[0]
    gamma = vandermonde_weights(lams)
    tree = sample.tree
    n = tree.n
    H = tree.num_levels
    heap_parents = (np.arange(1, n) - 1) // 2
    if n != 2**H - 1 or not np.array_equal(tree.parent[1:], heap_parents):
        raise InvalidParametersError("chain estimator requires a complete binary tree")
    if H < K:
        raise InvalidParametersError(f"tree has {H} levels, need at least {K}")
    Y = sample.y
    starts = np.arange(2 ** (H - K) - 1, 2 ** (H - K + 1) - 1, dtype=np.int64)
    # descending always to the first child: v -> 2v + 1 under heap numbering
    runs = np.zeros(len(starts))
    node = starts
    for a in range(K):
        runs += gamma[a] * Y[node]
        node = 2 * node + 1
    return float(runs.mean())
