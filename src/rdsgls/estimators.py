"""Point estimators for the stationary mean of a referral sample.

Ranges from the plain sample mean through degree-weighted estimators to
feasible GLS: covariances estimated from the sample itself, either via a
blockmodel plug-in over observed labels or via single-geometric-term fits
to lag statistics.  ``ESTIMATORS`` names each of them together with the
reweighting step that runs first.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .covariance import AutoCovariance, printed_rse, tree_covariance_mass, tree_gls_solve
from .diagnostics import ranktwo_rse_value
from .errors import (
    InsufficientDepthError,
    InvalidParametersError,
    InvalidSampleError,
    MissingLabelError,
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
            if abs(w.sum() - 1.0) > 1e-10:
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


def _single_node_report(name: str, sample: RdsSample) -> EstimateReport:
    return EstimateReport(
        estimator=name,
        mu_hat=float(sample.y[0]),
        weights=np.ones(1),
        n=1,
        warnings=("single-node sample",),
    )


def mean_estimator(sample: RdsSample) -> EstimateReport:
    """Unweighted sample average."""
    Y = sample.y
    n = sample.n
    return EstimateReport(
        estimator="mean",
        mu_hat=float(Y.mean()),
        weights=np.full(n, 1.0 / n),
        n=n,
    )


def _positive_degrees(sample: RdsSample) -> np.ndarray:
    deg = sample.degree
    if np.any(~np.isfinite(deg)) or np.any(deg <= 0):
        raise InvalidSampleError("reported degrees must be positive")
    return deg


def vh_estimator(sample: RdsSample) -> EstimateReport:
    """Degree-weighted mean normalized by the harmonic mean of reported degrees."""
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


def _clamp(lam: float) -> float:
    return float(np.clip(lam, -EIGENVALUE_CLAMP, EIGENVALUE_CLAMP))


def _ranktwo_gls(tree, lam: float, Y: np.ndarray):
    """Estimate and weights for a single-term covariance via the sparse inverse.

    The solve of Sigma x = 1 has the O(n) closed form proportional to
    1 - lam (deg - 1); the scale drops out of the normalized weights.
    """
    x = 1.0 - lam * (tree.degrees - 1.0)
    total = x.sum()
    weights = x / total
    return float(weights @ Y), weights


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
        return _single_node_report("auto", sample)
    if np.all(Y == Y[0]):
        return EstimateReport(
            estimator="auto",
            mu_hat=float(Y[0]),
            weights=np.full(n, 1.0 / n),
            n=n,
            warnings=("constant outcome; returned the constant",),
        )
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
    # _ranktwo_gls at every grid point, with its weights' sums in closed form
    excess = tree.degrees - 1.0
    mu = (Y.sum() - lam * (excess @ Y)) / (n - lam * excess.sum())
    gap = np.abs(mu - grid)
    ok = np.isfinite(gap)
    if not ok.any():
        rep = mean_estimator(sample)
        return EstimateReport(
            estimator="auto",
            mu_hat=rep.mu_hat,
            weights=rep.weights,
            n=n,
            warnings=("grid search failed; fell back to the sample mean",),
        )
    gap[~ok] = np.inf
    best = int(np.argmin(gap))
    lam_best = float(lam[best])
    beta2_best = float(g0[best])
    mu_best, weights = _ranktwo_gls(tree, lam_best, Y)
    return EstimateReport(
        estimator="auto",
        mu_hat=mu_best,
        eigenvalues=(lam_best,),
        beta2=(beta2_best,),
        rse=ranktwo_rse_value(tree, lam_best) if rse else None,
        weights=weights,
        n=n,
    )


def delta_fgls(sample: RdsSample, *, rse: bool = True) -> EstimateReport:
    """Single-term feasible GLS from squared differences at lags 1 and 2.

    Needs no centering: the lag ratio of mean squared differences
    identifies lambda, and the overall scale cancels in the GLS weights.
    The denominator carries a 1/sqrt(n) smoothing term.  Without ``rse``
    the report carries no RSE.
    """
    Y = sample.y
    n = sample.n
    if n == 1:
        return _single_node_report("delta", sample)
    stats = lag_statistics(sample, 0.0)
    lam = _clamp((stats.delta2 - stats.delta1) / (stats.delta1 + n**-0.5))
    mu, weights = _ranktwo_gls(sample.tree, lam, Y)
    return EstimateReport(
        estimator="delta",
        mu_hat=mu,
        eigenvalues=(lam,),
        rse=ranktwo_rse_value(sample.tree, lam) if rse else None,
        weights=weights,
        n=n,
    )


def _tree_gls(
    tree, ac: AutoCovariance, Y: np.ndarray, constant: float = 0.0, rse: bool = True
):
    """Estimate, weights and printed-variant RSE under ``ac`` plus ``constant`` 11'.

    Without ``rse`` the RSE is None and its covariance-mass sweep is skipped.
    """
    result = tree_gls_solve(tree, ac, Y, constant)
    if not rse:
        return result.estimate, result.weights, None
    n = tree.n
    mass = tree_covariance_mass(tree, ac) + constant * n * n
    return result.estimate, result.weights, printed_rse(result.variance, mass, n)


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
    ``rse`` the report carries no RSE.
    """
    return _blockmodel_gls(sample, labels, rse)


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

    relabeled = RdsSample(
        tree=sample.tree, node=sample.node, degree=sample.degree,
        outcome=sample.outcome, block=z,
    )
    qhat = referral_counts(relabeled, k_eff)
    # renormalize to the counts' own total (n - 1) / n: this can move the last
    # bit of an entry, and the recorded report digests include it
    qhat = qhat * ((n - 1) / n / qhat.sum())

    vals, U, D = qhat_spectrum(qhat)
    f_hat = U[z] / np.sqrt(D)[z][:, None]
    vals.flags.writeable = False
    f_hat.flags.writeable = False
    cache[key] = (k_eff, tuple(notes), vals, f_hat)
    return cache[key]


def _blockmodel_gls(sample, labels, rse: bool) -> EstimateReport:
    """``sbm_fgls``; without ``rse`` the report carries no RSE."""
    Y = sample.y
    n = sample.n
    labels = _block_labels(sample, labels)
    if n == 1:
        return _single_node_report("sbm", sample)

    k_eff, notes, vals, f_hat = _block_spectrum(sample, labels)
    notes = list(notes)
    beta_hat = f_hat.T @ Y / n
    # the leading eigenvalue is 1 by construction: its spectral term is a
    # multiple of the all-ones matrix, which leaves the GLS weights
    # untouched; clamping the rest keeps the solve definite
    lam_clamped = np.clip(vals[1:], -EIGENVALUE_CLAMP, EIGENVALUE_CLAMP)

    s2 = float(Y.var(ddof=1))
    try:
        # loadings or a nugget that overflow to inf are refused here; the
        # solve they would feed is singular
        ac = AutoCovariance(terms=tuple(zip(beta_hat[1:] ** 2, lam_clamped)), nugget=s2)
        mu, weights, rse = _tree_gls(
            sample.tree, ac, Y, constant=float(beta_hat[0] ** 2), rse=rse
        )
    except (SingularCovarianceError, InvalidParametersError):
        notes.append("estimated covariance was singular; fell back to the sample mean")
        mu = float(Y.mean())
        weights = np.full(n, 1.0 / n)
        rse = None
    return EstimateReport(
        estimator="sbm",
        mu_hat=mu,
        eigenvalues=tuple(lam_clamped),
        beta2=tuple(beta_hat[1:] ** 2),
        nugget=s2,
        rse=rse,
        weights=weights,
        n=n,
        K=k_eff,
        warnings=tuple(notes),
    )


def oracle_gls(sample: RdsSample, spec: SpectralDecomp, y: np.ndarray) -> EstimateReport:
    """GLS under the exact walk covariance (simulation-only reference).

    Builds the true autocovariance from the population spectrum and the
    outcome's spectral loadings, then solves the same system the feasible
    estimators approximate.
    """
    n = sample.n
    Y = np.asarray(y, dtype=np.float64)[sample.node]
    beta = beta_coefficients(y, spec)
    ac = AutoCovariance.from_spectrum(beta, spec.eigenvalues)
    if n == 1:
        return _single_node_report("oracle_gls", sample.with_outcome_values(Y))
    try:
        mu, weights, rse = _tree_gls(sample.tree, ac, Y)
        notes = ()
    except SingularCovarianceError:
        mu = float(Y.mean())
        weights = np.full(n, 1.0 / n)
        rse = None
        notes = ("exact covariance singular (outcome spectrally flat); used the mean",)
    return EstimateReport(
        estimator="oracle_gls",
        mu_hat=mu,
        eigenvalues=tuple(lam for _, lam in ac.terms),
        beta2=tuple(b2 for b2, _ in ac.terms),
        rse=rse,
        weights=weights,
        n=n,
        warnings=notes,
    )


FGLS_FALLBACK_NOTE = (
    "GLS estimate of the inverse-degree mean was not positive; "
    "using the harmonic mean instead"
)


def _reweighted(sample: RdsSample, policy: str, labels: np.ndarray | None = None):
    """``reweight``'s sample and its notes: ``(sample, notes)``.

    The notes are a tuple of strings, ``(FGLS_FALLBACK_NOTE,)`` when the
    ``fgls`` normalizer fell back to the harmonic mean and empty otherwise.
    """
    if policy == "none":
        return sample, ()
    deg = _positive_degrees(sample)
    inv = 1.0 / deg
    notes = ()
    if policy == "vh":
        h_inv = inv.mean()
    elif policy == "fgls":
        h_inv, fell_back = _inverse_degree_scale(sample, inv, _block_labels(sample, labels))
        if fell_back:
            notes = (FGLS_FALLBACK_NOTE,)
    else:
        raise InvalidParametersError(f"unknown reweighting {policy!r}")
    return sample.with_outcome_values(sample.y / (h_inv * deg)), notes


def reweight(sample: RdsSample, policy: str, labels: np.ndarray | None = None) -> RdsSample:
    """Outcomes divided by estimated sampling weights, the first step of every estimator.

    ``none`` leaves the sample as it is.  ``vh`` divides by the reported
    degrees normalized by their harmonic mean, so the plain mean of the
    result is the VH estimate.  ``fgls`` estimates that normalizer (the
    stationary mean of 1/degree) by the blockmodel GLS on the inverse
    degrees over ``labels`` (default: the sample's blocks); if that
    estimate is not positive the plain harmonic mean takes over, with a
    ``RuntimeWarning`` on every such call (``apply_estimator`` and the
    command line carry that note as a value instead).  Both reject
    non-positive degrees.
    """
    out, notes = _reweighted(sample, policy, labels)
    for note in notes:
        warnings.warn(note, RuntimeWarning, stacklevel=2)
    return out


def _inverse_degree_scale(sample: RdsSample, inv: np.ndarray, labels: np.ndarray):
    """The ``fgls`` normalizer of ``reweight`` and whether the harmonic mean took over.

    Depends on the tree, the degrees and the labels but not on the
    outcome, so it is cached on the tree by the label and degree bytes.
    """
    key = ("fgls_scale", labels.tobytes(), sample.degree.tobytes())
    cache = sample.tree._cache
    if key not in cache:
        h_inv = _blockmodel_gls(sample.with_outcome_values(inv), labels, rse=False).mu_hat
        fell_back = not np.isfinite(h_inv) or h_inv <= 0
        cache[key] = (float(inv.mean()) if fell_back else h_inv, fell_back)
    return cache[key]


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
    """A named estimator: reweight the outcomes, then estimate.

    ``labels`` maps a sample to the block labels that both the ``fgls``
    reweighting and the blockmodel estimator use; without it they use the
    sample's own blocks.
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


def apply_estimator(name: str, sample: RdsSample, *, rse: bool = True) -> EstimateReport:
    """Run the named estimator of ``ESTIMATORS`` on its reweighted sample.

    A reweighting note comes first in the report's ``warnings``; nothing
    is warned.  Without ``rse`` the estimators that fit a covariance
    (every one that reweights first) skip their RSE: ``auto`` and
    ``delta`` skip ``ranktwo_rse_value``, ``sbm_y`` and ``sbm_z`` the
    ``tree_covariance_mass`` sweep.  Their report's ``rse`` is then None;
    every other field and the weights are the same bits.
    """
    if name not in ESTIMATORS:
        raise InvalidParametersError(f"unknown estimator {name!r}")
    policy, estimate, labels = ESTIMATORS[name]
    options = {} if policy == "none" else {"rse": rse}
    blocks = () if labels is None else (labels(sample),)
    reweighted, notes = _reweighted(sample, policy, *blocks)
    report = estimate(reweighted, *blocks, **options)
    if notes:
        report = replace(report, warnings=notes + report.warnings)
    return report
