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

import functools
import warnings
from dataclasses import dataclass
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
from .sampler import RdsSample

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
            _check_weights(w)

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


def _check_weights(W: np.ndarray):
    """Raise unless each row of ``W`` sums to one; a NaN sum fails too."""
    if not (np.abs(W.sum(axis=-1) - 1.0) <= 1e-10).all():
        raise InvalidParametersError("report weights must sum to one")


class _Columns:
    """A batch's columnar result: ``mu`` (m,), each column's report ``weights``,
    ``rse``, other ``fields`` and ``notes``, and each job's column ``counts``."""

    def __init__(self, m: int):
        self.mu, self.weights, self.rse = np.empty(m), [None] * m, [None] * m
        self.fields, self.notes, self.counts = [{}] * m, [()] * m, None

    def mean(self, i: int, y: np.ndarray, *notes: str, mu: float | None = None, **fields):
        """Column ``i`` as the sample mean of ``y`` under equal weights, or as ``mu``."""
        self.mu[i] = y.mean() if mu is None else mu
        self.weights[i] = np.full(y.size, 1.0 / y.size)
        self.notes[i], self.fields[i] = notes, fields


def _by_size(columns, idx=None) -> list:
    """Columns ``idx`` (default all) by size: indices, and outcomes as the rows of one array."""
    groups = {}
    for i in range(len(columns)) if idx is None else idx:
        groups.setdefault(columns[i][0].n, []).append(i)
    return [(np.array(idx), np.array([columns[i][1] for i in idx])) for idx in groups.values()]


def _reports(name: str, out: _Columns, ns) -> list:
    """The reports of a columnar result, column i on ``ns[i]`` nodes."""
    return [EstimateReport(name, mu, rse=rse, weights=w, n=n, warnings=notes, **fields)
            for mu, w, rse, fields, notes, n in zip(out.mu.tolist(), out.weights, out.rse,
                                                     out.fields, out.notes, ns)]


def _mean_columns(columns, rse: bool) -> _Columns:
    out = _Columns(len(columns))
    for i, (_, y, _) in enumerate(columns):
        out.mean(i, y)
    return out


def _positive_degrees(sample: RdsSample) -> np.ndarray:
    deg = sample.degree
    if np.any(~np.isfinite(deg)) or np.any(deg <= 0):
        raise InvalidSampleError("reported degrees must be positive")
    return deg


def _vh_columns(columns, rse: bool) -> _Columns:
    out, weights = _Columns(len(columns)), {}  # one weight array per sample
    for i, (sample, y, _) in enumerate(columns):
        if id(sample) not in weights:
            inv = 1.0 / _positive_degrees(sample)
            weights[id(sample)] = inv / inv.sum()
            _check_weights(weights[id(sample)])
        out.weights[i] = weights[id(sample)]
        out.mu[i] = out.weights[i] @ y
    return out


def lag_statistics(sample: RdsSample, m: float) -> LagStatistics:
    """Centered products at lags 0-1 and squared differences at lags 1-2: the
    batch of one of ``_lag_rows``, which ``delta`` runs on many columns."""
    *moments, count = (x[0] for x in _lag_rows(sample.y[None], sample.tree.parent[None], m))
    return LagStatistics(*map(float, moments), {0: sample.n, 1: 2 * sample.n - 2, 2: int(count)})


def _lag_rows(Y: np.ndarray, P: np.ndarray, m: float) -> tuple:
    """``(gamma0, gamma1, delta1, delta2, d2_count)`` of each row of ``Y`` (r, n) on the
    tree of parent row ``P[i]``, with the one-row bits: each row adds in its own order."""
    r, n = Y.shape
    if n < 3:
        raise InsufficientDepthError("lag-2 statistics need at least 3 nodes")
    # each row's parents as indices into the flat rows
    parents, flat = P[:, 1:], (P[:, 1:] + n * np.arange(r)[:, None]).ravel()
    y_kids, y_flat, resid = Y[:, 1:], Y.ravel(), (Y - m).ravel()
    gamma0 = (resid**2).reshape(r, n).mean(axis=1)
    gamma1 = (resid[flat] * resid.reshape(r, n)[:, 1:].ravel()).reshape(r, -1).mean(axis=1)
    delta1 = ((y_flat[flat].reshape(r, -1) - y_kids) ** 2).mean(axis=1)

    # distance-2 pairs: grandparent-grandchild plus siblings
    deep = parents > 0
    gp = np.maximum(P.ravel()[flat], 0) + (flat - parents.ravel())
    gp_sq = ((y_kids.ravel() - y_flat[gp]) ** 2).reshape(r, -1)
    gp_sq = np.array([np.sum(sq[d]) for sq, d in zip(gp_sq, deep)])

    # siblings: per parent, c (c - 1) ordered pairs with squared differences
    # summing to 2 (c sum y^2 - (sum y)^2); bincount over row-offset parents
    # adds in node order, which is np.sum's order for fewer than 8 terms
    c, s1, s2 = (np.bincount(flat, weights=w, minlength=r * n).reshape(r, n)
                 for w in (None, y_kids.ravel(), (y_kids**2).ravel()))
    for i, p in zip(*np.nonzero(c >= 8)):
        # np.sum adds 8 or more terms pairwise: keep its order there
        yk = y_kids[i, parents[i] == p]
        s1[i, p], s2[i, p] = np.sum(yk), np.sum(yk**2)
    groups, terms = c >= 2, np.zeros((r, n))
    # float_power calls the C library's pow, as ** on a NumPy scalar does;
    # ** on an array multiplies, which rounds differently about once in 1,200
    terms[groups] = 2.0 * (c[groups] * s2[groups] - np.float_power(s1[groups], 2))
    d2_count = 2 * deep.sum(axis=1) + (c * (c - 1)).sum(axis=1)
    if not d2_count.all():
        raise InsufficientDepthError("tree has no node pairs at distance 2")
    delta2 = (2.0 * gp_sq + np.cumsum(terms, axis=1)[:, -1]) / d2_count
    return gamma0, gamma1, delta1, delta2, d2_count


def _auto_fit(Y: np.ndarray, P: np.ndarray, E: np.ndarray) -> tuple:
    """``auto``'s grid search on each row of ``Y``, with parent rows ``P`` and
    degrees - 1 ``E``: lambda and beta2 at the best grid point, and whether
    any grid point was finite."""
    n, div = Y.shape[1], AUTO_GRID_POINTS - 1
    lo, hi = Y.min(axis=1)[:, None], Y.max(axis=1)[:, None]
    at, step = np.arange(AUTO_GRID_POINTS, dtype=np.float64), (hi - lo) / div
    # np.linspace of each row: it scales by the range where the step underflows
    grid = np.where(step == 0, at / div * (hi - lo), at * step) + lo
    grid[:, -1:] = hi

    # gamma0(m) and gamma1(m) are quadratics in m
    sy2, sy = np.mean(Y**2, axis=1)[:, None], np.mean(Y, axis=1)[:, None]
    g0 = sy2 - 2.0 * grid * sy + grid**2
    y_parents, y_kids = Y[np.arange(len(Y))[:, None], P[:, 1:]], Y[:, 1:]
    g1 = (np.mean(y_parents * y_kids, axis=1)[:, None]
          - grid * np.mean(y_parents + y_kids, axis=1)[:, None] + grid**2)

    lam = np.clip(g1 / g0, -EIGENVALUE_CLAMP, EIGENVALUE_CLAMP)
    # the single-term GLS at every grid point, with its weights' sums in
    # closed form; each row's dot product is a 1-D dot
    dots = np.array([e @ y for e, y in zip(E, Y)])[:, None]
    mu = (Y.sum(axis=1)[:, None] - lam * dots) / (n - lam * E.sum(axis=1)[:, None])
    gap = np.abs(mu - grid)
    ok = np.isfinite(gap)
    gap[~ok] = np.inf
    best = (np.arange(len(Y)), np.argmin(gap, axis=1))
    return lam[best], [(float(g),) for g in g0[best]], ok.any(axis=1)


def _single_term_columns(name: str, columns, rse: bool) -> _Columns:
    """Single-term feasible GLS of each column: ``auto``'s lag-1 fit (``_auto_fit``,
    a relaxed fixed point over centerings) or ``delta``'s lag-difference fit.

    Each size's columns run as the rows of one array, each row on its own
    tree's parent and degree rows, and each falls back on its own.  The GLS
    under one geometric term, ``lam`` clamped to +/-0.999, has the O(n)
    closed form proportional to 1 - lam (deg - 1); the scale ``beta2``
    drops out of the normalized weights and is only reported.
    """
    out = _Columns(len(columns))
    for idx, Y in _by_size(columns):
        n = Y.shape[1]
        flat = ((Y == Y[:, :1]).all(axis=1) if name == "auto" or n == 1
                else np.zeros(len(Y), bool))
        for i, y in zip(idx[flat], Y[flat]):
            note = "single-node sample" if n == 1 else "constant outcome; returned the constant"
            out.mean(i, y, note, mu=float(y[0]))
        idx, Y = idx[~flat], Y[~flat]
        trees = [columns[i][0].tree for i in idx]
        if not trees:
            continue
        P, E = np.array([t.parent for t in trees]), np.array([t.degrees for t in trees]) - 1.0
        if name == "auto":  # its eigenvalues come clamped
            lam, beta2, found = _auto_fit(Y, P, E)
            for i, y in zip(idx[~found], Y[~found]):
                out.mean(i, y, "grid search failed; fell back to the sample mean")
            rows = np.flatnonzero(found)
        else:
            _, _, delta1, delta2, _ = _lag_rows(Y, P, 0.0)
            lam = np.clip((delta2 - delta1) / (delta1 + n**-0.5), -EIGENVALUE_CLAMP,
                          EIGENVALUE_CLAMP)
            beta2, rows = [()] * len(Y), np.arange(len(Y))
        X = 1.0 - lam[:, None] * E
        W = X / X.sum(axis=1)[:, None]
        for j in rows:  # the RSE refuses a NaN lambda before the weights' check does
            out.rse[idx[j]] = ranktwo_rse_value(trees[j], lam[j]) if rse else None
        _check_weights(W[rows])
        for j in rows:
            out.mu[idx[j]], out.weights[idx[j]] = W[j] @ Y[j], W[j]
            out.fields[idx[j]] = {"eigenvalues": (float(lam[j]),), "beta2": beta2[j]}
    return out


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

    Returns ``(eigenvalues, U, D)`` with the leading eigenvalue first and D
    the row sums of the symmetrized referral matrix ``counts``.  The input
    scale is irrelevant: only relative referral frequencies matter.  The
    batch of one of ``_qhat_spectra``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise InvalidParametersError("referral matrix must be square")
    if counts.sum() <= 0:
        raise InvalidParametersError("referral matrix has no mass")
    vals, U, D = _qhat_spectra(counts[None])
    return vals[0], U[0], D[0]


def _qhat_spectra(counts: np.ndarray):
    """``qhat_spectrum`` of each matrix of a (P, k, k) stack, each with its own bits."""
    sym = 0.5 * (counts + np.swapaxes(counts, -1, -2))
    D = sym.sum(axis=-1)
    if not (D.min(axis=-1) > 0).all():
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
    out = _blockmodel_gls_columns([(sample, sample.y, _block_labels(sample, labels))], rse)
    return _reports("sbm", out, [sample.n])[0]


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


def _block_spectra(pairs) -> list:
    """The outcome-free part of the blockmodel GLS of each ``(sample, labels)`` pair.

    Each is ``(k_eff, notes, eigenvalues, f_hat)``: the number of visited
    blocks, the dropped-block note, the referral spectrum and the per-node
    eigenfunctions.  It depends on the tree and the labels only, so it is
    cached on the tree by the label bytes: the ``fgls`` reweighting and the
    blockmodel estimator that follows it share one spectrum.  The missing
    ones come from one stacked pass, each with its one-pair bits: referral
    counts by one offset ``np.bincount`` (exact integer counts), then one
    ``_qhat_spectra`` per block count.  The first failing pair raises.
    """
    keys = [("spectrum", labels.tobytes()) for _, labels in pairs]
    todo = {(id(sample.tree), key): (sample, labels, key)
            for (sample, labels), key in zip(pairs, keys) if key not in sample.tree._cache}
    by_k, cells, offset = {}, [], 0
    for sample, labels, key in todo.values():
        if labels.min() < 0:
            raise MissingLabelError("block labels must be nonnegative")
        visits = np.bincount(labels)
        z, k = (np.cumsum(visits > 0) - 1)[labels], int(np.count_nonzero(visits))
        dropped = np.flatnonzero(visits == 0).tolist()
        notes = (f"dropped blocks with no visits: {dropped}",) if dropped else ()
        # cell (u, v) of the pair's k x k counts: its tree edges from block u to v
        cells.append(offset + z[sample.tree.parent[1:]] * k + z[1:])
        by_k.setdefault(k, []).append((sample, key, notes, z, offset))
        offset += k * k
    counts = np.bincount(np.concatenate(cells), minlength=offset) if cells else None
    for k, entries in by_k.items():
        n = np.array([[[sample.n]] for sample, *_ in entries])
        qhat = np.array([counts[off:off + k * k] for *_, off in entries]).reshape(-1, k, k) / n
        # renormalize to the counts' own total (n - 1) / n: this can move the last
        # bit of an entry, and the recorded report digests include it
        qhat = qhat * ((n - 1) / n / qhat.reshape(-1, 1, k * k).sum(axis=2)[..., None])
        for (sample, key, notes, z, _), vals, U, D in zip(entries, *_qhat_spectra(qhat)):
            f_hat = U[z] / np.sqrt(D)[z][:, None]
            vals.flags.writeable = f_hat.flags.writeable = False
            sample.tree._cache[key] = (k, notes, vals, f_hat)
    return [sample.tree._cache[key] for (sample, _), key in zip(pairs, keys)]


def _blockmodel_gls_columns(columns, rse: bool) -> _Columns:
    """``sbm_fgls`` of each ``(sample, y, labels)`` column, as one columnar result.

    ``labels`` is already checked by ``_block_labels``, or None for the
    sample's own blocks, and the sample gives the tree, the degrees and
    nothing else.  The spectra come from one stacked pass
    (``_block_spectra``) and the nuggets from each size's columns at once.
    Each column's loadings on its labels' spectrum make its plug-in
    covariance.  The columns whose covariances share a term count share one
    forest sweep, and a column whose covariance is refused or singular
    falls back to the sample mean alone.  Each column has the one-column
    call's bits.  Without ``rse`` no RSE is computed.
    """
    out = _Columns(len(columns))
    blocks = [_block_labels(sample, None) if b is None else b for sample, _, b in columns]
    live = [i for i, (sample, _, _) in enumerate(columns) if sample.n > 1]
    for i in set(range(len(columns))) - set(live):
        out.mean(i, columns[i][1], "single-node sample")
    nuggets, clamped, forests = np.empty(len(columns)), {}, {}
    for idx, Y in _by_size(columns, live):
        nuggets[idx] = Y.var(axis=1, ddof=1)
    for i, (k_eff, notes, vals, f_hat) in zip(live, _block_spectra(
            [(columns[i][0], blocks[i]) for i in live])):
        sample, y, _ = columns[i]
        if id(vals) not in clamped:
            # the leading eigenvalue is 1 by construction: its spectral term is a
            # multiple of the all-ones matrix, which leaves the GLS weights
            # untouched; clamping the rest keeps the solve definite
            clamped[id(vals)] = tuple(np.clip(vals[1:], -EIGENVALUE_CLAMP, EIGENVALUE_CLAMP))
        lam = clamped[id(vals)]
        beta_hat = f_hat.T @ y / sample.n
        beta2, nugget = tuple(beta_hat[1:] ** 2), float(nuggets[i])
        out.notes[i] = notes
        out.fields[i] = {"eigenvalues": lam, "beta2": beta2, "nugget": nugget, "K": k_eff}
        try:
            # loadings or a nugget that overflow to inf are refused here; the
            # solve they would feed is singular
            ac = AutoCovariance(terms=tuple(zip(beta2, lam)), nugget=nugget)
        except (SingularCovarianceError, InvalidParametersError):
            continue
        system = (sample.tree, ac, y, float(beta_hat[0] ** 2))
        forests.setdefault(len(ac.terms), []).append((i, system))
    solved = {}
    for members in forests.values():
        keys, systems = zip(*members)
        solved.update(zip(keys, _tree_gls(systems, rse)))
    for i in live:
        if solved.get(i) is None:
            note = "estimated covariance was singular; fell back to the sample mean"
            out.mean(i, columns[i][1], *out.notes[i], note, **out.fields[i])
        else:
            out.mu[i], out.weights[i], out.rse[i] = solved[i]
    return out


def oracle_gls(sample: RdsSample, spec: SpectralDecomp, y: np.ndarray) -> EstimateReport:
    """GLS under the exact walk covariance (simulation-only reference).

    Builds the true autocovariance from the population spectrum and the
    outcome's spectral loadings, then solves the same system the feasible
    estimators approximate.  A non-finite outcome at a sampled node raises
    ``InvalidSampleError``.
    """
    Y = sample.with_outcome(y).y
    ac = AutoCovariance.from_spectrum(beta_coefficients(y, spec), spec.eigenvalues)
    out, terms = _Columns(1), {"eigenvalues": tuple(lam for _, lam in ac.terms),
                               "beta2": tuple(b2 for b2, _ in ac.terms)}
    if sample.n == 1:
        out.mean(0, Y, "single-node sample")
    elif (res := _tree_gls([(sample.tree, ac, Y, 0.0)])[0]) is None:
        out.mean(0, Y, "exact covariance singular (outcome spectrally flat); used the mean",
                 **terms)
    else:
        (out.mu[0], out.weights[0], out.rse[0]), out.fields[0] = res, terms
    return _reports("oracle_gls", out, [sample.n])[0]


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
        h_invs = _blockmodel_gls_columns(list(distinct.values()), False).mu.tolist()
        scales = {key: (h_inv, ()) if np.isfinite(h_inv) and h_inv > 0
                  else (float(invs[key[0]].mean()), (FGLS_FALLBACK_NOTE,))
                  for key, h_inv in zip(distinct, h_invs)}
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


class _Estimator(NamedTuple):
    """An estimator: the name its reports carry and its batch form, from ``(sample,
    y, blocks)`` columns and ``rse`` to one ``_Columns``.  Called on a sample, it
    runs the batch of one on the sample's own outcome and blocks."""

    name: str
    form: Callable[[list, bool], _Columns]

    def __call__(self, sample: RdsSample, *, rse: bool = True) -> EstimateReport:
        return _reports(self.name, self.form([(sample, sample.y, None)], rse), [sample.n])[0]


class Recipe(NamedTuple):
    """An estimator as ``run_recipe`` runs it: reweight the outcomes, then estimate.

    ``reweight`` names a policy of ``reweight``; ``estimate`` is an ``_Estimator``,
    whose batch form the recipe runs.  ``labels`` maps a sample to the block
    labels of the ``fgls`` reweighting, which a blockmodel estimator then uses
    too; without it both use the sample's own blocks.
    """

    reweight: str
    estimate: _Estimator
    labels: Callable[[RdsSample], np.ndarray] | None = None


ESTIMATORS = {
    "mean": Recipe("none", _Estimator("mean", _mean_columns)),
    "vh": Recipe("none", _Estimator("vh", _vh_columns)),
    "auto": Recipe("vh", _Estimator("auto", functools.partial(_single_term_columns, "auto"))),
    "delta": Recipe("vh", _Estimator("delta", functools.partial(_single_term_columns, "delta"))),
    "sbm_y": Recipe("fgls", _Estimator("sbm", _blockmodel_gls_columns), _encode_outcome_blocks),
    "sbm_z": Recipe("fgls", _Estimator("sbm", _blockmodel_gls_columns)),
}
REWEIGHTINGS = tuple(dict.fromkeys(recipe.reweight for recipe in ESTIMATORS.values()))


def run_recipe(recipe: Recipe, sample: RdsSample, columns=None, *, rse: bool = True) -> list:
    """Reweight, then estimate: the one path of every estimate, one report per column.

    Runs on the sample's own outcome, or once per outcome column of
    ``columns``.  The reweighting's note comes first in a report's
    ``warnings``; nothing is warned.  Without ``rse`` the estimators that
    fit a covariance report no RSE and skip its work; every other field and
    the weights are the same bits.  A column that is singular falls back
    alone, and a column that raises raises what it raises on its own.  This
    is the batch of one job of ``run_recipe_batch``.
    """
    return run_recipe_batch(recipe, [(sample, columns)], rse=rse)[0]


def run_recipe_batch(recipe: Recipe, jobs, *, rse: bool = True) -> list:
    """``run_recipe`` of each ``(sample, columns)`` job, one list of reports per job.

    Every report equals its job's own ``run_recipe`` report bit for bit.
    Reports are built here alone, from the batch's columnar result
    (``recipe_columns``).  A batch that raises raises what one of its jobs
    raises on its own; run the jobs one at a time to find the first.
    """
    out = recipe_columns(recipe, jobs, rse=rse)
    ns = [sample.n for (sample, _), m in zip(jobs, out.counts) for _ in range(m)]
    reports = iter(_reports(recipe.estimate.name, out, ns))
    return [[next(reports) for _ in range(m)] for m in out.counts]


class JobBatch(list):
    """``(sample, columns)`` jobs that recipes run on in turn, keeping each reweight
    step, so that the recipes that share one (``auto``, ``delta``) run it once."""

    def __init__(self, jobs=()):
        super().__init__(jobs)
        self.reweighted = {}


def recipe_columns(recipe: Recipe, jobs, *, rse: bool = True) -> _Columns:
    """The columnar result of ``run_recipe_batch``: every column of every job, in order.

    The columns of all jobs, each job's from one C-contiguous (m, n) array,
    travel as one flat list through the reweight step (kept on a
    ``JobBatch``) and the estimator's batch form; the reweighting's notes
    come first.  With ``fgls`` and ``sbm_fgls`` the normalizers of all
    columns, then their estimates, are one blockmodel call each.  No report
    is built.
    """
    policy, estimate, labels = recipe
    steps = jobs.reweighted if isinstance(jobs, JobBatch) else {}
    if (policy, labels) not in steps:
        rows = [_outcome_rows(sample, columns) for sample, columns in jobs]
        steps[(policy, labels)] = _reweighted(
            policy, [(sample, y) for (sample, _), Y in zip(jobs, rows) for y in Y], labels
        ) + ([len(Y) for Y in rows],)
    columns, notes, counts = steps[(policy, labels)]
    out = estimate.form(columns, rse)
    out.notes = [note + own if note else own for note, own in zip(notes, out.notes)]
    out.counts = counts
    return out


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


def apply_estimator(name: str, sample: RdsSample, *, rse: bool = True) -> EstimateReport:
    """``run_recipe`` of the named recipe of ``ESTIMATORS`` on the sample.

    Without ``rse``, ``auto`` and ``delta`` skip ``ranktwo_rse_value``,
    ``sbm_y`` and ``sbm_z`` the ``tree_covariance_mass`` sweep.
    """
    if name not in ESTIMATORS:
        raise InvalidParametersError(f"unknown estimator {name!r}")
    return run_recipe(ESTIMATORS[name], sample, rse=rse)[0]


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
