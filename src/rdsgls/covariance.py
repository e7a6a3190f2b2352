"""Covariance algebra for tree-indexed samples.

The autocovariance of a stationary tree walk depends only on tree distance
and decomposes over the walk spectrum.  This module exploits the sparse
closed-form inverse available in the single-geometric-term case, solves
the generalized least squares system exactly along the tree in O(n K^3),
and carries the chain estimator whose variance certifies the 1/n rate.
The dense n x n covariance lives only in ``rdsgls.reference``, the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParametersError,
    ReducedSystemError,
    SingularCovarianceError,
)
from .referral import ReferralTree, distance_power_apply
from .sampler import RdsSample

LEADING_EIGENVALUE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AutoCovariance:
    """Distance autocovariance: sum of squared-loading geometric terms.

    ``gamma(d) = sum_l beta2_l * lam_l**d`` for d >= 1, with the nugget
    added at lag zero only.
    """

    terms: tuple
    nugget: float = 0.0

    def __post_init__(self):
        terms = tuple((float(b2), float(lam)) for b2, lam in self.terms)
        object.__setattr__(self, "terms", terms)
        for b2, lam in terms:
            if not 0 <= b2 < np.inf:  # each check "not inside", so NaN counts as outside
                raise InvalidParametersError(f"squared loading {b2} must be finite and >= 0")
            if not abs(lam) < 1:
                raise SingularCovarianceError(f"|lambda| = {abs(lam)} is not < 1")
        if not 0 <= self.nugget < np.inf:
            raise InvalidParametersError(f"nugget {self.nugget} must be finite and >= 0")

    @classmethod
    def from_spectrum(cls, beta: np.ndarray, eigenvalues: np.ndarray, nugget=0.0):
        """Drop the leading (constant-function) term; keep the rest.

        Requires every retained eigenvalue to satisfy |lambda| < 1 unless
        its loading vanishes.
        """
        beta = np.asarray(beta, dtype=np.float64)
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        terms = []
        for l in range(1, len(eigenvalues)):
            b2 = beta[l] ** 2
            lam = eigenvalues[l]
            if abs(lam) >= 1.0 - LEADING_EIGENVALUE_TOL:
                if b2 > 1e-20:
                    raise SingularCovarianceError(
                        f"non-leading eigenvalue {lam} has unit modulus"
                    )
                continue
            terms.append((b2, lam))
        return cls(terms=tuple(terms), nugget=nugget)

    def gamma(self, d: int) -> float:
        """Autocovariance at integer lag d (0^0 = 1)."""
        if d < 0:
            raise InvalidParametersError("lag must be nonnegative")
        return float(self.gamma_table(d)[d])

    def gamma_table(self, max_d: int) -> np.ndarray:
        """gamma evaluated on 0..max_d at once."""
        d = np.arange(max_d + 1)
        out = np.zeros(max_d + 1)
        for b2, lam in self.terms:
            if lam == 0.0:
                out[0] += b2
            else:
                out += b2 * np.power(lam, d)
        out[0] += self.nugget
        return out

    def max_abs_eigenvalue(self) -> float:
        return max((abs(lam) for _, lam in self.terms), default=0.0)


@dataclass(frozen=True, eq=False)
class GlsResult:
    """Minimum-variance unbiased weighting of correlated observations."""

    estimate: float
    weights: np.ndarray
    variance: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if abs(w.sum() - 1.0) > 1e-10:
            raise InvalidParametersError("GLS weights must sum to one")
        if not self.variance > 0:
            raise SingularCovarianceError("GLS variance must be positive")


def _check_ranktwo_args(beta2: float, lam: float):
    if not 0 < beta2 < np.inf:
        raise InvalidParametersError("beta2 must be finite and positive")
    if not abs(lam) < 1:
        raise SingularCovarianceError(f"|lambda| = {abs(lam)} is not < 1: covariance singular")


def ranktwo_inverse_apply(
    tree: ReferralTree, beta2: float, lam: float, v: np.ndarray
) -> np.ndarray:
    """Apply the closed-form sparse inverse of a single-term covariance.

    The inverse has diagonal 1 + lam^2 (deg - 1), off-diagonal -lam on tree
    edges, zero elsewhere, all over beta2 (1 - lam^2); O(n) per apply.
    """
    _check_ranktwo_args(beta2, lam)
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != tree.n:
        raise InvalidParametersError("vector length must match the tree")
    deg = tree.degrees
    out = (1.0 + lam * lam * (deg - 1.0)) * v
    if tree.n > 1:
        parents = tree.parent[1:]
        kids = np.arange(1, tree.n)
        np.add.at(out, parents, -lam * v[kids])
        out[kids] -= lam * v[parents]
    return out / (beta2 * (1.0 - lam * lam))


def ranktwo_solve_ones(tree: ReferralTree, beta2: float, lam: float) -> np.ndarray:
    """Closed-form solution x of Sigma x = 1 for a single-term covariance."""
    _check_ranktwo_args(beta2, lam)
    return (1.0 - lam * (tree.degrees - 1.0)) / (beta2 * (1.0 + lam))


def one_sigma_inv_one_ranktwo(n: int, beta2: float, lam):
    """1' Sigma^{-1} 1 for a single-term covariance on any n-node tree.

    Topology drops out because tree degrees always sum to 2(n - 1).  An
    array of eigenvalues gives the array of values, one per eigenvalue.
    """
    if n < 1:
        raise InvalidParametersError("n must be >= 1")
    if not 0 < beta2 < np.inf:
        raise InvalidParametersError("beta2 must be finite and positive")
    outside = np.asarray(lam)
    # written as "not inside" so that NaN counts as outside
    outside = outside[~((outside > -1.0) & (outside <= 1.0))]
    if outside.size:
        raise SingularCovarianceError(f"lambda = {outside[0]} outside (-1, 1)")
    return n * (1.0 - lam * (1.0 - 2.0 / n)) / (beta2 * (1.0 + lam))


def tree_gls_solve(
    tree: ReferralTree, ac: AutoCovariance, Y: np.ndarray, constant: float = 0.0
) -> GlsResult:
    """GLS under ``build_sigma(tree, ac)`` plus ``constant`` times the all-ones matrix.

    Exact and non-iterative in O(n K^3) time and O(n K^2) memory for K
    terms.  Term k is beta_k^2 times a unit-variance tree GMRF whose
    precision Q_k is the sparse single-term inverse, so Sigma x = 1 is the
    augmented system [[nugget I, B], [B', -Q]] with B = [beta_1 I ... beta_K I].
    Grouped per node as (x_s, y_1s, ..., y_Ks), it couples a node only to
    its parent: leaf-to-root elimination of (K+1) x (K+1) node blocks and
    root-to-leaf back substitution solve it, and stay valid as the nugget
    goes to zero.  The constant term changes the variance but not the
    weights (Sherman-Morrison).
    """
    Y = np.asarray(Y, dtype=np.float64)
    n = tree.n
    if Y.shape[0] != n:
        raise InvalidParametersError("outcome length must match the tree")
    if not constant >= 0:
        raise InvalidParametersError("constant covariance term must be >= 0")
    b2, lam = np.array(ac.terms, dtype=np.float64).reshape(-1, 2).T
    K = lam.shape[0]
    one_minus = 1.0 - lam * lam
    # E: the (diagonal) block linking a node to its parent; x never links
    e = np.concatenate(([0.0], lam / one_minus))
    S = np.zeros((n, K + 1, K + 1))
    S[:, 0, 0] = ac.nugget
    S[:, 0, 1:] = S[:, 1:, 0] = np.sqrt(b2)
    idx = np.arange(1, K + 1)
    S[:, idx, idx] = -(1.0 + np.outer(tree.degrees - 1.0, lam * lam)) / one_minus
    z = np.zeros((n, K + 1))
    z[:, 0] = 1.0
    F = np.empty_like(S)  # S_c^{-1} E, kept for back substitution
    runs = tree.level_runs()
    # every non-root leaf keeps its degree-1 starting block, the same for
    # all of them: invert it once (node n - 1 is always such a leaf)
    leaf = tree.degrees == 1
    try:
        leaf_inv = np.linalg.inv(S[-1])
        for nodes, _, heads, starts in reversed(runs):
            inv = np.empty((nodes.shape[0], K + 1, K + 1))
            at_leaf = leaf[nodes]
            inv[at_leaf] = leaf_inv
            inv[~at_leaf] = np.linalg.inv(S[nodes[~at_leaf]])
            a = np.einsum("mij,mj->mi", inv, z[nodes])
            z[nodes] = a
            F[nodes] = f = inv * e
            S[heads] -= np.add.reduceat(e[:, None] * f, starts, axis=0)
            z[heads] -= np.add.reduceat(e * a, starts, axis=0)
        z[0] = np.linalg.solve(S[0], z[0])
        for nodes, parents, _, _ in runs:
            z[nodes] -= np.einsum("mij,mj->mi", F[nodes], z[parents])
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError("covariance has a singular node block") from exc
    x = z[:, 0]
    total = x.sum()
    if not (np.all(np.isfinite(x)) and total > 0):
        raise SingularCovarianceError("1' Sigma^{-1} 1 must be finite and positive")
    weights = x / total
    return GlsResult(
        estimate=float(weights @ Y), weights=weights, variance=1.0 / total + constant
    )


def tree_covariance_mass(tree: ReferralTree, ac: AutoCovariance) -> float:
    """Total mass 1' Sigma 1 of ``build_sigma(tree, ac)`` by one batched sweep."""
    n = tree.n
    b2, lam = np.array(ac.terms, dtype=np.float64).reshape(-1, 2).T
    ones = np.ones((n, lam.shape[0]))
    pgf = distance_power_apply(tree, lam, ones).sum(axis=0) / float(n) ** 2
    return n * ac.nugget + n * n * float(b2 @ pgf)


def printed_rse(gls_var: float, mass: float, n: int) -> float:
    """The paper's printed RSE: mass over n, not n^2, so the identity gives 1 / sqrt(n)."""
    return float(np.sqrt(gls_var / (mass / n)))


def theorem2_limit(lam: float, beta2: float) -> float:
    """Large-n limit of n times the GLS variance under one geometric term."""
    _check_ranktwo_args(beta2, lam)
    return beta2 * (1.0 + lam) / (1.0 - lam)


def critical_threshold(lam2: float) -> float:
    """Referral growth rate above which the sample mean loses the 1/n rate."""
    if not abs(lam2) <= 1:
        raise SingularCovarianceError(f"|lambda_2| = {abs(lam2)} is not <= 1")
    if lam2 == 0:
        return float("inf")
    return 1.0 / (lam2 * lam2)


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
