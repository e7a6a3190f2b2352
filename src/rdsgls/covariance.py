"""Covariance algebra for tree-indexed samples.

The autocovariance of a stationary tree walk depends only on tree distance
and decomposes over the walk spectrum.  This module exploits the sparse
closed-form inverse available in the single-geometric-term case, solves
the generalized least squares system exactly along the tree (K^3 work per
distinct subtree shape, K^2 per node), and carries the chain estimator
whose variance certifies the 1/n rate.
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
        if not abs(w.sum() - 1.0) <= 1e-10:
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

    Exact and non-iterative.  Term k is beta_k^2 times a unit-variance
    tree GMRF whose precision Q_k is the sparse single-term inverse, so
    Sigma x = 1 is the augmented system [[nugget I, B], [B', -Q]] with
    B = [beta_1 I ... beta_K I].  Grouped per node as (x_s, y_1s, ...,
    y_Ks), it couples a node only to its parent: leaf-to-root elimination
    of (K+1) x (K+1) node blocks and root-to-leaf back substitution solve
    it, and stay valid as the nugget goes to zero.  A node's elimination
    depends only on its ordered subtree shape, so it runs once per shape
    class (``ReferralTree.shape_classes``): O(C K^3) for C classes plus
    O(n K^2) back substitution.  The constant term changes the variance
    but not the weights (Sherman-Morrison).  This is the one-system case
    of ``tree_gls_solve_stack``; a non-finite outcome raises
    ``InvalidParametersError``.
    """
    Y = np.asarray(Y, dtype=np.float64)
    return tree_gls_solve_stack(tree, (ac,), Y[None], (constant,))[0]


def tree_gls_solve_stack(
    tree: ReferralTree, acs, Y: np.ndarray, constants=None
) -> list:
    """``tree_gls_solve`` of m systems on one tree in one sweep, one result per system.

    ``acs`` holds m covariances with the same number K of terms, ``Y`` the
    m outcome rows (shape m x n) and ``constants`` the m constant terms
    (default all zero).  The leaf-to-root elimination fills one table row
    per shape class and depth, stacked as (C_d, m, K+1, K+1), and the
    back substitution gathers each node's row by its class: O(C m K^3) +
    O(n m K^2) time.  Every batched call does each system's own
    per-matrix arithmetic, and each class does what any one of its nodes
    would, so row i equals the one-system solve of system i bit for bit.
    Raises ``InvalidParametersError`` naming the first non-finite outcome
    and ``SingularCovarianceError`` if any system is singular; solve the
    systems one at a time to find which.
    """
    Y = np.asarray(Y, dtype=np.float64)
    n = tree.n
    m = len(acs)
    if m < 1:
        raise InvalidParametersError("a stack needs at least one covariance")
    if Y.ndim != 2 or Y.shape[1] != n:
        raise InvalidParametersError("outcome length must match the tree")
    if Y.shape[0] != m:
        raise InvalidParametersError(f"{Y.shape[0]} outcome rows for {m} covariances")
    bad = np.argwhere(~np.isfinite(Y))
    if bad.size:
        raise InvalidParametersError(f"outcome row {bad[0, 0]} is not finite at node {bad[0, 1]}")
    constants = (0.0,) * m if constants is None else tuple(constants)
    if len(constants) != m:
        raise InvalidParametersError(f"{len(constants)} constant terms for {m} covariances")
    if not all(c >= 0 for c in constants):
        raise InvalidParametersError("constant covariance term must be >= 0")
    K = len(acs[0].terms)
    if any(len(ac.terms) != K for ac in acs):
        raise InvalidParametersError("stacked covariances must have the same number of terms")
    terms = np.array([ac.terms for ac in acs], dtype=np.float64).reshape(m, K, 2)
    b2, lam = terms[:, :, 0], terms[:, :, 1]
    one_minus = 1.0 - lam * lam
    # E: the (diagonal) block linking a node to its parent; x never links
    e = np.concatenate((np.zeros((m, 1)), lam / one_minus), axis=1)
    # leaf to root, one table row per shape class: a node's block S_c, its
    # a = S_c^{-1} z and its F = S_c^{-1} E depend only on its ordered
    # subtree shape, so each class does the arithmetic of any one member
    shapes = tree.shape_classes()
    counts = np.concatenate([c for _, c, _, _ in shapes])
    bounds = np.cumsum([0] + [len(c) for _, c, _, _ in shapes])
    links = counts.astype(np.float64)  # degree - 1 ...
    links[: bounds[1]] -= 1.0  # ... and the root has no parent edge
    S = np.zeros((counts.shape[0], m, K + 1, K + 1))
    S[:, :, 0, 0] = [ac.nugget for ac in acs]
    S[:, :, 0, 1:] = S[:, :, 1:, 0] = np.sqrt(b2)
    idx = np.arange(1, K + 1)
    S[:, :, idx, idx] = -(1.0 + links[:, None, None] * (lam * lam)) / one_minus
    z = np.zeros((counts.shape[0], m, K + 1))
    z[:, :, 0] = 1.0
    a_at, f_at = [None] * len(shapes), [None] * len(shapes)
    ef = ea = None  # E F and E a of the classes one level down
    try:
        for depth in range(len(shapes) - 1, -1, -1):
            _, _, kids, starts = shapes[depth]
            S_d, z_d = S[bounds[depth] : bounds[depth + 1]], z[bounds[depth] : bounds[depth + 1]]
            if kids.size:
                S_d[1:] -= np.add.reduceat(ef[kids], starts, axis=0)
                z_d[1:] -= np.add.reduceat(ea[kids], starts, axis=0)
            if depth:
                inv = np.linalg.inv(S_d)
                a_at[depth] = a = np.einsum("nmij,nmj->nmi", inv, z_d)
                f_at[depth] = f = inv * e[:, None, :]
                ef, ea = e[:, :, None] * f, e * a
        # root to leaf, one row per node
        root = shapes[0][0][0]
        x = np.empty((n, m, K + 1))
        x[0] = np.linalg.solve(S_d[root], z_d[root][:, :, None])[:, :, 0]
        for depth, (nodes, parents, _, _) in enumerate(tree.level_runs(), start=1):
            c = shapes[depth][0]
            x[nodes] = a_at[depth][c] - np.einsum("nmij,nmj->nmi", f_at[depth][c], x[parents])
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError("covariance has a singular node block") from exc
    results = []
    for k, constant in enumerate(constants):
        xk = x[:, k, 0]
        total = xk.sum()
        if not (np.all(np.isfinite(xk)) and total > 0):
            raise SingularCovarianceError("1' Sigma^{-1} 1 must be finite and positive")
        weights = xk / total
        estimate = float(weights @ Y[k])
        results.append(GlsResult(estimate=estimate, weights=weights, variance=1.0 / total + constant))
    return results


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
