"""The dense n x n tree covariance: the oracle the O(n) paths are checked against.

No estimator or diagnostic imports this module; only the package's
re-exports, the tests and the benchmark's probes reach it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .covariance import AutoCovariance, GlsResult, printed_rse
from .errors import InvalidParametersError, SingularCovarianceError
from .referral import ReferralTree


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Dense covariance over tree nodes, tied to the tree it came from."""

    matrix: np.ndarray
    tree: ReferralTree

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.tree.n, self.tree.n):
            raise InvalidParametersError("covariance shape must match the tree")
        if not np.array_equal(m, m.T):
            raise InvalidParametersError("covariance must be exactly symmetric")

    @property
    def n(self) -> int:
        return self.tree.n


def build_sigma(tree: ReferralTree, ac: AutoCovariance) -> CovarianceMatrix:
    """Dense covariance: entry (s, t) is gamma evaluated at their tree distance."""
    dist = tree.distance_matrix()
    table = ac.gamma_table(int(dist.max()))
    return CovarianceMatrix(matrix=table[dist], tree=tree)


def gls_solve(sigma: CovarianceMatrix, Y: np.ndarray) -> GlsResult:
    """Solve the unit-sum minimum-variance weighting via Cholesky.

    Scale-invariant in Sigma up to the variance field: c Sigma yields the
    same weights and estimate with variance scaled by c.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape[0] != sigma.n:
        raise InvalidParametersError("outcome length must match covariance size")
    bad = np.flatnonzero(~np.isfinite(Y))
    if bad.size:
        raise InvalidParametersError(f"outcome is not finite at node {bad[0]}")
    try:
        chol = scipy.linalg.cho_factor(sigma.matrix, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            "covariance is not positive definite; add a diagonal nugget"
        ) from exc
    x = scipy.linalg.cho_solve(chol, np.ones(sigma.n), check_finite=False)
    total = x.sum()
    if not total > 0:
        raise SingularCovarianceError("1' Sigma^{-1} 1 must be positive")
    weights = x / total
    return GlsResult(estimate=float(weights @ Y), weights=weights, variance=1.0 / total)


def rse(sigma_hat: CovarianceMatrix) -> float:
    """Ratio of plug-in standard errors, GLS over sample mean (``printed_rse``)."""
    n = sigma_hat.n
    gls_var = gls_solve(sigma_hat, np.zeros(n)).variance
    return printed_rse(gls_var, sigma_hat.matrix.sum(), n)
