"""Variance-reduction diagnostics computable from a single sample.

The headline quantity is the ratio of plug-in standard errors between the
GLS estimator and the plain mean, both under the same estimated
covariance (``rdsgls.reference.rse`` computes it densely, as an oracle).
Under a single geometric term the ratio collapses to a function of the
estimated eigenvalue alone: a reference curve for every estimator's point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import AutoCovariance, one_sigma_inv_one_ranktwo
from .errors import InvalidParametersError, SingularCovarianceError
from .referral import ReferralTree, tree_distance_pgf

GREY_LINE_GRID = np.linspace(-0.9, 0.9, 181)


@dataclass(frozen=True)
class DiagnosticPoint:
    """One estimator's (estimated eigenvalue, RSE) pair."""

    estimator: str
    lambda_hat: float
    rse: float
    n: int

    def __post_init__(self):
        if not self.rse > 0:
            raise InvalidParametersError("RSE must be positive")


@dataclass(frozen=True)
class JensenResult:
    """Outcome of the one-term-lower-bound check on a quadratic form.

    ``lambda_auto`` is the lag-1 autocorrelation of the input covariance;
    the inequality branch compares the total covariance mass against the
    single-term surrogate built from that autocorrelation.
    """

    lambda_auto: float
    lambda_max_abs: float
    magnitude_ok: bool
    inequality_checked: bool
    inequality_holds: bool | None
    lhs: float
    rhs: float


def ranktwo_rse_curve(tree: ReferralTree, lambda_grid: np.ndarray) -> np.ndarray:
    """RSE as a function of the eigenvalue under a single geometric term.

    The loading scale cancels between numerator and denominator, so the
    curve depends only on the eigenvalue and the tree's distance PGF,
    evaluated for the whole grid by ``tree_distance_pgf``.
    """
    grid = np.asarray(lambda_grid, dtype=np.float64)
    # written as "not inside" so that NaN counts as outside
    if not np.all((grid > -1) & (grid < 1)):
        raise SingularCovarianceError("grey-line eigenvalues must satisfy |lambda| < 1")
    n = tree.n
    gls_var = 1.0 / one_sigma_inv_one_ranktwo(n, 1.0, grid)
    # total mass of the unit-loading covariance is n^2 G(lambda)
    return np.sqrt(gls_var / (n * tree_distance_pgf(tree, grid)))


def ranktwo_rse_value(tree: ReferralTree, lam: float) -> float:
    """Single point of the single-term RSE curve."""
    return float(ranktwo_rse_curve(tree, np.array([lam]))[0])


def jensen_check(gamma: AutoCovariance, tree: ReferralTree) -> JensenResult:
    """Compare covariance mass against its single-term surrogate.

    The surrogate replaces the full spectrum by one geometric term at the
    lag-1 autocorrelation.  With a nonnegative spectrum the surrogate
    never exceeds the true mass (convexity of the distance PGF), with
    equality exactly in the single-term case.  The magnitude bound
    |lambda_auto| <= max |lambda_l| is checked regardless of sign.
    """
    g0 = gamma.gamma(0)
    g1 = gamma.gamma(1)
    if g0 <= 0:
        raise InvalidParametersError("gamma(0) must be positive")
    lambda_auto = g1 / g0
    lam_max = gamma.max_abs_eigenvalue()
    magnitude_ok = abs(lambda_auto) <= lam_max + 1e-12

    n = tree.n
    spectral_ok = all(lam >= 0 for _, lam in gamma.terms)
    pgf = tree_distance_pgf(tree, [lam for _, lam in gamma.terms] + [lambda_auto])
    lhs = n * float(gamma.nugget)
    for (b2, _), g in zip(gamma.terms, pgf):
        lhs += n * n * b2 * g
    rhs = n * n * g0 * pgf[-1]
    if spectral_ok:
        holds = bool(lhs >= rhs - 1e-9 * max(1.0, abs(lhs)))
    else:
        holds = None
    return JensenResult(
        lambda_auto=float(lambda_auto),
        lambda_max_abs=float(lam_max),
        magnitude_ok=bool(magnitude_ok),
        inequality_checked=spectral_ok,
        inequality_holds=holds,
        lhs=float(lhs),
        rhs=float(rhs),
    )
