import numpy as np
import pytest

import rdsgls as r
from conftest import random_tree
from rdsgls.diagnostics import GREY_LINE_GRID
from rdsgls.referral import tree_distance_pgf


def star_tree(n):
    return r.ReferralTree(np.concatenate([[-1], np.zeros(n - 1, dtype=np.int64)]))


def test_rse_identity_as_printed():
    sigma = r.CovarianceMatrix(matrix=np.eye(4), tree=star_tree(4))
    assert abs(r.rse(sigma) - 0.5) < 1e-12


def test_rse_matches_ranktwo_curve():
    tree = r.complete_binary_tree(10)
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((0.37, 0.8),)))
    assert abs(r.rse(sigma) - r.ranktwo_rse_value(tree, 0.8)) < 1e-10


def test_rse_scale_invariance():
    rng = np.random.default_rng(0)
    tree = random_tree(rng, 40)
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((0.5, 0.4), (0.2, -0.2)), nugget=0.1))
    base = r.rse(sigma)
    for c in (0.3, 2.0, 11.0):
        scaled = r.CovarianceMatrix(matrix=c * sigma.matrix, tree=tree)
        assert abs(r.rse(scaled) - base) < 1e-12


def test_rse_requires_positive_definite():
    tree = star_tree(3)
    bad = r.CovarianceMatrix(matrix=np.array([[1.0, 2, 2], [2, 1, 2], [2, 2, 1.0]]), tree=tree)
    with pytest.raises(r.SingularCovarianceError):
        r.rse(bad)


def test_curve_at_zero_matches_identity_value():
    for n, tree in ((31, r.complete_binary_tree(5)), (20, star_tree(20))):
        val = r.ranktwo_rse_value(tree, 0.0)
        assert abs(val - 1.0 / np.sqrt(n)) < 1e-12


def test_curve_loading_free_via_dense_build():
    tree = r.complete_binary_tree(6)
    grid = np.array([-0.5, 0.2, 0.7])
    curve = r.ranktwo_rse_curve(tree, grid)
    for beta2 in (0.1, 1.0, 10.0):
        dense = [
            r.rse(r.build_sigma(tree, r.AutoCovariance(terms=((beta2, lam),))))
            for lam in grid
        ]
        assert np.max(np.abs(np.asarray(dense) - curve)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 500])
def test_curve_keeps_the_scalar_gls_variance_bits(n):
    # the curve's array call keeps the scalar one_sigma_inv_one_ranktwo's bits
    tree = random_tree(np.random.default_rng(n), n)
    grid = GREY_LINE_GRID
    gls_var = np.array([1.0 / r.one_sigma_inv_one_ranktwo(n, 1.0, lam) for lam in grid])
    pgf = tree_distance_pgf(tree, grid)
    assert np.array_equal(r.ranktwo_rse_curve(tree, grid), np.sqrt(gls_var / (n * pgf)))


def test_curve_monotone_on_511_binary():
    tree = r.complete_binary_tree(9)
    grid = np.linspace(0.0, 0.9, 91)
    vals = r.ranktwo_rse_curve(tree, grid)
    assert np.all(np.diff(vals) <= 1e-12)


def test_jensen_equality_for_single_term():
    rng = np.random.default_rng(4)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(3, 80)))
        ac = r.AutoCovariance(terms=((rng.random() + 0.1, rng.random() * 0.9),))
        res = r.jensen_check(ac, tree)
        assert res.inequality_checked and res.inequality_holds
        assert abs(res.lhs - res.rhs) <= 1e-10 * max(1.0, abs(res.lhs))


def test_jensen_strict_for_two_terms():
    tree = r.complete_binary_tree(8)
    res = r.jensen_check(r.AutoCovariance(terms=((0.5, 0.9), (0.5, 0.1))), tree)
    assert res.lhs > res.rhs
    assert abs(res.lambda_auto - 0.5) < 1e-12
    assert res.lambda_max_abs == 0.9
    assert res.magnitude_ok


def test_jensen_inequality_random_nonnegative_spectra():
    rng = np.random.default_rng(9)
    trees = [random_tree(rng, int(rng.integers(3, 60))) for _ in range(10)]
    for _ in range(100):
        terms = tuple(
            (rng.random() + 0.01, rng.random() * 0.95)
            for _ in range(rng.integers(1, 5))
        )
        ac = r.AutoCovariance(terms=terms, nugget=rng.random() * 0.1)
        tree = trees[rng.integers(len(trees))]
        res = r.jensen_check(ac, tree)
        assert res.inequality_checked and res.inequality_holds
        assert res.magnitude_ok


def test_jensen_negative_spectrum_skips_inequality():
    tree = r.complete_binary_tree(4)
    res = r.jensen_check(r.AutoCovariance(terms=((0.5, -0.3), (0.5, 0.6))), tree)
    assert not res.inequality_checked
    assert res.inequality_holds is None
    assert res.magnitude_ok  # |0.15| <= 0.6


def test_diagnostic_point_requires_positive_rse():
    with pytest.raises(r.InvalidParametersError):
        r.DiagnosticPoint(estimator="auto", lambda_hat=0.5, rse=0.0, n=10)


@pytest.mark.parametrize("bad", [np.nan, 1.0, -1.0])
def test_curve_rejects_nan_and_unit_eigenvalues(bad):
    tree = r.complete_binary_tree(3)
    with pytest.raises(r.SingularCovarianceError, match="grey-line eigenvalues"):
        r.ranktwo_rse_curve(tree, np.array([0.2, bad]))
    with pytest.raises(r.SingularCovarianceError):
        r.ranktwo_rse_value(tree, bad)
