import numpy as np
import pytest

import rdsgls as r
from conftest import random_tree
from rdsgls.referral import tree_distance_pgf


def test_gamma_eval_single_term():
    ac = r.AutoCovariance(terms=((0.25, 0.8),))
    assert abs(ac.gamma(2) - 0.16) < 1e-15


def test_gamma_eval_two_terms():
    ac = r.AutoCovariance(terms=((0.2, 0.5), (0.1, -0.3)))
    assert abs(ac.gamma(1) - 0.07) < 1e-15


def test_gamma_eval_nugget_only_at_lag_zero():
    ac = r.AutoCovariance(terms=((0.25, 0.8),), nugget=0.1)
    assert abs(ac.gamma(0) - 0.35) < 1e-15
    assert abs(ac.gamma(1) - 0.20) < 1e-15


def test_gamma_bounded_by_lag_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        terms = tuple(
            (rng.random(), rng.uniform(-0.95, 0.95)) for _ in range(rng.integers(1, 4))
        )
        ac = r.AutoCovariance(terms=terms, nugget=rng.random() * 0.1)
        g0 = ac.gamma(0)
        for d in range(1, 40):
            assert abs(ac.gamma(d)) <= g0 + 1e-12


def test_autocovariance_rejects_unit_eigenvalue():
    with pytest.raises(r.SingularCovarianceError):
        r.AutoCovariance(terms=((0.5, 1.0),))


NAN = float("nan")
SINGULAR, INVALID = r.SingularCovarianceError, r.InvalidParametersError
PATH3 = r.ReferralTree(np.array([-1, 0, 1]))
NAN_CALLS = {
    "autocov-eigenvalue": (lambda: r.AutoCovariance(terms=((1.0, NAN),)), SINGULAR),
    "autocov-loading": (lambda: r.AutoCovariance(terms=((NAN, 0.5),)), INVALID),
    "autocov-nugget": (lambda: r.AutoCovariance(terms=((1.0, 0.5),), nugget=NAN), INVALID),
    "from-spectrum": (lambda: r.AutoCovariance.from_spectrum(np.ones(2), [1.0, NAN]), SINGULAR),
    "inverse-apply-beta2": (lambda: r.ranktwo_inverse_apply(PATH3, NAN, 0.5, np.ones(3)), INVALID),
    "inverse-apply-lam": (lambda: r.ranktwo_inverse_apply(PATH3, 1.0, NAN, np.ones(3)), SINGULAR),
    "solve-ones-beta2": (lambda: r.ranktwo_solve_ones(PATH3, NAN, 0.5), INVALID),
    "solve-ones-lam": (lambda: r.ranktwo_solve_ones(PATH3, 1.0, NAN), SINGULAR),
    "one-sigma-inv-one-beta2": (lambda: r.one_sigma_inv_one_ranktwo(5, NAN, 0.5), INVALID),
    "theorem2-beta2": (lambda: r.theorem2_limit(0.5, NAN), INVALID),
    "theorem2-lam": (lambda: r.theorem2_limit(NAN, 0.5), SINGULAR),
    "critical-threshold": (lambda: r.critical_threshold(NAN), SINGULAR),
    "tree-pgf": (lambda: tree_distance_pgf(PATH3, [NAN]), INVALID),
    "pmf-pgf-grid": (lambda: r.tree_distance_distribution(PATH3).pgf_grid([NAN]), INVALID),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_nan_parameters_raise_typed_errors(name):
    call, error = NAN_CALLS[name]
    with pytest.raises(error):
        call()


def test_build_sigma_two_node():
    tree = r.ReferralTree(np.array([-1, 0]))
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((0.5, 0.3),), nugget=0.1))
    expected = 0.5 * np.array([[1.0, 0.3], [0.3, 1.0]]) + 0.1 * np.eye(2)
    assert np.allclose(sigma.matrix, expected)


def test_build_sigma_three_node_binary():
    sigma = r.build_sigma(r.complete_binary_tree(2), r.AutoCovariance(terms=((1.0, 0.5),)))
    expected = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.25], [0.5, 0.25, 1.0]])
    assert np.allclose(sigma.matrix, expected)


def test_build_sigma_mass_identity():
    # total covariance mass decomposes over the distance PGF
    rng = np.random.default_rng(3)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(2, 60)))
        terms = tuple(
            (rng.random(), rng.uniform(-0.9, 0.9)) for _ in range(rng.integers(1, 4))
        )
        nugget = rng.random() * 0.2
        ac = r.AutoCovariance(terms=terms, nugget=nugget)
        sigma = r.build_sigma(tree, ac)
        dist = r.tree_distance_distribution(tree)
        expected = tree.n**2 * sum(
            b2 * dist.pgf_grid([lam])[0] for b2, lam in terms
        ) + tree.n * nugget
        assert abs(sigma.matrix.sum() - expected) < 1e-7 * max(1.0, abs(expected))


def test_ranktwo_inverse_two_node():
    tree = r.ReferralTree(np.array([-1, 0]))
    beta2, lam = 0.7, 0.4
    sigma = beta2 * np.array([[1.0, lam], [lam, 1.0]])
    inv = np.linalg.inv(sigma)
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0
        assert np.allclose(r.ranktwo_inverse_apply(tree, beta2, lam, e), inv[:, k])


def test_ranktwo_inverse_against_dense_solve():
    tree, _ = r.galton_watson_tree([1 / 6, 1 / 3, 1 / 3, 1 / 6], 200, rng_seed=8)
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((1.0, 0.7),)))
    rng = np.random.default_rng(1)
    v = rng.normal(size=200)
    out = r.ranktwo_inverse_apply(tree, 1.0, 0.7, v)
    assert np.max(np.abs(sigma.matrix @ out - v)) < 1e-8


def test_ranktwo_solve_ones_formula():
    tree, _ = r.galton_watson_tree([0.0, 0.5, 0.5], 60, rng_seed=4)
    beta2, lam = 0.6, -0.35
    x = r.ranktwo_solve_ones(tree, beta2, lam)
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((beta2, lam),)))
    assert np.max(np.abs(sigma.matrix @ x - 1.0)) < 1e-10
    by_formula = (1.0 - lam * (tree.degrees - 1.0)) / (beta2 * (1.0 + lam))
    assert np.allclose(x, by_formula)


def test_ranktwo_inverse_rejects_unit_lambda():
    tree = r.complete_binary_tree(3)
    with pytest.raises(r.SingularCovarianceError):
        r.ranktwo_inverse_apply(tree, 1.0, 1.0, np.ones(7))


def test_sparse_inverse_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(2, 120)))
        for lam in (-0.5, 0.3, 0.9):
            sigma = r.build_sigma(tree, r.AutoCovariance(terms=((1.0, lam),)))
            inv = np.column_stack(
                [
                    r.ranktwo_inverse_apply(tree, 1.0, lam, e)
                    for e in np.eye(tree.n)
                ]
            )
            assert np.max(np.abs(sigma.matrix @ inv - np.eye(tree.n))) < 1e-8


def test_one_sigma_inv_one_examples():
    # n=3, lam=0.5, beta2=1 -> 5/3, matching the dense inverse on a path
    val = r.one_sigma_inv_one_ranktwo(3, 1.0, 0.5)
    assert abs(val - 5 / 3) < 1e-12
    tree = r.ReferralTree(np.array([-1, 0, 1]))
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((1.0, 0.5),)))
    dense = float(np.ones(3) @ np.linalg.solve(sigma.matrix, np.ones(3)))
    assert abs(val - dense) < 1e-12
    # lam=0 reduces to independent sampling
    assert abs(r.one_sigma_inv_one_ranktwo(10, 2.0, 0.0) - 5.0) < 1e-12
    # committed value used by the acceptance suite
    assert abs(1023 / r.one_sigma_inv_one_ranktwo(1023, 0.25, 0.8) - 0.45 / 0.2015640274) < 1e-9


def test_one_sigma_inv_one_topology_free():
    n = 33
    path = r.ReferralTree(np.concatenate([[-1], np.arange(n - 1)]))
    star = r.ReferralTree(np.concatenate([[-1], np.zeros(n - 1, dtype=int)]))
    binary = r.complete_binary_tree(5)  # n=31; use matching sizes instead
    for lam in (-0.4, 0.2, 0.8):
        want = r.one_sigma_inv_one_ranktwo(n, 1.3, lam)
        for tree in (path, star):
            x = r.ranktwo_solve_ones(tree, 1.3, lam)
            assert abs(x.sum() - want) < 1e-10 * max(1.0, abs(want))
    want31 = r.one_sigma_inv_one_ranktwo(31, 1.3, 0.6)
    assert abs(r.ranktwo_solve_ones(binary, 1.3, 0.6).sum() - want31) < 1e-10


def test_one_sigma_inv_one_singularity():
    with pytest.raises(r.SingularCovarianceError):
        r.one_sigma_inv_one_ranktwo(5, 1.0, -1.0)
    with pytest.raises(r.SingularCovarianceError, match="lambda = 1.5 outside"):
        r.one_sigma_inv_one_ranktwo(5, 1.0, np.array([0.2, 1.5, -1.0]))
    with pytest.raises(r.SingularCovarianceError, match="lambda = nan outside"):
        r.one_sigma_inv_one_ranktwo(5, 1.0, float("nan"))
    with pytest.raises(r.SingularCovarianceError, match="lambda = nan outside"):
        r.one_sigma_inv_one_ranktwo(5, 1.0, np.array([0.2, np.nan]))


def test_one_sigma_inv_one_array_matches_scalars():
    lams = np.array([-0.9, -0.3, 0.0, 0.45, 0.8, 1.0])
    want = [r.one_sigma_inv_one_ranktwo(17, 0.6, lam) for lam in lams.tolist()]
    assert np.array_equal(r.one_sigma_inv_one_ranktwo(17, 0.6, lams), want)


def test_gls_identity_covariance_is_mean():
    tree = r.complete_binary_tree(3)
    sigma = r.CovarianceMatrix(matrix=0.7 * np.eye(7), tree=tree)
    y = np.arange(7, dtype=float)
    res = r.gls_solve(sigma, y)
    assert abs(res.estimate - y.mean()) < 1e-12
    assert np.allclose(res.weights, 1 / 7)
    assert abs(res.variance - 0.1) < 1e-12


def test_gls_three_node_path_hand_solve():
    tree = r.ReferralTree(np.array([-1, 0, 1]))
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((1.0, 0.5),)))
    res = r.gls_solve(sigma, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(res.weights, [0.4, 0.2, 0.4])
    assert abs(res.variance - 0.6) < 1e-12
    assert abs(res.variance - 1 / r.one_sigma_inv_one_ranktwo(3, 1.0, 0.5)) < 1e-12


def test_gls_scale_invariance():
    tree = r.complete_binary_tree(4)
    rng = np.random.default_rng(6)
    y = rng.normal(size=15)
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((0.5, 0.6),), nugget=0.05))
    base = r.gls_solve(sigma, y)
    scaled = r.gls_solve(
        r.CovarianceMatrix(matrix=3.0 * sigma.matrix, tree=tree), y
    )
    assert abs(base.estimate - scaled.estimate) < 1e-12
    assert np.allclose(base.weights, scaled.weights)
    assert abs(scaled.variance - 3.0 * base.variance) < 1e-12


def test_gls_rejects_indefinite():
    tree = r.ReferralTree(np.array([-1, 0]))
    bad = r.CovarianceMatrix(matrix=np.array([[1.0, 2.0], [2.0, 1.0]]), tree=tree)
    with pytest.raises(r.SingularCovarianceError):
        r.gls_solve(bad, np.zeros(2))


def test_covariance_matrix_rejects_asymmetric_and_nan():
    tree = r.ReferralTree(np.array([-1, 0]))
    for m in ([[1.0, 0.5], [0.4, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
        with pytest.raises(r.InvalidParametersError):
            r.CovarianceMatrix(matrix=np.array(m), tree=tree)


def test_gls_unbiased_over_replicates(chain09):
    tree = r.complete_binary_tree(6)
    y = np.array([1.0, 0.0])
    states = r.markov_walk_batch(tree, chain09, 10_000, 99)
    Y = y[states]
    lam, beta2 = 0.8, 0.25
    x = 1.0 - lam * (tree.degrees - 1.0)
    estimates = (Y @ x) / x.sum()
    se = estimates.std(ddof=1) / np.sqrt(10_000)
    assert abs(estimates.mean() - 0.5) < 3 * se


def test_gls_optimality():
    rng = np.random.default_rng(12)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(3, 40)))
        terms = tuple(
            (rng.random() + 0.05, rng.uniform(-0.8, 0.8))
            for _ in range(rng.integers(1, 3))
        )
        sigma = r.build_sigma(tree, r.AutoCovariance(terms=terms, nugget=0.05))
        res = r.gls_solve(sigma, np.zeros(tree.n))
        for _ in range(100):
            g = rng.normal(size=tree.n)
            g = g / g.sum() if abs(g.sum()) > 1e-8 else np.full(tree.n, 1 / tree.n)
            assert res.variance <= g @ sigma.matrix @ g + 1e-10


def test_theorem2_limit_values():
    assert abs(r.theorem2_limit(0.8, 0.25) - 2.25) < 1e-12
    assert abs(r.theorem2_limit(0.0, 0.7) - 0.7) < 1e-12
    assert abs(r.theorem2_limit(0.5, 1.0) - 3.0) < 1e-12


def test_theorem2_is_limit_of_quadratic_form():
    for lam in (0.3, 0.6, 0.9):
        vals = [
            n / r.one_sigma_inv_one_ranktwo(n, 0.5, lam)
            for n in (2**7 - 1, 2**10 - 1, 2**13 - 1)
        ]
        limit = r.theorem2_limit(lam, 0.5)
        assert vals[0] < vals[1] < vals[2] < limit
        # gap closes like 1/n with a (1-lam)^-2 constant, so stay loose here
        assert abs(vals[-1] - limit) / limit < 0.01


def test_vandermonde_weights_examples():
    assert np.allclose(r.vandermonde_weights([1.0]), [1.0])
    assert np.allclose(r.vandermonde_weights([1.0, 0.5]), [-1.0, 2.0])
    lams = np.array([1.0, 0.5, -0.25])
    g = r.vandermonde_weights(lams)
    V = np.power(lams[:, None], np.arange(3)[None, :])
    assert np.max(np.abs(V @ g - np.array([1.0, 0.0, 0.0]))) < 1e-12


def test_vandermonde_rejects_repeats():
    with pytest.raises(r.ReducedSystemError):
        r.vandermonde_weights([1.0, 0.5, 0.5])


def test_vandermonde_estimator_unbiased(chain09):
    tree = r.complete_binary_tree(7)
    y = np.array([1.0, 0.0])
    states = r.markov_walk_batch(tree, chain09, 10_000, 123)
    Y = y[states]
    eig = np.array([1.0, 0.8])
    gammas = []
    for rep in range(10_000):
        sample = r.RdsSample(
            tree=tree, node=states[rep], degree=np.ones(tree.n), outcome=Y[rep]
        )
        gammas.append(r.vandermonde_estimator(sample, eig))
    gammas = np.asarray(gammas)
    se = gammas.std(ddof=1) / 100
    assert abs(gammas.mean() - 0.5) < 3 * se


def test_vandermonde_estimator_requires_binary_tree(chain09):
    tree = r.ReferralTree(np.array([-1, 0, 1]))
    sample = r.markov_walk(tree, chain09, 0, y=np.array([1.0, 0.0]))
    with pytest.raises(r.InvalidParametersError):
        r.vandermonde_estimator(sample, np.array([1.0, 0.8]))


def test_critical_threshold():
    assert abs(r.critical_threshold(0.73) - 1.876) < 1e-3
    assert r.critical_threshold(1.0) == 1.0
    assert r.critical_threshold(0.5) == 4.0
    assert r.critical_threshold(0.0) == float("inf")
