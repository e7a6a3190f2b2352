"""The O(n) tree covariance kernel against the dense reference builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdsgls as r
from rdsgls.cli import PLAIN_ESTIMATORS
from rdsgls.covariance import tree_covariance_mass, tree_gls_solve_forest
from rdsgls.diagnostics import GREY_LINE_GRID
from rdsgls.referral import (
    MAX_DENSE_NODES,
    distance_counts,
    distance_power_apply,
    tree_distance_pgf,
)
from test_tree_gls_pin import stack

PROPERTY = settings(max_examples=60, deadline=None)

lams = st.floats(-0.999, 0.999, allow_nan=False)
loadings = st.one_of(st.just(0.0), st.floats(0.01, 4.0))


@st.composite
def trees(draw, max_n=40):
    """Random recruitment trees: parent[t] < t only, so levels interleave."""
    n = draw(st.integers(1, max_n))
    picks = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n - 1, max_size=n - 1))
    parent = np.array([-1] + [int(u * t) for t, u in enumerate(picks, start=1)])
    return r.ReferralTree(parent)


@PROPERTY
@given(tree=trees(), lam=st.lists(lams, min_size=1, max_size=4), seed=st.integers(0, 2**16))
def test_sweep_apply_matches_dense(tree, lam, seed):
    V = np.random.default_rng(seed).normal(size=(tree.n, len(lam)))
    out = distance_power_apply(tree, lam, V)
    for j, x in enumerate(lam):
        dense = r.build_sigma(tree, r.AutoCovariance(terms=((1.0, x),))).matrix @ V[:, j]
        assert np.allclose(out[:, j], dense, rtol=0, atol=1e-10 * max(1.0, np.abs(dense).max()))


def recursive_tree(rng, n):
    """Random recursive tree: parent[t] uniform on 0..t-1."""
    return r.ReferralTree(
        np.concatenate(([-1], (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)))
    )


@st.composite
def stars_and_paths(draw, max_n=40):
    """Every non-root node a leaf, or a single leaf at the end of a path."""
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        return r.ReferralTree(np.array([-1] + [0] * (n - 1)))
    return r.ReferralTree(np.arange(-1, n - 1))


@PROPERTY
@given(
    tree=st.one_of(trees(), stars_and_paths()),
    terms=st.lists(st.tuples(loadings, lams), min_size=1, max_size=4),
    nugget=st.one_of(st.just(0.0), st.just(1e-12), st.floats(0.1, 3.0)),
)
def test_tree_solve_matches_gls_solve(tree, terms, nugget):
    ac = r.AutoCovariance(terms=tuple(terms), nugget=nugget)
    sigma = r.build_sigma(tree, ac)
    Y = np.linspace(-1.0, 2.0, tree.n)
    if nugget == 0 and all(b2 == 0 for b2, _ in terms):
        for solve in (lambda: r.gls_solve(sigma, Y),
                      lambda: tree_gls_solve_forest([(tree, ac, Y, 0.0)])):
            with pytest.raises(r.SingularCovarianceError):
                solve()
        return
    dense = r.gls_solve(sigma, Y)
    fast = tree_gls_solve_forest([(tree, ac, Y, 0.0)])[0]
    assert np.max(np.abs(fast.weights - dense.weights)) < 1e-9
    assert abs(fast.estimate - dense.estimate) < 1e-8
    assert abs(fast.variance - dense.variance) <= 1e-8 * dense.variance
    mass = sigma.matrix.sum()
    assert abs(tree_covariance_mass(tree, ac) - mass) <= 1e-10 * max(1.0, abs(mass))


@PROPERTY
@given(
    tree=trees(),
    terms=st.lists(st.tuples(loadings, lams), max_size=4),
    nugget=st.floats(0.1, 3.0),
    constant=st.floats(0.0, 3.0),
)
def test_constant_term_moves_only_the_variance(tree, terms, nugget, constant):
    # the nugget keeps the dense reference well conditioned next to c 11'
    ac = r.AutoCovariance(terms=tuple(terms), nugget=nugget)
    Y = np.linspace(-1.0, 2.0, tree.n)
    dense = r.gls_solve(r.CovarianceMatrix(r.build_sigma(tree, ac).matrix + constant, tree), Y)
    fast = tree_gls_solve_forest([(tree, ac, Y, constant)])[0]
    assert np.array_equal(fast.weights, tree_gls_solve_forest([(tree, ac, Y, 0.0)])[0].weights)
    assert np.max(np.abs(fast.weights - dense.weights)) < 1e-9
    assert abs(fast.variance - dense.variance) <= 1e-8 * dense.variance


@PROPERTY
@given(tree=trees(max_n=60), xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_sweep_pgf_matches_distance_distribution(tree, xs):
    expected = r.tree_distance_distribution(tree).pgf_grid(np.array(xs))
    assert np.allclose(tree_distance_pgf(tree, xs), expected, rtol=0, atol=1e-12)


def dense_distance_distribution(tree):
    """The dense pmf ``tree_distance_distribution`` used to build, as the oracle."""
    dist = tree.distance_matrix()
    n = tree.n
    counts = np.zeros(int(dist.max()) + 1, dtype=np.int64)
    step = max(1, 2**22 // max(n, 1))
    for start in range(0, n, step):
        block = dist[start : start + step].astype(np.int64, copy=False)
        counts += np.bincount(block.ravel(), minlength=len(counts))
    return r.DistanceDistribution(pmf=counts / float(n) ** 2, n=n)


@PROPERTY
@given(tree=st.one_of(trees(max_n=80), stars_and_paths(max_n=80)))
def test_distance_counts_match_dense_bincount(tree):
    counts = distance_counts(tree)
    assert counts.dtype == np.int64 and counts.shape == (2 * tree.num_levels - 1,)
    dense = np.bincount(tree.distance_matrix().ravel(), minlength=counts.shape[0])
    assert np.array_equal(counts, dense)
    assert np.array_equal(r.tree_distance_distribution(tree).pmf,
                          dense_distance_distribution(tree).pmf)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 3000))
def test_histogram_pgf_matches_sweep(seed, n):
    rng = np.random.default_rng(seed)
    tree = recursive_tree(rng, n)
    grid = GREY_LINE_GRID
    assert grid.shape[0] > 2 * tree.num_levels - 1  # the histogram branch
    sweep = distance_power_apply(tree, grid, np.ones((n, grid.shape[0]))).sum(axis=0)
    assert np.allclose(tree_distance_pgf(tree, grid), sweep / float(n) ** 2, rtol=0, atol=1e-12)
    assert np.array_equal(r.tree_distance_distribution(tree).pmf,
                          dense_distance_distribution(tree).pmf)


def test_path_takes_the_sweep():
    n = 400
    tree = r.ReferralTree(np.arange(-1, n - 1))
    grid = GREY_LINE_GRID
    sweep = distance_power_apply(tree, grid, np.ones((n, grid.shape[0]))).sum(axis=0)
    assert np.array_equal(tree_distance_pgf(tree, grid), sweep / float(n) ** 2)
    assert "counts" not in tree._cache  # no O(n^2) histogram was built


def test_distance_distribution_past_the_dense_cap():
    # the dense pmf raised CapacityError past MAX_DENSE_NODES
    n = 50_000
    assert n > MAX_DENSE_NODES
    rng = np.random.default_rng(9)
    tree = recursive_tree(rng, n)
    dist = r.tree_distance_distribution(tree)
    assert dist.n == n and dist.pmf[0] == n / float(n) ** 2
    assert abs(dist.pmf.sum() - 1.0) < 1e-12
    assert np.allclose(dist.pgf_grid(GREY_LINE_GRID), tree_distance_pgf(tree, GREY_LINE_GRID),
                       rtol=0, atol=1e-12)


def test_distance_distribution_refuses_a_deep_path():
    # a path's histogram buffer grows as n^2: past 5,000 nodes it outgrows
    # the dense matrix's memory budget and fails before allocating
    with pytest.raises(r.CapacityError):
        r.tree_distance_distribution(r.ReferralTree(np.arange(-1, 5_001)))
    r.tree_distance_distribution(r.ReferralTree(np.arange(-1, 99)))


def test_singular_node_block_falls_back_to_mean():
    # one block and a constant outcome: Sigma is a multiple of 11', so the
    # tree solve hits a singular block and sbm_fgls reports the fallback
    tree = r.complete_binary_tree(4)
    sample = r.RdsSample(
        tree=tree, node=np.arange(tree.n), degree=np.ones(tree.n),
        outcome=np.full(tree.n, 3.0), block=np.zeros(tree.n, dtype=int),
    )
    rep = r.sbm_fgls(sample)
    assert rep.mu_hat == 3.0 and rep.rse is None
    assert any("fell back" in w for w in rep.warnings)


def test_estimators_past_the_dense_cap():
    # every estimate here is O(n); none may hit the dense-matrix capacity cap
    n = 12_000
    assert n > MAX_DENSE_NODES
    rng = np.random.default_rng(5)
    tree = recursive_tree(rng, n)
    block = rng.integers(0, 3, n)
    sample = r.RdsSample(
        tree=tree,
        node=np.arange(n),
        degree=rng.integers(1, 20, n).astype(float),
        outcome=(rng.random(n) < 0.3 + 0.2 * block).astype(float),
        block=block,
    )
    for report in (PLAIN_ESTIMATORS["auto"](sample), PLAIN_ESTIMATORS["delta"](sample),
                   r.sbm_fgls(sample)):
        assert np.isfinite(report.mu_hat) and np.isfinite(report.rse)
    dataset = r.emit_diagnostics(sample)
    assert dataset.warnings == ()
    assert {p.estimator for p in dataset.points} == {"auto", "delta", "sbm_y", "sbm_z"}
    assert all(np.isfinite(p.rse) for p in dataset.points)
    assert np.all(np.isfinite(dataset.grey_rse))


@st.composite
def bushy_trees(draw, max_n=40):
    """Heap-numbered trees in which every internal node has ``b`` children."""
    n = draw(st.integers(2, max_n))
    b = draw(st.integers(2, 6))
    return r.ReferralTree(np.array([-1] + [(t - 1) // b for t in range(1, n)]))


@st.composite
def stacked_systems(draw):
    """m systems on one tree with one term count K, zero nuggets allowed."""
    tree = draw(st.one_of(trees(), stars_and_paths(), bushy_trees()))
    K = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    acs = [
        r.AutoCovariance(
            terms=tuple(draw(st.lists(st.tuples(loadings, lams), min_size=K, max_size=K))),
            nugget=draw(st.one_of(st.just(0.0), st.floats(0.1, 3.0))),
        )
        for _ in range(m)
    ]
    constants = draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))
    Y = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(m, tree.n))
    return tree, acs, Y, constants


def solo_or_none(tree, ac, y, constant):
    try:
        return tree_gls_solve_forest([(tree, ac, y, constant)])[0]
    except r.SingularCovarianceError:
        return None


@PROPERTY
@given(systems=stacked_systems())
def test_stacked_sweep_rows_equal_solo_solves(systems):
    tree, acs, Y, constants = systems
    solo = [solo_or_none(tree, *args) for args in zip(acs, Y, constants)]
    if any(result is None for result in solo):
        with pytest.raises(r.SingularCovarianceError):
            tree_gls_solve_forest(stack(tree, acs, Y, constants))
        return
    stacked = tree_gls_solve_forest(stack(tree, acs, Y, constants))
    assert len(stacked) == len(acs)
    for row, one in zip(stacked, solo):
        assert row.weights.tobytes() == one.weights.tobytes()
        assert repr(row.estimate) == repr(one.estimate)
        assert repr(row.variance) == repr(one.variance)


def test_stacked_sweep_rejects_mismatched_systems():
    tree = r.complete_binary_tree(3)
    one = r.AutoCovariance(terms=((1.0, 0.5),), nugget=1.0)
    two = r.AutoCovariance(terms=((1.0, 0.5), (0.5, -0.2)), nugget=1.0)
    Y = np.ones((2, tree.n))
    with pytest.raises(r.InvalidParametersError, match="same number of terms"):
        tree_gls_solve_forest(stack(tree, [one, two], Y))
    with pytest.raises(r.InvalidParametersError, match="outcome length"):
        tree_gls_solve_forest(stack(tree, [one, one], Y[:, 1:]))
    with pytest.raises(r.InvalidParametersError, match=">= 0"):
        tree_gls_solve_forest(stack(tree, [one, one], Y, (0.0, -1.0)))


@st.composite
def repetitive_trees(draw, max_n=60):
    """Trees rich in repeated subtree shapes: heap-like k-ary, brooms, caterpillars, spiders."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["kary", "broom", "caterpillar", "spider"]))
    k = draw(st.integers(1, 4))
    t = np.arange(1, n)
    if kind == "kary":
        rest = (t - 1) // k
    elif kind == "broom":
        handle = draw(st.integers(1, n))
        rest = np.where(t < handle, t - 1, handle - 1)
    elif kind == "caterpillar":
        rest = np.maximum(0, 2 * ((t - 1) // 2) - 1)
    else:  # k legs of equal length from the root
        rest = np.where(t <= k, 0, t - k)
    return r.ReferralTree(np.concatenate(([-1], rest)))


@st.composite
def repeated_shape_systems(draw):
    """Well-conditioned stacked systems on ``repetitive_trees``."""
    tree = draw(repetitive_trees())
    K = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    terms = st.lists(st.tuples(st.floats(0.05, 4.0), st.floats(-0.9, 0.9)), min_size=K, max_size=K)
    acs = [
        r.AutoCovariance(terms=tuple(draw(terms)), nugget=draw(st.floats(0.1, 3.0)))
        for _ in range(m)
    ]
    constants = draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))
    Y = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(m, tree.n))
    return tree, acs, Y, constants


@PROPERTY
@given(systems=repeated_shape_systems())
def test_stacked_sweep_matches_dense_reference_on_repeated_shapes(systems):
    tree, acs, Y, constants = systems
    for fast, ac, c, y in zip(tree_gls_solve_forest(stack(tree, acs, Y, constants)), acs, constants, Y):
        dense = r.gls_solve(r.CovarianceMatrix(r.build_sigma(tree, ac).matrix + c, tree), y)
        assert np.allclose(fast.weights, dense.weights, rtol=1e-9, atol=1e-12)
        assert np.isclose(fast.estimate, dense.estimate, rtol=1e-9, atol=1e-12)
        assert np.isclose(fast.variance, dense.variance, rtol=1e-9, atol=0)


def test_sweep_inverts_one_block_per_shape_class(monkeypatch):
    # a complete binary tree has one internal shape per depth, so the
    # elimination inverts O(depth) blocks per system, not one per node
    inverted = []
    inv = np.linalg.inv

    def counting_inv(a):
        inverted.append(int(np.prod(np.shape(a)[:-2])))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    tree = r.complete_binary_tree(14)
    assert tree.n == 2**14 - 1
    m = 3
    acs = [r.AutoCovariance(terms=((0.5, 0.4), (0.2, -0.3)), nugget=1.0)] * m
    results = tree_gls_solve_forest(stack(tree, acs, np.ones((m, tree.n))))
    depth = tree.num_levels - 1
    assert 0 < sum(inverted) <= 2 * depth * m
    assert all(abs(res.estimate - 1.0) < 1e-9 for res in results)


def test_non_finite_outcomes_are_refused():
    tree = r.complete_binary_tree(3)
    ac = r.AutoCovariance(terms=((1.0, 0.5),), nugget=1.0)
    Y = np.ones((2, tree.n))
    Y[1, 4] = np.nan
    with pytest.raises(r.InvalidParametersError, match="row 1 is not finite at node 4"):
        tree_gls_solve_forest(stack(tree, [ac, ac], Y))
    for bad in (np.nan, np.inf, -np.inf):
        y = np.ones(tree.n)
        y[2] = bad
        with pytest.raises(r.InvalidParametersError, match="row 0 is not finite at node 2"):
            tree_gls_solve_forest([(tree, ac, y, 0.0)])[0]
        with pytest.raises(r.InvalidParametersError, match="not finite at node 2"):
            r.gls_solve(r.build_sigma(tree, ac), y)
