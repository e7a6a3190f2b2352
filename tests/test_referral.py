import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

import rdsgls as r
from conftest import random_tree
from rdsgls.covariance import _sweep_tables


def test_single_node_tree():
    tree = r.complete_binary_tree(1)
    assert tree.n == 1
    assert tree.parent[0] == -1
    assert tree.degrees.tolist() == [0]


def test_two_level_tree():
    tree = r.complete_binary_tree(2)
    assert tree.n == 3
    assert tree.parent.tolist() == [-1, 0, 0]


def test_ten_level_degree_multiset():
    tree = r.complete_binary_tree(10)
    assert tree.n == 1023
    deg = tree.degrees
    assert deg[0] == 2
    internal = deg[1 : 2**9 - 1]
    assert np.all(internal == 3)
    leaves = deg[2**9 - 1 :]
    assert np.all(leaves == 1)


def test_tree_rejects_bad_parent():
    with pytest.raises(r.InvalidParametersError):
        r.ReferralTree(np.array([-1, 2, 1]))
    with pytest.raises(r.InvalidParametersError):
        r.ReferralTree(np.array([0, 0]))


def test_degree_sum_is_twice_edges():
    rng = np.random.default_rng(7)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(2, 120)))
        assert tree.degrees.sum() == 2 * (tree.n - 1)


def _depths_loop(parent):
    """``ReferralTree.depths`` as it was before pointer doubling (the oracle)."""
    d = np.zeros(len(parent), dtype=np.int64)
    for tau in range(1, len(parent)):
        d[tau] = d[parent[tau]] + 1
    return d


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), reach=st.integers(1, 300))
def test_depths_equal_the_loop(seed, n, reach):
    # small reach gives deep, narrow trees; large reach bushy ones
    rng = np.random.default_rng(seed)
    parent = np.array([-1] + [int(rng.integers(max(0, t - reach), t)) for t in range(1, n)])
    assert np.array_equal(r.ReferralTree(parent).depths, _depths_loop(parent))


def test_depths_of_a_long_path():
    # O(n log depth): a walk one level at a time would be O(n^2) here
    parent = np.arange(-1, 49_999)
    t0 = time.perf_counter()
    depths = r.ReferralTree(parent).depths
    assert time.perf_counter() - t0 < 1.0
    assert np.array_equal(depths, _depths_loop(parent))
    assert np.array_equal(depths, np.arange(50_000))


def test_galton_watson_deterministic_offspring_is_binary():
    tree, restarts = r.galton_watson_tree([0.0, 0.0, 1.0], 31, rng_seed=5)
    assert restarts == 0
    expected = r.complete_binary_tree(5)
    assert np.array_equal(tree.parent, expected.parent)


def test_galton_watson_mean_offspring():
    # mean of the design pmf: 1/3 + 2/3 + 1/2 = 1.5
    pmf = [1 / 6, 1 / 3, 1 / 3, 1 / 6]
    assert abs(np.dot(np.arange(4), pmf) - 1.5) < 1e-15
    total, count = 0, 0
    for seed in range(40):
        tree, _ = r.galton_watson_tree(pmf, 400, rng_seed=seed)
        # nodes strictly before the last parent had their full brood realized
        cutoff = int(tree.parent[-1])
        kids = np.bincount(tree.parent[1:][tree.parent[1:] < cutoff], minlength=cutoff)
        total += kids[:cutoff].sum()
        count += cutoff
    assert abs(total / count - 1.5) < 0.05


def test_galton_watson_preset_means():
    from rdsgls.presets import OFFSPRING_FAST, OFFSPRING_SLOW

    assert abs(np.dot(np.arange(5), OFFSPRING_FAST) - 2.36) < 1e-12
    assert abs(np.dot(np.arange(5), OFFSPRING_SLOW) - 1.78) < 1e-12


def test_galton_watson_exact_size_and_determinism():
    pmf = [1 / 6, 1 / 3, 1 / 3, 1 / 6]
    t1, _ = r.galton_watson_tree(pmf, 257, rng_seed=11)
    t2, _ = r.galton_watson_tree(pmf, 257, rng_seed=11)
    t3, _ = r.galton_watson_tree(pmf, 257, rng_seed=12)
    assert np.array_equal(t1.parent, t2.parent)
    assert t1.n == t3.n == 257
    assert not np.array_equal(t1.parent, t3.parent)


def test_galton_watson_impossible_target():
    with pytest.raises(r.SamplingFailedError) as err:
        r.galton_watson_tree([1.0], 2, rng_seed=0, max_restarts=25)
    assert err.value.restarts == 25


@pytest.mark.parametrize("pmf", [[float("nan"), 1.0], [0.5, float("nan")], [float("inf"), 0.0]])
def test_non_finite_offspring_pmf_fails_at_once(pmf):
    # a NaN pmf must fail validation, not die out in every sampling attempt
    with pytest.raises(r.InvalidParametersError, match="offspring_pmf"):
        r.galton_watson_tree(pmf, 50, rng_seed=0)
    with pytest.raises(r.InvalidParametersError, match="offspring_pmf"):
        r.WalkConfig(offspring_pmf=tuple(pmf), target_n=50)


def test_distance_distribution_single_node():
    dist = r.tree_distance_distribution(r.complete_binary_tree(1))
    assert dist.pmf.tolist() == [1.0]


def test_distance_distribution_three_node_binary():
    # 9 ordered pairs: 3 diagonal, 4 at distance 1, 2 at distance 2
    dist = r.tree_distance_distribution(r.complete_binary_tree(2))
    assert np.allclose(dist.pmf, [3 / 9, 4 / 9, 2 / 9])


def test_distance_zero_mass_is_one_over_n():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(2, 60)))
        dist = r.tree_distance_distribution(tree)
        assert abs(dist.pmf[0] - 1 / tree.n) < 1e-15


def test_analytic_binary_pmf_matches_bruteforce():
    # the closed form is the histogram's exact oracle: equal bit for bit
    for levels in range(1, 16):
        a = r.complete_binary_distance_distribution(levels)
        b = r.tree_distance_distribution(r.complete_binary_tree(levels))
        assert np.array_equal(a.pmf, b.pmf)


def test_pgf_at_one_and_zero():
    rng = np.random.default_rng(11)
    for _ in range(5):
        tree = random_tree(rng, int(rng.integers(2, 50)))
        dist = r.tree_distance_distribution(tree)
        one, zero = dist.pgf_grid([1.0, 0.0])
        assert abs(one - 1.0) < 1e-12
        assert abs(zero - 1 / tree.n) < 1e-15


def test_pgf_three_node_value():
    dist = r.tree_distance_distribution(r.complete_binary_tree(2))
    assert abs(dist.pgf_grid([0.5])[0] - 5.5 / 9) < 1e-15


def test_pgf_domain_error():
    dist = r.tree_distance_distribution(r.complete_binary_tree(2))
    with pytest.raises(r.InvalidParametersError):
        dist.pgf_grid([1.5])


def test_quadratic_form_identity():
    # n^2 G(lam) equals the all-ones quadratic form of the lam-power matrix
    rng = np.random.default_rng(19)
    for _ in range(50):
        tree = random_tree(rng, int(rng.integers(2, 40)))
        dmat = tree.distance_matrix().astype(np.float64)
        dist = r.tree_distance_distribution(tree)
        for lam in (0.0, 0.3, 0.9):
            form = np.power(lam, dmat)
            if lam == 0.0:
                form = (dmat == 0).astype(np.float64)
            assert abs(tree.n**2 * dist.pgf_grid([lam])[0] - form.sum()) < 1e-7


def test_distance_matrix_symmetry_and_depth():
    rng = np.random.default_rng(23)
    tree = random_tree(rng, 80)
    dmat = tree.distance_matrix().astype(int)
    assert np.array_equal(dmat, dmat.T)
    assert np.all(np.diag(dmat) == 0)
    # distance to root equals depth
    assert np.array_equal(dmat[0], tree.depths)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), reach=st.integers(1, 200))
def test_distance_matrix_matches_shortest_paths(seed, n, reach):
    # small reach gives deep, narrow trees (reach 1 is a path); large reach bushy ones
    rng = np.random.default_rng(seed)
    parent = np.array([-1] + [int(rng.integers(max(0, t - reach), t)) for t in range(1, n)])
    tree = r.ReferralTree(parent)
    child = np.arange(1, n)
    adjacency = sp.csr_array((np.ones(n - 1), (child, parent[1:])), shape=(n, n))
    expected = csgraph.shortest_path(adjacency, directed=False, unweighted=True)
    dmat = tree.distance_matrix()
    assert dmat.dtype == np.uint16
    assert np.array_equal(dmat, expected.astype(np.int64))


def test_prefix_is_valid_subtree():
    tree, _ = r.galton_watson_tree([1 / 6, 1 / 3, 1 / 3, 1 / 6], 100, rng_seed=2)
    sub = tree.prefix(40)
    assert sub.n == 40
    assert np.array_equal(sub.parent, tree.parent[:40])


def _ordered_shape(children, node):
    """Canonical nested tuple of the ordered subtree below ``node``."""
    return tuple(_ordered_shape(children, c) for c in children[node])


def _classes_by_node(tree):
    """Each node's shape class row, from ``_sweep_tables``."""
    _, _, _, nodes, _, classes, root = _sweep_tables(tree)
    cls = np.empty(tree.n, dtype=np.int64)
    cls[0] = root
    cls[nodes] = classes
    return cls


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), reach=st.integers(1, 120),
       fan=st.integers(1, 4))
def test_shape_classes_are_sound(seed, n, reach, fan):
    # heap-like parents (t - 1) // fan repeat shapes; random ones break them up
    rng = np.random.default_rng(seed)
    parent = np.array([-1] + [
        (t - 1) // fan if rng.random() < 0.7 else int(rng.integers(max(0, t - reach), t))
        for t in range(1, n)
    ])
    tree = r.ReferralTree(parent)
    children = [[] for _ in range(n)]
    for t in range(1, n):
        children[parent[t]].append(t)
    shape = [_ordered_shape(children, v) for v in range(n)]
    cls = _classes_by_node(tree)
    depths = tree.depths
    key, counts, kids, _, _, _, _ = _sweep_tables(tree)
    # rows stand depth by depth, sorted by key, each depth's leaf row first
    assert np.all(np.diff(key) >= 0)
    first = np.searchsorted(key, 2 * np.arange(tree.num_levels))
    assert key[first].tolist() == (2 * np.arange(tree.num_levels)).tolist()
    assert np.all(counts[first] == 0) and np.all((counts > 0) == (key & 1 == 1))
    for v in range(n):
        assert key[cls[v]] >> 1 == depths[v]
        assert (cls[v] == first[depths[v]]) == (not children[v])
        for w in range(v):
            if cls[v] == cls[w]:
                assert shape[v] == shape[w]
    # each class's table row lists the child class rows of every member
    kid_off = np.cumsum(counts) - counts
    for v in range(n):
        c = cls[v]
        assert counts[c] == len(children[v])
        assert kids[kid_off[c] : kid_off[c] + counts[c]].tolist() == [cls[k] for k in children[v]]


def test_shape_class_counts():
    def per_depth(tree):
        key, counts, _, _, _, _, _ = _sweep_tables(tree)
        cls, depths = _classes_by_node(tree), tree.depths
        first = np.searchsorted(key, 2 * np.arange(tree.num_levels))
        return [(np.unique(cls[depths == d] - first[d]).tolist(), counts[key >> 1 == d].tolist())
                for d in range(tree.num_levels)]

    binary = per_depth(r.complete_binary_tree(6))
    assert binary == [([1], [0, 2])] * 5 + [([0], [0])]
    path = per_depth(r.ReferralTree(np.arange(-1, 9)))
    assert path == [([1], [0, 1])] * 9 + [([0], [0])]
    star = per_depth(r.ReferralTree(np.array([-1] + [0] * 7)))
    assert star == [([1], [0, 7]), ([0], [0])]
    assert per_depth(r.complete_binary_tree(1)) == [([0], [0])]


def test_shape_classes_are_cached():
    tree = r.complete_binary_tree(4)
    assert _sweep_tables(tree) is _sweep_tables(tree)
