"""The forest tree GLS sweep against one-tree stacks, bit for bit.

A stack is the forest of m systems on one tree, and its bits are held by
``test_tree_gls_pin.py``; here a forest of systems on many trees must give
every system the bits of its own tree's stack.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdsgls as r
from rdsgls import covariance, estimators
from rdsgls.covariance import tree_gls_solve_forest
from rdsgls.presets import OFFSPRING_FAST
from test_tree_gls_pin import broom, caterpillar, galton_watson, kary, path, recursive, stack, star

PROPERTY = settings(max_examples=80, deadline=None)

SHAPES = {
    "path": lambda rng, n: path(n),
    "star": lambda rng, n: star(n),
    "broom": lambda rng, n: broom(n),
    "caterpillar": lambda rng, n: caterpillar(n),
    "binary": lambda rng, n: kary(n, 2),
    "ternary": lambda rng, n: kary(n, 3),
    "recursive": recursive,
    "galton_watson": galton_watson,
}


def random_stack(rng, tree, K, m):
    """m systems of K terms on ``tree``, some of them singular, as the pin family draws them."""
    acs = []
    for _ in range(m):
        b2 = rng.choice([0.0, 0.3, 1.7, 1.0], size=K) * rng.random(K)
        lam = rng.uniform(-0.95, 0.95, size=K)
        nugget = float(rng.choice([0.0, 0.25, 2.0, 0.6]))
        acs.append(r.AutoCovariance(terms=tuple(zip(b2, lam)), nugget=nugget))
    constants = rng.choice([0.0, 0.5, 3.0], size=m)
    return tree, acs, rng.normal(size=(m, tree.n)) + 2.0, constants


@st.composite
def forests(draw):
    """1-5 stacks of one term count on pin-family trees, a tree sometimes repeated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.integers(0, 3))
    stacks = []
    for _ in range(draw(st.integers(1, 5))):
        if stacks and draw(st.booleans()):
            tree = stacks[draw(st.integers(0, len(stacks) - 1))][0]
        else:
            shape = draw(st.sampled_from(sorted(SHAPES)))
            tree = r.ReferralTree(SHAPES[shape](rng, draw(st.integers(1, 60))))
        stacks.append(random_stack(rng, tree, K, draw(st.integers(1, 4))))
    return stacks


def flat(stacks):
    """The systems ``(tree, ac, y, constant)`` of the stacks, in order."""
    return [system for one in stacks for system in stack(*one)]


def solve_or_error(solve, *args):
    try:
        return solve(*args)
    except r.SingularCovarianceError:
        return None


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert repr(a.estimate) == repr(b.estimate)
        assert repr(a.variance) == repr(b.variance)


@PROPERTY
@given(stacks=forests())
def test_forest_equals_each_trees_stack(stacks):
    alone = [solve_or_error(tree_gls_solve_forest, stack(*one)) for one in stacks]
    forest = solve_or_error(tree_gls_solve_forest, flat(stacks))
    if any(one is None for one in alone):
        assert forest is None
        return
    assert forest is not None
    assert_same_bits(forest, [res for one in alone for res in one])


@PROPERTY
@given(stacks=forests())
def test_forest_fallback_gives_each_system_its_own_bits(stacks):
    # estimators._tree_gls re-solves a failed forest system by system: a
    # singular system alone gives None
    systems = [(tree, ac, y, c) for tree, acs, Y, cs in stacks for ac, y, c in zip(acs, Y, cs)]
    for (tree, ac, y, constant), out in zip(systems, estimators._tree_gls(systems, rse=False)):
        try:
            (want,) = tree_gls_solve_forest([(tree, ac, y, constant)])
        except r.SingularCovarianceError:
            assert out is None
            continue
        mu, weights, rse = out
        assert weights.tobytes() == want.weights.tobytes()
        assert repr(mu) == repr(want.estimate) and rse is None


def test_a_singular_system_falls_back_alone():
    rng = np.random.default_rng(5)
    trees = [r.ReferralTree(kary(40, 2)), r.ReferralTree(galton_watson(rng, 50)),
             r.ReferralTree(broom(30))]
    good = r.AutoCovariance(terms=((0.8, 0.5), (0.3, -0.4)), nugget=1.0)
    singular = r.AutoCovariance(terms=((0.0, 0.5), (0.0, -0.4)), nugget=0.0)
    stacks = [(tree, [good, singular if i == 1 else good, good], rng.normal(size=(3, tree.n)),
               [0.0, 0.5, 1.0]) for i, tree in enumerate(trees)]
    systems = flat(stacks)
    with pytest.raises(r.SingularCovarianceError):
        tree_gls_solve_forest(systems)
    outs = estimators._tree_gls(systems, rse=True)
    assert [out is None for out in outs] == [False] * 4 + [True] + [False] * 4
    for system, out in zip(systems, outs):
        if out is not None:
            (want,) = estimators._tree_gls([system])
            assert out[1].tobytes() == want[1].tobytes()
            assert repr(out[0]) == repr(want[0]) and repr(out[2]) == repr(want[2])


def test_forest_of_large_trees_sums_each_system_alone():
    # past numpy's 8,192-element buffer, each system's weights still sum
    # over its own contiguous run as the one-tree stack sums them
    trees = [r.galton_watson_tree(OFFSPRING_FAST, n, seed)[0] for n, seed in ((9000, 3), (99, 4))]
    ac = r.AutoCovariance(terms=((0.6, 0.7), (0.2, -0.3)), nugget=0.5)
    stacks = [(tree, [ac, ac], np.vstack([np.ones(tree.n), np.arange(tree.n) % 7.0]), None)
              for tree in trees]
    want = [res for one in stacks for res in tree_gls_solve_forest(stack(*one))]
    assert_same_bits(tree_gls_solve_forest(flat(stacks)), want)


def test_forest_refuses_mixed_term_counts():
    tree = r.complete_binary_tree(3)
    one = r.AutoCovariance(terms=((1.0, 0.5),), nugget=1.0)
    two = r.AutoCovariance(terms=((1.0, 0.5), (0.5, -0.2)), nugget=1.0)
    y = np.ones(tree.n)
    with pytest.raises(r.InvalidParametersError, match="same number of terms"):
        tree_gls_solve_forest([(tree, one, y, 0.0), (tree, two, y, 0.0)])


def test_empty_forest_solves_nothing():
    assert tree_gls_solve_forest([]) == []


def linalg_calls(name: str) -> list:
    """Lines of covariance.py that call ``np.linalg.<name>``."""
    module = ast.parse(Path(covariance.__file__).read_text())
    return [
        node.lineno for node in ast.walk(module)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == f"np.linalg.{name}"
    ]


@pytest.mark.parametrize("name", ["inv", "solve"])
def test_one_sweep_holds_the_only_inverse_and_solve(name):
    # every tree GLS solve runs the one forest sweep: a second call site
    # of either routine would mean a second sweep had forked off
    assert len(linalg_calls(name)) == 1


def test_the_sweep_caches_one_class_form():
    # the shape classes live only in the flat tables: a per-depth copy of
    # them on the tree would mean a second class builder had come back
    tree = r.ReferralTree(galton_watson(np.random.default_rng(3), 80))
    ac = r.AutoCovariance(terms=((0.5, 0.4),), nugget=1.0)
    tree_gls_solve_forest([(tree, ac, np.ones(tree.n), 0.0)])
    assert set(tree._cache) == {"depths", "levels", "runs", "sweep", ("forest", 1)}
