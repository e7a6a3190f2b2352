"""Bit-for-bit pin of the stacked tree GLS sweep on a seeded family of systems.

The digest below was recorded before the sweep began eliminating each
distinct subtree shape once, so any change to the arithmetic of
``tree_gls_solve_forest`` on m systems of one tree (weights, estimates,
variances, or which systems are singular and how they fail) shows up here.
"""

import hashlib

import numpy as np

import rdsgls as r
from rdsgls.covariance import tree_gls_solve_forest

PIN_SHA256 = "d8c32a9d4aa1a6f7d43c54e44ae38fa977d2f849ccc79e9ebebc72c785e08a20"
PIN_CASES = 400


def path(n):
    return np.arange(-1, n - 1)


def star(n):
    return np.array([-1] + [0] * (n - 1))


def broom(n):
    """A path of about half the nodes with the rest hanging off its last node."""
    handle = max(1, n // 2)
    return np.concatenate((path(handle), np.full(n - handle, handle - 1)))


def caterpillar(n):
    """A spine 0, 1, 3, 5, ... in which spine node s also recruits one leaf."""
    t = np.arange(1, n)
    return np.concatenate(([-1], np.maximum(0, 2 * ((t - 1) // 2) - 1)))


def kary(n, k):
    return np.array([-1] + [(t - 1) // k for t in range(1, n)])


def recursive(rng, n):
    return np.concatenate(([-1], (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)))


def galton_watson(rng, n):
    pmf = rng.dirichlet(np.ones(4))
    pmf = np.concatenate(([0.0], pmf))  # no extinction
    tree, _ = r.galton_watson_tree(pmf / pmf.sum(), n, int(rng.integers(2**31)))
    return tree.parent


def stack(tree, acs, Y, constants=None):
    """The forest systems ``(tree, ac, y, constant)`` of m outcome rows on one tree; constants 0 by default."""
    constants = [0.0] * len(acs) if constants is None else constants
    return [(tree, ac, y, c) for ac, y, c in zip(acs, Y, constants)]


def family():
    """(tree, acs, Y, constants) for every shape, size, term count and stack height."""
    rng = np.random.default_rng(20171015)
    for n in (1, 2, 5, 31, 120):
        shapes = [path(n), star(n), broom(n), caterpillar(n), kary(n, 2), kary(n, 3),
                  recursive(rng, n), galton_watson(rng, n)]
        for parent in shapes:
            tree = r.ReferralTree(parent)
            for K in range(4):
                for m in (1, 2, 4) if K != 2 else (3,):
                    acs = []
                    for _ in range(m):
                        b2 = rng.choice([0.0, 0.3, 1.7, 1.0], size=K) * rng.random(K)
                        lam = rng.uniform(-0.95, 0.95, size=K)
                        nugget = float(rng.choice([0.0, 0.25, 2.0, 0.6]))
                        acs.append(r.AutoCovariance(terms=tuple(zip(b2, lam)), nugget=nugget))
                    constants = rng.choice([0.0, 0.5, 3.0], size=m)
                    Y = rng.normal(size=(m, tree.n)) + 2.0
                    yield tree, acs, Y, constants


def test_stacked_sweep_matches_the_recorded_digest():
    digest = hashlib.sha256()
    cases = 0
    for tree, acs, Y, constants in family():
        try:
            results = tree_gls_solve_forest(stack(tree, acs, Y, constants))
        except r.RdsglsError as exc:
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
        else:
            for res in results:
                digest.update(res.weights.tobytes())
                digest.update(f"{res.estimate!r} {res.variance!r}\n".encode())
        cases += 1
    assert cases == PIN_CASES
    assert digest.hexdigest() == PIN_SHA256
