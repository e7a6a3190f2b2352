"""Bit-for-bit pin of the flat shape-class tables of the tree GLS sweep.

``covariance._sweep_tables`` numbers one table row per ordered subtree
shape and depth; the forest plan and the back substitution index those
rows.  The digest below covers all seven tables (bytes and dtype) of every
tree of the GLS pin family and of fast-law Galton-Watson trees of the
experiment sizes and larger, so a rewrite of the class builder cannot
renumber a row unseen.
"""

import hashlib

import numpy as np

import rdsgls as r
from rdsgls.covariance import _sweep_tables
from rdsgls.presets import OFFSPRING_FAST
from test_tree_gls_pin import family

TABLES_SHA256 = "bc262d65af25dbd9180223669af981124062642c4cd4203ba514c963754df860"
TABLE_TREES = 70


def pinned_trees():
    """Each distinct tree of the GLS pin family, then ten fast-law trees per size."""
    seen = []
    for tree, _, _, _ in family():
        if not seen or tree is not seen[-1]:
            seen.append(tree)
    yield from seen
    for n in (100, 500, 5000):
        for seed in range(10):
            yield r.galton_watson_tree(OFFSPRING_FAST, n, seed)[0]


def test_sweep_tables_match_the_recorded_digest():
    digest = hashlib.sha256()
    trees = 0
    for tree in pinned_trees():
        for table in _sweep_tables(tree):
            table = np.asarray(table)
            digest.update(f"{table.dtype.str} {table.shape}\n".encode())
            digest.update(table.tobytes())
        trees += 1
    assert trees == TABLE_TREES
    assert digest.hexdigest() == TABLES_SHA256
