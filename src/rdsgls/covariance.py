"""Covariance algebra for tree-indexed samples.

The autocovariance of a stationary tree walk depends only on tree distance
and decomposes over the walk spectrum.  This module exploits the sparse
closed-form inverse available in the single-geometric-term case and
solves the generalized least squares system exactly along the tree (K^3
work per distinct subtree shape, K^2 per node), for many systems on many
trees in one sweep.  The dense n x n covariance lives only in
``rdsgls.reference``, the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidParametersError,
    SingularCovarianceError,
)
from .referral import ReferralTree, distance_power_apply

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


def tree_gls_solve_forest(systems) -> list:
    """GLS of each ``(tree, ac, y, constant)`` system in one sweep, under
    ``build_sigma(tree, ac)`` plus ``constant`` times the all-ones matrix.

    Exact and non-iterative.  Term k is beta_k^2 times a unit-variance
    tree GMRF whose precision Q_k is the sparse single-term inverse, so
    Sigma x = 1 is the augmented system [[nugget I, B], [B', -Q]] with
    B = [beta_1 I ... beta_K I].  Grouped per node as (x_s, y_1s, ...,
    y_Ks), it couples a node only to its parent: leaf-to-root elimination
    of (K+1) x (K+1) node blocks and root-to-leaf back substitution solve
    it, and stay valid as the nugget goes to zero.  The constant term
    changes the variance but not the weights (Sherman-Morrison).

    One result per system (none for no systems); the covariances share a
    term count K, and systems may share trees.  A node's block S_c, its
    a = S_c^{-1} z and its F = S_c^{-1} E depend only on its ordered subtree
    shape (``_sweep_tables``), so the elimination fills one table row per
    shape class and system, O(C K^3) for C classes plus O(n K^2) back
    substitution, each with its own system's covariance: per
    depth one batched inverse, all roots one batched solve, and the back
    substitution gathers each node's row by its class.  Sharing rows
    across systems would run every row under every covariance, which costs
    more than it saves.  Each batched call does each matrix's own
    arithmetic, and each system's weights are summed over its own run of
    nodes, so every result equals the one-system solve bit for bit.
    Raises ``InvalidParametersError`` for the first system whose outcome
    has the wrong length or a non-finite entry (``outcome row i``) or whose
    constant is negative, then for mixed term counts, and
    ``SingularCovarianceError`` if any system is singular.
    """
    if not systems:
        return []
    checked = []
    for i, (tree, _, y, constant) in enumerate(systems):
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (tree.n,):
            raise InvalidParametersError("outcome length must match the tree")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise InvalidParametersError(f"outcome row {i} is not finite at node {bad[0]}")
        if not constant >= 0:
            raise InvalidParametersError("constant covariance term must be >= 0")
        checked.append((y, constant))
    acs = [ac for _, ac, _, _ in systems]
    K = len(acs[0].terms)
    if any(len(ac.terms) != K for ac in acs):
        raise InvalidParametersError("stacked covariances must have the same number of terms")
    plan = _forest_plan([tree for tree, _, _, _ in systems])
    bounds, kid_off, members = plan.bounds, plan.kid_off, plan.members
    node_bounds, node_off = plan.node_bounds, plan.node_off
    terms = np.array([ac.terms for ac in acs], dtype=np.float64).reshape(len(acs), K, 2)
    b2, lam = terms[:, :, 0], terms[:, :, 1]
    one_minus = 1.0 - lam * lam
    # E: the (diagonal) block linking a node to its parent; x never links
    e = np.concatenate((np.zeros((len(acs), 1)), lam / one_minus), axis=1)[members]
    S = np.zeros((members.size, K + 1, K + 1))
    S[:, 0, 0] = np.array([ac.nugget for ac in acs])[members]
    S[:, 0, 1:] = S[:, 1:, 0] = np.sqrt(b2)[members]
    idx = np.arange(1, K + 1)
    S[:, idx, idx] = -(1.0 + plan.links[:, None] * (lam * lam)[members]) / one_minus[members]
    z = np.zeros((members.size, K + 1))
    z[:, 0] = 1.0
    levels = len(node_bounds) - 1
    a_at, f_at = [None] * levels, [None] * levels
    ef = ea = None  # E F and E a of the classes one level down
    try:
        # leaf to root, one table row per class and system
        for depth in range(levels - 1, -1, -1):
            lo, mid, hi = bounds[2 * depth : 2 * depth + 3]
            S_d, z_d = S[lo:hi], z[lo:hi]
            if mid < hi:
                kids = plan.kids[kid_off[mid] : kid_off[hi]]
                starts = plan.starts[mid:hi]
                S_d[mid - lo :] -= np.add.reduceat(ef[kids], starts, axis=0)
                z_d[mid - lo :] -= np.add.reduceat(ea[kids], starts, axis=0)
            if depth:
                e_d = e[lo:hi]
                inv = np.linalg.inv(S_d)
                a_at[depth] = a = np.einsum("rij,rj->ri", inv, z_d)
                f_at[depth] = f = inv * e_d[:, None, :]
                ef, ea = e_d[:, :, None] * f, e_d * a
        # root to leaf, one row per node and system
        x = np.empty((node_off[-1], K + 1))
        x[node_off[:-1]] = np.linalg.solve(S[plan.roots], z[plan.roots][:, :, None])[:, :, 0]
        for depth in range(1, levels):
            run = slice(node_bounds[depth], node_bounds[depth + 1])
            c = plan.classes[run]
            x[plan.nodes[run]] = (
                a_at[depth][c] - np.einsum("rij,rj->ri", f_at[depth][c], x[plan.parents[run]])
            )
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError("covariance has a singular node block") from exc
    results = []
    for i, (y, constant) in enumerate(checked):
        xk = x[node_off[i] : node_off[i + 1], 0]
        total = xk.sum()
        if not (np.all(np.isfinite(xk)) and total > 0):
            raise SingularCovarianceError("1' Sigma^{-1} 1 must be finite and positive")
        weights = xk / total
        results.append(GlsResult(estimate=float(weights @ y), weights=weights,
                                 variance=1.0 / total + constant))
    return results


def _sweep_tables(tree: ReferralTree) -> tuple:
    """The ordered subtree shape classes of one tree as flat tables, cached on the tree.

    Nodes of one depth with equal sequences of child classes, so equal
    ordered subtree shapes, share a class and its table row.  Rows stand
    depth by depth, each depth's leaf class first, then its classes as they
    first appear in ``level_runs`` order.  Returns ``(key, counts, kids,
    nodes, parents, classes, root)``: each row's 2 depth + 1 if it has
    children (so the rows are sorted by key), its number of children, the
    child rows of every row in row order, every non-root node in
    ``level_runs`` order with its parent and row, and the root's row.
    One pass over the depths, leaves up: O(n).
    """
    if "sweep" not in tree._cache:
        runs = tree.level_runs()
        local = np.zeros(tree.n, dtype=np.int64)  # each node's class within its depth
        shapes = [{}]  # per depth, leaves up: each class's child classes, in class order
        for nodes, _, heads, starts in runs[::-1]:
            below = local[nodes].tolist()
            bounds = starts.tolist() + [len(below)]
            ids = {}
            local[heads] = [ids.setdefault(tuple(below[lo:hi]), len(ids) + 1)
                            for lo, hi in zip(bounds, bounds[1:])]
            shapes.append(ids)
        shapes = shapes[::-1]
        counts = np.array([k for ids in shapes for k in (0, *map(len, ids))], dtype=np.int64)
        sizes = [len(ids) + 1 for ids in shapes]
        base = np.cumsum([0] + sizes)
        none = [np.zeros(0, dtype=np.int64)]
        nodes = np.concatenate([nodes for nodes, _, _, _ in runs] + none)
        tree._cache["sweep"] = (
            2 * np.repeat(np.arange(len(shapes)), sizes) + (counts > 0),
            counts,
            np.array([k + b for ids, b in zip(shapes, base[1:].tolist()) for key in ids
                      for k in key], dtype=np.int64),
            nodes,
            np.concatenate([parents for _, parents, _, _ in runs] + none),
            local[nodes] + base[tree.depths[nodes]],
            int(local[0]),
        )
    return tree._cache["sweep"]


class _ForestPlan(NamedTuple):
    """Index plan of one forest sweep; see ``_forest_plan``."""

    members: np.ndarray
    links: np.ndarray
    bounds: list
    kids: np.ndarray
    kid_off: np.ndarray
    starts: np.ndarray
    roots: np.ndarray
    nodes: np.ndarray
    parents: np.ndarray
    classes: np.ndarray
    node_bounds: list
    node_off: np.ndarray


def _forest_plan(trees: list) -> _ForestPlan:
    """Index plan of one sweep in which system i lives on ``trees[i]``.

    Each system gets its own copy of its tree's class rows.  The rows of
    all systems are regrouped by depth, each depth's leaf classes first, so
    depth d's rows are ``bounds[2 d]:bounds[2 d + 2]`` and its non-leaf
    rows the run from ``bounds[2 d + 1]``; within a depth the rows keep
    system order and class order.  Each row has its system (``members``)
    and its links below its block (children, less one at the root).  The
    children of the non-leaf rows are listed row by row (row r's from
    ``kid_off[r]``) as rows of the depth below, each depth's run starting
    at ``starts`` in ``np.add.reduceat`` form.  ``roots`` is each system's
    root row; the non-root nodes of all systems, shifted by each system's
    node offset ``node_off``, stand depth by depth (depth d from
    ``node_bounds[d]``) with their parents and their rows within their
    depth.  A plan whose systems all live on one tree is cached on it; any
    other is built per call from the trees' cached ``_sweep_tables``: next
    to the sweep it is cheap, so plans are not shared across calls.
    """
    one_tree = all(tree is trees[0] for tree in trees)
    key = ("forest", len(trees))
    if one_tree and key in trees[0]._cache:
        return trees[0]._cache[key]
    tables = [_sweep_tables(tree) for tree in trees]
    sizes = np.array([[part.size for part in table[:6]] for table in tables])
    order_key, counts, kids, nodes, parents, classes = (
        np.concatenate(parts) for parts in zip(*(table[:6] for table in tables))
    )
    row_off = np.cumsum(sizes[:, 0]) - sizes[:, 0]
    node_off = np.cumsum([0] + [tree.n for tree in trees])
    kids += np.repeat(row_off, sizes[:, 2])
    classes += np.repeat(row_off, sizes[:, 5])
    node_depth = order_key[classes] >> 1
    nodes += np.repeat(node_off[:-1], sizes[:, 3])
    parents += np.repeat(node_off[:-1], sizes[:, 4])
    order = np.argsort(order_key, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    owner = rank[np.repeat(np.arange(order.size), counts)]
    counts, order_key = counts[order], order_key[order]
    bounds = np.searchsorted(order_key, np.arange(order_key[-1] // 2 * 2 + 3))
    block = bounds[order_key & -2]  # the first row of each row's depth
    kids = rank[kids[np.argsort(owner, kind="stable")]]
    kid_off = np.concatenate(([0], np.cumsum(counts)))
    by_depth = np.argsort(node_depth, kind="stable")
    rows = rank[classes[by_depth]]
    levels = np.arange(len(bounds) // 2 + 1)
    plan = _ForestPlan(
        members=np.repeat(np.arange(len(trees)), sizes[:, 0])[order],
        links=counts - (order_key < 2).astype(np.float64),
        bounds=bounds.tolist(),
        kids=kids - block[kids],
        kid_off=kid_off,
        starts=kid_off[:-1] - kid_off[bounds[order_key | 1]],
        roots=rank[row_off + [table[6] for table in tables]],
        nodes=nodes[by_depth],
        parents=parents[by_depth],
        classes=rows - block[rows],
        node_bounds=np.searchsorted(node_depth[by_depth], levels).tolist(),
        node_off=node_off,
    )
    if one_tree:
        trees[0]._cache[key] = plan
    return plan


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
