"""Referral trees: construction, pairwise distances, and the distance PGF.

A referral tree indexes the sampling process: node 0 is the seed, and
``parent[tau]`` recruited ``tau``.  Nodes are numbered breadth-first, so
``parent[tau] < tau`` always holds.  Distances between tree nodes drive
every covariance in the package, hence the level sweeps here that apply
distance powers or count distances exactly in O(n height).  The dense
distance matrix serves only ``rdsgls.reference``, the n x n oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvalidParametersError, SamplingFailedError
from .seeding import STREAM_TREE, as_rng

MAX_DENSE_NODES = 10_000
"""Largest tree for which the dense O(n^2) distance matrix is built."""

MAX_COUNT_BUFFER_BYTES = 200_000_000
"""Largest int32 n x (2 height + 1) buffer ``tree_distance_distribution`` allows."""


def probability_vector(pmf, name: str) -> np.ndarray:
    """``pmf`` as a float64 vector of nonnegative entries summing to one.

    Anything else, NaN and infinite entries included, raises an
    ``InvalidParametersError`` that names ``name``.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.ndim != 1 or pmf.size == 0 or not np.all(pmf >= 0) or abs(pmf.sum() - 1.0) > 1e-9:
        raise InvalidParametersError(f"{name} must be a probability vector")
    return pmf


@dataclass(frozen=True, eq=False)
class ReferralTree:
    """Rooted tree with breadth-first node numbering.

    ``parent[0] == -1`` marks the root; every other entry points to a
    lower-numbered node.
    """

    parent: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=np.int64)
        object.__setattr__(self, "parent", parent)
        n = parent.shape[0]
        if n < 1 or parent[0] != -1:
            raise InvalidParametersError("node 0 must be the root (parent -1)")
        if n > 1:
            rest = parent[1:]
            if rest.min() < 0 or np.any(rest >= np.arange(1, n)):
                raise InvalidParametersError(
                    "parent[tau] must name an earlier node for every tau > 0"
                )

    @property
    def n(self) -> int:
        return int(self.parent.shape[0])

    @property
    def depths(self) -> np.ndarray:
        """Depth of each node (root = 0).

        Pointer doubling: ``d[t]`` counts the edges from ``t`` up to
        ``anc[t]``, and each pass jumps every node to its ancestor's
        ancestor, so O(n log depth) work even on a path.
        """
        if "depths" not in self._cache:
            anc = self.parent.copy()
            anc[0] = 0
            d = np.ones(self.n, dtype=np.int64)
            d[0] = 0
            while anc.any():
                d += d[anc]
                anc = anc[anc]
            self._cache["depths"] = d
        return self._cache["depths"]

    @property
    def degrees(self) -> np.ndarray:
        """Undirected tree degree of each node."""
        if "degrees" not in self._cache:
            deg = np.zeros(self.n, dtype=np.int64)
            if self.n > 1:
                np.add.at(deg, self.parent[1:], 1)
                deg[1:] += 1
            self._cache["degrees"] = deg
        return self._cache["degrees"]

    @property
    def num_levels(self) -> int:
        return int(self.depths.max()) + 1

    def level_nodes(self) -> list:
        """Node ids grouped by depth, each group ascending."""
        if "levels" not in self._cache:
            depths = self.depths
            order = np.argsort(depths, kind="stable")
            bounds = np.cumsum(np.bincount(depths))[:-1]
            self._cache["levels"] = np.split(order, bounds)
        return self._cache["levels"]

    def level_runs(self) -> list:
        """Sibling runs per depth, for the level-vectorized tree sweeps.

        Entry ``k - 1`` describes depth ``k >= 1`` as ``(nodes, parents,
        heads, starts)``: the level's nodes sorted stably by parent, their
        parents, the distinct parents, and the offset in ``nodes`` where
        each parent's run of children starts (``np.add.reduceat`` form).
        Levels need not be contiguous in node order.
        """
        if "runs" not in self._cache:
            runs = []
            for nodes in self.level_nodes()[1:]:
                nodes = nodes[np.argsort(self.parent[nodes], kind="stable")]
                parents = self.parent[nodes]
                heads, starts = np.unique(parents, return_index=True)
                runs.append((nodes, parents, heads, starts))
            self._cache["runs"] = runs
        return self._cache["runs"]

    def distance_matrix(self) -> np.ndarray:
        """Dense pairwise distance matrix (uint16).

        Built row by row from the parent's row: every earlier node sigma
        lies outside tau's subtree, so d(tau, sigma) = d(parent[tau], sigma)
        + 1 for sigma < tau.  O(n^2) time and one n x n buffer.  The
        ``MAX_DENSE_NODES`` cap keeps every distance below 2^16.
        """
        if "dist" in self._cache:
            return self._cache["dist"]
        n = self.n
        if n > MAX_DENSE_NODES:
            raise CapacityError(
                f"dense distance matrix requested for n={n} > {MAX_DENSE_NODES}"
            )
        dist = np.zeros((n, n), dtype=np.uint16)
        for tau, par in enumerate(self.parent[1:].tolist(), start=1):
            row = dist[par, :tau] + 1
            dist[tau, :tau] = row
            dist[:tau, tau] = row
        self._cache["dist"] = dist
        return dist

    def prefix(self, n: int) -> "ReferralTree":
        """First ``n`` nodes in breadth-first order (a valid subtree)."""
        if not 1 <= n <= self.n:
            raise InvalidParametersError(f"prefix size {n} outside [1, {self.n}]")
        return ReferralTree(self.parent[:n].copy())


@dataclass(frozen=True, eq=False)
class DistanceDistribution:
    """Exact pmf of d(I, J) for I, J independent uniform tree nodes."""

    pmf: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "pmf", probability_vector(self.pmf, "distance pmf"))

    def pgf_grid(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized PGF over a grid of arguments in [-1, 1]."""
        xs = np.asarray(xs, dtype=np.float64)
        if not np.all(np.abs(xs) <= 1.0):  # "not inside", so NaN is outside
            raise InvalidParametersError("PGF argument must satisfy |x| <= 1")
        d = np.arange(len(self.pmf))
        with np.errstate(invalid="ignore"):
            powers = np.power(xs[:, None], d[None, :])
        powers[:, 0] = 1.0  # 0^0 = 1
        return powers @ self.pmf


def complete_binary_tree(levels: int) -> ReferralTree:
    """Complete binary tree with 2^levels - 1 nodes."""
    if levels < 1:
        raise InvalidParametersError("levels must be >= 1")
    n = 2**levels - 1
    parent = np.empty(n, dtype=np.int64)
    parent[0] = -1
    if n > 1:
        parent[1:] = (np.arange(1, n) - 1) // 2
    return ReferralTree(parent)


def galton_watson_tree(
    offspring_pmf,
    target_n: int,
    rng_seed,
    max_restarts: int = 1000,
):
    """Breadth-first branching-process tree truncated at exactly ``target_n`` nodes.

    Offspring counts are i.i.d. from ``offspring_pmf`` (a probability vector
    over counts 0..R_max).  Children stop being created mid-level once the
    target is reached.  If the process dies out first, it restarts with
    fresh randomness, up to ``max_restarts`` times.

    Returns ``(tree, restarts)``.
    """
    pmf = probability_vector(offspring_pmf, "offspring_pmf")
    if target_n < 1:
        raise InvalidParametersError("target_n must be >= 1")
    rng = as_rng(rng_seed, STREAM_TREE)
    cdf = np.cumsum(pmf)
    restarts = 0
    best = 1
    while restarts <= max_restarts:
        parent = [-1]
        frontier = 0  # next node whose offspring are drawn
        while len(parent) < target_n and frontier < len(parent):
            count = int(np.searchsorted(cdf, rng.random(), side="right"))
            for _ in range(count):
                if len(parent) >= target_n:
                    break
                parent.append(frontier)
            frontier += 1
        if len(parent) >= target_n:
            return ReferralTree(np.asarray(parent, dtype=np.int64)), restarts
        best = max(best, len(parent))
        restarts += 1
    raise SamplingFailedError(
        f"branching process died before {target_n} nodes in all "
        f"{max_restarts + 1} attempts (best size {best})",
        restarts=max_restarts,
        reached=best,
    )


def distance_counts(tree: ReferralTree) -> np.ndarray:
    """Ordered node pairs at each distance 0..2 height, exact int64 (cached).

    The level sweeps of ``distance_power_apply`` with ``V = 1`` on
    polynomials in x: row s ends as the coefficients of ``sum_t x^d(s, t)``,
    and multiplying by x shifts a row one column right.  O(n height) time
    in one n x (2 height + 1) buffer.
    """
    if "counts" not in tree._cache:
        h = tree.num_levels - 1
        # every coefficient, the (1 - x^2) u step included, lies in [-n, n]
        poly = np.zeros((tree.n, 2 * h + 1), dtype=np.int32)
        poly[:, 0] = 1
        runs = tree.level_runs()
        for k in range(h, 0, -1):  # up-sweep rows at depth k have degree <= h - k
            nodes, _, heads, starts = runs[k - 1]
            m = h - k + 1
            poly[heads, 1 : m + 1] += np.add.reduceat(poly[nodes, :m], starts)
        for nodes, parents, _, _ in runs:
            w = poly[nodes]
            w[:, 2:] -= poly[nodes, :-2]
            w[:, 1:] += poly[parents, :-1]
            poly[nodes] = w
        tree._cache["counts"] = poly.sum(axis=0, dtype=np.int64)
    return tree._cache["counts"]


def tree_distance_distribution(tree: ReferralTree) -> DistanceDistribution:
    """Exact distance pmf from ``distance_counts``, O(n height).

    Raises ``CapacityError`` when the count sweep's int32 buffer would
    pass ``MAX_COUNT_BUFFER_BYTES``: a path past 5,000 nodes, or ~800,000
    nodes at height 30.
    """
    n, h = tree.n, tree.num_levels - 1
    if 4 * n * (2 * h + 1) > MAX_COUNT_BUFFER_BYTES:
        raise CapacityError(
            f"distance counts for n={n} at height {h} need {4 * n * (2 * h + 1):,} "
            f"bytes, over MAX_COUNT_BUFFER_BYTES = {MAX_COUNT_BUFFER_BYTES:,}"
        )
    counts = distance_counts(tree)
    counts = counts[: np.flatnonzero(counts)[-1] + 1]
    return DistanceDistribution(pmf=counts / float(n) ** 2, n=n)


def distance_power_apply(tree: ReferralTree, lam, V) -> np.ndarray:
    """Batched distance-power product: ``out[s, j] = sum_t lam[j]**d(s, t) V[t, j]``.

    Two level sweeps (the tree sum-product pass): up,
    ``u[s] = V[s] + lam sum_children u[c]``; down,
    ``w[s] = (1 - lam^2) u[s] + lam w[parent]``.  O(n m) work for m
    columns and no n x n buffer; ``0^0 = 1``, so ``lam = 0`` is the identity.
    """
    lam = np.asarray(lam, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if lam.ndim != 1 or V.shape != (tree.n, lam.shape[0]):
        raise InvalidParametersError("V needs one row per node and one column per lambda")
    runs = tree.level_runs()
    w = V.copy()
    for nodes, _, heads, starts in reversed(runs):
        w[heads] += lam * np.add.reduceat(w[nodes], starts, axis=0)
    # top-down in place: each level still holds its up-sweep values
    for nodes, parents, _, _ in runs:
        w[nodes] = (1.0 - lam * lam) * w[nodes] + lam * w[parents]
    return w


def tree_distance_pgf(tree: ReferralTree, xs) -> np.ndarray:
    """Distance PGF ``E(x^D)`` over a grid of arguments in [-1, 1].

    A grid longer than the 2 height + 1 ``distance_counts`` evaluates them
    as a polynomial; a shorter one (a few eigenvalues, or a path-like tree)
    takes one O(n len(xs)) sweep of ``1' R_x 1 / n^2``, ``R_x[s, t] =
    x^d(s, t)``.  Only those two sizes pick the branch, never the cache.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or not np.all(np.abs(xs) <= 1.0):  # NaN is outside
        raise InvalidParametersError("PGF arguments must form a 1-D grid in [-1, 1]")
    n = tree.n
    if xs.shape[0] > 2 * tree.num_levels - 1:
        mass = np.polynomial.polynomial.polyval(xs, distance_counts(tree))
    else:
        mass = distance_power_apply(tree, xs, np.ones((n, xs.shape[0]))).sum(axis=0)
    return mass / float(n) ** 2


def complete_binary_distance_distribution(levels: int) -> DistanceDistribution:
    """Closed-form distance pmf for the complete binary tree.

    Counts ordered pairs by lowest-common-ancestor depth in O(levels^3): the
    path of ``figure1_ratio`` (the histogram refuses levels >= 21) and the
    bit-for-bit test oracle of ``tree_distance_distribution``.
    """
    if levels < 1:
        raise InvalidParametersError("levels must be >= 1")
    L = levels
    n = 2**L - 1
    counts = np.zeros(2 * (L - 1) + 1 if L > 1 else 1, dtype=np.float64)
    for k in range(L):  # depth of the LCA; 2^k such nodes
        width = 2**k
        counts[0] += width  # (x, x)
        maxleg = L - 1 - k
        for j in range(1, maxleg + 1):  # (x, descendant) both directions
            counts[j] += width * 2.0 * 2**j
        for j1 in range(1, maxleg + 1):  # descendants in different child subtrees
            for j2 in range(1, maxleg + 1):
                counts[j1 + j2] += width * 2.0 * 2 ** (j1 - 1) * 2 ** (j2 - 1)
    return DistanceDistribution(pmf=counts / float(n) ** 2, n=n)
