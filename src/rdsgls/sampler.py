"""Drawing referral samples from a population network.

Two regimes: the stationary tree-indexed walk (with replacement, the
analytical model) and the wave-by-wave without-replacement protocol used
in the simulation studies, including preferential recruitment through
edge weights.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParametersError,
    InvalidSampleError,
    MissingLabelError,
    ReversibilityError,
    SamplingFailedError,
)
from .netmodel import TransitionModel, WeightedGraph
from .referral import ReferralTree, probability_vector
from .seeding import STREAM_WALK, as_rng

SEED_RULES = ("stationary_pi", "uniform", "degree_proportional")


@dataclass(frozen=True, eq=False)
class RdsSample:
    """Per-participant records indexed by referral-tree node.

    ``node[tau]`` is the population node sampled at tree node tau;
    ``degree`` carries the reported number of contacts (the unweighted
    neighbor count even when recruitment is weight-biased).  ``outcome``
    and ``block`` are optional until attached.
    """

    tree: ReferralTree
    node: np.ndarray
    degree: np.ndarray
    outcome: np.ndarray | None = None
    block: np.ndarray | None = None

    def __post_init__(self):
        node = np.asarray(self.node, dtype=np.int64)
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "degree", np.asarray(self.degree, dtype=np.float64))
        if self.outcome is not None:
            object.__setattr__(self, "outcome", _finite_outcomes(self.outcome))
        if self.block is not None:
            object.__setattr__(self, "block", np.asarray(self.block, dtype=np.int64))
        n = self.tree.n
        for name in ("node", "degree", "outcome", "block"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != n:
                raise InvalidParametersError(f"{name} must have one entry per tree node")

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def y(self) -> np.ndarray:
        if self.outcome is None:
            raise InvalidParametersError("sample carries no outcome column")
        return self.outcome

    def with_outcome(self, y_population: np.ndarray) -> "RdsSample":
        """Attach outcomes by evaluating a population vector at the sampled nodes."""
        return self.with_outcome_values(np.asarray(y_population, dtype=np.float64)[self.node])

    def with_outcome_values(self, values: np.ndarray) -> "RdsSample":
        """This sample with outcome column ``values``.  Only the new column is
        checked, as the constructor checks it; the other arrays are shared."""
        outcome = _finite_outcomes(values)
        if outcome.shape[0] != self.n:
            raise InvalidParametersError("outcome must have one entry per tree node")
        return self._sharing(outcome=outcome)

    def with_blocks(self, z_population: np.ndarray) -> "RdsSample":
        return self._sharing(block=np.asarray(z_population, dtype=np.int64)[self.node])

    def _sharing(self, **checked) -> "RdsSample":
        """This sample with the ``checked`` arrays in place, run through no check."""
        out = object.__new__(RdsSample)
        out.__dict__.update(self.__dict__, **checked)
        return out

    def prefix(self, n: int) -> "RdsSample":
        """First n participants in recruitment order."""
        return RdsSample(
            tree=self.tree.prefix(n),
            node=self.node[:n],
            degree=self.degree[:n],
            outcome=None if self.outcome is None else self.outcome[:n],
            block=None if self.block is None else self.block[:n],
        )


def _finite_outcomes(values) -> np.ndarray:
    outcome = np.asarray(values, dtype=np.float64)
    if not np.isfinite(outcome).all():
        raise InvalidSampleError("outcomes must be finite")
    return outcome


@dataclass(frozen=True)
class WalkConfig:
    """Sampling protocol knobs.

    ``seed_rule`` picks the seed participant: 'stationary_pi' (weighted
    degree), 'degree_proportional' (contact count), 'uniform', or an
    explicit node id for deterministic replays.
    """

    offspring_pmf: tuple = ()
    target_n: int = 1
    seed_rule: object = "degree_proportional"
    max_restarts: int = 1000

    def __post_init__(self):
        if self.target_n < 1:
            raise InvalidParametersError("target_n must be >= 1")
        probability_vector(self.offspring_pmf, "offspring_pmf")
        if isinstance(self.seed_rule, (int, np.integer)):
            if self.seed_rule < 0:
                raise InvalidParametersError(
                    f"seed_rule node id must be >= 0, got {self.seed_rule}"
                )
        elif self.seed_rule not in SEED_RULES:
            raise InvalidParametersError(f"unknown seed rule {self.seed_rule!r}")
        if self.max_restarts < 0:
            raise InvalidParametersError(f"max_restarts must be >= 0, got {self.max_restarts}")


def markov_walk(
    tree: ReferralTree,
    model: TransitionModel,
    rng_seed,
    y: np.ndarray | None = None,
    blocks: np.ndarray | None = None,
) -> RdsSample:
    """Stationary tree-indexed walk: root from pi, children from the parent's row.

    Sampling is with replacement.  Node draws are made level by level in
    node order, so a given seed reproduces the same sample exactly: the one
    walk of ``markov_walk_batch`` with the same seed.
    """
    states = markov_walk_batch(tree, model, 1, rng_seed)[0]
    degree = np.full(tree.n, np.nan) if model.graph is None else model.graph.degrees[states]
    return _package_sample(tree, states, degree, y, blocks)


def markov_walk_batch(
    tree: ReferralTree,
    model: TransitionModel,
    replicates: int,
    rng_seed,
) -> np.ndarray:
    """States for many independent walks at once: (replicates, n) matrix.

    Vectorized across replicates for Monte Carlo work; one seed governs
    the whole batch.
    """
    if not model.is_irreducible():
        raise ReversibilityError("transition support is disconnected; walk not irreducible")
    rng = as_rng(rng_seed, STREAM_WALK)
    n = tree.n
    N = model.num_states
    cdf = model.transition_cdf()
    pi_cdf = np.cumsum(model.pi)
    states = np.empty((replicates, n), dtype=np.int64)
    # replicate chunking keeps the per-level scratch below ~8M floats
    rows_per = max(1, 8_000_000 // max(N * max(len(lv) for lv in tree.level_nodes()), 1))
    for lo in range(0, replicates, rows_per):
        hi = min(replicates, lo + rows_per)
        block = states[lo:hi]
        m = hi - lo
        block[:, 0] = np.searchsorted(pi_cdf, rng.random(m), side="right")
        for level in tree.level_nodes()[1:]:
            parents = tree.parent[level]
            rows = cdf[block[:, parents]]  # (m, width, N)
            u = rng.random((m, len(level)))
            block[:, level] = (rows < u[..., None]).sum(axis=2)
    return states


def _package_sample(tree, states, degree, y, blocks) -> RdsSample:
    """The sample at population nodes ``states``, with population ``y`` and ``blocks`` there."""
    return RdsSample(
        tree=tree, node=states, degree=degree,
        outcome=None if y is None else np.asarray(y, dtype=np.float64)[states],
        block=None if blocks is None else np.asarray(blocks, dtype=np.int64)[states],
    )


def _seed_picker(graph: WeightedGraph, rule):
    """The seed draw of ``rule`` on ``graph``, as a function of the generator.

    Its cdf is built once, so that a call's attempts share it.
    """
    if isinstance(rule, (int, np.integer)):
        node = int(rule)
        return lambda rng: node
    if rule == "uniform":
        n = graph.num_nodes
        return lambda rng: int(rng.integers(n))
    if rule == "stationary_pi":
        w = graph.degrees
    else:  # degree_proportional: reported contact counts
        w = np.diff(graph.weights.indptr).astype(np.float64)
    total = w.sum()
    if total <= 0:
        raise SamplingFailedError("graph has no edges to seed from", 0, 0)
    cdf = np.cumsum(w / total)
    return lambda rng: int(np.searchsorted(cdf, rng.random(), side="right"))


def _draw_seed(graph: WeightedGraph, rule, rng) -> int:
    return _seed_picker(graph, rule)(rng)


class _DrawnAhead:
    """The uniforms of one sampling attempt, drawn from ``rng`` a block at a time.

    ``random()`` hands them out in the order of ``Generator.random`` calls:
    one as a float, or ``size`` of them as an array.  ``settle`` winds
    ``rng`` back to the state it was made in and draws exactly the doubles
    handed out, so the generator ends where the same calls on it would
    leave it: ``Generator.random(k)`` makes k draws, each the draw of one
    scalar call.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self.rng = rng
        self.state = rng.bit_generator.state
        self.block = rng.random(size)
        self.pos = 0
        self.spent = 0  # doubles handed out from earlier blocks

    def random(self, size=None):
        pos = self.pos
        end = pos + (1 if size is None else size)
        if end > len(self.block):
            # keep the doubles not handed out, then append another block
            self.spent += pos
            self.block = np.concatenate(
                (self.block[pos:], self.rng.random(max(end - pos, len(self.block))))
            )
            pos, end = 0, end - pos
        self.pos = end
        return self.block.item(pos) if size is None else self.block[pos:end]

    def settle(self):
        self.rng.bit_generator.state = self.state
        self.rng.random(self.spent + self.pos)


def _choice_without_replacement(p: np.ndarray, size: int, rng, cdf=None):
    """The indices ``rng.choice(len(p), size, replace=False, p=p)`` returns.

    NumPy's weighted draw without replacement, round for round: draw one
    uniform per index still missing, zero the probability of the indices
    found so far, invert the renormalized cdf, and keep the new indices in
    the order they first appear.  The same uniforms are used in the same
    order, from a ``Generator`` or an attempt's ``_DrawnAhead``, but without
    ``choice``'s argument checks and its ``np.unique`` per round.  Where the
    first round finds ``size`` distinct indices (most draws), they are
    returned as that round's integer array; else as a list.  ``p`` must be
    positive and is not changed.  ``cdf``, if given, is the first round's
    cdf as this function builds it from ``p``.
    """
    if cdf is None:
        cdf = p.cumsum()
        cdf /= cdf[-1]
    first = cdf.searchsorted(rng.random(size), side="right")
    found = list(dict.fromkeys(first.tolist()))
    if len(found) == size:
        return first
    p = p.copy()
    while len(found) < size:
        x = rng.random(size - len(found))
        p[found] = 0.0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        found.extend(dict.fromkeys(cdf.searchsorted(x, side="right").tolist()))
    return found


def _uniform_choice(m: int):
    """``(p, cdf)`` of a pick among m contacts of unit weight: ``w / w.sum()``
    of m ones, which is ``ones(m) / m`` bit for bit as the sum of m ones is
    exact, and the first-round cdf ``_choice_without_replacement`` builds
    from it.  Both are read-only, as every draw among m shares them."""
    p = np.ones(m) / m
    cdf = p.cumsum()
    cdf /= cdf[-1]
    p.flags.writeable = cdf.flags.writeable = False
    return p, cdf


def rds_without_replacement(
    graph: WeightedGraph,
    cfg: WalkConfig,
    rng_seed,
    y: np.ndarray | None = None,
    blocks: np.ndarray | None = None,
):
    """Wave-by-wave referral sampling without replacement.

    Each participant draws an offspring count from the configured pmf and
    refers that many not-yet-sampled contacts (all of them if fewer are
    eligible), chosen with probability proportional to edge weight.  On
    extinction before ``target_n`` the whole process restarts with a fresh
    seed, up to ``max_restarts`` times.

    After its seed draw, each attempt takes its uniforms from blocks drawn
    ahead (``_DrawnAhead``), in the order of one ``Generator.random`` call
    per offspring count and per round of a weighted draw.  When the attempt
    ends, also by an exception, the generator is wound back to just past
    the uniforms used: a passed generator ends, and the next attempt's seed
    draw starts, where those calls would leave them.  On a graph whose
    weights are all 1.0, the draws among m eligible contacts share one
    first-round cdf (``_uniform_choice``), kept for the call.

    Returns ``(sample, restarts)``; the realized referral tree rides along
    as ``sample.tree``.
    """
    target = cfg.target_n
    if target > graph.num_nodes:
        raise InvalidParametersError(
            f"target_n={target} exceeds the {graph.num_nodes}-node graph"
        )
    if isinstance(cfg.seed_rule, (int, np.integer)) and cfg.seed_rule >= graph.num_nodes:
        raise InvalidParametersError(
            f"seed_rule node {cfg.seed_rule} is not in the {graph.num_nodes}-node graph"
        )
    rng = as_rng(rng_seed, STREAM_WALK)
    # bisect on a list finds what np.searchsorted(..., side="right") finds
    offspring_cdf = np.cumsum(np.asarray(cfg.offspring_pmf, dtype=np.float64)).tolist()
    indptr = graph.weights.indptr.tolist()
    indices = graph.weights.indices
    weights = graph.weights.data
    contact_counts = np.diff(graph.weights.indptr)
    draw_seed = _seed_picker(graph, cfg.seed_rule)
    uniform_choices = {} if graph.has_unit_weights else None

    restarts = 0
    best = 0
    while restarts <= cfg.max_restarts:
        seed_node = draw_seed(rng)
        draws = _DrawnAhead(rng, 2 * target + 64)
        try:
            unsampled = np.ones(graph.num_nodes, dtype=bool)
            unsampled[seed_node] = False
            nodes = [seed_node]
            parent = [-1]
            frontier = 0
            while len(nodes) < target and frontier < len(nodes):
                who = nodes[frontier]
                want = bisect.bisect_right(offspring_cdf, draws.random())
                if want > 0:
                    lo, hi = indptr[who], indptr[who + 1]
                    nbrs = indices[lo:hi]
                    fresh = unsampled[nbrs]
                    eligible = nbrs[fresh]
                    if eligible.size:
                        m = eligible.size
                        if want < m:
                            if uniform_choices is None:
                                w = weights[lo:hi][fresh]
                                picked = _choice_without_replacement(w / w.sum(), want, draws)
                            else:
                                if m not in uniform_choices:
                                    uniform_choices[m] = _uniform_choice(m)
                                p, cdf = uniform_choices[m]
                                picked = _choice_without_replacement(p, want, draws, cdf)
                            eligible = eligible[picked]
                        chosen = eligible[: target - len(nodes)]
                        unsampled[chosen] = False
                        nodes.extend(chosen.tolist())
                        parent.extend([frontier] * chosen.size)
                frontier += 1
        finally:
            draws.settle()
        if len(nodes) >= target:
            tree = ReferralTree(np.asarray(parent, dtype=np.int64))
            states = np.asarray(nodes, dtype=np.int64)
            degree = contact_counts[states].astype(np.float64)
            return _package_sample(tree, states, degree, y, blocks), restarts
        best = max(best, len(nodes))
        restarts += 1
    raise SamplingFailedError(
        f"referral process died before {target} participants in all "
        f"{cfg.max_restarts + 1} attempts (best {best})",
        restarts=cfg.max_restarts,
        reached=best,
    )


def referral_counts(sample: RdsSample, num_blocks: int) -> np.ndarray:
    """Block-to-block referral frequencies over the tree edges, divided by n.

    Entry (u, v) counts tree edges whose parent is labeled u and child
    labeled v; the divisor is the number of participants n, not the edge
    count n - 1.
    """
    if sample.block is None:
        raise MissingLabelError("sample has no block labels")
    z = sample.block
    if z.min() < 0 or z.max() >= num_blocks:
        raise MissingLabelError(f"block labels must lie in 0..{num_blocks - 1}")
    n = sample.n
    Q = np.zeros((num_blocks, num_blocks), dtype=np.float64)
    if n > 1:
        parents = sample.tree.parent[1:]
        np.add.at(Q, (z[parents], z[1:]), 1.0)
    return Q / n
