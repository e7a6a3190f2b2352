"""Committed fixtures and named parameter presets.

The referral-count fixture is a three-group recruitment table from a
field study of 112 participants plus helpers that turn it into blockmodel
parameters matching the published simulation design (expected degree 30,
group shares derived from the symmetrized row sums, gamma-perturbed node
propensities).  Offspring presets carry the study's referral-rate
settings: the base survey design and the fast/slow branching mixes with
means 2.36 and 1.78.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParametersError
from .netmodel import DcSbmParams, WeightedGraph
from .referral import ReferralTree
from .sampler import RdsSample
from .seeding import STREAM_NETWORK, as_rng

TABLE1_COUNTS = np.array(
    [
        [5, 5, 2],
        [7, 46, 1],
        [4, 8, 28],
    ],
    dtype=np.float64,
)
"""Referral counts between groups (B, W, H); entry (u, v) counts u -> v."""

TABLE1_BLOCKS = ("B", "W", "H")

# Reported referral counts per recruiter, zeros removed (mean 2.36 exactly)
OFFSPRING_FAST = np.array([0.0, 0.24, 0.32, 0.28, 0.16])

# Same mix with the zero-referral share restored (mean 1.78 exactly)
_ZERO_SHARE = 1.0 - 1.78 / 2.36
OFFSPRING_SLOW = np.concatenate([[_ZERO_SHARE], (1.0 - _ZERO_SHARE) * OFFSPRING_FAST[1:]])

# Survey coupon design: up to three referrals, mean 1.5
OFFSPRING_SURVEY = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])

OFFSPRING_PRESETS = {
    "fast": OFFSPRING_FAST,
    "slow": OFFSPRING_SLOW,
    "survey": OFFSPRING_SURVEY,
}


def table1_symmetrized() -> np.ndarray:
    """Symmetrized referral counts (the usable block-affinity skeleton)."""
    return 0.5 * (TABLE1_COUNTS + TABLE1_COUNTS.T)


def table1_block_proportions() -> np.ndarray:
    """Group shares proportional to the symmetrized row sums."""
    rows = table1_symmetrized().sum(axis=1)
    return rows / rows.sum()


def scaled_block_matrix(S: np.ndarray, num_nodes: int, expected_degree: float) -> np.ndarray:
    """Affinity matrix ``S`` scaled so the expected average degree is as requested.

    The average expected degree equals the total affinity mass over the
    node count, hence the normalization by the matrix's total.
    """
    return expected_degree * num_nodes * S / S.sum()


def block_sizes(proportions: np.ndarray, num_nodes: int) -> np.ndarray:
    """Largest-remainder rounding of proportions into integer group sizes."""
    props = np.asarray(proportions, dtype=np.float64)
    raw = props * num_nodes
    sizes = np.floor(raw).astype(np.int64)
    short = num_nodes - sizes.sum()
    order = np.argsort(raw - sizes)[::-1]
    sizes[order[:short]] += 1
    if sizes.min() < 1:
        raise InvalidParametersError("every block needs at least one node")
    return sizes


def gamma_theta(z: np.ndarray, rng) -> np.ndarray:
    """Node propensities 0.3 + Gamma(200, rate 300), renormalized per block.

    The additive floor keeps expected degrees away from zero; the gamma
    part injects mild within-block degree heterogeneity.
    """
    theta = 0.3 + rng.gamma(shape=200.0, scale=1.0 / 300.0, size=z.shape[0])
    K = int(z.max()) + 1
    sums = np.bincount(z, weights=theta, minlength=K)
    return theta / sums[z]


def uniform_theta(z: np.ndarray) -> np.ndarray:
    """Equal propensities within each block."""
    K = int(z.max()) + 1
    counts = np.bincount(z, minlength=K).astype(np.float64)
    return 1.0 / counts[z]


def dcsbm_params(
    S, proportions, num_nodes: int, expected_degree: float, rng_seed=0, heterogeneous=True
) -> DcSbmParams:
    """Blockmodel parameters from an affinity skeleton ``S`` and group shares.

    Groups of ``block_sizes`` nodes are labeled in order; propensities are
    ``gamma_theta`` on the ``STREAM_NETWORK`` stream of ``rng_seed``, or
    ``uniform_theta`` when not ``heterogeneous``; ``S`` is scaled to the
    expected degree.
    """
    sizes = block_sizes(proportions, num_nodes)
    z = np.repeat(np.arange(len(sizes)), sizes)
    theta = gamma_theta(z, as_rng(rng_seed, STREAM_NETWORK)) if heterogeneous else uniform_theta(z)
    B = scaled_block_matrix(S, num_nodes, expected_degree)
    return DcSbmParams(z=z, theta=theta, B=B)


def table1_dcsbm(
    num_nodes: int,
    expected_degree: float = 30.0,
    rng_seed=0,
    heterogeneous: bool = True,
) -> DcSbmParams:
    """Blockmodel parameters reproducing the published simulation design."""
    S, shares = table1_symmetrized(), table1_block_proportions()
    return dcsbm_params(S, shares, num_nodes, expected_degree, rng_seed, heterogeneous)


def table1_fixture_tree():
    """Referral tree realizing the committed counts exactly.

    One recruiter per group carries that group's full referral row; the
    result is a 107-node tree whose parent-child label transitions
    reproduce the count table entry for entry.

    Returns ``(tree, labels)`` with labels indexed 0..2 over (B, W, H).
    """
    counts = TABLE1_COUNTS.astype(np.int64)
    labels = [0]
    parent = [-1]
    # root (B) emits the B row
    for v in range(3):
        for _ in range(counts[0, v]):
            parent.append(0)
            labels.append(v)
    w_hub = labels.index(1)  # first W child carries the W row
    h_hub = labels.index(2)  # first H child carries the H row
    for hub, row in ((w_hub, 1), (h_hub, 2)):
        for v in range(3):
            for _ in range(counts[row, v]):
                parent.append(hub)
                labels.append(v)
    tree = ReferralTree(np.asarray(parent, dtype=np.int64))
    return tree, np.asarray(labels, dtype=np.int64)


def table1_fixture_sample() -> RdsSample:
    """Fixture tree packaged as a labeled sample (outcome = block indicator)."""
    tree, labels = table1_fixture_tree()
    return RdsSample(
        tree=tree,
        node=np.arange(tree.n),
        degree=np.ones(tree.n),
        outcome=(labels != 2).astype(np.float64),
        block=labels,
    )


def two_state_chain(p: float) -> WeightedGraph:
    """Two-node graph whose walk stays put with probability p.

    Self-loop weight p/(1-p) against a unit cross edge gives the
    transition matrix [[p, 1-p], [1-p, p]] with second eigenvalue 2p - 1.
    """
    if not 0.5 <= p < 1:
        raise InvalidParametersError("p must lie in [0.5, 1)")
    w = p / (1.0 - p)
    return WeightedGraph.from_dense([[w, 1.0], [1.0, w]])


def outcome_block_values(z: np.ndarray, values) -> np.ndarray:
    """Deterministic outcome: each block mapped to a fixed value."""
    return np.asarray(values, dtype=np.float64)[np.asarray(z)]


def outcome_block_bernoulli(z: np.ndarray, rates, rng) -> np.ndarray:
    """Bernoulli outcome with a block-specific success rate."""
    probs = np.asarray(rates, dtype=np.float64)[np.asarray(z)]
    return (rng.random(len(probs)) < probs).astype(np.float64)


def outcome_bernoulli(n: int, rate: float, rng) -> np.ndarray:
    """Bernoulli outcome independent of the block structure."""
    return (rng.random(n) < rate).astype(np.float64)
