import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import rdsgls as r
from rdsgls.presets import (
    OFFSPRING_PRESETS,
    block_sizes,
    table1_block_proportions,
    table1_dcsbm,
    table1_fixture_sample,
    table1_symmetrized,
    uniform_theta,
)
from rdsgls.sampler import SEED_RULES, _choice_without_replacement, _draw_seed, _uniform_choice
from rdsgls.seeding import STREAM_WALK, as_rng


def test_single_node_tree_draws_from_pi(triangle_model):
    tree = r.complete_binary_tree(1)
    states = r.markov_walk_batch(tree, triangle_model, 100_000, 31)[:, 0]
    freq = np.bincount(states, minlength=3) / 100_000
    se = np.sqrt((1 / 3) * (2 / 3) / 100_000)
    assert np.max(np.abs(freq - 1 / 3)) < 3 * se


def test_transition_frequencies_two_state(chain09):
    tree = r.ReferralTree(np.concatenate([[-1], np.arange(999)]))
    sample = r.markov_walk(tree, chain09, 17)
    stay = np.mean(sample.node[1:] == sample.node[tree.parent[1:]])
    se = np.sqrt(0.9 * 0.1 / 999)
    assert abs(stay - 0.9) < 4 * se


def test_stationarity_chi2(triangle_model):
    tree = r.ReferralTree(np.array([-1, 0, 1]))
    states = r.markov_walk_batch(tree, triangle_model, 10_000, 5)
    for tau in range(3):
        counts = np.bincount(states[:, tau], minlength=3)
        chi2 = np.sum((counts - 10_000 / 3) ** 2 / (10_000 / 3))
        assert chi2 < stats.chi2.ppf(0.999, df=2)


def test_markov_walk_determinism(chain09):
    tree = r.complete_binary_tree(6)
    s1 = r.markov_walk(tree, chain09, 77, y=np.array([1.0, 0.0]))
    s2 = r.markov_walk(tree, chain09, 77, y=np.array([1.0, 0.0]))
    assert np.array_equal(s1.node, s2.node)
    assert np.array_equal(s1.outcome, s2.outcome)


@pytest.mark.parametrize("seed", [0, 3, 77])
def test_markov_walk_is_one_packaged_batch_draw(chain09, seed):
    tree = r.complete_binary_tree(6)
    y, blocks = np.array([1.5, -0.25]), np.array([1, 0])
    states = r.markov_walk_batch(tree, chain09, 1, seed)[0]
    assert np.array_equal(r.markov_walk(tree, chain09, seed).node, states)
    sample = r.markov_walk(tree, chain09, seed, y=y, blocks=blocks)
    assert sample.node.tobytes() == states.tobytes()
    assert sample.degree.tobytes() == chain09.graph.degrees[states].astype(np.float64).tobytes()
    assert sample.outcome.tobytes() == y[states].tobytes()
    assert sample.block.tobytes() == blocks[states].tobytes()


def test_markov_walk_records_degrees(chain09):
    tree = r.complete_binary_tree(3)
    sample = r.markov_walk(tree, chain09, 3)
    assert np.allclose(sample.degree, chain09.graph.degrees[sample.node])


def test_markov_walk_requires_irreducible():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    model = r.build_transition(r.WeightedGraph.from_dense(W))
    with pytest.raises(r.ReversibilityError):
        r.markov_walk(r.complete_binary_tree(2), model, 0)


def test_proposition1_referral_expectation():
    # expected-chain walk: block referral frequencies recover the affinity
    # matrix up to its total mass and the (n-1)/n edge-count factor
    S = table1_symmetrized()
    sizes = block_sizes(table1_block_proportions(), 60)
    z = np.repeat(np.arange(3), sizes)
    params = r.DcSbmParams(z=z, theta=uniform_theta(z), B=S)
    model = r.expected_transition_model(params)
    tree, _ = r.galton_watson_tree([1 / 6, 1 / 3, 1 / 3, 1 / 6], 200, rng_seed=77)
    n = tree.n
    reps = 10_000
    states = r.markov_walk_batch(tree, model, reps, 4242)
    zs = z[states]
    idx = zs[:, tree.parent[1:]] * 3 + zs[:, 1:]
    counts = np.zeros((reps, 9))
    for k in range(9):
        counts[:, k] = (idx == k).sum(axis=1)
    qhats = counts.reshape(reps, 3, 3) / n
    m = S.sum()
    correction = n / (n - 1)
    est = m * qhats.mean(axis=0) * correction
    se = m * qhats.std(axis=0, ddof=1) / np.sqrt(reps) * correction
    assert np.max(np.abs(est - S) / se) < 3.0


def test_rds_complete_graph_always_succeeds():
    graph = r.WeightedGraph.from_dense(np.ones((600, 600)) - np.eye(600))
    cfg = r.WalkConfig(offspring_pmf=(1 / 6, 1 / 3, 1 / 3, 1 / 6), target_n=500)
    sample, restarts = r.rds_without_replacement(graph, cfg, 1)
    assert restarts == 0
    assert len(set(sample.node.tolist())) == 500


def test_rds_path_graph_in_order():
    graph = r.WeightedGraph.from_edges(10, [(i, i + 1, 1.0) for i in range(9)])
    cfg = r.WalkConfig(offspring_pmf=(0.0, 1.0), target_n=10, seed_rule=0)
    sample, _ = r.rds_without_replacement(graph, cfg, 9)
    assert sample.node.tolist() == list(range(10))
    assert sample.tree.parent.tolist() == [-1] + list(range(9))


def test_rds_distinct_nodes_and_valid_tree():
    rng = np.random.default_rng(2)
    W = (rng.random((80, 80)) < 0.2).astype(float)
    W = np.triu(W, 1)
    W = W + W.T
    graph, _ = r.WeightedGraph.from_dense(W, allow_isolated=True).largest_component()
    cfg = r.WalkConfig(offspring_pmf=(1 / 6, 1 / 3, 1 / 3, 1 / 6), target_n=30)
    for seed in range(5):
        sample, _ = r.rds_without_replacement(graph, cfg, seed)
        assert len(set(sample.node.tolist())) == 30
        assert sample.tree.n == 30


def test_rds_determinism():
    graph = r.WeightedGraph.from_dense(np.ones((50, 50)) - np.eye(50))
    cfg = r.WalkConfig(offspring_pmf=(0.2, 0.4, 0.4), target_n=30)
    s1, r1 = r.rds_without_replacement(graph, cfg, 5)
    s2, r2 = r.rds_without_replacement(graph, cfg, 5)
    assert r1 == r2
    assert np.array_equal(s1.node, s2.node)
    assert np.array_equal(s1.tree.parent, s2.tree.parent)


def test_rds_restart_cap():
    # two-node graph can reach 2 participants but never 3
    graph = r.WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    cfg = r.WalkConfig(offspring_pmf=(0.0, 1.0), target_n=2, max_restarts=3)
    sample, _ = r.rds_without_replacement(graph, cfg, 1)
    assert sample.n == 2
    big = r.WalkConfig(offspring_pmf=(0.0, 1.0), target_n=3, max_restarts=3)
    with pytest.raises(r.InvalidParametersError):
        r.rds_without_replacement(graph, big, 1)


def test_rds_extinction_restarts():
    # star graph: offspring always 2 but the hub has only leaves, so runs
    # from a leaf seed die quickly and restarts occur
    edges = [(0, i, 1.0) for i in range(1, 8)]
    graph = r.WeightedGraph.from_edges(8, edges)
    cfg = r.WalkConfig(offspring_pmf=(1.0,), target_n=2, max_restarts=4)
    with pytest.raises(r.SamplingFailedError) as err:
        r.rds_without_replacement(graph, cfg, 0)
    assert err.value.restarts == 4


def test_reported_degree_is_contact_count_under_weights():
    # preferential weights alter referral probabilities, never reported degrees
    W = np.array(
        [
            [0.0, 10.0, 1.0],
            [10.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ]
    )
    graph = r.WeightedGraph.from_dense(W)
    cfg = r.WalkConfig(offspring_pmf=(0.0, 0.0, 1.0), target_n=3, seed_rule=2)
    sample, _ = r.rds_without_replacement(graph, cfg, 0)
    assert sorted(sample.node.tolist()) == [0, 1, 2]
    assert np.all(sample.degree == 2.0)


def test_preferential_recruitment_raises_same_block_fraction():
    rng = np.random.default_rng(14)
    n = 120
    z = np.repeat([0, 1], n // 2)
    W = (rng.random((n, n)) < 0.25).astype(float)
    W = np.triu(W, 1)
    W = W + W.T
    graph, kept = r.WeightedGraph.from_dense(W, allow_isolated=True).largest_component()
    zc = z[kept]
    weighted = graph.reweighted_within_blocks(zc, 10.0)
    cfg = r.WalkConfig(offspring_pmf=(0.0, 0.3, 0.4, 0.3), target_n=60, seed_rule="uniform")

    def same_block_fraction(g, seed):
        sample, _ = r.rds_without_replacement(g, cfg, seed)
        zz = zc[sample.node]
        return np.mean(zz[1:] == zz[sample.tree.parent[1:]])

    plain = np.mean([same_block_fraction(graph, s) for s in range(200)])
    pref = np.mean([same_block_fraction(weighted, s) for s in range(200)])
    assert pref > plain


def test_referral_counts_single_block():
    sample = r.RdsSample(
        tree=r.complete_binary_tree(3),
        node=np.arange(7),
        degree=np.ones(7),
        block=np.zeros(7, dtype=int),
    )
    Q = r.referral_counts(sample, 1)
    assert np.allclose(Q, [[6 / 7]])


def test_referral_counts_alternating_path():
    tree = r.ReferralTree(np.array([-1, 0, 1, 2]))
    sample = r.RdsSample(
        tree=tree,
        node=np.arange(4),
        degree=np.ones(4),
        block=np.array([0, 1, 0, 1]),
    )
    Q = r.referral_counts(sample, 2)
    assert np.allclose(Q, np.array([[0.0, 2.0], [1.0, 0.0]]) / 4)


def test_referral_counts_table1_fixture():
    from rdsgls.presets import TABLE1_COUNTS

    sample = table1_fixture_sample()
    Q = r.referral_counts(sample, 3)
    assert np.allclose(Q * sample.n, TABLE1_COUNTS)


def test_referral_counts_requires_labels():
    sample = r.RdsSample(
        tree=r.complete_binary_tree(2), node=np.arange(3), degree=np.ones(3)
    )
    with pytest.raises(r.MissingLabelError):
        r.referral_counts(sample, 2)


def test_walkconfig_validation():
    for pmf in ((0.5, 0.4), (np.nan, 1.0), (np.inf, 0.0)):
        with pytest.raises(r.InvalidParametersError):
            r.WalkConfig(offspring_pmf=pmf, target_n=5)
    with pytest.raises(r.InvalidParametersError):
        r.WalkConfig(offspring_pmf=(0.5, 0.5), target_n=0)
    with pytest.raises(r.InvalidParametersError):
        r.WalkConfig(offspring_pmf=(0.5, 0.5), target_n=2, seed_rule="degreeish")


@pytest.mark.parametrize(
    ("field", "value"), [("seed_rule", -1), ("seed_rule", np.int64(-3)), ("max_restarts", -1)]
)
def test_walkconfig_rejects_negative_settings(field, value):
    with pytest.raises(r.InvalidParametersError, match=field):
        r.WalkConfig(offspring_pmf=(0.5, 0.5), target_n=2, **{field: value})


def test_seed_node_outside_graph_fails_before_drawing():
    graph = r.WeightedGraph.from_dense(np.ones((6, 6)) - np.eye(6))
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    for node in (6, 1000):
        cfg = r.WalkConfig(offspring_pmf=(0.0, 1.0), target_n=3, seed_rule=node)
        with pytest.raises(r.InvalidParametersError, match="seed_rule node"):
            r.rds_without_replacement(graph, cfg, rng)
    assert repr(rng.bit_generator.state) == repr(before)
    cfg = r.WalkConfig(offspring_pmf=(0.0, 1.0), target_n=3, seed_rule=5, max_restarts=0)
    sample, restarts = r.rds_without_replacement(graph, cfg, rng)
    assert sample.node[0] == 5 and restarts == 0


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    m=st.integers(2, 40),
    seed=st.integers(0, 2**63),
    bitgen=st.sampled_from([np.random.PCG64, np.random.Philox]),
)
def test_choice_emulation_matches_numpy(data, m, seed, bitgen):
    # log-uniform weights over 24 decades force many rounds of redraws
    exponents = data.draw(st.lists(st.floats(-12.0, 12.0), min_size=m, max_size=m))
    w = 10.0 ** np.array(exponents)
    p = w / w.sum()
    size = data.draw(st.integers(1, m - 1))
    ours = np.random.Generator(bitgen(seed))
    numpys = np.random.Generator(bitgen(seed))
    got = _choice_without_replacement(p, size, ours)
    assert list(got) == numpys.choice(m, size=size, replace=False, p=p).tolist()
    # repr: a Philox state holds arrays
    assert repr(ours.bit_generator.state) == repr(numpys.bit_generator.state)


def _rds_one_call_per_draw(graph, cfg, rng_seed):
    """``rds_without_replacement`` as it drew before an attempt's uniforms came
    from blocks drawn ahead: one ``Generator.random`` call per offspring count
    and NumPy's own ``choice`` per weighted draw (the oracle).  Returns
    ``(nodes, parent, restarts)``, or ``("failed", restarts, reached)``."""
    rng = as_rng(rng_seed, STREAM_WALK)
    offspring_cdf = np.cumsum(cfg.offspring_pmf)
    indptr, indices, weights = graph.weights.indptr, graph.weights.indices, graph.weights.data
    best = 0
    for restarts in range(cfg.max_restarts + 1):
        seed_node = _draw_seed(graph, cfg.seed_rule, rng)
        in_sample = np.zeros(graph.num_nodes, dtype=bool)
        in_sample[seed_node] = True
        nodes, parent, frontier = [seed_node], [-1], 0
        while len(nodes) < cfg.target_n and frontier < len(nodes):
            who = nodes[frontier]
            want = int(np.searchsorted(offspring_cdf, rng.random(), side="right"))
            if want > 0:
                lo, hi = indptr[who], indptr[who + 1]
                fresh = ~in_sample[indices[lo:hi]]
                eligible = indices[lo:hi][fresh]
                if eligible.size:
                    if want < eligible.size:
                        w = weights[lo:hi][fresh]
                        eligible = eligible[rng.choice(w.size, want, replace=False, p=w / w.sum())]
                    chosen = eligible[: cfg.target_n - len(nodes)]
                    in_sample[chosen] = True
                    nodes.extend(chosen.tolist())
                    parent.extend([frontier] * chosen.size)
            frontier += 1
        if len(nodes) >= cfg.target_n:
            return nodes, parent, restarts
        best = max(best, len(nodes))
    return "failed", cfg.max_restarts, best


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 25),
    source=st.sampled_from(["int", np.random.PCG64, np.random.Philox]),
    seed=st.integers(0, 2**63),
)
def test_sampler_matches_the_one_call_per_draw_loop(data, n, source, seed):
    # random small weighted graphs, isolated nodes allowed; offspring laws with
    # mass at 0 make attempts die, restart and at times exhaust their restarts
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    W = np.triu(rng.random((n, n)) < data.draw(st.floats(0.05, 0.7)), 1)
    W = W * 10.0 ** rng.uniform(-1.0, 1.0, (n, n))
    W[0, 1] = 1.0
    graph = r.WeightedGraph.from_dense(W + W.T, allow_isolated=True)
    mass = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)
                     .filter(lambda m: sum(m) > 0.01))
    cfg = r.WalkConfig(
        offspring_pmf=tuple(np.array(mass) / sum(mass)),
        target_n=data.draw(st.integers(1, n)),
        seed_rule=data.draw(st.one_of(st.sampled_from(SEED_RULES), st.integers(0, n - 1))),
        max_restarts=data.draw(st.integers(0, 6)),
    )

    def run(sampler):
        gen = seed if source == "int" else np.random.Generator(source(seed))
        try:
            out = sampler(graph, cfg, gen)
        except r.SamplingFailedError as exc:
            out = ("failed", exc.restarts, exc.reached)
        state = None if source == "int" else repr(gen.bit_generator.state)
        return out, state

    def sampled(graph, cfg, gen):
        sample, restarts = r.rds_without_replacement(graph, cfg, gen)
        return sample.node.tolist(), sample.tree.parent.tolist(), restarts

    assert run(sampled) == run(_rds_one_call_per_draw)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 25),
    source=st.sampled_from(["int", np.random.PCG64, np.random.Philox]),
    seed=st.integers(0, 2**63),
)
def test_unit_weight_sampler_matches_the_one_call_per_draw_loop(data, n, source, seed):
    # the same comparison on graphs whose weights are all 1.0, where the first
    # round of each draw reads a cdf cached by eligible count
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    W = np.triu(rng.random((n, n)) < data.draw(st.floats(0.05, 0.9)), 1).astype(float)
    W[0, 1] = 1.0
    graph = r.WeightedGraph.from_dense(W + W.T, allow_isolated=True)
    assert graph.has_unit_weights
    mass = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)
                     .filter(lambda m: sum(m) > 0.01))
    cfg = r.WalkConfig(
        offspring_pmf=tuple(np.array(mass) / sum(mass)),
        target_n=data.draw(st.integers(1, n)),
        seed_rule=data.draw(st.one_of(st.sampled_from(SEED_RULES), st.integers(0, n - 1))),
        max_restarts=data.draw(st.integers(0, 6)),
    )

    def sampled(graph, cfg, gen):
        sample, restarts = r.rds_without_replacement(graph, cfg, gen)
        return sample.node.tolist(), sample.tree.parent.tolist(), restarts

    outs = []
    for sampler in (sampled, _rds_one_call_per_draw):
        gen = seed if source == "int" else np.random.Generator(source(seed))
        try:
            out = sampler(graph, cfg, gen)
        except r.SamplingFailedError as exc:
            out = ("failed", exc.restarts, exc.reached)
        outs.append((out, None if source == "int" else repr(gen.bit_generator.state)))
    assert outs[0] == outs[1]


def test_uniform_choice_is_the_unit_weight_draw_bit_for_bit():
    for m in range(1, 4097):
        w = np.ones(m)
        p_want = w / w.sum()
        cdf_want = p_want.cumsum()
        cdf_want /= cdf_want[-1]
        p, cdf = _uniform_choice(m)
        assert p.tobytes() == p_want.tobytes() and cdf.tobytes() == cdf_want.tobytes(), m
        assert not p.flags.writeable and not cdf.flags.writeable


def test_weights_not_all_one_draw_as_generator_choice():
    # equal weights other than 1.0, and one non-unit entry, keep the weighted
    # draw: only a graph whose weights are all exactly 1.0 reads cached cdfs
    rng = np.random.default_rng(8)
    W = np.triu(rng.random((40, 40)) < 0.5, 1).astype(float)
    W = W + W.T
    one_off = W.copy()
    hub = int(np.argmax(W.sum(axis=1)))
    nbr = int(np.flatnonzero(W[hub])[0])
    one_off[hub, nbr] = one_off[nbr, hub] = 1.5
    graphs = [r.WeightedGraph.from_dense(c * W) for c in (2.0, 3.0, 0.1)]
    graphs.append(r.WeightedGraph.from_dense(one_off))
    for graph in graphs:
        assert not graph.has_unit_weights
        for rule in (*SEED_RULES, hub):
            cfg = r.WalkConfig(offspring_pmf=(0.1, 0.2, 0.3, 0.4), target_n=30, seed_rule=rule)
            for seed in range(10):
                sample, restarts = r.rds_without_replacement(graph, cfg, seed)
                got = (sample.node.tolist(), sample.tree.parent.tolist(), restarts)
                assert got == _rds_one_call_per_draw(graph, cfg, seed)


def test_sample_rejects_nonfinite_outcomes():
    tree = r.complete_binary_tree(3)
    y = np.arange(tree.n, dtype=float)
    y[4] = np.nan
    with pytest.raises(r.InvalidSampleError, match="outcomes must be finite"):
        r.RdsSample(tree=tree, node=np.arange(tree.n), degree=np.ones(tree.n), outcome=y)
    sample = r.RdsSample(tree=tree, node=np.arange(tree.n), degree=np.full(tree.n, np.nan))
    for bad in (np.nan, np.inf, -np.inf):
        y[4] = bad
        with pytest.raises(r.InvalidSampleError):
            sample.with_outcome(y)
        with pytest.raises(r.InvalidSampleError):
            sample.with_outcome_values(y)


def test_a_new_outcome_column_is_checked_alone():
    tree = r.complete_binary_tree(3)
    sample = r.RdsSample(tree=tree, node=np.arange(tree.n), degree=np.ones(tree.n),
                         block=np.zeros(tree.n, dtype=np.int64))
    wrong_length = "^outcome must have one entry per tree node$"
    with pytest.raises(r.InvalidParametersError, match=wrong_length):
        sample.with_outcome_values(np.zeros(tree.n + 1))
    with pytest.raises(r.InvalidSampleError, match="^outcomes must be finite$"):
        sample.with_outcome_values(np.r_[np.nan, np.zeros(tree.n)])
    labeled = sample.with_outcome_values(np.arange(tree.n))
    assert labeled.y.dtype == np.float64 and labeled.y.tolist() == list(range(tree.n))
    for name in ("tree", "node", "degree", "block"):
        assert getattr(labeled, name) is getattr(sample, name)
    assert sample.outcome is None


def test_prefix_sample_consistency(chain09):
    tree = r.complete_binary_tree(5)
    sample = r.markov_walk(tree, chain09, 4, y=np.array([1.0, 0.0]), blocks=np.array([0, 1]))
    sub = sample.prefix(10)
    assert sub.n == 10
    assert np.array_equal(sub.node, sample.node[:10])
    assert np.array_equal(sub.outcome, sample.outcome[:10])
    assert np.array_equal(sub.block, sample.block[:10])


# Digests of rds_without_replacement output recorded before the weighted
# no-replacement draw stopped calling Generator.choice: the sampler must
# keep drawing the same samples from the same seeds.
DIGEST_SEEDS = (3, 17, 101, 2024)
SAMPLER_SHA256 = {
    (1.0, "fast"): "311a03643b0d78616f4a566afd869f75b85be8c31a230748573e306a3a579ce1",
    (1.0, "slow"): "0d2963080f8dc452a0c7c8b8611ce4d3f19d7ae1596457e6295ea1aeae60a1c0",
    (10.0, "fast"): "f74b22fc21780ae73632fb2b6f0ab3e478e09f2638144536ba0b9c52946f1f0c",
    (10.0, "slow"): "710cb489d6fe26d79107cdeb46b36bd6c6568366c55216208abc529e678a02ad",
}
PASSED_GENERATOR_SHA256 = (
    "15fe0f14579801e14a94628707c375f84b687a98d4c77fe9d169174b026c9e8b"
)


@pytest.fixture(scope="module")
def digest_graph():
    params = table1_dcsbm(600, expected_degree=20.0, rng_seed=5)
    graph, kept = r.dcsbm_sample(params, 5).largest_component()
    return graph, params.z[kept]


def _feed(h, sample, restarts):
    h.update(sample.tree.parent.astype("<i8").tobytes())
    h.update(sample.node.astype("<i8").tobytes())
    h.update(int(restarts).to_bytes(8, "little"))


@pytest.mark.parametrize(("weight", "law"), sorted(SAMPLER_SHA256))
def test_sampler_digest(digest_graph, weight, law):
    graph, z = digest_graph
    if weight != 1.0:
        graph = graph.reweighted_within_blocks(z, weight)
    h = hashlib.sha256()
    for rule in ("uniform", "degree_proportional"):
        cfg = r.WalkConfig(
            offspring_pmf=tuple(OFFSPRING_PRESETS[law]), target_n=150, seed_rule=rule
        )
        for seed in DIGEST_SEEDS:
            _feed(h, *r.rds_without_replacement(graph, cfg, seed))
    assert h.hexdigest() == SAMPLER_SHA256[(weight, law)]


def test_sampler_digest_passed_generator(digest_graph):
    graph, z = digest_graph
    rng = np.random.default_rng(42)
    h = hashlib.sha256()
    for g in (graph, graph.reweighted_within_blocks(z, 10.0)):
        for law in ("fast", "slow"):
            for rule in ("stationary_pi", "uniform", "degree_proportional"):
                cfg = r.WalkConfig(
                    offspring_pmf=tuple(OFFSPRING_PRESETS[law]), target_n=150, seed_rule=rule
                )
                _feed(h, *r.rds_without_replacement(g, cfg, rng))
    h.update(repr(rng.bit_generator.state).encode())
    assert h.hexdigest() == PASSED_GENERATOR_SHA256
