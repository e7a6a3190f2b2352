import hashlib
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdsgls as r
from conftest import random_tree
from rdsgls import estimators
from rdsgls.cli import PLAIN_ESTIMATORS
from rdsgls.presets import table1_fixture_sample, two_state_chain


def make_sample(tree, y, degree=None, block=None):
    return r.RdsSample(
        tree=tree,
        node=np.arange(tree.n),
        degree=np.ones(tree.n) if degree is None else np.asarray(degree, float),
        outcome=np.asarray(y, float),
        block=None if block is None else np.asarray(block),
    )


def test_mean_estimator():
    s = make_sample(r.complete_binary_tree(2), [0.0, 1.0, 1.0])
    assert abs(PLAIN_ESTIMATORS["mean"](s).mu_hat - 2 / 3) < 1e-15
    sc = make_sample(r.complete_binary_tree(2), [5.0, 5.0, 5.0])
    assert PLAIN_ESTIMATORS["mean"](sc).mu_hat == 5.0


def test_mean_matches_identity_gls():
    rng = np.random.default_rng(0)
    tree = r.complete_binary_tree(4)
    y = rng.normal(size=tree.n)
    s = make_sample(tree, y)
    gls = r.gls_solve(r.CovarianceMatrix(matrix=np.eye(tree.n), tree=tree), y)
    assert abs(PLAIN_ESTIMATORS["mean"](s).mu_hat - gls.estimate) < 1e-12


def test_vh_equal_degrees_is_mean():
    rng = np.random.default_rng(1)
    tree = r.complete_binary_tree(3)
    y = rng.normal(size=tree.n)
    s = make_sample(tree, y, degree=np.full(tree.n, 4.0))
    assert abs(PLAIN_ESTIMATORS["vh"](s).mu_hat - y.mean()) < 1e-12


def test_vh_hand_example():
    tree = r.ReferralTree(np.array([-1, 0]))
    s = make_sample(tree, [1.0, 0.0], degree=[1.0, 2.0])
    assert abs(PLAIN_ESTIMATORS["vh"](s).mu_hat - 2 / 3) < 1e-15


def test_vh_rejects_zero_degree():
    tree = r.ReferralTree(np.array([-1, 0]))
    s = make_sample(tree, [1.0, 0.0], degree=[1.0, 0.0])
    with pytest.raises(r.InvalidSampleError):
        PLAIN_ESTIMATORS["vh"](s)


@pytest.mark.parametrize("name", ["auto", "delta"])
def test_vh_reweighted_estimators_reject_zero_degree(name):
    tree = r.complete_binary_tree(3)
    s = make_sample(tree, np.arange(tree.n, dtype=float), degree=[1.0, 0.0] + [2.0] * (tree.n - 2))
    with pytest.raises(r.InvalidSampleError):
        r.apply_estimator(name, s)


def test_vh_unbiased_on_regular_graph():
    # 4-cycle: all degrees equal and pi uniform, so mu_true = mean(y)
    W = np.zeros((4, 4))
    for i in range(4):
        W[i, (i + 1) % 4] = 1.0
    W = W + W.T
    model = r.build_transition(r.WeightedGraph.from_dense(W))
    y = np.array([1.0, 0.0, 3.0, 0.5])
    tree = r.complete_binary_tree(4)
    states = r.markov_walk_batch(tree, model, 10_000, 5)
    est = y[states].mean(axis=1)  # equal degrees: VH reduces to the mean
    se = est.std(ddof=1) / 100
    assert abs(est.mean() - y.mean()) < 3 * se


def test_lag_statistics_constant_outcome():
    tree = r.ReferralTree(np.array([-1, 0, 1]))
    s = make_sample(tree, [2.0, 2.0, 2.0])
    stats = r.lag_statistics(s, 1.5)
    assert abs(stats.gamma0 - 0.25) < 1e-15
    assert stats.delta1 == 0.0 and stats.delta2 == 0.0


def test_lag_statistics_hand_enumeration():
    tree = r.ReferralTree(np.array([-1, 0, 1]))
    s = make_sample(tree, [0.0, 1.0, 0.0])
    stats = r.lag_statistics(s, 1 / 3)
    assert abs(stats.gamma0 - 2 / 9) < 1e-12
    assert abs(stats.gamma1 - (-2 / 9)) < 1e-12
    assert abs(stats.delta1 - 1.0) < 1e-12
    assert abs(stats.delta2 - 0.0) < 1e-12
    assert stats.counts == {0: 3, 1: 4, 2: 2}


def test_lag_statistics_sibling_pairs():
    tree = r.complete_binary_tree(2)  # two siblings at distance 2
    s = make_sample(tree, [0.0, 1.0, 3.0])
    stats = r.lag_statistics(s, 0.0)
    assert stats.counts[2] == 2
    assert abs(stats.delta2 - (3.0 - 1.0) ** 2) < 1e-12


def test_lag_statistics_requires_three_nodes():
    tree = r.ReferralTree(np.array([-1, 0]))
    with pytest.raises(r.InsufficientDepthError):
        r.lag_statistics(make_sample(tree, [0.0, 1.0]), 0.0)


def test_auto_constant_outcome_returns_constant():
    s = make_sample(r.complete_binary_tree(4), np.full(15, 3.25))
    rep = PLAIN_ESTIMATORS["auto"](s)
    assert rep.mu_hat == 3.25


def test_auto_recovers_chain_eigenvalue(chain09):
    tree = r.complete_binary_tree(10)
    y = np.array([1.0, 0.0])
    lams = []
    for seed in range(30):
        s = r.markov_walk(tree, chain09, seed, y=y)
        lams.append(PLAIN_ESTIMATORS["auto"](s).eigenvalues[0])
    assert abs(np.median(lams) - 0.8) < 0.05


def iid_chain():
    # self-loops make every row equal: the walk draws i.i.d. from pi
    model = r.build_transition(r.WeightedGraph.from_dense(np.ones((3, 3))))
    assert np.max(np.abs(r.spectral_decompose(model).eigenvalues[1:])) < 1e-12
    return model


def test_auto_matches_mean_when_independent():
    model = iid_chain()
    y = np.array([1.0, 0.0, 2.0])
    tree = r.complete_binary_tree(9)
    diffs = []
    for seed in range(200):
        s = r.markov_walk(tree, model, seed, y=y)
        diffs.append(abs(PLAIN_ESTIMATORS["auto"](s).mu_hat - s.y.mean()))
    assert np.median(diffs) < 0.01


def test_auto_gls_weights_match_dense_solve(chain09):
    s = r.markov_walk(r.complete_binary_tree(7), chain09, 3, y=np.array([1.0, 0.0]))
    rep = PLAIN_ESTIMATORS["auto"](s)
    lam = rep.eigenvalues[0]
    beta2 = rep.beta2[0]
    sigma = r.build_sigma(s.tree, r.AutoCovariance(terms=((beta2, lam),)))
    dense = r.gls_solve(sigma, s.y)
    assert abs(rep.mu_hat - dense.estimate) < 1e-10
    assert np.max(np.abs(rep.weights - dense.weights)) < 1e-10


def test_delta_constant_outcome():
    s = make_sample(r.complete_binary_tree(3), np.full(7, 1.5))
    rep = PLAIN_ESTIMATORS["delta"](s)
    assert rep.eigenvalues[0] == 0.0
    assert abs(rep.mu_hat - 1.5) < 1e-15


def test_delta_population_identity():
    # exact single-term lag values: the ratio recovers lambda up through
    # the smoothing term
    beta2, lam = 0.7, 0.8
    d1 = 2 * beta2 * (1 - lam)
    d2 = 2 * beta2 * (1 - lam**2)
    assert abs((d2 / d1 - 1.0) - lam) < 1e-12
    assert abs(d1 - 0.4 * beta2 / 0.4) * 0 == 0  # d1 = 0.4 beta2 when lam=0.8
    assert abs(d1 - 0.4 * beta2) < 1e-12
    assert abs(d2 - 0.72 * beta2) < 1e-12


def test_delta_recovers_eigenvalue_two_state():
    model = r.build_transition(two_state_chain(0.75))
    tree = r.complete_binary_tree(10)
    y = np.array([1.0, 0.0])
    lams = []
    for seed in range(200):
        s = r.markov_walk(tree, model, seed, y=y)
        lams.append(PLAIN_ESTIMATORS["delta"](s).eigenvalues[0])
    # the smoothing term in the denominator shifts the population target:
    # lam * Delta(1) / (Delta(1) + 1/sqrt(n)) with Delta(1) = 2 beta2 (1-lam)
    lam, beta2, n = 0.5, 0.25, tree.n
    d1 = 2 * beta2 * (1 - lam)
    target = lam * d1 / (d1 + n**-0.5)
    assert abs(np.median(lams) - target) < 0.05
    assert abs(np.median(lams) - lam) < 0.07  # close to the raw eigenvalue too


def test_all_estimators_single_node():
    tree = r.complete_binary_tree(1)
    s = make_sample(tree, [0.7], degree=[3.0], block=[0])
    for fn in (*PLAIN_ESTIMATORS.values(), r.sbm_fgls):
        assert fn(s).mu_hat == 0.7


def test_sbm_k1_reduces_to_mean():
    rng = np.random.default_rng(2)
    tree = r.complete_binary_tree(6)
    y = rng.normal(size=tree.n)
    s = make_sample(tree, y, block=np.zeros(tree.n, dtype=int))
    rep = r.sbm_fgls(s)
    assert abs(rep.mu_hat - y.mean()) < 1e-12
    assert rep.K == 1


def test_sbm_normalized_spectrum_example():
    vals, U, D = r.qhat_spectrum(np.array([[0.4, 0.1], [0.1, 0.4]]))
    assert np.allclose(D, [0.5, 0.5])
    assert np.allclose(vals, [1.0, 0.6])


def test_sbm_table1_fixture_second_eigenvalue():
    sample = table1_fixture_sample()
    rep = r.sbm_fgls(sample)
    assert abs(rep.eigenvalues[0] - 0.73) < 0.03


def test_sbm_constant_outcome_returns_constant():
    sample = table1_fixture_sample().with_outcome_values(np.full(107, 2.5))
    assert abs(r.sbm_fgls(sample).mu_hat - 2.5) < 1e-10


def test_sbm_location_estimate_reasonable(chain09):
    tree = r.complete_binary_tree(9)
    s = r.markov_walk(tree, chain09, 11, y=np.array([1.0, 0.0]), blocks=np.array([0, 1]))
    rep = r.sbm_fgls(s)
    assert 0.0 < rep.mu_hat < 1.0
    assert abs(rep.eigenvalues[0] - 0.8) < 0.1
    assert rep.nugget > 0


def test_sbm_drops_unvisited_blocks(chain09):
    tree = r.complete_binary_tree(6)
    s = r.markov_walk(tree, chain09, 2, y=np.array([1.0, 0.0]), blocks=np.array([0, 1]))
    rep = r.sbm_fgls(s, labels=2 * s.block)
    assert rep.K == 2
    assert "dropped blocks with no visits: [1]" in rep.warnings


def test_sbm_clamp_rarely_triggers(chain09):
    # with-replacement two-state chains keep the spectral estimate well
    # inside the clamp for p <= 0.95 and n >= 255
    model = r.build_transition(two_state_chain(0.95))
    tree = r.complete_binary_tree(8)
    z = np.array([0, 1])
    triggered = 0
    for seed in range(500):
        states = r.markov_walk(tree, model, seed).node
        sample = r.RdsSample(
            tree=tree, node=states, degree=np.ones(tree.n), block=z[states]
        )
        vals, _, _ = r.qhat_spectrum(r.referral_counts(sample, 2))
        if np.any(np.abs(vals[1:]) > 0.999):
            triggered += 1
    assert triggered / 500 < 0.01


def test_fgls_reweight_regular_graph_identity():
    tree = r.complete_binary_tree(5)
    rng = np.random.default_rng(3)
    y = rng.normal(size=tree.n)
    s = make_sample(tree, y, degree=np.full(tree.n, 6.0), block=rng.integers(0, 2, tree.n))
    out = r.fgls_reweight(s)
    assert np.max(np.abs(out.y - y)) < 1e-10


def test_fgls_reweight_hand_values():
    # uniform weights case: H^{-1} = mean(1/deg) = 3/4 for degrees (1, 2)
    tree = r.ReferralTree(np.array([-1, 0]))
    s = make_sample(tree, [1.0, 1.0], degree=[1.0, 2.0], block=[0, 0])
    out = r.fgls_reweight(s)
    # K=1 blockmodel GLS on 1/deg is the plain mean 3/4
    assert np.allclose(out.y, [1.0 / (0.75 * 1.0), 1.0 / (0.75 * 2.0)])


def test_fgls_pipeline_bias_negligible():
    # degree-heterogeneous graph: the reweighted blockmodel GLS is a ratio
    # estimator, so its finite-n bias is O(1/n) rather than exactly zero;
    # require it to be far below the per-replicate sampling noise
    from rdsgls.presets import table1_dcsbm

    params = table1_dcsbm(60, expected_degree=8.0, rng_seed=31, heterogeneous=True)
    model = r.expected_transition_model(params)
    y = (params.z != 2).astype(float)
    mu_true = y.mean()
    tree = r.complete_binary_tree(7)
    states = r.markov_walk_batch(tree, model, 4000, 8)
    degrees = model.graph.degrees
    ests = []
    for rep in range(4000):
        sample = r.RdsSample(
            tree=tree,
            node=states[rep],
            degree=degrees[states[rep]],
            outcome=y[states[rep]],
            block=params.z[states[rep]],
        )
        rep_out = r.sbm_fgls(r.fgls_reweight(sample), labels=sample.block)
        ests.append(rep_out.mu_hat)
    ests = np.asarray(ests)
    assert abs(ests.mean() - mu_true) < 0.06 * ests.std(ddof=1)


def test_oracle_gls_matches_ranktwo_exactly(chain09):
    spec = r.spectral_decompose(chain09)
    y = np.array([1.0, 0.0])
    tree = r.complete_binary_tree(8)
    s = r.markov_walk(tree, chain09, 13, y=y)
    rep = r.oracle_gls(s, spec, y)
    lam = spec.eigenvalues[1]
    x = 1.0 - lam * (tree.degrees - 1.0)
    fast = float(x @ s.y / x.sum())
    assert abs(rep.mu_hat - fast) < 1e-12
    # variance identity against the closed form
    beta2 = r.beta_coefficients(y, spec)[1] ** 2
    sigma = r.build_sigma(tree, r.AutoCovariance(terms=((beta2, lam),)))
    dense = r.gls_solve(sigma, s.y)
    assert abs(dense.variance - 1 / r.one_sigma_inv_one_ranktwo(tree.n, beta2, lam)) < 1e-10


def test_oracle_gls_iid_chain_is_mean():
    model = iid_chain()
    spec = r.spectral_decompose(model)
    y = np.array([1.0, 0.0, 2.0])
    s = r.markov_walk(r.complete_binary_tree(5), model, 7, y=y)
    rep = r.oracle_gls(s, spec, y)
    assert abs(rep.mu_hat - s.y.mean()) < 1e-10


def test_location_covariance_mean_and_oracle(chain09):
    # weights of these two estimators never depend on the outcome, so a
    # constant shift of y moves the estimate by exactly that constant
    rng = np.random.default_rng(9)
    tree = r.complete_binary_tree(6)
    y = rng.normal(size=tree.n)
    s = make_sample(tree, y, degree=np.full(tree.n, 2.0))
    shifted = PLAIN_ESTIMATORS["mean"](make_sample(tree, y + 5.0, degree=np.full(tree.n, 2.0)))
    assert abs(shifted.mu_hat - PLAIN_ESTIMATORS["mean"](s).mu_hat - 5.0) < 1e-12

    spec = r.spectral_decompose(chain09)
    y2 = np.array([1.0, 0.0])
    walk = r.markov_walk(tree, chain09, 44, y=y2)
    base = r.oracle_gls(walk, spec, y2)
    moved = r.oracle_gls(walk, spec, y2 + 5.0)
    assert abs(moved.mu_hat - base.mu_hat - 5.0) < 1e-10
    assert np.max(np.abs(moved.weights - base.weights)) < 1e-12


# SHA-256 of each fallback report's repr and weight bytes, recorded before
# every equal-weight report was built in one place
ORACLE_FALLBACKS = {
    "single-node": (1, (1.5, -0.25), "single-node sample",
                    "df19e84d271dbe17eaf450bd61096b94531907d17c7a88d6dfa6352577f93941"),
    "spectrally-flat": (3, (2.0, 2.0),
                        "exact covariance singular (outcome spectrally flat); used the mean",
                        "d96a6b54040a3b9d60826b9cd4a5b3a13611664d274c2844b1ae2f33da433cd0"),
}


@pytest.mark.parametrize("case", list(ORACLE_FALLBACKS))
def test_oracle_gls_fallback_reports_are_pinned(chain09, case):
    levels, y, note, digest = ORACLE_FALLBACKS[case]
    s = r.markov_walk(r.complete_binary_tree(levels), chain09, 3)
    rep = r.oracle_gls(s, r.spectral_decompose(chain09), np.array(y))
    assert rep.warnings == (note,)
    assert hashlib.sha256(repr(rep).encode() + rep.weights.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("levels", [1, 2])
def test_oracle_gls_rejects_a_nonfinite_sampled_outcome(levels):
    # on a one-state chain no loading is fitted that could refuse the outcome
    model = r.build_transition(r.WeightedGraph.from_edges(1, [(0, 0, 1.0)]))
    s = r.markov_walk(r.complete_binary_tree(levels), model, 0)
    with pytest.raises(r.InvalidSampleError, match="outcomes must be finite"):
        r.oracle_gls(s, r.spectral_decompose(model), np.array([np.inf]))


def test_report_weights_sum_to_one(chain09):
    s = r.markov_walk(
        r.complete_binary_tree(7), chain09, 10, y=np.array([1.0, 0.0]), blocks=np.array([0, 1])
    )
    for rep in (
        PLAIN_ESTIMATORS["mean"](s),
        PLAIN_ESTIMATORS["vh"](s),
        PLAIN_ESTIMATORS["auto"](s),
        PLAIN_ESTIMATORS["delta"](s),
        r.sbm_fgls(s),
    ):
        assert abs(rep.weights.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("build", [
    lambda w: r.EstimateReport("x", 0.5, weights=w, n=2),
    lambda w: r.GlsResult(estimate=0.5, weights=w, variance=1.0),
], ids=["EstimateReport", "GlsResult"])
@pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, 0.6]])
def test_result_weights_that_do_not_sum_to_one_raise(build, weights):
    # a NaN sum fails every comparison, so the check must be written to pass only finite sums
    with pytest.raises(r.InvalidParametersError, match="weights must sum to one"):
        build(np.array(weights))


PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def labeled_samples(draw, other=False):
    """Random recruitment trees with positive degrees, three blocks and a few outcome
    levels.  Each parent pick counts from the root or back from its node, so
    that picks shrunk toward 0.0 give a star or a path; ``other`` always counts
    back, and at times gives the root nine children or more."""
    wide = other and draw(st.booleans())
    back = other or draw(st.booleans())
    n = draw(st.integers(10 if wide else 3, 120))
    picks = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n - 1, max_size=n - 1))
    parent = np.array([-1] + [t - 1 - int(u * t) if back else int(u * t)
                              for t, u in enumerate(picks, start=1)])
    if wide:
        parent[1:10] = 0
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return r.RdsSample(
        tree=r.ReferralTree(parent),
        node=np.arange(n),
        degree=rng.integers(1, 40, n).astype(float),
        outcome=rng.integers(0, draw(st.integers(1, 5)), n) * draw(st.floats(0.1, 3.0)),
        block=rng.integers(0, 3, n),
    )


def _run(name, sample):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return r.apply_estimator(name, sample)


@PROPERTY
@given(sample=labeled_samples())
@pytest.mark.parametrize("name", list(r.ESTIMATORS))
def test_table_weights_finite_and_normalized(name, sample):
    weights = _run(name, sample).weights
    assert np.isfinite(weights).all()
    assert abs(weights.sum() - 1.0) < 1e-10


@PROPERTY
@given(sample=labeled_samples(), a=st.floats(0.01, 100.0))
@pytest.mark.parametrize("name", [name for name in r.ESTIMATORS if name != "delta"])
def test_table_scale_equivariance(name, sample, a):
    # delta is left out: its n^-1/2 smoothing term is not scale-free
    mu = _run(name, sample).mu_hat
    scaled = _run(name, sample.with_outcome_values(a * sample.y)).mu_hat
    assert abs(scaled - a * mu) <= 1e-9 * max(1.0, a * np.abs(sample.y).max())


@PROPERTY
@given(sample=labeled_samples(), b=st.floats(-100.0, 100.0))
@pytest.mark.parametrize("name", ["mean", "vh"])
def test_table_shift_equivariance(name, sample, b):
    mu = _run(name, sample).mu_hat
    shifted = _run(name, sample.with_outcome_values(sample.y + b)).mu_hat
    assert abs(shifted - (mu + b)) <= 1e-9 * max(1.0, abs(b), np.abs(sample.y).max())


def _lag_statistics_loop(sample, m):
    """``lag_statistics`` as it was before the sibling sums were vectorized (the oracle)."""
    Y = sample.y
    n = sample.n
    if n < 3:
        raise r.InsufficientDepthError("lag-2 statistics need at least 3 nodes")
    tree = sample.tree
    parents = tree.parent[1:]
    kids = np.arange(1, n)
    resid = Y - m

    gamma0 = float(np.mean(resid**2))
    prod1 = resid[parents] * resid[kids]
    gamma1 = float(prod1.mean())
    delta1 = float(np.mean((Y[parents] - Y[kids]) ** 2))

    # distance-2 pairs: grandparent-grandchild plus siblings
    deep = kids[parents > 0]
    gp = tree.parent[parents[parents > 0]]
    gp_sq = np.sum((Y[deep] - Y[gp]) ** 2)
    gp_count = deep.size

    sib_sq = 0.0
    sib_count = 0
    kid_lists = [[] for _ in range(n)]
    for tau in range(1, n):
        kid_lists[tree.parent[tau]].append(tau)
    for kid_list in kid_lists:
        c = len(kid_list)
        if c >= 2:
            yk = Y[kid_list]
            sib_sq += 2.0 * (c * np.sum(yk**2) - np.sum(yk) ** 2)
            sib_count += c * (c - 1)
    d2_count = 2 * gp_count + sib_count
    if d2_count == 0:
        raise r.InsufficientDepthError("tree has no node pairs at distance 2")
    delta2 = float((2.0 * gp_sq + sib_sq) / d2_count)
    return r.LagStatistics(
        gamma0=gamma0,
        gamma1=gamma1,
        delta1=delta1,
        delta2=delta2,
        counts={0: n, 1: 2 * (n - 1), 2: d2_count},
    )


@st.composite
def lag_samples(draw):
    """Random recruitment trees, or stars with up to 50 children, with rough outcomes."""
    n = draw(st.integers(3, 51))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        tree = random_tree(rng, draw(st.integers(3, 200)))
    else:
        tree = r.ReferralTree(np.array([-1] + [0] * (n - 1)))
    y = rng.normal(size=tree.n) * rng.integers(1, 100, tree.n) / 7.0
    return make_sample(tree, y)


@settings(max_examples=300, deadline=None)
@given(sample=lag_samples(), m=st.floats(-5.0, 5.0))
def test_lag_statistics_equal_the_sibling_loop(sample, m):
    # bit for bit, also for sibling groups of 8 or more, where np.sum adds pairwise
    assert r.lag_statistics(sample, m) == _lag_statistics_loop(sample, m)


def test_lag_statistics_square_sums_as_the_loop_did():
    # the loop squared NumPy scalars, which calls the C library's pow; for some
    # x that differs from x * x in the last bit, and a two-child star isolates it
    xs = np.random.default_rng(0).normal(size=20_000)
    differ = [x for x in xs if x**2 != x * x]
    for x in differ[:5]:
        sample = make_sample(r.ReferralTree(np.array([-1, 0, 0])), [0.0, x, 0.0])
        assert r.lag_statistics(sample, 0.0) == _lag_statistics_loop(sample, 0.0)


@PROPERTY
@given(sample=labeled_samples())
def test_fgls_reweight_uses_the_blockmodel_estimate(sample):
    inverse = sample.with_outcome_values(1.0 / sample.degree)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h_inv = r.sbm_fgls(inverse).mu_hat
        out = r.reweight(sample, "fgls").y
    if np.isfinite(h_inv) and h_inv > 0:
        assert np.array_equal(out, sample.y / (h_inv * sample.degree))


def test_reweight_rejects_unknown_policy():
    s = make_sample(r.complete_binary_tree(2), [0.0, 1.0, 1.0])
    with pytest.raises(r.InvalidParametersError, match="unknown reweighting"):
        r.reweight(s, "harmonic")


def test_reweight_none_returns_the_sample_itself():
    s = make_sample(r.complete_binary_tree(2), [0.0, 1.0, 1.0])
    assert r.reweight(s, "none") is s


_SEVEN = make_sample(r.complete_binary_tree(3), np.arange(7.0), block=np.arange(7) % 3)
TYPED_ERRORS = {
    "sbm-short-labels": (lambda: r.sbm_fgls(_SEVEN, np.zeros(6, dtype=int)),
                         r.InvalidParametersError, "labels must cover every sampled node"),
    "sbm-negative-label": (lambda: r.sbm_fgls(_SEVEN, np.array([0, 1, -1, 0, 1, 0, 1])),
                           r.MissingLabelError, "block labels must be nonnegative"),
    "qhat-not-square": (lambda: r.qhat_spectrum(np.ones((2, 3))),
                        r.InvalidParametersError, "referral matrix must be square"),
    "qhat-all-zero": (lambda: r.qhat_spectrum(np.zeros((2, 2))),
                      r.InvalidParametersError, "referral matrix has no mass"),
    "qhat-empty-block": (lambda: r.qhat_spectrum(np.array([[1.0, 0.0], [0.0, 0.0]])),
                         r.MissingLabelError, "a block has no referrals in or out"),
    "counts-label-too-large": (lambda: r.referral_counts(_SEVEN, 2),
                               r.MissingLabelError, "block labels must lie in 0..1"),
}


@pytest.mark.parametrize("case", list(TYPED_ERRORS))
def test_bad_estimator_inputs_raise_typed_errors(case):
    call, error, message = TYPED_ERRORS[case]
    with pytest.raises(r.RdsglsError) as caught:
        call()
    assert caught.type is error
    assert str(caught.value) == message


def _cold(sample):
    """``sample`` on a copy of its tree, so nothing is cached yet."""
    return replace(sample, tree=r.ReferralTree(sample.tree.parent.copy()))


@PROPERTY
@given(sample=labeled_samples())
@pytest.mark.parametrize("name", list(r.ESTIMATORS))
def test_skipping_the_rse_changes_nothing_else(name, sample):
    full = _run(name, _cold(sample))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bare = r.apply_estimator(name, _cold(sample), rse=False)
    assert bare.rse is None
    assert bare.to_dict() == {**full.to_dict(), "rse": None}
    assert repr(bare.mu_hat) == repr(full.mu_hat)
    assert bare.weights.tobytes() == full.weights.tobytes()


@PROPERTY
@given(sample=labeled_samples())
@pytest.mark.parametrize("name", list(r.ESTIMATORS))
def test_warm_tree_cache_gives_the_cold_result(name, sample):
    for other in r.ESTIMATORS:
        _run(other, sample)
    warm = _run(name, sample)
    cold = _run(name, _cold(sample))
    assert warm.to_dict() == cold.to_dict()
    assert warm.weights.tobytes() == cold.weights.tobytes()


def test_fgls_fallback_warns_on_every_call():
    tree = r.complete_binary_tree(3)
    s = make_sample(tree, np.arange(tree.n, dtype=float), degree=np.arange(1, tree.n + 1),
                    block=np.arange(tree.n) % 2)
    calls = []

    def not_positive(columns, rse):
        calls.append(rse)
        out = estimators._Columns(len(columns))
        out.mu[:] = -1.0
        return out

    want = s.y / (np.mean(1.0 / s.degree) * s.degree)
    with mock.patch.object(estimators, "_blockmodel_gls_columns", not_positive):
        for _ in range(3):
            with pytest.warns(RuntimeWarning, match="using the harmonic mean instead"):
                assert np.array_equal(r.reweight(s, "fgls").y, want)
    assert calls == [False] * 3


@pytest.mark.filterwarnings("error")
def test_apply_estimator_puts_the_fallback_note_first():
    tree = r.complete_binary_tree(3)
    s = make_sample(tree, np.arange(tree.n, dtype=float), degree=np.arange(1, tree.n + 1),
                    block=np.arange(tree.n) % 2)

    def not_positive(columns, rse):
        out = estimators._Columns(len(columns))
        out.mu[:] = -1.0
        out.notes = [("the estimator's own note",)] * len(columns)
        return out

    # the reweight step calls the module's blockmodel form, and the recipes
    # hold it as their estimator's: patch both
    sbm = estimators._Estimator("sbm", not_positive)
    fgls = {name: r.ESTIMATORS[name]._replace(estimate=sbm) for name in ("sbm_y", "sbm_z")}
    with (mock.patch.object(estimators, "_blockmodel_gls_columns", not_positive),
          mock.patch.dict(r.ESTIMATORS, fgls)):
        for name in fgls:
            report = r.apply_estimator(name, s)
            assert report.warnings == (
                estimators.FGLS_FALLBACK_NOTE, "the estimator's own note"
            )


def test_sbm_falls_back_when_the_covariance_estimate_overflows():
    # the outcome's variance and loadings overflow to inf
    tree = r.complete_binary_tree(4)
    y = np.where(np.arange(tree.n) % 2 == 0, 1e200, -1e200)
    with np.errstate(over="ignore"):
        report = r.sbm_fgls(make_sample(tree, y, block=np.arange(tree.n) % 3))
    assert report.warnings == ("estimated covariance was singular; fell back to the sample mean",)
    assert report.mu_hat == float(np.mean(y))


SINGULAR_NOTE = "estimated covariance was singular; fell back to the sample mean"


def _outcome(call):
    """A report list's exact fields, or the type and message of what it raised."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            reports = call()
    except Exception as exc:  # compared, never hidden
        return type(exc), str(exc)
    return [(repr(rep.to_dict()), rep.weights.tobytes()) for rep in reports]


def _one_column_loop(name, sample, columns, rse=True):
    """The per-column loop the column entry point replaces, on one tree."""
    return lambda: [r.apply_estimator(name, sample.with_outcome_values(y), rse=rse)
                    for y in columns]


def _stacked(name, sample, columns, rse=True):
    return lambda: r.run_recipe(r.ESTIMATORS[name], sample, columns, rse=rse)


@st.composite
def labeled_columns(draw):
    """A labeled sample and one to four outcome columns: a few levels, a
    constant, a repeat, or (past 32 nodes) too many values for ``sbm_y``."""
    sample = draw(labeled_samples())
    n = sample.n
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["levels", "levels", "constant", "repeat", "many"]))
        if kind == "levels":
            y = rng.integers(0, draw(st.integers(1, 5)), n) * draw(st.floats(0.1, 3.0))
        elif kind == "constant":
            y = np.full(n, draw(st.floats(-2.0, 2.0)))
        elif kind == "repeat" and columns:
            y = columns[-1]
        else:
            y = rng.normal(size=n)
        columns.append(np.asarray(y, dtype=float))
    return sample, columns


@PROPERTY
@given(case=labeled_columns())
@pytest.mark.parametrize("rse", [True, False])
@pytest.mark.parametrize("name", list(r.ESTIMATORS))
def test_columns_equal_the_one_column_loop(name, rse, case):
    sample, columns = case
    stacked = _outcome(_stacked(name, _cold(sample), columns, rse))
    assert stacked == _outcome(_one_column_loop(name, _cold(sample), columns, rse))


def test_every_fgls_recipe_estimates_with_the_blockmodel():
    # the column entry point runs both fgls stages itself
    for recipe in r.ESTIMATORS.values():
        assert (recipe.reweight == "fgls") == (recipe.estimate.form
                                               is estimators._blockmodel_gls_columns)


def _fifteen(degree=None, block=None):
    tree = r.complete_binary_tree(4)
    n = tree.n
    return make_sample(
        tree, np.zeros(n),
        degree=1.0 + np.arange(n) % 4 if degree is None else degree,
        block=np.arange(n) % 3 if block is None else block,
    )


def _assert_isolated(name, sample, columns, odd, note):
    """Column ``odd`` alone carries ``note``; every column has its one-column bits."""
    stacked = _outcome(_stacked(name, _cold(sample), columns))
    assert stacked == _outcome(_one_column_loop(name, _cold(sample), columns))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        reports = r.run_recipe(r.ESTIMATORS[name], _cold(sample), columns)
    for i, report in enumerate(reports):
        assert (note in report.warnings) == (i == odd), (i, report.warnings)


@pytest.mark.parametrize("name", ["sbm_y", "sbm_z"])
def test_an_overflowing_column_falls_back_alone(name):
    sample = _fifteen()
    n = sample.n
    big = np.where(np.arange(n) % 2 == 0, 1e200, -1e200)
    columns = [np.arange(n) % 2 * 1.0, big, np.arange(n) % 3 * 0.5]
    _assert_isolated(name, sample, columns, 1, SINGULAR_NOTE)


@pytest.mark.parametrize("name", list(r.ESTIMATORS))
def test_a_constant_column_keeps_the_others_bits(name):
    sample = _fifteen(degree=np.ones(15))
    columns = [np.arange(15) % 2 * 1.0, np.full(15, 3.0), np.arange(15) % 3 * 0.5]
    stacked = _outcome(_stacked(name, _cold(sample), columns))
    assert stacked == _outcome(_one_column_loop(name, _cold(sample), columns))
    reports = r.run_recipe(r.ESTIMATORS[name], _cold(sample), columns)
    assert abs(reports[1].mu_hat - 3.0) < 1e-12
    for i in (0, 2):
        assert not any("fell back" in w or "constant" in w for w in reports[i].warnings)


def test_a_singular_node_block_falls_back_alone():
    # one block and unit degrees: the constant column's covariance is zero,
    # so its 1 x 1 node blocks are singular and the K = 0 stack must split
    sample = _fifteen(degree=np.ones(15), block=np.zeros(15, dtype=int))
    columns = [np.arange(15) % 2 * 1.0, np.full(15, 3.0), np.arange(15) % 3 * 0.5]
    _assert_isolated("sbm_z", sample, columns, 1, SINGULAR_NOTE)
    assert r.run_recipe(r.ESTIMATORS["sbm_z"], sample, columns)[1].warnings == (SINGULAR_NOTE,)


def test_a_dropped_block_stays_with_its_column():
    sample = _fifteen()
    n = sample.n
    labels = np.arange(n) % 3
    skipped = np.where(labels == 1, 2, labels)
    columns = [np.arange(n) % 2 * 1.0, np.arange(n) % 5 * 0.3, np.arange(n) % 3 * 0.5]
    label_sets = [labels, skipped, labels]
    out = estimators._blockmodel_gls_columns(
        [(sample, y, blocks) for y, blocks in zip(columns, label_sets)], True)
    reports = estimators._reports("sbm", out, [n] * len(columns))
    for i, (y, blocks, report) in enumerate(zip(columns, label_sets, reports)):
        alone = r.sbm_fgls(_cold(sample).with_outcome_values(y), blocks)
        assert repr(report.to_dict()) == repr(alone.to_dict())
        assert report.weights.tobytes() == alone.weights.tobytes()
        assert (report.warnings == ("dropped blocks with no visits: [1]",)) == (i == 1)


def test_the_harmonic_mean_fallback_stays_with_its_label_set():
    sample = _fifteen()
    n = sample.n
    columns = [np.arange(n) % 2 * 1.0, np.arange(n) % 3 * 0.5, np.arange(n) % 4 * 2.0]
    odd = r.ESTIMATORS["sbm_y"].labels(sample.with_outcome_values(columns[1]))
    real = estimators._blockmodel_gls_columns

    def not_positive(columns, rse):
        out = real(columns, rse)
        for i, (sample, y, blocks) in enumerate(columns):
            if np.array_equal(y, 1.0 / sample.degree) and np.array_equal(blocks, odd):
                out.mu[i] = -1.0
        return out

    unpatched = _outcome(_one_column_loop("sbm_y", _cold(sample), columns))
    with mock.patch.object(estimators, "_blockmodel_gls_columns", not_positive):
        patched = _outcome(_one_column_loop("sbm_y", _cold(sample), columns))
        stacked = _outcome(_stacked("sbm_y", _cold(sample), columns))
        reports = r.run_recipe(r.ESTIMATORS["sbm_y"], _cold(sample), columns)
    assert stacked == patched
    assert stacked[0] == unpatched[0] and stacked[2] == unpatched[2]
    assert stacked[1] != unpatched[1]
    assert [rep.warnings[:1] == (estimators.FGLS_FALLBACK_NOTE,) for rep in reports] == [
        False, True, False
    ]


@pytest.mark.parametrize("many_first", [True, False])
def test_a_stack_raises_what_the_first_failing_column_raises(many_first):
    # sbm_y labels the column before it checks the degrees: a column with
    # too many values fails first only when it comes first
    tree = r.ReferralTree(np.r_[-1, np.arange(39) // 2])
    sample = make_sample(tree, np.zeros(40), degree=np.r_[0.0, np.ones(39)],
                         block=np.arange(40) % 3)
    many = np.linspace(0.0, 1.0, 40)
    few = np.arange(40) % 2 * 1.0
    columns = [many, few] if many_first else [few, many]
    want = (r.InvalidParametersError, r.InvalidSampleError)[not many_first]
    loop = _outcome(_one_column_loop("sbm_y", sample, columns))
    assert loop[0] is want
    assert _outcome(_stacked("sbm_y", _cold(sample), columns)) == loop


@pytest.mark.parametrize("name", [name for name, recipe in r.ESTIMATORS.items()
                                  if recipe.reweight != "none"])
def test_a_reweighted_outcome_that_overflows_raises(name):
    # y / (h_inv * degree) passes 1.8e308 at the root: every reweighting
    # rejects it, as the reweighted sample's outcomes are not finite
    tree = r.complete_binary_tree(4)
    y = np.where(np.arange(tree.n) == 0, 1e308, 1.0)
    sample = make_sample(tree, y, degree=np.r_[1.0, np.full(tree.n - 1, 100.0)],
                         block=np.arange(tree.n) % 3)
    with np.errstate(all="ignore"), pytest.raises(r.InvalidSampleError, match="finite"):
        r.apply_estimator(name, sample)


# every named recipe and every `rdsgls estimate` flag pair
BATCH_RECIPES = {
    **r.ESTIMATORS,
    **{f"{name}/{policy}": estimators.Recipe(policy, estimate)
       for name, estimate in PLAIN_ESTIMATORS.items() for policy in estimators.REWEIGHTINGS},
}


@st.composite
def prefix_jobs(draw):
    """One to three prefixes of one or two independently drawn labeled samples,
    each with one to four outcome columns as one (m, n) array: a few levels, a
    constant, a +/-1e200 column (the blockmodel covariance overflows, so it
    falls back to the mean) or the largest float (reweighted, it overflows).
    At times two jobs share one prefix object, whose normalizers the batch
    shares.  Sizes include one node and two (too few for delta's lag-2
    statistics).  With two samples the jobs alternate between them at the
    first job's size where it fits, so that equal sizes from two trees stack
    together, and the second sample may have a sibling group of nine or
    more, whose sums np.sum adds pairwise."""
    samples = [draw(labeled_samples())]
    if draw(st.booleans()):
        samples.append(draw(labeled_samples(other=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    jobs = []
    for _ in range(draw(st.integers(1, 3))):
        if jobs and draw(st.booleans()):
            sub = draw(st.sampled_from([sub for sub, _ in jobs]))
        else:
            sample = samples[len(jobs) % len(samples)]
            taken = [sub.n for sub, _ in jobs if sub.n <= sample.n]
            sub = sample.prefix(taken[-1] if taken and len(samples) > 1 else draw(
                st.sampled_from([1, 2, sample.n, draw(st.integers(1, sample.n))])))
        n = sub.n
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["levels", "levels", "constant", "singular", "overflow"]))
            if kind == "levels":
                rows.append(rng.integers(0, draw(st.integers(1, 5)), n) * draw(st.floats(0.1, 3.0)))
            elif kind == "constant":
                rows.append(np.full(n, draw(st.floats(-2.0, 2.0))))
            elif kind == "singular":
                rows.append(np.where(np.arange(n) % 2 == 0, 1e200, -1e200))
            else:
                rows.append(np.full(n, np.finfo(np.float64).max))
        jobs.append((sub, np.array(rows, dtype=np.float64)))
    return jobs


@settings(max_examples=15, deadline=None)
@given(jobs=prefix_jobs())
@pytest.mark.parametrize("rse", [True, False])
@pytest.mark.parametrize("recipe", list(BATCH_RECIPES))
def test_array_columns_equal_one_column_runs(recipe, rse, jobs):
    recipe = BATCH_RECIPES[recipe]
    alone = [
        _outcome(lambda: r.run_recipe(recipe, _cold(sub).with_outcome_values(y), rse=rse))
        for sub, Y in jobs for y in Y
    ]
    raised = [out for out in alone if isinstance(out, tuple)]
    # F-ordered columns, as ``Y[:, idx]`` gives them, must give the same bits
    for layout in (np.ascontiguousarray, np.asfortranarray):
        # one cold copy per prefix object, so that a prefix shared by two jobs stays shared
        cold = {id(sub): _cold(sub) for sub, _ in jobs}
        batch = _outcome(lambda: [
            report
            for reports in r.run_recipe_batch(
                recipe, [(cold[id(sub)], layout(Y)) for sub, Y in jobs], rse=rse)
            for report in reports
        ])
        if raised:
            assert batch in raised
        else:
            assert batch == [report for out in alone for report in out]
