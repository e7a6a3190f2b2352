import hashlib
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import rdsgls as r
from conftest import random_dcsbm
from rdsgls import netmodel
from rdsgls.netmodel import WeightedGraph
from rdsgls.presets import table1_dcsbm, table1_symmetrized, two_state_chain
from rdsgls.seeding import STREAM_NETWORK, as_rng, derive_rng


def test_triangle_transition(triangle_model):
    P = triangle_model.P
    assert np.allclose(P, (np.ones((3, 3)) - np.eye(3)) / 2)
    assert np.allclose(triangle_model.pi, 1 / 3)


def test_path_stationary_distribution():
    graph = r.WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    model = r.build_transition(graph)
    assert np.allclose(model.pi, [0.25, 0.5, 0.25])
    assert np.allclose(model.pi @ model.P, model.pi)


def test_two_state_chain_eigenvalue():
    model = r.build_transition(two_state_chain(0.9))
    assert np.allclose(model.P, [[0.9, 0.1], [0.1, 0.9]])
    spec = r.spectral_decompose(model)
    assert np.allclose(spec.eigenvalues, [1.0, 0.8])


def test_zero_degree_node_rejected():
    with pytest.raises(r.DegenerateNodeError, match="node 2"):
        r.WeightedGraph.from_edges(3, [(0, 1, 1.0)])


def test_duplicate_edge_rejected():
    with pytest.raises(r.InvalidParametersError, match="duplicate"):
        r.WeightedGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])


def test_nonfinite_edge_weight_rejected():
    for w in (np.inf, np.nan, 0.0):
        with pytest.raises(r.InvalidParametersError, match="positive and finite"):
            r.WeightedGraph.from_edges(2, [(0, 1, w)])


def test_row_sums_and_detailed_balance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        W = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        W = W + W.T + np.eye(n) * 0.2
        model = r.build_transition(r.WeightedGraph.from_dense(W))
        assert np.max(np.abs(model.P.sum(axis=1) - 1)) < 1e-12
        flux = model.pi[:, None] * model.P
        assert np.max(np.abs(flux - flux.T)) < 1e-12


def test_spectral_decompose_two_state():
    spec = r.spectral_decompose(r.build_transition(two_state_chain(0.9)))
    f2 = spec.functions[:, 1]
    assert np.allclose(np.abs(f2), [1.0, 1.0])
    assert f2[0] > 0  # sign convention
    # pi-norm 1
    assert abs(np.sum(f2 * f2 * spec.pi) - 1.0) < 1e-12


def test_spectral_decompose_triangle(triangle_model):
    spec = r.spectral_decompose(triangle_model)
    assert np.allclose(spec.eigenvalues, [1.0, -0.5, -0.5])
    assert np.allclose(spec.functions[:, 0], 1.0)


def test_pi_orthonormality_and_reconstruction(triangle_model):
    spec = r.spectral_decompose(triangle_model)
    G = spec.functions.T @ (spec.functions * spec.pi[:, None])
    assert np.max(np.abs(G - np.eye(3))) < 1e-8
    rng = np.random.default_rng(1)
    for _ in range(100):
        y = rng.normal(size=3)
        beta = r.beta_coefficients(y, spec)
        assert np.max(np.abs(spec.functions @ beta - y)) < 1e-8


def test_eigen_reconstruction_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(4, 40))
        W = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        W = W + W.T + 0.1 * np.eye(n)
        model = r.build_transition(r.WeightedGraph.from_dense(W))
        spec = r.spectral_decompose(model)
        resid = model.P @ spec.functions - spec.functions * spec.eigenvalues[None, :]
        assert np.max(np.abs(resid)) < 1e-8


def test_beta_coefficients_examples(triangle_model):
    spec = r.spectral_decompose(triangle_model)
    beta = r.beta_coefficients(np.full(3, 4.2), spec)
    assert abs(beta[0] - 4.2) < 1e-12
    assert np.max(np.abs(beta[1:])) < 1e-12
    beta2 = r.beta_coefficients(spec.functions[:, 1], spec)
    assert abs(beta2[1] - 1.0) < 1e-12
    assert abs(beta2[0]) < 1e-12 and abs(beta2[2]) < 1e-12
    # brute-force weighted inner products
    rng = np.random.default_rng(2)
    y = rng.normal(size=3)
    beta3 = r.beta_coefficients(y, spec)
    for l in range(3):
        by_hand = sum(y[i] * spec.functions[i, l] * spec.pi[i] for i in range(3))
        assert abs(beta3[l] - by_hand) < 1e-12


def test_dcsbm_expected_matrices_uniform_single_block():
    n = 8
    params = r.DcSbmParams(z=np.zeros(n, dtype=int), theta=np.full(n, 1 / n), B=np.array([[0.9]]))
    A, P, pi = r.dcsbm_expected_matrices(params)
    assert np.allclose(A, 0.9 / n**2)
    assert np.allclose(pi, 1 / n)
    assert np.allclose(P, 1 / n)


def test_dcsbm_expected_matrices_by_hand():
    # K=2, B=[[4,1],[1,4]] scaled valid, 2 nodes per block, uniform theta
    B = np.array([[0.4, 0.1], [0.1, 0.4]])
    z = np.array([0, 0, 1, 1])
    theta = np.array([0.5, 0.5, 0.5, 0.5])
    params = r.DcSbmParams(z=z, theta=theta, B=B)
    A, P, pi = r.dcsbm_expected_matrices(params)
    expected = np.array(
        [
            [0.1, 0.1, 0.025, 0.025],
            [0.1, 0.1, 0.025, 0.025],
            [0.025, 0.025, 0.1, 0.1],
            [0.025, 0.025, 0.1, 0.1],
        ]
    )
    assert np.allclose(A, expected)
    assert np.allclose(A.sum(), B.sum())  # total mass identity
    assert np.allclose(P.sum(axis=1), 1.0)


def test_dcsbm_total_mass_identity_random():
    rng = np.random.default_rng(9)
    for _ in range(10):
        params = random_dcsbm(rng)
        A, _, _ = r.dcsbm_expected_matrices(params)
        assert abs(A.sum() - params.B.sum()) < 1e-10


def test_dcsbm_sample_empty_when_B_zero():
    z = np.array([0, 0, 1, 1])
    theta = np.full(4, 0.5)
    params = r.DcSbmParams(z=z, theta=theta, B=np.zeros((2, 2)))
    graph = r.dcsbm_sample(params, 0)
    assert graph.weights.nnz == 0


def test_dcsbm_sample_determinism_and_no_self_loops():
    rng = np.random.default_rng(4)
    params = random_dcsbm(rng)
    g1 = r.dcsbm_sample(params, 42)
    g2 = r.dcsbm_sample(params, 42)
    assert np.array_equal(g1.weights.indices, g2.weights.indices)
    assert np.array_equal(g1.weights.indptr, g2.weights.indptr)
    assert g1.weights.diagonal().sum() == 0


def test_dcsbm_sample_edge_frequency():
    # empirical edge frequencies across seeds track the expected adjacency;
    # with 10^4 entries checked, allow the expected multiplicity of 3-sigma
    # excursions but no gross outliers
    n = 100
    rng = np.random.default_rng(8)
    z = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    theta = rng.random(n) + 0.5
    sums = np.bincount(z, weights=theta, minlength=2)
    theta = theta / sums[z]
    B = np.array([[18.0, 4.0], [4.0, 12.0]])
    params = r.DcSbmParams(z=z, theta=theta, B=B)
    A, _, _ = r.dcsbm_expected_matrices(params)
    reps = 10_000
    acc = np.zeros((n, n))
    for seed in range(reps):
        acc += r.dcsbm_sample(params, seed).weights.toarray()
    freq = acc / reps
    off = ~np.eye(n, dtype=bool)
    p = A[off]
    se = np.sqrt(p * (1 - p) / reps)
    zscores = np.abs(freq[off] - p) / se
    assert np.mean(zscores > 3.0) < 0.01
    assert zscores.max() < 5.0


def test_expected_degree_thirty_at_scale():
    from rdsgls.presets import table1_dcsbm

    params = table1_dcsbm(20_000, expected_degree=30.0, rng_seed=123)
    graph = r.dcsbm_sample(params, 123)
    assert abs(graph.degrees.mean() - 30.0) < 1.0


def test_table1_block_proportions():
    from rdsgls.presets import table1_block_proportions

    props = np.sort(table1_block_proportions())
    assert np.allclose(props, sorted([0.13, 0.33, 0.53]), atol=0.01)


def test_blockmodel_spectrum_two_by_two():
    a, b = 3.0, 1.0
    spec = r.blockmodel_spectrum(np.array([[a, b], [b, a]]), np.array([0, 1]))
    assert np.allclose(spec.eigenvalues, [1.0, (a - b) / (a + b)])


def test_blockmodel_spectrum_table1():
    spec = r.blockmodel_spectrum(table1_symmetrized(), np.array([0, 1, 2]))
    assert abs(spec.eigenvalues[1] - 0.73) < 0.03


def test_blockmodel_spectrum_scale_invariance():
    rng = np.random.default_rng(10)
    B = rng.random((3, 3)) + 0.2
    B = 0.5 * (B + B.T)
    z = rng.integers(0, 3, size=30)
    base = r.blockmodel_spectrum(B, z)
    for c in (0.5, 2.0, 10.0):
        scaled = r.blockmodel_spectrum(c * B, z)
        assert np.allclose(scaled.B_L, base.B_L, atol=1e-12)
        assert np.allclose(scaled.eigenvalues, base.eigenvalues, atol=1e-12)
        assert np.allclose(scaled.f_star, base.f_star, atol=1e-10)


def test_blockmodel_spectrum_zero_row_rejected():
    with pytest.raises(r.DegenerateNodeError):
        r.blockmodel_spectrum(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0, 1]))


def test_proposition2_triple_check():
    rng = np.random.default_rng(21)
    for _ in range(20):
        params = random_dcsbm(rng)
        A, P, pi_star = r.dcsbm_expected_matrices(params)
        block = r.blockmodel_spectrum(params.B, params.z)
        model = r.expected_transition_model(params)
        walk_spec = r.spectral_decompose(model)
        # (i) nonzero eigenvalues agree
        nz_walk = np.sort(walk_spec.eigenvalues[np.abs(walk_spec.eigenvalues) > 1e-8])
        nz_block = np.sort(block.eigenvalues[np.abs(block.eigenvalues) > 1e-8])
        assert len(nz_walk) == len(nz_block)
        assert np.max(np.abs(nz_walk - nz_block)) < 1e-10
        # (ii) extended eigenvectors satisfy the eigen equation
        resid = P @ block.f_star - block.f_star * block.eigenvalues[None, :]
        assert np.max(np.abs(resid)) < 1e-10
        # normalization under the stationary law
        gram = block.f_star.T @ (block.f_star * pi_star[:, None])
        assert np.max(np.abs(gram - np.eye(params.num_blocks))) < 1e-8
        # (iii) loading identity: block-level reduction equals the node-level sum
        y = rng.normal(size=params.num_nodes)
        beta_node = block.f_star.T @ (y * pi_star)
        ytilde = np.bincount(params.z, weights=y * params.theta, minlength=params.num_blocks)
        D_B = params.B.sum(axis=1)
        beta_block = (np.sqrt(D_B) / np.sqrt(block.m) * ytilde) @ block.U
        assert np.max(np.abs(beta_node - beta_block)) < 1e-12


def test_dcsbm_params_validation():
    z = np.array([0, 0, 1, 1])
    good_theta = np.array([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(r.InvalidParametersError, match="sum to one"):
        r.DcSbmParams(z=z, theta=np.array([0.4, 0.5, 0.5, 0.5]), B=np.eye(2))
    with pytest.raises(r.InvalidParametersError, match="exceeds 1"):
        r.DcSbmParams(z=z, theta=good_theta, B=np.array([[8.0, 1.0], [1.0, 8.0]]))
    with pytest.raises(r.InvalidParametersError):
        r.DcSbmParams(z=z, theta=good_theta, B=np.array([[1.0, 2.0], [1.0, 1.0]]))


def test_largest_component_prunes_isolated():
    mat = np.zeros((5, 5))
    mat[0, 1] = mat[1, 0] = 1.0
    mat[2, 3] = mat[3, 2] = 1.0
    mat[1, 2] = mat[2, 1] = 1.0
    graph = r.WeightedGraph.from_dense(mat, allow_isolated=True)
    assert graph.isolated_nodes.tolist() == [4]
    sub, kept = graph.largest_component()
    assert kept.tolist() == [0, 1, 2, 3]
    assert sub.num_nodes == 4
    assert sub.degrees.min() > 0


def dense_dcsbm_sample(params, rng_seed):
    """Reference draw: the full n x n probability product per row chunk, in stream order."""
    rng = as_rng(rng_seed, STREAM_NETWORK)
    z = params.z
    theta = params.theta
    n = params.num_nodes
    order = np.argsort(z, kind="stable")
    starts = np.searchsorted(z[order], np.arange(params.num_blocks))
    ends = np.searchsorted(z[order], np.arange(params.num_blocks), side="right")
    rows_all, cols_all = [], []
    chunk = 4_000_000
    for u in range(params.num_blocks):
        iu = order[starts[u] : ends[u]]
        for v in range(u, params.num_blocks):
            if params.B[u, v] == 0:
                continue
            iv = order[starts[v] : ends[v]]
            # row-chunked Bernoulli over the block pair
            rows_per = max(1, chunk // max(len(iv), 1))
            for lo in range(0, len(iu), rows_per):
                ri = iu[lo : lo + rows_per]
                prob = params.B[u, v] * np.outer(theta[ri], theta[iv])
                hit = rng.random(prob.shape) < prob
                if u == v:
                    # keep i < j only (upper triangle of the block)
                    ii, jj = np.nonzero(hit)
                    keep = ri[ii] < iv[jj]
                    rows_all.append(ri[ii[keep]])
                    cols_all.append(iv[jj[keep]])
                else:
                    ii, jj = np.nonzero(hit)
                    rows_all.append(ri[ii])
                    cols_all.append(iv[jj])
    if rows_all:
        r = np.concatenate(rows_all)
        c = np.concatenate(cols_all)
    else:
        r = np.empty(0, dtype=np.int64)
        c = np.empty(0, dtype=np.int64)
    data = np.ones(2 * len(r))
    mat = sp.csr_array(
        (data, (np.concatenate([r, c]), np.concatenate([c, r]))), shape=(n, n)
    )
    return WeightedGraph.from_weights(mat, allow_isolated=True)


def assert_same_graph(a, b):
    for x, y in ((a.weights.indptr, b.weights.indptr), (a.weights.indices, b.weights.indices),
                 (a.weights.data, b.weights.data), (a.degrees, b.degrees)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


@st.composite
def blockmodels(draw):
    """Blockmodels with single-node and odd-size blocks and zero affinities."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        return random_dcsbm(rng)
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    K = len(sizes)
    z = rng.permutation(np.repeat(np.arange(K), sizes))
    theta = rng.random(z.size) + 0.2
    theta = theta / np.bincount(z, weights=theta, minlength=K)[z]
    B = rng.random((K, K)) + 0.1
    B = 0.5 * (B + B.T)
    zeros = np.triu(rng.random((K, K)) < draw(st.sampled_from([0.0, 0.3, 0.7])))
    B[zeros | zeros.T] = 0.0
    worst = 0.0
    for u in range(K):
        tu = np.sort(theta[z == u])[::-1]
        for v in range(K):
            tv = np.sort(theta[z == v])[::-1]
            second = tu[1] if tu.size > 1 else 0.0
            worst = max(worst, tu[0] * (second if u == v else tv[0]) * B[u, v])
    if worst > 0:
        B = B * (draw(st.sampled_from([0.3, 0.9, 1.0])) / worst)
    return r.DcSbmParams(z=z, theta=theta, B=B)


@settings(max_examples=80, deadline=None)
@given(params=blockmodels(), seed=st.integers(0, 2**63), chunk=st.sampled_from([1, 3, 5, 7, 13, 64]))
def test_dcsbm_sample_matches_dense_draw(params, seed, chunk):
    # small chunks put boundaries mid Philox block and spread rows over threads
    expected = dense_dcsbm_sample(params, seed)
    with mock.patch.object(netmodel, "_DRAW_CHUNK", chunk), \
            mock.patch.object(netmodel, "_draw_workers", lambda: 3):
        assert_same_graph(r.dcsbm_sample(params, seed), expected)
        streamed = r.dcsbm_sample(params, derive_rng(seed, STREAM_NETWORK))
    assert_same_graph(streamed, expected)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_dcsbm_sample_digest(workers):
    # recorded from the dense row-chunked draw; pins the graph for seed 7
    params = table1_dcsbm(5000, 30, rng_seed=7)
    with mock.patch.object(netmodel, "_draw_workers", lambda: workers):
        graph = r.dcsbm_sample(params, 7)
    h = hashlib.sha256()
    for a in (graph.weights.indptr, graph.weights.indices, graph.weights.data, graph.degrees):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == "dba500d6806ad751819e94be87c084ecd05433a08de4904fc5db6a45ba420ebb"


def test_reweighted_within_blocks_matches_the_dense_rule():
    rng = np.random.default_rng(4)
    n = 60
    W = np.triu((rng.random((n, n)) < 0.15) * rng.uniform(0.5, 2.0, (n, n)), 1)
    W = W + W.T
    z = rng.integers(0, 3, n)
    graph = r.WeightedGraph.from_dense(W, allow_isolated=True)
    weighted = graph.reweighted_within_blocks(z, 7.0)
    dense = np.where((W > 0) & (z[:, None] == z[None, :]), 7.0, W)
    expected = r.WeightedGraph.from_dense(dense, allow_isolated=True)
    assert np.array_equal(weighted.weights.toarray(), dense)
    assert np.array_equal(weighted.degrees, expected.degrees)
    assert weighted.allow_isolated
    assert not np.shares_memory(weighted.weights.indices, graph.weights.indices)
    # the checked constructor accepts it: symmetric, degrees the row sums
    r.WeightedGraph(weights=weighted.weights, degrees=weighted.degrees, allow_isolated=True)


@pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
def test_reweighted_within_blocks_rejects_bad_weights(weight):
    graph = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(r.InvalidParametersError, match="within-block weight"):
        graph.reweighted_within_blocks(np.zeros(3, dtype=np.int64), weight)
