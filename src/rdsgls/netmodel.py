"""Population networks, the degree-corrected blockmodel, and chain spectra.

Holds the social graph, its random-walk transition operator, and the
spectral machinery: walk eigenpairs under the stationary inner product,
and the block-level spectrum that reproduces them for expected blockmodel
chains.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    CapacityError,
    DegenerateNodeError,
    InvalidParametersError,
    ReversibilityError,
)
from .seeding import STREAM_NETWORK, as_rng, derive_rng

MAX_DENSE_N = 2_000
"""Dense N x N operators are only materialized up to this many nodes."""

ROW_SUM_TOL = 1e-12
DETAILED_BALANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with symmetric nonnegative edge weights.

    Stored as CSR; ``degrees`` are the cached row sums.  Zero-degree
    nodes are rejected unless ``allow_isolated`` was set at construction
    (the blockmodel sampler needs that to hand back raw draws).
    """

    weights: sp.csr_array
    degrees: np.ndarray
    allow_isolated: bool = False

    def __post_init__(self):
        w = self.weights
        if w.shape[0] != w.shape[1]:
            raise InvalidParametersError("weight matrix must be square")
        if w.nnz and w.data.min() < 0:
            raise InvalidParametersError("edge weights must be nonnegative")
        asym = abs(w - w.T)
        if asym.nnz and asym.data.max() > 1e-12:
            raise InvalidParametersError("edge weights must be symmetric")
        recomputed = np.asarray(w.sum(axis=1)).ravel()
        if not np.array_equal(recomputed, self.degrees):
            raise InvalidParametersError("stored degrees disagree with row sums")
        self._check_isolated()

    def _check_isolated(self):
        if not self.allow_isolated and self.num_nodes and self.degrees.min() <= 0:
            bad = int(np.argmin(self.degrees))
            raise DegenerateNodeError(f"node {bad} has zero degree")

    @classmethod
    def _from_symmetric(cls, mat, allow_isolated=False):
        """``from_weights`` for the package's own symmetric float CSR output:
        no copy and no symmetry or row-sum check (as costly as the rest of a
        blockmodel draw at N = 100); zero degrees are still checked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "weights", mat)
        object.__setattr__(graph, "degrees", np.asarray(mat.sum(axis=1)).ravel())
        object.__setattr__(graph, "allow_isolated", allow_isolated)
        graph._check_isolated()
        return graph

    @classmethod
    def from_edges(cls, num_nodes, edges, allow_isolated=False):
        """Build from (i, j, weight) triples; each unordered pair given once."""
        rows, cols, vals = [], [], []
        seen = set()
        for i, j, w in edges:
            i, j, w = int(i), int(j), float(w)
            if not (0 <= i < num_nodes and 0 <= j < num_nodes):
                raise InvalidParametersError(f"edge ({i},{j}) outside 0..{num_nodes - 1}")
            if not 0 < w < np.inf:
                raise InvalidParametersError(f"edge ({i},{j}) weight must be positive and finite")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidParametersError(f"duplicate edge ({i},{j})")
            seen.add(key)
            if i == j:
                rows.append(i)
                cols.append(j)
                vals.append(w)
            else:
                rows.extend((i, j))
                cols.extend((j, i))
                vals.extend((w, w))
        mat = sp.csr_array(
            (np.asarray(vals, dtype=np.float64), (rows, cols)),
            shape=(num_nodes, num_nodes),
        )
        return cls.from_weights(mat, allow_isolated=allow_isolated)

    @classmethod
    def from_weights(cls, weights, allow_isolated=False):
        mat = sp.csr_array(weights, dtype=np.float64)
        degrees = np.asarray(mat.sum(axis=1)).ravel()
        return cls(weights=mat, degrees=degrees, allow_isolated=allow_isolated)

    @classmethod
    def from_dense(cls, dense, allow_isolated=False):
        return cls.from_weights(sp.csr_array(np.asarray(dense, dtype=np.float64)),
                                allow_isolated=allow_isolated)

    @property
    def num_nodes(self) -> int:
        return int(self.weights.shape[0])

    @property
    def isolated_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.degrees == 0)

    def edge_list(self):
        """Unordered edges as (i, j, w) with i <= j, sorted."""
        coo = sp.coo_array(self.weights)
        out = []
        for i, j, w in zip(coo.row, coo.col, coo.data):
            if i <= j:
                out.append((int(i), int(j), float(w)))
        out.sort()
        return out

    def largest_component(self):
        """Restrict to the largest connected component.

        Returns ``(subgraph, kept)`` where ``kept`` maps new ids to the
        original node ids.
        """
        ncomp, labels = connected_components(self.weights, directed=False)
        if ncomp <= 1 and not self.isolated_nodes.size:
            return self, np.arange(self.num_nodes)
        sizes = np.bincount(labels, minlength=ncomp)
        keep = labels == int(np.argmax(sizes))
        kept = np.flatnonzero(keep)
        sub = self.weights[np.ix_(kept, kept)]
        return WeightedGraph._from_symmetric(sp.csr_array(sub)), kept

    def reweighted_within_blocks(self, z, weight):
        """Copy with every same-block edge given weight ``weight``.

        Models preferential recruitment: referral probabilities follow the
        new weights while reported contact counts stay the unweighted ones.
        """
        if not 0 <= weight < np.inf:
            raise InvalidParametersError(
                f"within-block weight must be finite and >= 0, got {weight}"
            )
        z = np.asarray(z)
        w = self.weights
        rows = np.repeat(np.arange(self.num_nodes), np.diff(w.indptr))
        data = w.data.copy()
        data[z[rows] == z[w.indices]] = weight
        # the same symmetric pattern, so the result is symmetric by construction
        mat = sp.csr_array((data, w.indices.copy(), w.indptr.copy()), shape=w.shape)
        return WeightedGraph._from_symmetric(mat, allow_isolated=self.allow_isolated)


@dataclass(frozen=True, eq=False)
class DcSbmParams:
    """Degree-corrected blockmodel: labels z, node propensities theta, block matrix B.

    Within each block the thetas sum to one, so B carries the scale: the
    expected edge probability between i and j is ``theta_i theta_j B[z_i, z_j]``.
    """

    z: np.ndarray
    theta: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int64)
        theta = np.asarray(self.theta, dtype=np.float64)
        B = np.asarray(self.B, dtype=np.float64)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "B", B)
        K = B.shape[0]
        if B.ndim != 2 or B.shape != (K, K):
            raise InvalidParametersError("B must be square")
        if np.any(B < 0) or not np.allclose(B, B.T, atol=1e-12, rtol=0):
            raise InvalidParametersError("B must be symmetric nonnegative")
        if z.min() < 0 or z.max() >= K:
            raise InvalidParametersError("labels must lie in 0..K-1")
        if np.any(theta <= 0):
            raise InvalidParametersError("theta must be positive")
        sums = np.bincount(z, weights=theta, minlength=K)
        if np.any(np.abs(sums - 1.0) > 1e-8):
            raise InvalidParametersError("theta must sum to one within each block")
        # max edge probability over distinct pairs: top two thetas per block
        top = np.zeros(K)
        second = np.zeros(K)
        for u in range(K):
            t = np.sort(theta[z == u])[::-1]
            top[u] = t[0] if t.size else 0.0
            second[u] = t[1] if t.size > 1 else 0.0
        worst = 0.0
        for u in range(K):
            for v in range(K):
                pair = top[u] * (second[u] if u == v else top[v])
                worst = max(worst, pair * B[u, v])
        if worst > 1.0 + 1e-12:
            raise InvalidParametersError(
                f"edge probability {worst:.6g} exceeds 1; rescale B or theta"
            )

    @property
    def num_nodes(self) -> int:
        return int(self.z.shape[0])

    @property
    def num_blocks(self) -> int:
        return int(self.B.shape[0])


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """Row-stochastic random-walk operator with its stationary law."""

    P: np.ndarray
    pi: np.ndarray
    graph: WeightedGraph | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        P = np.asarray(self.P, dtype=np.float64)
        pi = np.asarray(self.pi, dtype=np.float64)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pi", pi)
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
            raise InvalidParametersError("transition rows must sum to 1")
        flux = pi[:, None] * P
        if np.max(np.abs(flux - flux.T)) > DETAILED_BALANCE_TOL:
            raise ReversibilityError("pi_i P_ij != pi_j P_ji: chain not reversible")

    @property
    def num_states(self) -> int:
        return int(self.P.shape[0])

    def transition_cdf(self) -> np.ndarray:
        """Row-wise cumulative transition law, cached for walk sampling."""
        if "cdf" not in self._cache:
            self._cache["cdf"] = np.cumsum(self.P, axis=1)
        return self._cache["cdf"]

    def is_irreducible(self) -> bool:
        if "irreducible" not in self._cache:
            support = sp.csr_array(self.P > 0)
            ncomp, _ = connected_components(support, directed=False)
            self._cache["irreducible"] = ncomp == 1
        return self._cache["irreducible"]


@dataclass(frozen=True, eq=False)
class SpectralDecomp:
    """Walk eigenpairs: real eigenvalues, eigenfunctions orthonormal under pi.

    ``functions[:, l]`` is the l-th eigenfunction; the leading one is the
    constant 1 with eigenvalue 1.  Order: leading first, remainder by
    descending |eigenvalue| (ties by descending signed value).
    """

    eigenvalues: np.ndarray
    functions: np.ndarray
    pi: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Spectrum of the symmetrically normalized block matrix.

    ``f_star`` extends the block eigenvectors to per-node eigenfunctions of
    the expected chain; ``m`` is the total block-matrix mass.
    """

    B_L: np.ndarray
    U: np.ndarray
    eigenvalues: np.ndarray
    f_star: np.ndarray
    m: float


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so the first non-negligible coordinate is positive."""
    V = V.copy()
    for col in range(V.shape[1]):
        v = V[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
        if nz.size and v[nz[0]] < 0:
            V[:, col] = -v
    return V


def _spectral_order(values: np.ndarray):
    """Leading-first ordering: by |value| descending, ties by signed value."""
    return np.lexsort((-values, -np.abs(values)))


def build_transition(graph: WeightedGraph) -> TransitionModel:
    """Random-walk transition P_ij = w_ij / deg(i) with pi proportional to degree."""
    n = graph.num_nodes
    if n > MAX_DENSE_N:
        raise CapacityError(f"dense transition matrix capped at {MAX_DENSE_N} nodes")
    if graph.degrees.min() <= 0:
        bad = int(np.argmin(graph.degrees))
        raise DegenerateNodeError(f"node {bad} has zero degree; prune before walking")
    W = graph.weights.toarray()
    P = W / graph.degrees[:, None]
    pi = graph.degrees / graph.degrees.sum()
    return TransitionModel(P=P, pi=pi, graph=graph)


def dcsbm_expected_matrices(params: DcSbmParams):
    """Expected adjacency, expected transition operator, and its stationary law.

    The expected adjacency keeps its diagonal so the block-mass identity
    (total adjacency mass equals total block-matrix mass) holds exactly.
    """
    n = params.num_nodes
    if n > MAX_DENSE_N:
        raise CapacityError(f"dense expected matrices capped at {MAX_DENSE_N} nodes")
    scaled = params.theta[:, None] * params.B[params.z][:, params.z]
    A = scaled * params.theta[None, :]
    row = A.sum(axis=1)
    if row.min() <= 0:
        bad = int(np.argmin(row))
        raise DegenerateNodeError(
            f"expected degree of node {bad} is zero (block {params.z[bad]} unconnected)"
        )
    P = A / row[:, None]
    pi_star = row / row.sum()
    return A, P, pi_star


def expected_transition_model(params: DcSbmParams) -> TransitionModel:
    """Expected chain packaged as a TransitionModel (graph = expected adjacency)."""
    A, P, pi_star = dcsbm_expected_matrices(params)
    graph = WeightedGraph.from_dense(A)
    return TransitionModel(P=P, pi=pi_star, graph=graph)


_DRAW_CHUNK = 1_000_000
"""Uniforms per row chunk of a block-pair rectangle (8 MB); the draw does not depend on it."""


def _draw_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunk_hits(u01, ri, iv, b, theta, theta_max, upper):
    """Pairs (i, j) of one row chunk whose uniform falls below B theta_i theta_j.

    Rounded multiplication is monotone, so a uniform below the exact
    probability is also below the row bound ``b * (theta_i * theta_max)``:
    the bound only picks candidates and the exact comparison, written as in
    the dense form ``b * outer(theta_ri, theta_iv)``, decides each one.
    """
    bound = b * (theta[ri] * theta_max)
    flat = np.flatnonzero(u01.reshape(len(ri), len(iv)) < bound[:, None])
    ii, jj = np.divmod(flat, len(iv))
    rows, cols = ri[ii], iv[jj]
    hit = u01[flat] < b * (theta[rows] * theta[cols])
    if upper:
        # keep i < j only (upper triangle of the block)
        hit &= rows < cols
    return rows[hit], cols[hit]


def dcsbm_sample(params: DcSbmParams, rng_seed) -> WeightedGraph:
    """Draw an unweighted graph: edge {i,j} present w.p. theta_i theta_j B[z_i,z_j].

    No self-loops; independent edges; deterministic given the seed.  The
    draw may contain isolated nodes: callers restrict to the largest
    connected component before sampling walks.

    One uniform is consumed per cell of each block-pair rectangle, row by
    row, block pairs in order.  Each row chunk therefore reads a known
    offset range of the seed's network stream, and the chunks are drawn on
    a thread pool sized to the usable cores: the graph is the same for a
    seed on any core count.  Draws of at most one chunk, and a Generator
    argument, are consumed in order on the calling thread.
    """
    z = params.z
    theta = params.theta
    n = params.num_nodes
    order = np.argsort(z, kind="stable")
    starts = np.searchsorted(z[order], np.arange(params.num_blocks))
    ends = np.searchsorted(z[order], np.arange(params.num_blocks), side="right")
    chunks = []  # (stream offset, rows, columns, B[u, v], max column theta, same block)
    offset = 0
    for u in range(params.num_blocks):
        iu = order[starts[u] : ends[u]]
        for v in range(u, params.num_blocks):
            b = params.B[u, v]
            if b == 0:
                continue
            iv = order[starts[v] : ends[v]]
            theta_max = theta[iv].max()
            rows_per = max(1, _DRAW_CHUNK // len(iv))
            for lo in range(0, len(iu), rows_per):
                ri = iu[lo : lo + rows_per]
                chunks.append((offset, ri, iv, b, theta_max, u == v))
                offset += len(ri) * len(iv)

    workers = min(_draw_workers(), len(chunks))
    if isinstance(rng_seed, np.random.Generator) or offset <= _DRAW_CHUNK or workers <= 1:
        rng = as_rng(rng_seed, STREAM_NETWORK)
        pieces = [
            _chunk_hits(rng.random(len(ri) * len(iv)), ri, iv, b, theta, theta_max, upper)
            for _, ri, iv, b, theta_max, upper in chunks
        ]
    else:
        seed = int(rng_seed)

        def draw(chunk):
            start, ri, iv, b, theta_max, upper = chunk
            u01 = derive_rng(seed, STREAM_NETWORK, offset=start).random(len(ri) * len(iv))
            return _chunk_hits(u01, ri, iv, b, theta, theta_max, upper)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            pieces = list(pool.map(draw, chunks))

    if pieces:
        r = np.concatenate([rows for rows, _ in pieces])
        c = np.concatenate([cols for _, cols in pieces])
    else:
        r = np.empty(0, dtype=np.int64)
        c = np.empty(0, dtype=np.int64)
    data = np.ones(2 * len(r))
    mat = sp.csr_array(
        (data, (np.concatenate([r, c]), np.concatenate([c, r]))), shape=(n, n)
    )
    return WeightedGraph._from_symmetric(mat, allow_isolated=True)


def spectral_decompose(model: TransitionModel) -> SpectralDecomp:
    """Eigenpairs of the walk operator via the symmetrized form.

    Conjugating by sqrt(pi) turns the reversible operator into a symmetric
    one, so only a symmetric eigensolver is ever invoked; eigenfunctions
    come back orthonormal under the pi-weighted inner product.
    """
    pi = model.pi
    if pi.min() <= 0:
        raise DegenerateNodeError("stationary law must be strictly positive")
    sq = np.sqrt(pi)
    M = (sq[:, None] / sq[None, :]) * model.P
    M = 0.5 * (M + M.T)
    vals, vecs = np.linalg.eigh(M)
    order = _spectral_order(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    funcs = _fix_signs(vecs / sq[:, None])
    return SpectralDecomp(eigenvalues=vals, functions=funcs, pi=pi)


def normalized_spectrum(S: np.ndarray, row: np.ndarray):
    """Eigenpairs of D^{-1/2} S D^{-1/2} for a symmetric S with row sums D > 0.

    Returns ``(S_L, eigenvalues, U)``: the normalized matrix, then its
    eigenpairs leading first, each eigenvector's first non-negligible
    coordinate positive.  Callers check the row sums first.
    """
    inv_sqrt = 1.0 / np.sqrt(row)
    S_L = inv_sqrt[:, None] * S * inv_sqrt[None, :]
    vals, U = np.linalg.eigh(0.5 * (S_L + S_L.T))
    order = _spectral_order(vals)
    return S_L, vals[order], _fix_signs(U[:, order])


def blockmodel_spectrum(B: np.ndarray, z: np.ndarray) -> BlockSpectrum:
    """Spectrum of D_B^{-1/2} B D_B^{-1/2} and its per-node eigenfunctions.

    Scale-invariant in B: replacing B by c B changes neither the normalized
    matrix nor the eigenfunctions.
    """
    B = np.asarray(B, dtype=np.float64)
    z = np.asarray(z, dtype=np.int64)
    K = B.shape[0]
    if not np.allclose(B, B.T, atol=1e-12, rtol=0) or np.any(B < 0):
        raise InvalidParametersError("B must be symmetric nonnegative")
    row = B.sum(axis=1)
    if row.min() <= 0:
        bad = int(np.argmin(row))
        raise DegenerateNodeError(f"block {bad} has zero row sum in B")
    B_L, vals, U = normalized_spectrum(B, row)
    inv_sqrt = 1.0 / np.sqrt(row)
    m = float(B.sum())
    f_star = np.sqrt(m) * (U[z] * inv_sqrt[z][:, None])
    return BlockSpectrum(B_L=B_L, U=U, eigenvalues=vals, f_star=f_star, m=m)


def beta_coefficients(y: np.ndarray, spec: SpectralDecomp) -> np.ndarray:
    """Coefficients of y in the eigenbasis: beta_l = <y, f_l>_pi.

    The leading coefficient is the stationary mean of y.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != spec.functions.shape[0]:
        raise InvalidParametersError("y must be defined on every node")
    return spec.functions.T @ (y * spec.pi)
