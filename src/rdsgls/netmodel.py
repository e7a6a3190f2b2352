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
from itertools import groupby

import numpy as np

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
class CsrMatrix:
    """Square sparse matrix in compressed rows: the entries of row i are columns
    ``indices[indptr[i]:indptr[i + 1]]`` with values the same slice of ``data``.

    Only a holder: no constructor checks the arrays (``WeightedGraph``'s
    public constructor does) or copies them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_dense(cls, dense):
        """The nonzero entries of a square array as float64, in row-major order,
        with int32 indices as scipy gives a matrix whose counts fit them."""
        dense = np.asarray(dense)
        rows, cols = np.nonzero(dense)
        index = np.int32 if max(dense.shape[0], rows.size) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(dense.shape[0] + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:])
        return cls(indptr, cols.astype(index), dense[rows, cols].astype(np.float64))

    @property
    def shape(self) -> tuple:
        n = len(self.indptr) - 1
        return (n, n)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def tocsr(self):
        """Itself, so that ``from_weights`` copies another graph's weights."""
        return self

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def row_sums(self) -> np.ndarray:
        """Sums of the rows, with the bits of scipy's ``sum(axis=1)``: one
        ``np.add.reduceat`` over the nonempty rows."""
        out = np.zeros(self.shape[0])
        nonempty = np.flatnonzero(np.diff(self.indptr))
        out[nonempty] = np.add.reduceat(self.data, self.indptr[nonempty])
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows(), self.indices), self.data)
        return out

    def diagonal(self) -> np.ndarray:
        rows = self.rows()
        on = rows == self.indices
        return np.bincount(rows[on], weights=self.data[on], minlength=self.shape[0])


def connected_components(mat: CsrMatrix):
    """``(count, labels)`` of the components of a symmetric pattern, explicit
    zeros included, numbered by their lowest node as scipy numbers them.

    Each node starts as its own root.  Each round hooks every root to the
    lowest root next to one of its nodes, then jumps pointers until every
    node names its root.  Roots only fall, so they stop at each component's
    lowest node, and a round that hooks nothing ends the labelling.  The
    memory beyond the graph is one int32 per stored entry.
    """
    n = mat.shape[0]
    label = np.arange(n, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    nonempty = np.flatnonzero(np.diff(mat.indptr))
    starts = mat.indptr[nonempty]
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[nonempty], np.minimum.reduceat(label[mat.indices], starts))
        if np.array_equal(hooked, label):
            break
        while not np.array_equal(label, hooked):
            label, hooked = hooked, hooked[hooked]
    roots = label == np.arange(n)
    return int(roots.sum()), (np.cumsum(roots) - 1)[label]


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with symmetric, finite, nonnegative edge weights.

    ``weights`` is the package's own ``CsrMatrix``, and ``degrees`` are its
    cached row sums.  Column indices are sorted within each row, except in a
    matrix that ``from_weights`` copied unsorted.
    Zero-degree nodes are rejected unless ``allow_isolated`` was set at
    construction (the blockmodel sampler needs that to hand back raw
    draws).  Build graphs with ``from_edges``, ``from_dense`` or
    ``from_weights``; the public constructor checks the arrays it is given.
    """

    weights: CsrMatrix
    degrees: np.ndarray
    allow_isolated: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        w = self.weights
        if not isinstance(w, CsrMatrix):
            raise InvalidParametersError(
                "weights must be a CsrMatrix; build the graph with from_weights"
            )
        n = w.shape[0]
        if (n < 0 or w.indptr[0] != 0 or np.any(np.diff(w.indptr) < 0)
                or not w.nnz == len(w.indices) == len(w.data)
                or (w.nnz and not 0 <= w.indices.min() <= w.indices.max() < n)):
            raise InvalidParametersError("weights are not a valid CSR matrix")
        bad = np.flatnonzero(~((w.data >= 0) & (w.data < np.inf)))  # NaN fails both
        if bad.size:
            i, j = w.rows()[bad[0]], w.indices[bad[0]]
            raise InvalidParametersError(f"edge ({i},{j}) weight must be finite and nonnegative")
        # row-major keys of the entries and of their transposes, in int64 as
        # n * n passes int32 from n = 46,341; a key met only as a transpose is
        # an entry stored on one side, refused even at weight zero because the
        # component search reads the pattern
        rows, cols = w.rows(), w.indices.astype(np.int64)
        keys, at = np.unique(np.concatenate([rows * n + cols, cols * n + rows]),
                             return_inverse=True)
        one_sided = np.flatnonzero(np.bincount(at[:w.nnz], minlength=keys.size) == 0)
        if one_sided.size:
            j, i = divmod(int(keys[one_sided[0]]), n)
            raise InvalidParametersError(
                f"edge weights must be symmetric: entry ({i}, {j}) is stored but ({j}, {i}) is not"
            )
        # each entry less its transpose, summed over repeated (row, column) keys
        asym = np.bincount(at, weights=np.concatenate([w.data, -w.data]))
        if asym.size and np.abs(asym).max() > 1e-12:
            raise InvalidParametersError("edge weights must be symmetric")
        if not np.array_equal(w.row_sums(), self.degrees):
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
        object.__setattr__(graph, "degrees", mat.row_sums())
        object.__setattr__(graph, "allow_isolated", allow_isolated)
        object.__setattr__(graph, "_cache", {})
        graph._check_isolated()
        return graph

    @classmethod
    def from_edges(cls, num_nodes, edges, allow_isolated=False):
        """Build from (i, j, weight) triples; each unordered pair given once.

        The entries are sorted by row, then column, with int64 indices.
        """
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
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        order = np.argsort(rows * num_nodes + cols)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
        mat = CsrMatrix(indptr, cols[order], np.asarray(vals, dtype=np.float64)[order])
        # every pair once, mirrored, with a positive finite weight: symmetric as built
        return cls._from_symmetric(mat, allow_isolated=allow_isolated)

    @classmethod
    def from_weights(cls, weights, allow_isolated=False):
        """Build from a square dense array, or from any sparse matrix through its
        ``tocsr()`` (a scipy matrix, or another graph's ``weights``), whose
        arrays are copied with their index dtypes; scipy is not imported."""
        given = weights.tocsr() if hasattr(weights, "tocsr") else np.asarray(weights, np.float64)
        if len(given.shape) != 2 or given.shape[0] != given.shape[1]:
            raise InvalidParametersError("weight matrix must be square")
        if isinstance(given, np.ndarray):
            mat = CsrMatrix.from_dense(given)
        else:
            mat = CsrMatrix(np.array(given.indptr), np.array(given.indices),
                            np.array(given.data, dtype=np.float64))
        return cls(weights=mat, degrees=mat.row_sums(), allow_isolated=allow_isolated)

    @classmethod
    def from_dense(cls, dense, allow_isolated=False):
        return cls.from_weights(np.asarray(dense, dtype=np.float64), allow_isolated=allow_isolated)

    @property
    def num_nodes(self) -> int:
        return int(self.weights.shape[0])

    @property
    def isolated_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.degrees == 0)

    def edge_list(self):
        """Unordered edges as (i, j, w) with i <= j, sorted."""
        w = self.weights
        rows = w.rows()
        upper = rows <= w.indices
        return sorted(zip(rows[upper].tolist(), w.indices[upper].tolist(), w.data[upper].tolist()))

    def largest_component(self):
        """Restrict to the largest connected component.

        Returns ``(subgraph, kept)`` where ``kept`` maps new ids to the
        original node ids; of equal largest components, the one with the
        lowest node id.  A connected graph is returned as it is, and a graph
        returned is marked connected, so it is not searched again.  The
        search (``connected_components``) holds one int32 per stored entry
        beyond the graph; the subgraph keeps every entry of its nodes' rows,
        renumbered, in the graph's index dtypes.
        """
        if "connected" in self._cache:
            return self, np.arange(self.num_nodes)
        ncomp, labels = connected_components(self.weights)
        if ncomp <= 1 and not self.isolated_nodes.size:
            self._cache["connected"] = True
            return self, np.arange(self.num_nodes)
        sizes = np.bincount(labels, minlength=ncomp)
        keep = labels == int(np.argmax(sizes))
        kept = np.flatnonzero(keep)
        # a whole component keeps every entry of its rows
        w = self.weights
        entries = np.repeat(keep, np.diff(w.indptr))
        indptr = np.zeros(kept.size + 1, dtype=w.indptr.dtype)
        np.cumsum(np.diff(w.indptr)[kept], out=indptr[1:])
        renumber = (np.cumsum(keep) - 1).astype(w.indices.dtype)
        sub = CsrMatrix(indptr, renumber[w.indices[entries]], w.data[entries])
        graph = WeightedGraph._from_symmetric(sub)
        graph._cache["connected"] = True
        return graph, kept

    def reweighted_within_blocks(self, z, weight):
        """Copy with every same-block edge given weight ``weight``.

        Models preferential recruitment: referral probabilities follow the
        new weights while reported contact counts stay the unweighted ones.
        """
        if not 0 < weight < np.inf:
            raise InvalidParametersError(f"within-block weight {weight} must be finite and > 0")
        z = np.asarray(z)
        w = self.weights
        data = w.data.copy()
        data[z[w.rows()] == z[w.indices]] = weight
        # the same symmetric pattern, so the result is symmetric by construction
        mat = CsrMatrix(w.indptr.copy(), w.indices.copy(), data)
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
            support = self.P > 0
            ncomp, _ = connected_components(CsrMatrix.from_dense(support | support.T))
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
    """Flip columns so the first non-negligible coordinate is positive, per matrix of a stack."""
    A = np.abs(V)
    big = A > 1e-12 * np.fmax(1.0, A.max(axis=-2, keepdims=True))
    lead = np.take_along_axis(V, big.argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(big.any(axis=-2, keepdims=True) & (lead < 0), -V, V)


def _spectral_order(values: np.ndarray):
    """Leading-first ordering along the last axis: by |value| descending, ties by signed value."""
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


_DRAW_CHUNK = 1 << 17
"""Uniforms per row chunk of a block-pair rectangle (1 MB); the draw does not depend on it."""


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


def _draw_span(rng, chunks, theta) -> list:
    """Hits of consecutive chunks, their uniforms filled in order from ``rng`` into
    one buffer as large as the largest chunk; ``_chunk_hits`` returns no view of it."""
    buf = np.empty(max((len(ri) * len(iv) for _, ri, iv, *_ in chunks), default=0))
    return [_chunk_hits(rng.random(out=buf[: len(ri) * len(iv)]), ri, iv, b, theta, top, upper)
            for _, ri, iv, b, top, upper in chunks]


def dcsbm_sample(params: DcSbmParams, rng_seed) -> WeightedGraph:
    """Draw an unweighted graph: edge {i,j} present w.p. theta_i theta_j B[z_i,z_j].

    No self-loops; independent edges; deterministic given the seed.  The
    draw may contain isolated nodes: callers restrict to the largest
    connected component before sampling walks.

    One uniform is consumed per cell of each block-pair rectangle, row by
    row, block pairs in order, so each row chunk reads a known offset range
    of the seed's network stream.  Contiguous spans of chunks, about four
    per usable core, each read their range through one generator and one
    reused buffer on a thread pool: a seed gives the same graph on any core
    count, and the memory beyond the graph grows with neither N nor cores.
    A draw of one span, or from a Generator, runs on the calling thread.
    """
    z = params.z
    theta = params.theta
    n = params.num_nodes
    order = np.argsort(z, kind="stable")
    bounds = np.searchsorted(z[order], np.arange(params.num_blocks + 1))
    chunks = []  # (stream offset, rows, columns, B[u, v], max column theta, same block)
    offset = 0
    for u in range(params.num_blocks):
        iu = order[bounds[u] : bounds[u + 1]]
        for v in range(u, params.num_blocks):
            b = params.B[u, v]
            if b == 0:
                continue
            iv = order[bounds[v] : bounds[v + 1]]
            theta_max = theta[iv].max()
            rows_per = max(1, _DRAW_CHUNK // len(iv))
            for lo in range(0, len(iu), rows_per):
                ri = iu[lo : lo + rows_per]
                chunks.append((offset, ri, iv, b, theta_max, u == v))
                offset += len(ri) * len(iv)

    workers = 1 if isinstance(rng_seed, np.random.Generator) else _draw_workers()
    per_span = max(_DRAW_CHUNK, offset if workers <= 1 else -(-offset // (4 * workers)))
    spans = [list(run) for _, run in groupby(chunks, key=lambda chunk: chunk[0] // per_span)]
    if len(spans) <= 1:
        pieces = _draw_span(as_rng(rng_seed, STREAM_NETWORK), chunks, theta)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(spans))) as pool:
            parts = pool.map(lambda span: _draw_span(
                derive_rng(int(rng_seed), STREAM_NETWORK, offset=span[0][0]), span, theta), spans)
            pieces = [piece for part in parts for piece in part]
    return WeightedGraph._from_symmetric(_unit_symmetric_csr(n, pieces), allow_isolated=True)


def _unit_symmetric_csr(n: int, pieces: list) -> CsrMatrix:
    """The n x n 0/1 CSR of the undirected edges {r[k], c[k]} of the ``(r, c)``
    pieces, each given once; empties ``pieces``, dropping each once packed.

    One sort of the 2E directed pairs' row-major keys gives the sorted
    column indices, and counting the keys below each row's first gives
    ``indptr``; both stay int64, the dtype the graph digests were recorded in.
    """
    pairs = np.empty((2, sum(len(r) for r, _ in pieces)), dtype=np.int64)
    at = pairs.shape[1]
    while pieces:
        r, c = pieces.pop()
        at -= len(r)
        pairs[:, at : at + len(r)] = r * n + c, c * n + r
    keys = pairs.reshape(-1)
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    keys %= n
    return CsrMatrix(indptr, keys, np.ones(keys.shape[0]))


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
    coordinate positive.  Callers check the row sums first.  A stack of
    matrices gives each matrix its own bits.
    """
    inv_sqrt = 1.0 / np.sqrt(row)
    S_L = inv_sqrt[..., :, None] * S * inv_sqrt[..., None, :]
    vals, U = np.linalg.eigh(0.5 * (S_L + np.swapaxes(S_L, -1, -2)))
    order = _spectral_order(vals)
    U = np.take_along_axis(U, order[..., None, :], axis=-1)
    return S_L, np.take_along_axis(vals, order, axis=-1), _fix_signs(U)


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
