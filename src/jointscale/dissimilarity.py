"""Construction of pairwise dissimilarity and weight matrices.

Feature matrices, point clouds and graphs all funnel into a single
representation: a dense, symmetric, nonnegative matrix with zero diagonal.
Geodesic variants go through a k-nearest-neighbor graph and all-pairs
shortest paths, the same construction Isomap uses.  A graph is one symmetric
``scipy.sparse`` CSR matrix of edge lengths, and one function,
:func:`geodesic_distances`, turns both k-NN graphs and adjacency patterns
into shortest-path distances.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

from . import _blas
from .errors import DegenerateInput, DisconnectedGraph, InvalidInput, NumericalFailure

__all__ = [
    "validate_dissimilarity",
    "pairwise_euclidean",
    "knn_graph",
    "geodesic_distances",
    "rescale_by_mean",
    "normalized_adjacency",
    "graph_dissimilarity",
    "power_weight_matrix",
    "uniform_weight_matrix",
]

SYMMETRY_TOL = 1e-12
# pairwise_euclidean recomputes from the rows every pair whose squared distance
# is at most this share of the two centred rows' squared norms
RECOMPUTE_SHARE = 1e-4
# working-set size of the blocked loops below
_BLOCK_BYTES = 1 << 20


def validate_dissimilarity(d: np.ndarray, name: str = "dissimilarity matrix") -> np.ndarray:
    """Check nonempty/square/symmetric/nonnegative/zero-diagonal structure, return as float64."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {d.shape}")
    if d.size == 0:
        raise InvalidInput(f"{name} is empty")
    if not np.all(np.isfinite(d)):
        raise InvalidInput(f"{name} contains non-finite entries")
    if np.any(d < 0):
        raise InvalidInput(f"{name} contains negative entries")
    if _max_asymmetry(d) > SYMMETRY_TOL:
        raise InvalidInput(f"{name} is not symmetric within {SYMMETRY_TOL}")
    if np.any(np.diag(d) != 0):
        raise InvalidInput(f"{name} has a nonzero diagonal")
    return d


def _max_asymmetry(a: np.ndarray) -> float:
    """max |a - a^T| of a square ``a`` (0 if empty), NaN if the difference has one.

    Taken in row blocks whose working set, the rows, the matching columns
    and their difference, is about ``_BLOCK_BYTES``; the difference reuses
    one buffer, so no n x n temporary is made.
    """
    n = a.shape[0]
    rows = max(1, _BLOCK_BYTES // (24 * max(n, 1)))
    buf = np.empty((min(rows, n), n))
    worst = 0.0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diff = np.subtract(a[lo:hi], a[:, lo:hi].T, out=buf[:hi - lo])
        worst = np.maximum(worst, np.abs(diff, out=diff).max())
    return float(worst)


def _symmetrize(d: np.ndarray) -> np.ndarray:
    """Average ``d`` with its transpose in place, block by block, and zero the diagonal.

    Entry by entry the result is ``0.5 * (d + d.T)``, so both orientations of
    a pair hold the same bits; no n x n temporary is made.
    """
    n = d.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        mean = 0.5 * (d[lo:hi, lo:] + d[lo:, lo:hi].T)
        d[lo:hi, lo:] = mean
        d[lo:, lo:hi] = mean.T
    np.fill_diagonal(d, 0.0)
    return d


def pairwise_euclidean(x: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a feature matrix.

    Parameters
    ----------
    x : ndarray of shape (n, p)
        One sample per row; all entries must be finite.  Any memory layout.

    Returns
    -------
    ndarray of shape (n, n)
        Symmetric distance matrix (both orientations bitwise equal) with
        exact zero diagonal.

    Notes
    -----
    The distances come from the Gram matrix of the centred rows c_i, scaled
    by a power of two: d_ij^2 = |c_i|^2 + |c_j|^2 - 2 c_i.c_j, with one BLAS
    product at one OpenBLAS thread, so d has the same bits for every thread
    count, and scaling x by a power of two scales d by it exactly.

    Accuracy: every pair whose squared distance is at most
    ``RECOMPUTE_SHARE`` (1e-4) of |c_i|^2 + |c_j|^2 is recomputed from the
    difference of its two rows, as ``cdist`` computes it, so identical rows
    give exactly 0 and near-duplicates keep ``cdist``'s accuracy.  Every
    other entry has a relative error of at most about
    (p + 2) * 2^-53 / RECOMPUTE_SHARE by the dot-product rounding bound.
    Measured against ``cdist``: at most 4.3e-13 per entry (2.7e-15 of the
    largest distance) on 1000 swiss-roll points in 2000 features, and at
    most 6e-16 per entry under a 1e6 offset, with rows 1e-9 apart, exact
    duplicates, or at scales 1e-150 and 1e150.  The recomputation costs in
    proportion to the near pairs: nothing where all pairs are far apart
    against the spread of the rows, and about four full ``cdist`` runs where
    every pair is near, as in tight clusters or beside one far outlier
    (measured on 1000 rows in 50 features).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise InvalidInput(f"feature matrix must be 2-D and nonempty, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("feature matrix contains non-finite entries")
    n, p = x.shape
    # centred, so a common offset cannot cancel digits in the product
    c = np.subtract(x, x.mean(axis=0), order="C")
    top = max(c.max(), -c.min())
    if top == 0.0:
        return np.zeros((n, n))
    # a power of two: scaling is exact, and tiny features cannot underflow
    # in the squares; the clip keeps the scale itself finite and normal
    scale = np.ldexp(1.0, int(np.clip(-np.frexp(top)[1], -1000, 1000)))
    c *= scale
    with _blas.single_threaded():
        d = c @ c.T  # numpy takes syrk for a matrix times its own transpose
    del c
    sq = d.diagonal().copy()
    d *= -2.0
    d += sq[:, None]
    d += sq
    _symmetrize(d)
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    # screened by row block against each pair's own bound, so no more than a
    # block's worth of candidates exists at a time
    rows = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        near = d[lo:hi, lo:] * d[lo:hi, lo:]
        a, b = np.nonzero(np.triu(near <= RECOMPUTE_SHARE * (sq[lo:hi, None] + sq[lo:]), 1))
        if a.size:
            _recompute(d, x, a + lo, b + lo, scale)
    d /= scale
    return d


def _recompute(d: np.ndarray, x: np.ndarray, a: np.ndarray, b: np.ndarray,
               scale: float) -> None:
    """Set ``d`` at the pairs (a, b) and (b, a) to the distance between
    those rows of ``x`` scaled by ``scale``, taken from their difference.

    Each pair is taken from its own two rows, in blocks of pairs whose row
    differences fill about ``_BLOCK_BYTES``.  Identical rows give exactly 0.
    """
    step = max(1, _BLOCK_BYTES // (8 * x.shape[1]))
    for lo in range(0, a.size, step):
        i, j = a[lo:lo + step], b[lo:lo + step]
        diff = x[i] - x[j]
        diff *= scale  # a power of two: the same bits as scaling each row
        d[i, j] = d[j, i] = np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _smallest_k(a: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``a``, the column indices of its ``k`` smallest entries.

    As a set, each row holds the first ``k`` indices of a stable argsort
    (equal values go to the lower index); their order within the row is
    unspecified.  Rows are partitioned, and only a row whose k-th smallest
    value is tied with an entry outside the k is sorted.
    """
    a = np.asarray(a)
    if k >= a.shape[1]:
        return np.broadcast_to(np.arange(a.shape[1]), a.shape).copy()
    top = np.argpartition(a, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(a, top[:, k - 1:], axis=1)
    tied = np.count_nonzero(a <= kth, axis=1) > k
    if tied.any():
        top[tied] = np.argsort(a[tied], axis=1, kind="stable")[:, :k]
    return top


def knn_graph(d: np.ndarray, k: int) -> sp.csr_matrix:
    """k-nearest-neighbor graph of a dissimilarity matrix.

    Each node selects its ``k`` nearest neighbors (ties broken by lower
    index); the edge set is the union over both endpoints.  Returns the
    symmetric CSR matrix of edge lengths, each undirected edge stored in
    both orientations.  Edge length is the dissimilarity entry, so
    duplicate points yield zero-length edges, kept as explicit entries.
    """
    d = validate_dissimilarity(d)
    n = d.shape[0]
    if not 1 <= k < n:
        raise InvalidInput(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    ranked = d.copy()
    np.fill_diagonal(ranked, np.inf)  # self goes last, behind any zero-distance duplicate
    nearest = _smallest_k(ranked, k)
    del ranked
    pairs = np.sort(np.column_stack((np.repeat(np.arange(n), k), nearest.ravel())), axis=1)
    i, j = np.unique(pairs, axis=0).T
    lengths = np.concatenate([d[i, j], d[i, j]])
    # built from COO arrays, which keeps zero lengths as explicit entries
    return sp.csr_matrix((lengths, (np.concatenate([i, j]), np.concatenate([j, i]))),
                         shape=(n, n))


def geodesic_distances(
    g: sp.spmatrix,
    connect: bool = False,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """All-pairs shortest-path distances on a graph of edge lengths.

    ``g`` is a symmetric sparse matrix of edge lengths, as
    :func:`knn_graph` returns; explicit zeros are zero-length edges.  With
    ``connect`` set, a disconnected graph is first augmented by repeatedly
    joining the closest pair of components with the smallest original
    dissimilarity (taken from ``source``, the matrix the graph was built
    from; equal dissimilarities go to the lower row, then the lower column).
    With ``connect`` unset, disconnection raises :class:`DisconnectedGraph`
    reporting the component count.
    """
    n = g.shape[0]
    n_comp, labels = connected_components(g, directed=False)
    if n_comp > 1:
        if not connect:
            raise DisconnectedGraph(f"graph has {n_comp} connected components", n_comp)
        if source is None:
            raise InvalidInput("connect=True requires the source dissimilarity matrix")
        source = validate_dissimilarity(source, "source matrix")
        if source.shape[0] != n:
            raise InvalidInput("source matrix size does not match graph")
        i, j = _bridges(source, labels, n_comp)
        # one matrix from COO arrays: sparse addition would drop the graph's
        # explicit zeros and cut duplicate points apart
        coo = g.tocoo()
        lengths = np.concatenate([coo.data, source[i, j], source[i, j]])
        rows, cols = np.concatenate([coo.row, i, j]), np.concatenate([coo.col, j, i])
        g = sp.csr_matrix((lengths, (rows, cols)), shape=(n, n))
    dist = shortest_path(g, method="D", directed=False)
    return _symmetrize(dist)


def _bridges(source: np.ndarray, labels: np.ndarray, n_comp: int) -> tuple:
    """Rows and columns of the ``n_comp - 1`` edges that join the components.

    Joining the closest two components again and again, with ties going to
    the lower (row, column), is Kruskal's algorithm on the components under
    the order (dissimilarity, row, column) of the entries of ``source``.
    Only the least edge between two components can be a Kruskal edge, so
    one pass finds each pair's least edge and Kruskal runs over those.
    ``source`` may be asymmetric within ``SYMMETRY_TOL``, so both triangles
    are searched.
    """
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(n_comp))
    # least dissimilarity between every two components (labels are 0..n_comp-1),
    # in either orientation
    least = np.minimum.reduceat(source[np.ix_(order, order)], starts, axis=1)
    least = np.minimum.reduceat(least, starts, axis=0)
    least = np.minimum(least, least.T)
    # entries at their component pair's least value, listed in row-major
    # order, so each pair's first is its (lower row, lower column) one
    at_least = source == least[labels][:, labels]
    at_least &= labels[:, None] != labels
    i, j = np.nonzero(at_least)
    lo, hi = np.minimum(labels[i], labels[j]), np.maximum(labels[i], labels[j])
    _, first = np.unique(lo * n_comp + hi, return_index=True)
    i, j, lo, hi = i[first], j[first], lo[first], hi[first]
    parent = list(range(n_comp))

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    chosen = []
    for e in np.lexsort((j, i, source[i, j])).tolist():
        a, b = root(int(lo[e])), root(int(hi[e]))
        if a != b:
            parent[a] = b
            chosen.append(e)
            if len(chosen) == n_comp - 1:
                break
    if len(chosen) != n_comp - 1:
        raise NumericalFailure(
            f"found {len(chosen)} bridges for {n_comp} components, need {n_comp - 1}")
    return i[chosen], j[chosen]


def rescale_by_mean(d: np.ndarray) -> np.ndarray:
    """Divide every entry by the mean of the off-diagonal entries."""
    d = validate_dissimilarity(d)
    n = d.shape[0]
    if n < 2:
        raise DegenerateInput("rescaling needs at least two points")
    mask = ~np.eye(n, dtype=bool)
    mean = d[mask].mean()
    if mean == 0.0:
        raise DegenerateInput("all off-diagonal entries are zero")
    return d / mean


def normalized_adjacency(edges: list[tuple], n: int) -> np.ndarray:
    """Degree-normalized adjacency a_ij / sqrt(deg_i * deg_j).

    ``edges`` is a list of ``(i, j)`` or one of ``(i, j, weight)`` tuples;
    node ids are 0-based and weights finite and nonnegative.  Self-loops are
    dropped and a repeated edge keeps its last weight.  Every node must have
    degree at least one.  An error names the first offending edge.
    """
    if n < 1:
        raise InvalidInput("graph must have at least one node")
    if {len(e) for e in edges} not in (set(), {2}, {3}):
        raise InvalidInput("edges must be all (i, j) or all (i, j, weight) tuples")
    e = np.array(edges, dtype=float).reshape(len(edges), -1 if len(edges) else 2)
    i, j = e[:, 0], e[:, 1]
    w = e[:, 2] if e.shape[1] == 3 else np.ones(len(e))
    loop = i == j
    outside = ~((np.minimum(i, j) >= 0) & (np.maximum(i, j) < n))
    bad = outside | (~loop & ~((w >= 0) & (w < np.inf)))
    if bad.any():
        k = int(np.argmax(bad))
        edge = f"edge ({int(i[k])},{int(j[k])})"
        if outside[k]:
            raise InvalidInput(f"{edge} out of range for n={n}")
        problem = "negative" if np.isfinite(w[k]) else "non-finite"
        raise InvalidInput(f"{edge} has {problem} weight {w[k]}")
    lo, hi = np.sort(e[~loop, :2], axis=1).astype(np.intp).T
    w = w[~loop]
    # an edge's last occurrence is its first in reversed order
    _, first = np.unique((lo * n + hi)[::-1], return_index=True)
    last = len(lo) - 1 - first
    a = np.zeros((n, n))
    a[lo[last], hi[last]] = a[hi[last], lo[last]] = w[last]
    deg = a.sum(axis=1)
    isolated = np.flatnonzero(deg == 0)
    if isolated.size:
        raise InvalidInput(f"node {int(isolated[0])} is isolated (degree 0)")
    inv_sqrt = 1.0 / np.sqrt(deg)
    return a * np.outer(inv_sqrt, inv_sqrt)


def graph_dissimilarity(adj: np.ndarray, mode: str = "hop") -> np.ndarray:
    """Shortest-path distances over the nonzero pattern of an adjacency matrix.

    ``mode="hop"`` uses unit edge lengths; ``mode="inverse-weight"`` uses
    ``1 / adj_ij``.  The graph must be connected.
    """
    adj = np.asarray(adj, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise InvalidInput(f"adjacency must be square, got shape {adj.shape}")
    if np.any(adj < 0):
        raise InvalidInput("adjacency entries must be nonnegative")
    if _max_asymmetry(adj) > SYMMETRY_TOL:
        raise InvalidInput("adjacency must be symmetric")
    if mode not in ("hop", "inverse-weight"):
        raise InvalidInput(f"unknown mode {mode!r}")
    mask = adj > 0
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    lengths = np.ones(rows.size) if mode == "hop" else 1.0 / adj[rows, cols]
    return geodesic_distances(sp.csr_matrix((lengths, (rows, cols)), shape=adj.shape))


def power_weight_matrix(d: np.ndarray, exponent: float = 4.0) -> np.ndarray:
    """Stress weights w_ij = d_ij^(-exponent) with zero diagonal.

    Off-diagonal distances must be strictly positive; duplicated nodes have
    to be deduplicated upstream.  The exponent must be finite, and no weight
    may overflow.
    """
    if not np.isfinite(exponent):
        raise InvalidInput(f"weight exponent must be finite, got {exponent}")
    d = validate_dissimilarity(d)
    n = d.shape[0]
    mask = ~np.eye(n, dtype=bool)
    if np.any(d[mask] == 0):
        raise DegenerateInput("zero off-diagonal dissimilarity; cannot take inverse power")
    w = np.zeros_like(d)
    with np.errstate(over="ignore"):
        w[mask] = d[mask] ** (-exponent)
    if not np.all(np.isfinite(w)):
        raise DegenerateInput(
            f"dissimilarities to the power {-exponent} overflow; rescale them")
    return w


def uniform_weight_matrix(n: int) -> np.ndarray:
    """Uniform stress weights 1/n^2 off the diagonal."""
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    w = np.full((n, n), 1.0 / n**2)
    np.fill_diagonal(w, 0.0)
    return w
