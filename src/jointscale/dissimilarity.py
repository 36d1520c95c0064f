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
from scipy.spatial.distance import cdist

from .errors import DegenerateInput, DisconnectedGraph, InvalidInput

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


def validate_dissimilarity(d: np.ndarray, name: str = "dissimilarity matrix") -> np.ndarray:
    """Check square/symmetric/nonnegative/zero-diagonal structure, return as float64."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise InvalidInput(f"{name} contains non-finite entries")
    if np.any(d < 0):
        raise InvalidInput(f"{name} contains negative entries")
    if np.abs(d - d.T).max(initial=0.0) > SYMMETRY_TOL:
        raise InvalidInput(f"{name} is not symmetric within {SYMMETRY_TOL}")
    if np.any(np.diag(d) != 0):
        raise InvalidInput(f"{name} has a nonzero diagonal")
    return d


def _symmetrize(d: np.ndarray) -> np.ndarray:
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def pairwise_euclidean(x: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a feature matrix.

    Parameters
    ----------
    x : ndarray of shape (n, p)
        One sample per row; all entries must be finite.

    Returns
    -------
    ndarray of shape (n, n)
        Symmetric distance matrix with exact zero diagonal.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise InvalidInput(f"feature matrix must be 2-D and nonempty, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("feature matrix contains non-finite entries")
    d = cdist(x, x, metric="euclidean")
    return _symmetrize(d)


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
    # a stable sort breaks distance ties by the lower index
    nearest = np.argsort(ranked, axis=1, kind="stable")[:, :k]
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
    from).  With ``connect`` unset, disconnection raises
    :class:`DisconnectedGraph` reporting the component count.
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
        bridges = np.empty((n_comp - 1, 2), dtype=int)
        for b in range(n_comp - 1):
            masked = np.where(labels[:, None] != labels[None, :], source, np.inf)
            bridges[b] = np.unravel_index(np.argmin(masked), masked.shape)
            i, j = bridges[b]
            labels[labels == labels[j]] = labels[i]  # merge the two components
        # one matrix from COO arrays: sparse addition would drop the graph's
        # explicit zeros and cut duplicate points apart
        coo = g.tocoo()
        i, j = bridges.T
        lengths = np.concatenate([coo.data, source[i, j], source[i, j]])
        rows, cols = np.concatenate([coo.row, i, j]), np.concatenate([coo.col, j, i])
        g = sp.csr_matrix((lengths, (rows, cols)), shape=(n, n))
    dist = shortest_path(g, method="D", directed=False)
    return _symmetrize(dist)


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
    if np.abs(adj - adj.T).max(initial=0.0) > SYMMETRY_TOL:
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
    to be deduplicated upstream.  The exponent must be finite.
    """
    if not np.isfinite(exponent):
        raise InvalidInput(f"weight exponent must be finite, got {exponent}")
    d = validate_dissimilarity(d)
    n = d.shape[0]
    mask = ~np.eye(n, dtype=bool)
    if np.any(d[mask] == 0):
        raise DegenerateInput("zero off-diagonal dissimilarity; cannot take inverse power")
    w = np.zeros_like(d)
    w[mask] = d[mask] ** (-exponent)
    return w


def uniform_weight_matrix(n: int) -> np.ndarray:
    """Uniform stress weights 1/n^2 off the diagonal."""
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    w = np.full((n, n), 1.0 / n**2)
    np.fill_diagonal(w, 0.0)
    return w
