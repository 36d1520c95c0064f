"""Construction of pairwise dissimilarity and weight matrices.

Feature matrices, point clouds and graphs all funnel into a single
representation: a dense, symmetric, nonnegative matrix with zero diagonal.
Geodesic variants go through a k-nearest-neighbor graph and all-pairs
shortest paths, the same construction Isomap uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.spatial.distance import cdist

from .errors import DegenerateInput, DisconnectedGraph, InvalidInput

__all__ = [
    "NeighborGraph",
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


@dataclass
class NeighborGraph:
    """Undirected graph with nonnegative edge lengths.

    ``edges`` holds each undirected edge once as ``(i, j, length)`` with
    ``i < j``; no self-loops.
    """

    n: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)

    def to_sparse(self) -> sp.csr_matrix:
        """Symmetric CSR adjacency; zero-length edges are kept as explicit entries."""
        if not self.edges:
            return sp.csr_matrix((self.n, self.n))
        ii, jj, ll = zip(*self.edges)
        rows = np.concatenate([ii, jj])
        cols = np.concatenate([jj, ii])
        vals = np.concatenate([ll, ll]).astype(float)
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))


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


def knn_graph(d: np.ndarray, k: int) -> NeighborGraph:
    """k-nearest-neighbor graph of a dissimilarity matrix.

    Each node selects its ``k`` nearest neighbors (ties broken by lower
    index); the edge set is the union over both endpoints.  Edge length is
    the dissimilarity entry, so duplicate points yield zero-length edges.
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
    pairs = np.unique(pairs, axis=0)
    return NeighborGraph(n=n, edges=[(int(i), int(j), float(d[i, j])) for i, j in pairs])


def _bridge_components(g: NeighborGraph, source: np.ndarray) -> NeighborGraph:
    """Join components by repeatedly adding the smallest inter-component dissimilarity."""
    edges = list(g.edges)
    n = g.n
    while True:
        adj = NeighborGraph(n=n, edges=edges).to_sparse()
        n_comp, labels = connected_components(adj, directed=False)
        if n_comp <= 1:
            return NeighborGraph(n=n, edges=edges)
        cross = labels[:, None] != labels[None, :]
        masked = np.where(cross, source, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        edges.append((min(i, j), max(i, j), float(source[i, j])))


def geodesic_distances(
    g: NeighborGraph,
    connect: bool = False,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """All-pairs shortest-path distances on a neighbor graph.

    With ``connect`` set, a disconnected graph is first augmented by
    repeatedly joining the closest pair of components with the smallest
    original dissimilarity (taken from ``source``, the matrix the graph
    was built from).  With ``connect`` unset, disconnection raises
    :class:`DisconnectedGraph` reporting the component count.
    """
    adj = g.to_sparse()
    n_comp, _ = connected_components(adj, directed=False)
    if n_comp > 1:
        if not connect:
            raise DisconnectedGraph(
                f"neighbor graph has {n_comp} connected components", n_comp
            )
        if source is None:
            raise InvalidInput("connect=True requires the source dissimilarity matrix")
        source = validate_dissimilarity(source, "source matrix")
        if source.shape[0] != g.n:
            raise InvalidInput("source matrix size does not match graph")
        adj = _bridge_components(g, source).to_sparse()
    dist = shortest_path(adj, method="D", directed=False)
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

    ``edges`` is a list of ``(i, j)`` or ``(i, j, weight)`` tuples; node ids
    are 0-based.  Every node must have degree at least one.
    """
    if n < 1:
        raise InvalidInput("graph must have at least one node")
    a = np.zeros((n, n))
    for e in edges:
        if len(e) == 2:
            i, j = e
            w = 1.0
        else:
            i, j, w = e
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInput(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            continue
        if w < 0:
            raise InvalidInput(f"edge ({i},{j}) has negative weight {w}")
        a[i, j] = a[j, i] = float(w)
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
    lengths = np.zeros_like(adj)
    lengths[mask] = 1.0 if mode == "hop" else 1.0 / adj[mask]
    rows, cols = np.nonzero(mask)
    graph = sp.csr_matrix((lengths[rows, cols], (rows, cols)), shape=adj.shape)
    n_comp, _ = connected_components(graph, directed=False)
    if n_comp > 1:
        raise DisconnectedGraph(f"graph has {n_comp} connected components", n_comp)
    dist = shortest_path(graph, method="D", directed=False)
    return _symmetrize(dist)


def power_weight_matrix(d: np.ndarray, exponent: float = 4.0) -> np.ndarray:
    """Stress weights w_ij = d_ij^(-exponent) with zero diagonal.

    Off-diagonal distances must be strictly positive; duplicated nodes have
    to be deduplicated upstream.
    """
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
