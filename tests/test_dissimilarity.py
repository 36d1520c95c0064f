import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from jointscale import (
    DegenerateInput,
    DisconnectedGraph,
    InvalidInput,
    geodesic_distances,
    graph_dissimilarity,
    knn_graph,
    normalized_adjacency,
    pairwise_euclidean,
    power_weight_matrix,
    rescale_by_mean,
    uniform_weight_matrix,
)


def brute_force_euclidean(x):
    n = x.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sqrt(np.sum((x[i] - x[j]) ** 2))
    return out


class TestPairwiseEuclidean:
    def test_single_row(self):
        assert pairwise_euclidean(np.array([[1.0, 2.0, 3.0]])).tolist() == [[0.0]]

    def test_3_4_5_triangle(self):
        d = pairwise_euclidean(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.allclose(d, [[0, 5], [5, 0]], atol=0)

    def test_matches_brute_force(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        assert np.abs(pairwise_euclidean(x) - brute_force_euclidean(x)).max() < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            pairwise_euclidean(np.array([[0.0, np.nan]]))

    def test_symmetric_zero_diagonal(self):
        d = pairwise_euclidean(np.random.default_rng(1).standard_normal((20, 3)))
        assert np.abs(d - d.T).max() <= 1e-12
        assert np.all(np.diag(d) == 0)
        assert np.all(d >= 0)


def edge_list(g):
    """Upper-triangle entries of a graph matrix as sorted ``(i, j, length)``."""
    u = sp.triu(g).tocoo()
    return sorted((int(i), int(j), float(v)) for i, j, v in zip(u.row, u.col, u.data))


def graph(n, edges):
    """Symmetric CSR matrix of the undirected ``(i, j, length)`` edges."""
    i, j, lengths = (np.array(c) for c in zip(*edges))
    return sp.csr_matrix((np.concatenate([lengths, lengths]),
                          (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))


class TestKnnGraph:
    def test_collinear_chain(self):
        d = pairwise_euclidean(np.array([[0.0], [1.0], [2.0]]))
        g = knn_graph(d, 1)
        assert edge_list(g) == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_symmetric_csr(self):
        d = pairwise_euclidean(np.random.default_rng(2).standard_normal((9, 2)))
        g = knn_graph(d, 3)
        assert isinstance(g, sp.csr_matrix)
        assert (g != g.T).nnz == 0

    def test_full_connectivity(self):
        d = pairwise_euclidean(np.random.default_rng(2).standard_normal((6, 2)))
        g = knn_graph(d, 5)
        assert g.nnz == 30

    def test_duplicate_points_zero_edge(self):
        d = pairwise_euclidean(np.array([[0.0], [0.0], [5.0]]))
        g = knn_graph(d, 1)
        assert (0, 1, 0.0) in edge_list(g)
        assert g.diagonal().tolist() == [0.0, 0.0, 0.0]
        assert g.nnz == 4  # the zero-length edge is stored in both orientations

    @staticmethod
    def loop_knn_edges(d, k):
        """Reference: per row, sort by distance then index and skip self."""
        edges = set()
        idx = np.arange(d.shape[0])
        for i in range(d.shape[0]):
            order = np.lexsort((idx, d[i]))
            for j in [j for j in order if j != i][:k]:
                edges.add((min(i, int(j)), max(i, int(j))))
        return [(i, j, float(d[i, j])) for i, j in sorted(edges)]

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_matches_row_loop(self, k):
        # duplicated and tied points: the diagonal ties with other zeros and
        # equal distances must fall to the lower index
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=(12, 2)).astype(float)
        x = np.vstack([x, x[:4], rng.standard_normal((6, 2))])
        d = pairwise_euclidean(x)
        assert np.sum(d == 0) > d.shape[0]
        assert edge_list(knn_graph(d, k)) == self.loop_knn_edges(d, k)

    def test_k_too_large(self):
        d = pairwise_euclidean(np.array([[0.0], [1.0]]))
        with pytest.raises(InvalidInput):
            knn_graph(d, 2)


def greedy_bridges(g, source):
    """Reference: add the smallest inter-component dissimilarity as an edge
    and recompute the components from scratch, until one is left."""
    edges = edge_list(g)
    n = g.shape[0]
    while True:
        n_comp, labels = connected_components(graph(n, edges), directed=False)
        if n_comp <= 1:
            return graph(n, edges)
        masked = np.where(labels[:, None] != labels[None, :], source, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        edges.append((min(i, j), max(i, j), float(source[i, j])))


class TestGeodesic:
    def test_chain_additivity(self):
        g = graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        dist = geodesic_distances(g)
        assert dist[0, 2] == 2.0

    def test_circle_approximates_arc(self):
        theta = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        d = pairwise_euclidean(pts)
        geo = geodesic_distances(knn_graph(d, 2))
        antipode = geo[0, 10]
        assert antipode > 2.0  # strictly longer than the chord
        assert abs(antipode - np.pi) / np.pi < 0.05

    def test_disconnected_raises_with_count(self):
        g = graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraph) as err:
            geodesic_distances(g)
        assert err.value.n_components == 2

    def test_bridging_joins_closest_components(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        d = pairwise_euclidean(pts)
        g = graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        dist = geodesic_distances(g, connect=True, source=d)
        # bridge 1-2 (gap 9) is the smallest inter-component dissimilarity
        assert dist[0, 3] == pytest.approx(1 + 9 + 1)

    def test_bridging_keeps_zero_length_edges(self):
        # two pairs of duplicates: sparse addition of the bridge would drop
        # the explicit zeros and leave the duplicates unconnected
        d = pairwise_euclidean(np.array([[0.0], [0.0], [5.0], [5.0]]))
        dist = geodesic_distances(knn_graph(d, 1), connect=True, source=d)
        assert np.all(np.isfinite(dist))
        assert dist[0, 1] == 0.0
        assert dist[0, 3] == 5.0

    @pytest.mark.parametrize("seed", range(4))
    def test_bridging_matches_greedy_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_disconnected = 0
        for _ in range(25):
            n = int(rng.integers(4, 30))
            x = rng.integers(0, 4, size=(n, 2)).astype(float)
            x[rng.random(n) < 0.3] *= 10  # far clusters
            x = np.vstack([x, x[: n // 3]])  # duplicate points
            d = pairwise_euclidean(x)
            g = knn_graph(d, int(rng.integers(1, 4)))
            n_disconnected += connected_components(g, directed=False)[0] > 1
            geo = geodesic_distances(g, connect=True, source=d)
            ref = geodesic_distances(greedy_bridges(g, d))
            assert np.all(np.isfinite(geo))
            assert geo.tobytes() == ref.tobytes()
        assert n_disconnected >= 10

    def test_bridge_needs_source(self):
        g = graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(InvalidInput):
            geodesic_distances(g, connect=True)

    def test_triangle_inequality_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = pairwise_euclidean(rng.standard_normal((15, 3)))
            geo = geodesic_distances(knn_graph(d, 4), connect=True, source=d)
            lhs = geo[:, :, None]
            rhs = geo[:, None, :] + geo[None, :, :]
            assert np.all(lhs <= rhs + 1e-9)

    def test_path_upper_bound(self):
        g = graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 10.0)])
        dist = geodesic_distances(g)
        assert dist[0, 3] <= 1.0 + 2.0 + 1.5


class TestRescaleByMean:
    def test_two_points(self):
        assert np.allclose(rescale_by_mean(np.array([[0.0, 2.0], [2.0, 0.0]])),
                           [[0, 1], [1, 0]])

    def test_idempotent_on_normalized(self):
        d = pairwise_euclidean(np.random.default_rng(4).standard_normal((8, 2)))
        once = rescale_by_mean(d)
        assert np.abs(rescale_by_mean(once) - once).max() < 1e-12

    def test_off_diagonal_mean_is_one(self):
        d = pairwise_euclidean(np.random.default_rng(5).standard_normal((8, 3)))
        out = rescale_by_mean(d)
        mask = ~np.eye(8, dtype=bool)
        assert abs(out[mask].mean() - 1.0) < 1e-12

    def test_scale_invariant(self):
        d = pairwise_euclidean(np.random.default_rng(6).standard_normal((7, 2)))
        assert np.abs(rescale_by_mean(3.7 * d) - rescale_by_mean(d)).max() < 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            rescale_by_mean(np.zeros((3, 3)))


class TestNormalizedAdjacency:
    def test_single_edge(self):
        assert np.allclose(normalized_adjacency([(0, 1)], 2), [[0, 1], [1, 0]])

    def test_triangle(self):
        a = normalized_adjacency([(0, 1), (1, 2), (0, 2)], 3)
        expect = np.full((3, 3), 0.5)
        np.fill_diagonal(expect, 0.0)
        assert np.allclose(a, expect)

    def test_star(self):
        a = normalized_adjacency([(0, 1), (0, 2), (0, 3)], 4)
        assert a[0, 1] == pytest.approx(1 / np.sqrt(3))
        assert a[1, 2] == 0

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_named(self, weight):
        edges = [(0, 1, 1.0), (1, 2, weight), (2, 3, 1.0)]
        with pytest.raises(InvalidInput, match=r"edge \(1,2\) has non-finite weight"):
            normalized_adjacency(edges, 4)

    def test_isolated_node_named(self):
        with pytest.raises(InvalidInput, match="node 2"):
            normalized_adjacency([(0, 1)], 3)

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 8
            mask = np.triu(rng.random((n, n)) < 0.5, 1)
            edges = [(i, j) for i, j in zip(*np.nonzero(mask))]
            for i in range(n):  # guarantee no isolated node
                edges.append((i, (i + 1) % n))
            a = normalized_adjacency(edges, n)
            # power iteration
            v = np.ones(n)
            for _ in range(200):
                v = a @ v
                v /= np.linalg.norm(v)
            assert abs(v @ a @ v) <= 1.0 + 1e-9


def bfs_hops(adj):
    n = adj.shape[0]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in np.nonzero(adj[u])[0]:
                    if dist[s, v] == np.inf:
                        dist[s, v] = level
                        nxt.append(v)
            frontier = nxt
    return dist


class TestGraphDissimilarity:
    def test_path_graph_hops(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert graph_dissimilarity(adj, "hop")[0, 2] == 2.0

    def test_triangle_inverse_weight(self):
        a = normalized_adjacency([(0, 1), (1, 2), (0, 2)], 3)
        d = graph_dissimilarity(a, "inverse-weight")
        mask = ~np.eye(3, dtype=bool)
        assert np.allclose(d[mask], 2.0)

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(8)
        while True:
            mask = np.triu(rng.random((15, 15)) < 0.25, 1)
            adj = (mask | mask.T).astype(float)
            if np.all(bfs_hops(adj) < np.inf):
                break
        assert np.array_equal(graph_dissimilarity(adj, "hop"), bfs_hops(adj))

    def test_disconnected(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        with pytest.raises(DisconnectedGraph):
            graph_dissimilarity(adj, "hop")


class TestWeights:
    def test_power_weight_unit_distances(self):
        d = np.ones((3, 3)) - np.eye(3)
        w = power_weight_matrix(d, 4.0)
        assert np.allclose(w, d)

    def test_power_weight_direct(self):
        d = 2 * (np.ones((2, 2)) - np.eye(2))
        assert power_weight_matrix(d, 4.0)[0, 1] == pytest.approx(1 / 16)

    def test_power_weight_entrywise_oracle(self):
        d = pairwise_euclidean(np.random.default_rng(9).standard_normal((6, 2)))
        w = power_weight_matrix(d, 4.0)
        for i in range(6):
            for j in range(6):
                expect = 0.0 if i == j else d[i, j] ** -4.0
                assert abs(w[i, j] - expect) < 1e-12

    def test_power_weight_zero_distance(self):
        d = np.zeros((2, 2))
        with pytest.raises(DegenerateInput):
            power_weight_matrix(d, 4.0)

    @pytest.mark.parametrize("n,offdiag", [(1, None), (2, 0.25), (10, 0.01)])
    def test_uniform_weight(self, n, offdiag):
        w = uniform_weight_matrix(n)
        assert np.all(np.diag(w) == 0)
        if n > 1:
            assert w[0, 1] == offdiag
