from itertools import permutations

import numpy as np
import pytest

from jointscale import (
    InvalidInput,
    Marginals,
    cost_matrix,
    entropic_gw,
    match_argmax,
    orthogonal_procrustes,
    pairwise_euclidean,
    planted_pair,
    sinkhorn,
    wasserstein_procrustes,
)
from jointscale.transport import entropy


def haar_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class TestMarginals:
    def test_uniform(self):
        m = Marginals.uniform(4, 5)
        assert np.allclose(m.a, 0.25)
        assert abs(m.b.sum() - 1) < 1e-12

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInput):
            Marginals(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            Marginals(np.array([1.5, -0.5]), np.array([0.5, 0.5]))


class TestCostMatrix:
    def test_identical_points(self):
        assert cost_matrix(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])).tolist() == [[0.0]]

    def test_squared_distance(self):
        assert cost_matrix(np.array([[0.0]]), np.array([[3.0]])).tolist() == [[9.0]]

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        z1, z2 = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
        c = cost_matrix(z1, z2)
        for i in range(5):
            for j in range(4):
                assert abs(c[i, j] - np.sum((z1[i] - z2[j]) ** 2)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            cost_matrix(np.zeros((2, 3)), np.zeros((2, 2)))


class TestSinkhorn:
    def test_forced_single_coupling(self):
        p = sinkhorn(np.array([[7.3]]), Marginals.uniform(1, 1), 0.5)
        assert np.allclose(p, [[1.0]])

    def test_two_by_two_identity_assignment(self):
        c = np.array([[0.0, 10.0], [10.0, 0.0]])
        p = sinkhorn(c, Marginals.uniform(2, 2), 0.01)
        assert np.abs(p - np.diag([0.5, 0.5])).max() < 1e-6

    def test_brute_force_permutation_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c = rng.random((5, 5))
            p, info = sinkhorn(c, Marginals.uniform(5, 5), 1e-3,
                               max_iter=200_000, tol=1e-7, log=True)
            best = min(sum(c[i, pi[i]] for i in range(5)) for pi in permutations(range(5)))
            assert float(np.sum(p * c)) <= best / 5 + 0.01
            assert info["marginal_violation"] <= 1e-6

    def test_marginals_hold_on_convergence(self):
        rng = np.random.default_rng(1)
        c = rng.random((7, 4))
        m = Marginals(np.full(7, 1 / 7), np.full(4, 0.25))
        p, info = sinkhorn(c, m, 0.1, tol=1e-9, log=True)
        assert info["converged"]
        assert np.abs(p.sum(axis=1) - m.a).sum() + np.abs(p.sum(axis=0) - m.b).sum() <= 1e-9

    def test_dual_trace_monotone(self):
        rng = np.random.default_rng(2)
        c = rng.random((6, 6))
        _, info = sinkhorn(c, Marginals.uniform(6, 6), 0.05, tol=1e-12, log=True)
        trace = np.array(info["dual_trace"])
        assert np.all(np.diff(trace) >= -1e-10)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        c = rng.random((6, 5))
        m = Marginals(np.full(6, 1 / 6), np.full(5, 0.2))
        m_t = Marginals(np.full(5, 0.2), np.full(6, 1 / 6))
        p = sinkhorn(c, m, 0.5, max_iter=20_000, tol=1e-13)
        p_t = sinkhorn(c.T, m_t, 0.5, max_iter=20_000, tol=1e-13)
        assert np.abs(p_t - p.T).max() < 1e-10

    def test_epsilon_must_be_positive(self):
        with pytest.raises(InvalidInput):
            sinkhorn(np.zeros((2, 2)), Marginals.uniform(2, 2), 0.0)

    def test_non_finite_cost_rejected(self):
        with pytest.raises(InvalidInput):
            sinkhorn(np.array([[np.inf, 0.0], [0.0, 1.0]]), Marginals.uniform(2, 2), 1.0)


class TestOrthogonalProcrustes:
    def test_identity_for_scaled_identity_m(self):
        z = np.sqrt(3.0) * np.eye(3)
        o = orthogonal_procrustes(z, np.eye(3) / 3, z)
        assert np.abs(o - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_planted_rotation_recovery(self, d):
        rng = np.random.default_rng(d)
        z1 = rng.standard_normal((40, d))
        q = haar_orthogonal(d, rng)
        o = orthogonal_procrustes(z1, np.eye(40) / 40, z1 @ q)
        assert np.linalg.norm(o - q) <= 1e-8

    def test_beats_random_search(self):
        rng = np.random.default_rng(5)
        z1 = rng.standard_normal((20, 3))
        z2 = rng.standard_normal((20, 3))
        p = np.full((20, 20), 1 / 400)
        o = orthogonal_procrustes(z1, p, z2)
        m = z1.T @ p @ z2
        best = max(np.sum(haar_orthogonal(3, rng) * m) for _ in range(1000))
        assert np.sum(o * m) >= best

    def test_orthogonality_always(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z1 = rng.standard_normal((10, 4))
            z2 = rng.standard_normal((8, 4))
            p = rng.random((10, 8))
            o = orthogonal_procrustes(z1, p, z2)
            assert np.abs(o.T @ o - np.eye(4)).max() <= 1e-8

    def test_nuclear_norm_certificate(self):
        rng = np.random.default_rng(7)
        z1 = rng.standard_normal((15, 3))
        z2 = rng.standard_normal((12, 3))
        p = rng.random((15, 12))
        o = orthogonal_procrustes(z1, p, z2)
        m = z1.T @ p @ z2
        nuclear = np.linalg.svd(m, compute_uv=False).sum()
        assert abs(np.sum(o * m) - nuclear) <= 1e-8


class TestWassersteinProcrustes:
    def test_self_alignment(self):
        rng = np.random.default_rng(8)
        z1 = rng.standard_normal((30, 2))
        m = Marginals.uniform(30, 30)
        p, o = wasserstein_procrustes(z1, z1, m, 0.01, 15)
        assert np.linalg.norm(z1 @ o - z1) / np.linalg.norm(z1) < 0.05
        assert np.array_equal(match_argmax(p), np.arange(30))

    def test_planted_correspondence_with_gw_start(self):
        z1, z2, perm = planted_pair(200, 5, seed=11, noise=0.01)
        m = Marginals.uniform(200, 200)
        d1, d2 = pairwise_euclidean(z1), pairwise_euclidean(z2)
        p0 = entropic_gw(d1, d2, m, 0.01 * (np.mean(d1**2) + np.mean(d2**2)))
        eps = 0.01 * float(np.mean(cost_matrix(z1, z2)))
        p, _ = wasserstein_procrustes(z1, z2, m, eps, 10, p0=p0)
        assert np.mean(match_argmax(p) == perm) >= 0.95

    def test_zero_rounds_rejected(self):
        rng = np.random.default_rng(9)
        z1 = rng.standard_normal((5, 2))
        z2 = rng.standard_normal((6, 2))
        p0 = np.full((5, 6), 1 / 30)
        with pytest.raises(InvalidInput):
            wasserstein_procrustes(z1, z2, Marginals.uniform(5, 6), 1.0, 0, p0=p0)

    def test_objective_trace_non_increasing(self):
        # one round at a time, each started from the previous coupling and
        # potentials, is the same computation as 12 rounds in one call
        rng = np.random.default_rng(10)
        z1 = rng.standard_normal((25, 3))
        z2 = rng.standard_normal((20, 3))
        m = Marginals.uniform(25, 20)
        eps = 0.5
        p, potentials, trace = None, None, []
        for _ in range(12):
            p, o, info = wasserstein_procrustes(z1, z2, m, eps, 1, p0=p,
                                                warm_start=potentials, log=True)
            potentials = info["potentials"]
            trace.append(float(np.sum(p * cost_matrix(z1 @ o, z2))) - eps * entropy(p))
        assert np.all(np.diff(trace) <= 1e-8)
        p_all, o_all = wasserstein_procrustes(z1, z2, m, eps, 12)
        assert np.array_equal(p, p_all)
        assert np.array_equal(o, o_all)


class TestEntropicGW:
    def test_self_matching_identity(self):
        rng = np.random.default_rng(12)
        d = pairwise_euclidean(rng.standard_normal((20, 3)))
        m = Marginals.uniform(20, 20)
        p = entropic_gw(d, d, m, 0.01 * 2 * float(np.mean(d**2)))
        assert np.array_equal(match_argmax(p), np.arange(20))

    def test_planted_permutation(self):
        z1, z2, perm = planted_pair(30, 3, seed=13, noise=0.0)
        d1, d2 = pairwise_euclidean(z1), pairwise_euclidean(z2)
        m = Marginals.uniform(30, 30)
        p = entropic_gw(d1, d2, m, 0.01 * (np.mean(d1**2) + np.mean(d2**2)))
        assert np.mean(match_argmax(p) == perm) >= 0.90

    def test_single_point(self):
        p = entropic_gw(np.zeros((1, 1)), np.zeros((1, 1)), Marginals.uniform(1, 1), 0.1)
        assert np.allclose(p, [[1.0]])

    def test_marginals_respected(self):
        rng = np.random.default_rng(14)
        d1 = pairwise_euclidean(rng.standard_normal((12, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((9, 2)))
        m = Marginals.uniform(12, 9)
        p = entropic_gw(d1, d2, m, 0.05)
        assert np.abs(p.sum(axis=1) - m.a).sum() + np.abs(p.sum(axis=0) - m.b).sum() <= 1e-5
