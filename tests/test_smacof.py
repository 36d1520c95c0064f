import warnings

import numpy as np
import pytest

from jointscale import (
    FULL_MATRIX_FACTOR,
    DegenerateWeights,
    InvalidInput,
    NumericalFailure,
    assemble_joint,
    guttman_transform,
    joint_objective,
    joint_smacof,
    pairwise_euclidean,
    power_weight_matrix,
    random_embedding,
    smacof,
    stress,
    uniform_weight_matrix,
    v_matrix_pinv,
)
from jointscale.smacof import _SYM_BLOCK


def brute_force_stress(z, d, w):
    total = 0.0
    n = z.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            total += w[i, j] * (d[i, j] - np.linalg.norm(z[i] - z[j])) ** 2
    return total


def random_instance(rng, n, dim):
    z = rng.standard_normal((n, dim))
    d = pairwise_euclidean(rng.standard_normal((n, dim)))
    w = rng.random((n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return z, d, w


class TestStress:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((8, 3))
        d = pairwise_euclidean(z)
        assert stress(z, d, uniform_weight_matrix(8)) <= 1e-20

    def test_two_points_at_origin(self):
        z = np.zeros((2, 1))
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert stress(z, d, w) == 1.0

    def test_matches_double_loop(self):
        z, d, w = random_instance(np.random.default_rng(1), 6, 2)
        assert abs(stress(z, d, w) - brute_force_stress(z, d, w)) < 1e-12

    def test_translation_invariance(self):
        z, d, w = random_instance(np.random.default_rng(2), 7, 3)
        shift = np.array([1.5, -2.0, 0.25])
        assert abs(stress(z + shift, d, w) - stress(z, d, w)) < 1e-10

    def test_rotation_invariance(self):
        z, d, w = random_instance(np.random.default_rng(3), 7, 3)
        q, r = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        assert abs(stress(z @ q, d, w) - stress(z, d, w)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            stress(np.zeros((3, 2)), np.zeros((4, 4)), np.zeros((4, 4)))


class TestVMatrixPinv:
    def test_uniform_weights_reduce_to_scaled_b(self):
        # Laplacian-like B: symmetric with zero row sums, as produced by the
        # majorization step
        n = 6
        w = np.ones((n, n)) - np.eye(n)
        vp = v_matrix_pinv(w)
        rng = np.random.default_rng(5)
        b = rng.standard_normal((n, n))
        b = 0.5 * (b + b.T)
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        z = rng.standard_normal((n, 2))
        assert np.allclose(vp @ (b @ z), (b @ z) / n, atol=1e-10)

    def test_two_point_hand_computation(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        v = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(v_matrix_pinv(w), v / 4)

    def test_pseudo_inverse_axioms(self):
        rng = np.random.default_rng(6)
        w = rng.random((9, 9))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        vp = v_matrix_pinv(w)
        v = -0.5 * (w + w.T)
        np.fill_diagonal(v, 0.0)
        np.fill_diagonal(v, -v.sum(axis=1))
        assert np.abs(vp @ v @ vp - vp).max() < 1e-8
        assert np.abs(v @ vp @ v - v).max() < 1e-8

    def test_matches_numpy_pinv(self):
        rng = np.random.default_rng(7)
        w = rng.random((8, 8))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        # plus 1/d^4 weights spanning several orders of magnitude, and n = 1
        wide = power_weight_matrix(pairwise_euclidean(rng.standard_normal((40, 3))), 4.0)
        # more than two row blocks of the in-place symmetrization, the last partial
        big = rng.random((2 * _SYM_BLOCK + 45,) * 2)
        big = 0.5 * (big + big.T)
        np.fill_diagonal(big, 0.0)
        for w in (w, wide, big, np.zeros((1, 1))):
            v = -w.copy()
            np.fill_diagonal(v, w.sum(axis=1))
            pinv = v_matrix_pinv(w)
            assert np.array_equal(pinv, pinv.T)
            assert np.abs(pinv - np.linalg.pinv(v)).max() < 1e-8 * max(1.0, np.abs(pinv).max())

    def test_disconnected_weights_rejected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(DegenerateWeights):
            v_matrix_pinv(w)


class TestGuttmanTransform:
    def test_fixed_point_at_exact_centered_config(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((10, 2))
        z -= z.mean(axis=0)
        d = pairwise_euclidean(z)
        w = uniform_weight_matrix(10)
        out = guttman_transform(z, d, w, v_matrix_pinv(w))
        assert np.abs(out - z).max() < 1e-10

    def test_coincident_points_map_to_zero(self):
        z = np.ones((5, 2))
        d = pairwise_euclidean(np.random.default_rng(9).standard_normal((5, 2)))
        w = uniform_weight_matrix(5)
        out = guttman_transform(z, d, w, v_matrix_pinv(w))
        assert np.all(out == 0)

    def test_stress_strictly_decreases_generic(self):
        rng = np.random.default_rng(10)
        z, d, w = rng.standard_normal((12, 2)), None, None
        d = pairwise_euclidean(rng.standard_normal((12, 2)))
        w = uniform_weight_matrix(12)
        out = guttman_transform(z, d, w, v_matrix_pinv(w))
        assert stress(out, d, w) < stress(z, d, w)

    def test_never_increases_stress(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            z, d, w = random_instance(rng, 8, 2)
            out = guttman_transform(z, d, w, v_matrix_pinv(w))
            assert stress(out, d, w) <= stress(z, d, w) + 1e-12

    def test_centered_output_with_uniform_weights(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((9, 3)) + 5.0
        d = pairwise_euclidean(rng.standard_normal((9, 3)))
        w = uniform_weight_matrix(9)
        out = guttman_transform(z, d, w, v_matrix_pinv(w))
        assert np.abs(out.mean(axis=0)).max() <= 1e-10


def dense_b_times(z, d, w):
    """B(Z) Z from the explicit matrix: b_ij = -sym(w * d)_ij / ||z_i - z_j||, 0 where z_i = z_j."""
    n = z.shape[0]
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dist = np.linalg.norm(z[i] - z[j])
            if i != j and dist > 0:
                b[i, j] = -0.5 * (w[i, j] * d[i, j] + w[j, i] * d[j, i]) / dist
        b[i, i] = -b[i].sum()
    return b @ z


class TestStressIdentity:
    """The loop's stress comes from eta_d^2 + eta^2 - 2 rho; ``stress`` is the oracle."""

    def test_matches_stress_along_trajectory(self):
        rng = np.random.default_rng(20)
        n = 13
        d = pairwise_euclidean(rng.standard_normal((n, 3)))
        # nonzero diagonals and asymmetric weights: the stress ignores both
        d[np.diag_indices(n)] = rng.random(n)
        w = rng.random((n, n))
        z0 = rng.standard_normal((n, 2))
        for k in range(1, 16):
            z, report = smacof(d, w, z0, tol=0.0, max_iter=k)
            assert report.iterations_used == k
            for value, at in ((report.per_iteration[0], z0), (report.per_iteration[-1], z)):
                expected = stress(at, d, w)
                assert abs(value - expected) <= 1e-12 * expected

    def test_asymmetric_dissimilarities(self):
        # the identity and the step both use sym(w * d), so they stay exact
        # and the trajectory non-increasing for an asymmetric d
        rng = np.random.default_rng(22)
        n = 11
        d = pairwise_euclidean(rng.standard_normal((n, 3))) * rng.uniform(0.5, 1.5, (n, n))
        w = rng.random((n, n))
        z0 = rng.standard_normal((n, 2))
        vp = v_matrix_pinv(w)
        expected = vp @ dense_b_times(z0, d, w)
        step = guttman_transform(z0, d, w, vp)
        assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()
        for k in (1, 4, 12):
            z, report = smacof(d, w, z0, tol=0.0, max_iter=k)
            for value, at in ((report.per_iteration[0], z0), (report.per_iteration[-1], z)):
                expected = stress(at, d, w)
                assert abs(value - expected) <= 1e-12 * expected
        assert np.all(np.diff(report.per_iteration) <= 1e-12 * report.per_iteration[0])

    def test_coincident_points_give_zero_b(self):
        rng = np.random.default_rng(21)
        n = 9
        d = pairwise_euclidean(rng.standard_normal((n, 2)))
        w = rng.random((n, n))
        z = rng.standard_normal((n, 2))
        z[4] = z[1]
        z[7] = z[1]
        vp = v_matrix_pinv(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = guttman_transform(z, d, w, vp)
            z1, report = smacof(d, w, z, tol=0.0, max_iter=1)
        expected = vp @ dense_b_times(z, d, w)
        assert np.all(np.isfinite(out))
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(z1, out)
        start = stress(z, d, w)
        assert abs(report.per_iteration[0] - start) <= 1e-12 * start


class TestSmacof:
    def test_collinear_points_exact_1d(self):
        # 1-D stress has ordering local minima; this seed starts in the
        # right basin (restarts are the production remedy)
        d = pairwise_euclidean(np.array([[0.0], [1.0], [2.0]]))
        w = uniform_weight_matrix(3)
        z0 = random_embedding(3, 1, seed=4, scale=1.0)
        _, report = smacof(d, w, z0, tol=0.0, max_iter=500)
        assert 0.0 <= report.per_iteration[-1] <= 1e-10

    def test_realizable_instance_relative_stress(self):
        rng = np.random.default_rng(13)
        d = pairwise_euclidean(rng.standard_normal((50, 2)))
        w = uniform_weight_matrix(50)
        z0 = random_embedding(50, 2, seed=3, scale=float(d.mean()))
        _, report = smacof(d, w, z0, tol=0.0, max_iter=2000)
        iu = np.triu_indices(50, k=1)
        denom = float(np.sum(w[iu] * d[iu] ** 2))
        assert report.per_iteration[-1] / denom <= 1e-8
        # the identity's roundoff near zero stress is clamped, never negative
        assert min(report.per_iteration) >= 0.0

    def test_exact_start_converges_fast(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((10, 2))
        d = pairwise_euclidean(z)
        w = uniform_weight_matrix(10)
        _, report = smacof(d, w, z, tol=1e-9, max_iter=100)
        assert report.converged
        assert report.iterations_used <= 2

    def test_exact_start_reports_nonnegative_stress(self):
        # on these seeds the identity's roundoff puts the start stress just below 0
        for seed in (1, 2, 6):
            x = np.random.default_rng(seed).standard_normal((30, 2))
            d = pairwise_euclidean(x)
            w = uniform_weight_matrix(30)
            _, report = smacof(d, w, x, tol=0.0, max_iter=5)
            iu = np.triu_indices(30, k=1)
            floor = 1e-13 * float(np.sum(w[iu] * d[iu] ** 2))
            assert all(0.0 <= v <= floor for v in report.per_iteration)

    def test_monotone_trajectory(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            z0, d, w = random_instance(rng, 10, 2)
            _, report = smacof(d, w, z0, tol=1e-12, max_iter=60)
            drops = np.diff(report.per_iteration)
            assert drops.max(initial=-np.inf) <= 1e-10

    def test_invalid_parameters(self):
        d = np.zeros((2, 2))
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInput):
            smacof(d, w, np.zeros((2, 1)), tol=-1.0, max_iter=5)
        with pytest.raises(InvalidInput):
            smacof(d, w, np.zeros((2, 1)), tol=0.0, max_iter=0)


class TestAssembleJoint:
    def test_lambda_zero_decouples(self):
        rng = np.random.default_rng(16)
        z1, d1, w1 = random_instance(rng, 6, 2)
        z2, d2, w2 = random_instance(rng, 4, 2)
        p = np.full((6, 4), 1.0 / 24)
        blocks = assemble_joint(d1, d2, w1, w2, p, 0.0, z1, z2)
        joint = stress(blocks.z_tilde, blocks.d_tilde, blocks.w_tilde)
        assert abs(joint - stress(z1, d1, w1) - stress(z2, d2, w2)) < 1e-12

    def test_single_pair_cross_term(self):
        z1 = np.array([[1.0, 2.0]])
        z2 = np.array([[4.0, 6.0]])
        d0 = np.zeros((1, 1))
        blocks = assemble_joint(d0, d0, d0, d0, np.array([[1.0]]), 1.0, z1, z2)
        joint = stress(blocks.z_tilde, blocks.d_tilde, blocks.w_tilde)
        assert joint == pytest.approx(np.sum((z1 - z2) ** 2))

    def test_block_structure(self):
        rng = np.random.default_rng(17)
        z1, d1, w1 = random_instance(rng, 5, 3)
        z2, d2, w2 = random_instance(rng, 3, 3)
        p = rng.random((5, 3))
        blocks = assemble_joint(d1, d2, w1, w2, p, 0.7, z1, z2)
        assert np.all(blocks.d_tilde[:5, 5:] == 0)
        assert np.array_equal(blocks.w_tilde[:5, 5:], 0.7 * p)
        assert np.array_equal(blocks.w_tilde[5:, :5], 0.7 * p.T)
        assert np.array_equal(blocks.z_tilde, np.vstack([z1, z2]))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(18)
        z1, d1, w1 = random_instance(rng, 5, 2)
        z2, d2, w2 = random_instance(rng, 3, 2)
        with pytest.raises(InvalidInput):
            assemble_joint(d1, d2, w1, w2, np.zeros((4, 3)), 1.0, z1, z2)

    def test_full_matrix_factor_is_two(self):
        assert FULL_MATRIX_FACTOR == 2.0


def coupled_instance(seed, n1=23, n2=17, dim=2):
    """Unequal sizes, 1/d^4 weights and a non-uniform coupling."""
    rng = np.random.default_rng(seed)
    d1 = pairwise_euclidean(rng.standard_normal((n1, 3)))
    d2 = pairwise_euclidean(rng.standard_normal((n2, 3)))
    w1, w2 = power_weight_matrix(d1, 4.0), power_weight_matrix(d2, 4.0)
    p = rng.random((n1, n2)) ** 3
    p /= p.sum()
    z1 = rng.standard_normal((n1, dim))
    z2 = rng.standard_normal((n2, dim))
    return d1, d2, w1, w2, p, z1, z2


class TestJointSmacof:
    RTOL = 1e-9

    @pytest.mark.parametrize("lam", [0.05, 0.7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trajectory_never_increases(self, lam, seed):
        d1, d2, w1, w2, p, z1, z2 = coupled_instance(seed)
        _, _, report = joint_smacof(d1, d2, w1, w2, p, lam, z1, z2, 0.0, 80)
        drops = np.diff(report.per_iteration)
        assert drops.max() <= 1e-12 * report.per_iteration[0]

    @pytest.mark.parametrize("lam", [0.05, 0.7])
    # the first run stops at its budget, the second converges after ~110 steps
    @pytest.mark.parametrize("seed,rtol", [(3, 1e-9), (8, 1e-6)])
    def test_matches_dense_block_instance(self, lam, seed, rtol):
        d1, d2, w1, w2, p, z1, z2 = coupled_instance(seed)
        blocks = assemble_joint(d1, d2, w1, w2, p, lam, z1, z2)
        tol = rtol * stress(blocks.z_tilde, blocks.d_tilde, blocks.w_tilde)
        z_dense, dense = smacof(blocks.d_tilde, blocks.w_tilde, blocks.z_tilde,
                                tol=tol, max_iter=300)
        s1, s2, report = joint_smacof(d1, d2, w1, w2, p, lam, z1, z2, rtol, 300)
        assert report.iterations_used == dense.iterations_used
        assert report.converged == dense.converged
        expected = np.array(dense.per_iteration)
        assert np.abs(np.array(report.per_iteration) - expected).max() <= 1e-10 * expected.min()
        z = np.vstack([s1, s2])
        assert np.abs(z - z_dense).max() <= 1e-9 * np.abs(z_dense).max()

    @pytest.mark.parametrize("lam", [0.05, 0.7])
    def test_last_value_is_joint_objective(self, lam):
        d1, d2, w1, w2, p, z1, z2 = coupled_instance(5)
        # short budgets check the start and early steps, 40 a converged run
        for max_iter in (1, 2, 3, 5, 8, 40):
            s1, s2, report = joint_smacof(d1, d2, w1, w2, p, lam, z1, z2, self.RTOL, max_iter)
            for value, (a, b) in ((report.per_iteration[0], (z1, z2)),
                                  (report.per_iteration[-1], (s1, s2))):
                direct = joint_objective(a, b, d1, d2, w1, w2, p, np.eye(2), lam)
                assert abs(FULL_MATRIX_FACTOR * value - direct) <= 1e-12 * direct

    def test_invalid_parameters(self):
        d1, d2, w1, w2, p, z1, z2 = coupled_instance(6, n1=5, n2=4)
        with pytest.raises(InvalidInput):
            joint_smacof(d1, d2, w1, w2, p, 0.0, z1, z2)
        with pytest.raises(InvalidInput):
            joint_smacof(d1, d2, w1, w2, p.T, 0.5, z1, z2)
        with pytest.raises(InvalidInput):
            joint_smacof(d1, d2, w1, w2, np.zeros_like(p), 0.5, z1, z2)
        with pytest.raises(InvalidInput):
            joint_smacof(d1, d2, w1, w2, p, 0.5, z1, z2[:, :1])
        with pytest.raises(InvalidInput):
            joint_smacof(d1, d2, w1, w2, p, 0.5, z1, z2, max_iter=0)

    def test_indefinite_laplacian_raises(self):
        # negative weights make V~ + J/n indefinite: a typed error, not a result
        d1, d2, w1, w2, p, z1, z2 = coupled_instance(7, n1=6, n2=5)
        with pytest.raises(NumericalFailure):
            joint_smacof(d1, d2, -w1, w2, p, 0.5, z1, z2)
