import importlib
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from jointscale import (
    FULL_MATRIX_FACTOR,
    DegenerateWeights,
    InvalidInput,
    NumericalFailure,
    assemble_joint,
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

smacof_module = importlib.import_module("jointscale.smacof")


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


def guttman_step(z, d, w):
    """One majorization step V^+ B(Z) Z: a one-step ``smacof`` run."""
    return smacof(d, w, z, rtol=0.0, max_iter=1)[0]


class TestGuttmanTransform:
    def test_fixed_point_at_exact_centered_config(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((10, 2))
        z -= z.mean(axis=0)
        d = pairwise_euclidean(z)
        w = uniform_weight_matrix(10)
        out = guttman_step(z, d, w)
        assert np.abs(out - z).max() < 1e-10

    def test_coincident_points_map_to_zero(self):
        z = np.ones((5, 2))
        d = pairwise_euclidean(np.random.default_rng(9).standard_normal((5, 2)))
        w = uniform_weight_matrix(5)
        out = guttman_step(z, d, w)
        assert np.all(out == 0)

    def test_stress_strictly_decreases_generic(self):
        rng = np.random.default_rng(10)
        z, d, w = rng.standard_normal((12, 2)), None, None
        d = pairwise_euclidean(rng.standard_normal((12, 2)))
        w = uniform_weight_matrix(12)
        out = guttman_step(z, d, w)
        assert stress(out, d, w) < stress(z, d, w)

    def test_never_increases_stress(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            z, d, w = random_instance(rng, 8, 2)
            out = guttman_step(z, d, w)
            assert stress(out, d, w) <= stress(z, d, w) + 1e-12

    def test_centered_output_with_uniform_weights(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((9, 3)) + 5.0
        d = pairwise_euclidean(rng.standard_normal((9, 3)))
        w = uniform_weight_matrix(9)
        out = guttman_step(z, d, w)
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
            z, report = smacof(d, w, z0, rtol=0.0, max_iter=k)
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
        expected = v_matrix_pinv(w) @ dense_b_times(z0, d, w)
        step = guttman_step(z0, d, w)
        assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()
        for k in (1, 4, 12):
            z, report = smacof(d, w, z0, rtol=0.0, max_iter=k)
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, report = smacof(d, w, z, rtol=0.0, max_iter=1)
        expected = v_matrix_pinv(w) @ dense_b_times(z, d, w)
        assert np.all(np.isfinite(out))
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
        start = stress(z, d, w)
        assert abs(report.per_iteration[0] - start) <= 1e-12 * start


class TestSmacof:
    def test_collinear_points_exact_1d(self):
        # 1-D stress has ordering local minima; this seed starts in the
        # right basin (restarts are the production remedy)
        d = pairwise_euclidean(np.array([[0.0], [1.0], [2.0]]))
        w = uniform_weight_matrix(3)
        z0 = random_embedding(3, 1, seed=4, scale=1.0)
        _, report = smacof(d, w, z0, rtol=0.0, max_iter=500)
        assert 0.0 <= report.per_iteration[-1] <= 1e-10

    def test_realizable_instance_relative_stress(self):
        rng = np.random.default_rng(13)
        d = pairwise_euclidean(rng.standard_normal((50, 2)))
        w = uniform_weight_matrix(50)
        z0 = random_embedding(50, 2, seed=3, scale=float(d.mean()))
        _, report = smacof(d, w, z0, rtol=0.0, max_iter=2000)
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
        _, report = smacof(d, w, z, rtol=1e-9, max_iter=100)
        assert report.converged
        assert report.iterations_used <= 2

    def test_exact_start_reports_nonnegative_stress(self):
        # on these seeds the identity's roundoff puts the start stress just below 0
        for seed in (1, 2, 6):
            x = np.random.default_rng(seed).standard_normal((30, 2))
            d = pairwise_euclidean(x)
            w = uniform_weight_matrix(30)
            _, report = smacof(d, w, x, rtol=0.0, max_iter=5)
            iu = np.triu_indices(30, k=1)
            floor = 1e-13 * float(np.sum(w[iu] * d[iu] ** 2))
            assert all(0.0 <= v <= floor for v in report.per_iteration)

    def test_monotone_trajectory(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            z0, d, w = random_instance(rng, 10, 2)
            _, report = smacof(d, w, z0, rtol=1e-12, max_iter=60)
            drops = np.diff(report.per_iteration)
            assert drops.max(initial=-np.inf) <= 1e-10

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_default_stop_is_scale_free(self, c):
        # the stop is relative to the start stress, so scaling d and z0 by c
        # scales the run by c and leaves its step count alone
        rng = np.random.default_rng(23)
        d = pairwise_euclidean(rng.standard_normal((20, 3)))
        w = uniform_weight_matrix(20)
        z0 = rng.standard_normal((20, 2))
        z, report = smacof(d, w, z0)
        scaled, scaled_report = smacof(c * d, w, c * z0)
        assert report.converged
        assert scaled_report.iterations_used == report.iterations_used
        assert np.abs(scaled - c * z).max() <= 1e-9 * c * np.abs(z).max()

    def test_invalid_parameters(self):
        d = np.zeros((2, 2))
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInput):
            smacof(d, w, np.zeros((2, 1)), rtol=-1.0, max_iter=5)
        with pytest.raises(InvalidInput):
            smacof(d, w, np.zeros((2, 1)), rtol=0.0, max_iter=0)


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


def uniform_instance(seed, n1=23, n2=17, c=None, coupling="random"):
    """``coupled_instance`` with one weight per dataset: ``c``, or the CLI's 1/n^2 when None.

    A "permutation" coupling puts almost all mass on (i, i mod n2), as the
    couplings of the last outer iterations do.
    """
    d1, d2, _, _, p, z1, z2 = coupled_instance(seed, n1, n2)
    w1, w2 = (np.full((n, n), 1.0 / n**2 if c is None else c) for n in (n1, n2))
    for w in (w1, w2):
        np.fill_diagonal(w, 0.0)
    if coupling == "permutation":
        p = np.full((n1, n2), 1e-10)
        p[np.arange(n1), np.arange(n1) % n2] = 1.0
        p /= p.sum()
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
        z_dense, dense = smacof(blocks.d_tilde, blocks.w_tilde, blocks.z_tilde,
                                rtol=rtol, max_iter=300)
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
        # negative weights would make V~ + J/n indefinite: they are rejected
        # as input, naming the matrix, before any factorization
        d1, d2, w1, w2, p, z1, z2 = coupled_instance(7, n1=6, n2=5)
        with pytest.raises(InvalidInput, match="first weight matrix"):
            joint_smacof(d1, d2, -w1, w2, p, 0.5, z1, z2)


@pytest.fixture
def split_at(monkeypatch):
    """Set the row count from which a Guttman step runs as two row blocks."""
    def set_rows(rows):
        monkeypatch.setattr(smacof_module, "SPLIT_ROWS", rows)
    return set_rows


# distance chunks of one row, of two or three rows, and the default
CHUNKS = [1, 500, smacof_module.CHUNK_BYTES]
# more bytes than any distance matrix of these tests: one chunk per block
ONE_CHUNK = 1 << 40


UNSPLIT = 10**9


class TestSplitStep:
    """Chunked steps, in one block and in two, against one block in one chunk."""

    @staticmethod
    def close(split, whole, rtol=1e-12):
        return np.abs(split - whole).max() <= rtol * np.abs(whole).max()

    @staticmethod
    def variants(split_at, monkeypatch, chunk, run):
        """``run()`` as one block in one chunk, then in ``chunk`` bytes as one block and as two."""
        results = []
        for rows, size in ((UNSPLIT, ONE_CHUNK), (UNSPLIT, chunk), (2, chunk)):
            split_at(rows)
            monkeypatch.setattr(smacof_module, "CHUNK_BYTES", size)
            results.append(run())
        return results

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n,coincide", [
        (31, ()),
        # three coincident points inside the first block, two across blocks
        (21, ((1, 3), (1, 7), (2, 15))),
        (smacof_module.SPLIT_ROWS + 1, ()),
    ])
    def test_smacof_steps_match_unsplit(self, split_at, monkeypatch, n, coincide, chunk):
        rng = np.random.default_rng(n)
        z0, d, w = random_instance(rng, n, 2)
        for i, j in coincide:
            z0[j] = z0[i]
        z = z0
        for _ in range(4 if n > 100 else 12):
            (whole, r_whole), *runs = self.variants(
                split_at, monkeypatch, chunk, lambda: smacof(d, w, z, rtol=0.0, max_iter=1))
            for step, report in runs:
                assert np.all(np.isfinite(step))
                assert self.close(step, whole)
                assert self.close(np.array(report.per_iteration), np.array(r_whole.per_iteration))
            z = whole
        steps = 40 if n > 100 else 300
        whole, *runs = self.variants(split_at, monkeypatch, chunk,
                                     lambda: smacof(d, w, z0, max_iter=steps)[1])
        for report in runs:
            assert report.iterations_used == whole.iterations_used
            assert report.converged == whole.converged
            assert np.all(np.diff(report.per_iteration) <= 1e-12 * report.per_iteration[0])

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("lam", [0.05, 0.7])
    @pytest.mark.parametrize("coincide", [False, True])
    def test_joint_steps_match_unsplit(self, split_at, monkeypatch, lam, coincide, chunk):
        # n1 = 23 and n2 = 17: odd and unequal blocks
        d1, d2, w1, w2, p, z1, z2 = coupled_instance(9)
        if coincide:
            z1[[4, 9]] = z1[2]
        for _ in range(10):
            (a1, a2, r_whole), *runs = self.variants(
                split_at, monkeypatch, chunk,
                lambda: joint_smacof(d1, d2, w1, w2, p, lam, z1, z2, 0.0, 1))
            whole = np.vstack([a1, a2])
            for s1, s2, report in runs:
                step = np.vstack([s1, s2])
                assert np.all(np.isfinite(step))
                assert self.close(step, whole)
                assert self.close(np.array(report.per_iteration), np.array(r_whole.per_iteration))
            z1, z2 = a1, a2
        whole, *runs = self.variants(
            split_at, monkeypatch, chunk,
            lambda: joint_smacof(d1, d2, w1, w2, p, lam, z1, z2, 1e-9, 300)[2])
        for report in runs:
            assert report.iterations_used == whole.iterations_used
            assert report.converged == whole.converged
            assert np.all(np.diff(report.per_iteration) <= 1e-12 * report.per_iteration[0])

    def test_helper_gives_the_serial_bits(self, split_at, monkeypatch):
        split_at(2)
        monkeypatch.setattr(smacof_module, "CHUNK_BYTES", 500)
        d1, d2, w1, w2, p, z1, z2 = coupled_instance(10)
        # one weight per dataset: centred steps, and Schur solves eliminating
        # the first dataset (n1 > n2) or the second
        u1, u2, uw1, uw2, up, uz1, uz2 = uniform_instance(10)
        runs = {
            "smacof": lambda helper: smacof(d1, w1, z1, 0.0, 20, _helper=helper),
            "joint": lambda helper: joint_smacof(d1, d2, w1, w2, p, 0.3, z1, z2, 0.0, 20,
                                                 _helper=helper),
            "uniform smacof": lambda helper: smacof(u1, uw1, uz1, 0.0, 20, _helper=helper),
            "uniform joint": lambda helper: joint_smacof(u1, u2, uw1, uw2, up, 0.3, uz1, uz2,
                                                         0.0, 20, _helper=helper),
            "uniform joint, n1 < n2": lambda helper: joint_smacof(
                u2, u1, uw2, uw1, up.T, 0.3, uz2, uz1, 0.0, 20, _helper=helper),
        }
        for name, run in runs.items():
            serial = run(None)
            # frequent thread switches, so a block writing outside its rows shows
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=1) as helper:
                    helped = run(helper)
            finally:
                sys.setswitchinterval(interval)
            for a, b in zip(serial[:-1], helped[:-1]):
                assert np.array_equal(a, b), name
            assert serial[-1].per_iteration == helped[-1].per_iteration, name


class TestUniformWeights:
    """One weight per dataset: closed-form V^+ and the Schur solve, against the Cholesky path.

    The dense ``assemble_joint`` instance has zero and lam * P cross
    weights, so ``smacof`` on it takes the general path and is the oracle.
    """

    @pytest.mark.parametrize("coupling", ["random", "permutation"])
    # the first step of a lambda anneal over 30 outer iterations, and two more
    @pytest.mark.parametrize("lam", [0.1 / 30, 0.1, 0.7])
    @pytest.mark.parametrize("c", [1.0, None])
    # the larger dataset first and second; steps in one block and in two
    @pytest.mark.parametrize("n1,n2", [(23, 17), (17, 23)])
    @pytest.mark.parametrize("rows", [UNSPLIT, 2])
    def test_steps_match_dense_oracle(self, split_at, rows, n1, n2, c, lam, coupling):
        split_at(rows)
        d1, d2, w1, w2, p, z1, z2 = uniform_instance(4, n1, n2, c, coupling)
        for _ in range(5):
            blocks = assemble_joint(d1, d2, w1, w2, p, lam, z1, z2)
            z_dense, dense = smacof(blocks.d_tilde, blocks.w_tilde, blocks.z_tilde,
                                    rtol=0.0, max_iter=1)
            s1, s2, report = joint_smacof(d1, d2, w1, w2, p, lam, z1, z2, 0.0, 1)
            z = np.vstack([s1, s2])
            assert np.abs(z - z_dense).max() <= 1e-10 * np.abs(z_dense).max()
            expected = np.array(dense.per_iteration)
            assert np.abs(np.array(report.per_iteration) - expected).max() <= 1e-12 * expected.min()
            z1, z2 = s1, s2

    @pytest.mark.parametrize("lam", [0.05, 0.7])
    @pytest.mark.parametrize("c", [1.0, None])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_trajectory_never_increases(self, seed, c, lam):
        d1, d2, w1, w2, p, z1, z2 = uniform_instance(seed, c=c)
        _, _, report = joint_smacof(d1, d2, w1, w2, p, lam, z1, z2, 0.0, 80)
        assert np.diff(report.per_iteration).max() <= 1e-12 * report.per_iteration[0]
        _, report = smacof(d1, w1, z1, 0.0, 80)
        assert np.diff(report.per_iteration).max() <= 1e-12 * report.per_iteration[0]

    @pytest.mark.parametrize("lam", [0.05, 0.7])
    @pytest.mark.parametrize("c", [1.0, None])
    def test_last_value_is_joint_objective(self, c, lam):
        d1, d2, w1, w2, p, z1, z2 = uniform_instance(5, c=c)
        for max_iter in (1, 2, 5, 40):
            s1, s2, report = joint_smacof(d1, d2, w1, w2, p, lam, z1, z2, 1e-9, max_iter)
            for value, (a, b) in ((report.per_iteration[0], (z1, z2)),
                                  (report.per_iteration[-1], (s1, s2))):
                direct = joint_objective(a, b, d1, d2, w1, w2, p, np.eye(2), lam)
                assert abs(FULL_MATRIX_FACTOR * value - direct) <= 1e-12 * direct

    @pytest.mark.parametrize("n", [2, 31, 40])
    @pytest.mark.parametrize("c", [1.0, None])
    def test_smacof_closed_form_matches_product(self, split_at, n, c):
        # n = 40 runs as two row blocks
        split_at(35)
        rng = np.random.default_rng(n)
        d = pairwise_euclidean(rng.standard_normal((n, 3)))
        w = np.full((n, n), 1.0 / n**2 if c is None else c)
        np.fill_diagonal(w, 0.0)
        z0 = rng.standard_normal((n, 2))
        closed, r_closed = smacof(d, w, z0, 0.0, 20)
        # the dense oracle: 20 products with the explicit V^+
        product, expected = z0, [stress(z0, d, w)]
        for _ in range(20):
            product = v_matrix_pinv(w) @ dense_b_times(product, d, w)
            expected.append(stress(product, d, w))
        assert np.abs(closed - product).max() <= 1e-12 * np.abs(product).max()
        expected = np.array(expected)
        assert np.abs(np.array(r_closed.per_iteration) - expected).max() <= 1e-12 * expected[0]
        assert np.abs(closed.mean(axis=0)).max() <= 1e-12 * np.abs(closed).max()

    def test_two_points_fit_in_one_step(self):
        d = np.array([[0.0, 3.0], [3.0, 0.0]])
        w = np.array([[0.0, 0.25], [0.25, 0.0]])
        z, report = smacof(d, w, np.array([[0.0, 1.0], [2.0, 0.0]]), 0.0, 1)
        assert abs(np.linalg.norm(z[0] - z[1]) - 3.0) <= 1e-14
        assert report.per_iteration[-1] <= 1e-14

    def test_asymmetric_dissimilarities(self):
        # one weight, d not symmetric: B(Z) is built from sym(d)
        rng = np.random.default_rng(22)
        n = 11
        d = pairwise_euclidean(rng.standard_normal((n, 3))) * rng.uniform(0.5, 1.5, (n, n))
        w = uniform_weight_matrix(n)
        z0 = rng.standard_normal((n, 2))
        expected = v_matrix_pinv(w) @ dense_b_times(z0, d, w)
        step = smacof(d, w, z0, rtol=0.0, max_iter=1)[0]
        assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()
        z, report = smacof(d, w, z0, rtol=0.0, max_iter=12)
        for value, at in ((report.per_iteration[0], z0), (report.per_iteration[-1], z)):
            assert abs(value - stress(at, d, w)) <= 1e-12 * stress(at, d, w)

    def test_zero_weights_are_degenerate(self):
        d = pairwise_euclidean(np.random.default_rng(3).standard_normal((5, 2)))
        with pytest.raises(DegenerateWeights):
            smacof(d, np.zeros((5, 5)), np.ones((5, 2)))

    def test_invalid_weight_values_rejected(self):
        d1, d2, w1, w2, p, z1, z2 = uniform_instance(6, n1=6, n2=5)
        bad = w2.copy()
        bad[1, 3] = np.inf
        with pytest.raises(InvalidInput, match="second weight matrix"):
            joint_smacof(d1, d2, w1, bad, p, 0.5, z1, z2)
        bad = w1.copy()
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInput, match="weight matrix"):
            smacof(d1, bad, z1)

    def test_no_weight_or_block_sized_arrays(self, monkeypatch):
        # the largest array of a uniform joint pass is the factor of the
        # smaller dataset's Schur complement: no V~, no array made from w,
        # and the second, larger dataset is the one eliminated
        monkeypatch.setattr(smacof_module, "CHUNK_BYTES", 1 << 14)
        rng = np.random.default_rng(7)
        n1, n2 = 200, 400
        d1 = pairwise_euclidean(rng.standard_normal((n1, 3)))
        d2 = pairwise_euclidean(rng.standard_normal((n2, 3)))
        w1, w2 = uniform_weight_matrix(n1), uniform_weight_matrix(n2)
        p = rng.random((n1, n2))
        p /= p.sum()
        z1, z2 = rng.standard_normal((n1, 2)), rng.standard_normal((n2, 2))
        tracemalloc.start()
        try:
            smacof(d2, w2, z2, 0.0, 3)
            smacof_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            joint_smacof(d1, d2, w1, w2, p, 0.1, z1, z2, 0.0, 3)
            joint_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert smacof_peak < 0.5 * 8 * n2 * n2
        assert joint_peak < 8 * (n1 * n1 + 0.5 * n2 * n2)


class TestRunBlocks:
    """An exception from either block is raised only once the other is done."""

    @pytest.mark.parametrize("failing", [0, 1])
    def test_exception_waits_for_the_other_block(self, failing):
        done = []

        def fail():
            raise NumericalFailure("planted")

        def slow():
            time.sleep(0.2)
            done.append(threading.get_ident())

        tasks = [fail, slow] if failing == 0 else [slow, fail]
        with ThreadPoolExecutor(max_workers=1) as helper:
            with pytest.raises(NumericalFailure, match="planted"):
                smacof_module._run_blocks(helper, tasks)
            assert len(done) == 1

    def test_second_block_runs_on_the_helper(self):
        with ThreadPoolExecutor(max_workers=1) as helper:
            first, second = smacof_module._run_blocks(helper, [threading.get_ident] * 2)
        assert first == threading.get_ident() != second
