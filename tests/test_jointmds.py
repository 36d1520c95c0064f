import numpy as np
import pytest

from jointscale import (
    FULL_MATRIX_FACTOR,
    InvalidInput,
    JointConfig,
    Marginals,
    assemble_joint,
    cost_matrix,
    foscttm,
    joint_objective,
    match_argmax,
    pairwise_euclidean,
    solve,
    stress,
    uniform_weight_matrix,
    wasserstein_procrustes,
)
from jointscale import jointmds


def random_instance(rng, n1, n2, dim):
    d1 = pairwise_euclidean(rng.standard_normal((n1, dim)))
    d2 = pairwise_euclidean(rng.standard_normal((n2, dim)))
    w1 = uniform_weight_matrix(n1)
    w2 = uniform_weight_matrix(n2)
    z1 = rng.standard_normal((n1, dim))
    z2 = rng.standard_normal((n2, dim))
    p = rng.random((n1, n2))
    p /= p.sum()
    return d1, d2, w1, w2, z1, z2, p


class TestJointObjective:
    def test_lambda_zero_is_sum_of_stresses(self):
        rng = np.random.default_rng(0)
        d1, d2, w1, w2, z1, z2, p = random_instance(rng, 8, 6, 2)
        value = joint_objective(z1, z2, d1, d2, w1, w2, p, np.eye(2), 0.0)
        expected = FULL_MATRIX_FACTOR * (stress(z1, d1, w1) + stress(z2, d2, w2))
        assert abs(value - expected) < 1e-12

    def test_perfect_instance_is_zero(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 2))
        d = pairwise_euclidean(z)
        w = uniform_weight_matrix(6)
        p = np.eye(6) / 6
        assert joint_objective(z, z, d, d, w, w, p, np.eye(2), 0.5) <= 1e-20

    def test_equals_block_stress(self):
        # cross-check of the two formulations, rotation absorbed into z1
        rng = np.random.default_rng(2)
        for _ in range(20):
            d1, d2, w1, w2, z1, z2, p = random_instance(rng, 7, 5, 3)
            lam = float(rng.random()) + 0.1
            direct = joint_objective(z1, z2, d1, d2, w1, w2, p, np.eye(3), lam)
            blocks = assemble_joint(d1, d2, w1, w2, p, lam, z1, z2)
            via_blocks = FULL_MATRIX_FACTOR * stress(
                blocks.z_tilde, blocks.d_tilde, blocks.w_tilde
            )
            assert abs(direct - via_blocks) <= 1e-10

    def test_shape_validation(self):
        rng = np.random.default_rng(3)
        d1, d2, w1, w2, z1, z2, p = random_instance(rng, 5, 4, 2)
        with pytest.raises(InvalidInput):
            joint_objective(z1, z2, d1, d2, w1, w2, p[:3], np.eye(2), 1.0)
        with pytest.raises(InvalidInput):
            joint_objective(z1, z2, d1, d2, w1, w2, p, np.eye(3), 1.0)


class TestMatchArgmax:
    def test_identity_coupling(self):
        assert np.array_equal(match_argmax(np.eye(4) / 4), np.arange(4))

    def test_row_argmax(self):
        p = np.array([[0.1, 0.4], [0.3, 0.2]])
        assert match_argmax(p).tolist() == [1, 0]

    def test_uniform_ties_to_zero(self):
        assert match_argmax(np.full((3, 5), 0.2)).tolist() == [0, 0, 0]


class TestJointConfig:
    def test_defaults_match_documented_values(self):
        cfg = JointConfig()
        assert (cfg.dim, cfg.lam, cfg.epsilon0, cfg.alpha) == (2, 0.1, 1.0, 0.95)
        assert (cfg.outer_iters, cfg.restarts) == (30, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"lam": -0.5},
            {"epsilon0": 0.0},
            {"alpha": 1.5},
            {"outer_iters": 0},
            {"restarts": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidInput):
            JointConfig(**kwargs).validate()


class TestSolve:
    def test_self_alignment(self):
        rng = np.random.default_rng(0)
        d = pairwise_euclidean(rng.standard_normal((50, 2)))
        w = uniform_weight_matrix(50)
        cfg = JointConfig(dim=2, lam=0.1, seed=0, restarts=4)
        res = solve(d, d, w, w, cfg)
        assert foscttm(res.z1, res.z2) <= 0.02
        assert np.mean(match_argmax(res.p) == np.arange(50)) >= 0.90

    def test_lambda_zero_matches_decoupled_replay(self):
        rng = np.random.default_rng(5)
        d1 = pairwise_euclidean(rng.standard_normal((25, 3)))
        d2 = pairwise_euclidean(rng.standard_normal((20, 3)))
        w1, w2 = uniform_weight_matrix(25), uniform_weight_matrix(20)
        cfg = JointConfig(dim=2, lam=0.0, outer_iters=1, restarts=1, seed=9)
        res = solve(d1, d2, w1, w2, cfg)

        z1, z2 = jointmds._initial_embeddings(d1, d2, cfg, 0)
        z1, _ = jointmds._relative_smacof(d1, w1, z1, jointmds.INIT_SMACOF_MAX_ITER)
        z2, _ = jointmds._relative_smacof(d2, w2, z2, jointmds.INIT_SMACOF_MAX_ITER)
        m = Marginals.uniform(25, 20)
        eps = max(cfg.epsilon0,
                  jointmds.EPSILON_FLOOR_FRACTION * float(np.mean(cost_matrix(z1, z2))))
        _, rot = wasserstein_procrustes(z1, z2, m, eps, cfg.inner_wp_iters,
                                        sinkhorn_tol=jointmds.WP_SINKHORN_TOL)
        z1f, _ = jointmds._relative_smacof(d1, w1, z1 @ rot, cfg.inner_smacof_iters)
        z2f, _ = jointmds._relative_smacof(d2, w2, z2, cfg.inner_smacof_iters)
        assert np.array_equal(res.z1, z1f)
        assert np.array_equal(res.z2, z2f)

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(6)
        d = pairwise_euclidean(rng.standard_normal((20, 2)))
        w = uniform_weight_matrix(20)
        cfg = JointConfig(outer_iters=5, restarts=2, seed=3)
        a = solve(d, d, w, w, cfg)
        b = solve(d, d, w, w, cfg)
        assert np.array_equal(a.z1, b.z1)
        assert np.array_equal(a.z2, b.z2)
        assert np.array_equal(a.p, b.p)
        assert a.objective_trace == b.objective_trace

    def test_threads_match_serial(self):
        rng = np.random.default_rng(7)
        d = pairwise_euclidean(rng.standard_normal((18, 2)))
        w = uniform_weight_matrix(18)
        cfg = JointConfig(outer_iters=4, restarts=3, seed=1)
        serial = solve(d, d, w, w, cfg, threads=1)
        threaded = solve(d, d, w, w, cfg, threads=3)
        assert np.array_equal(serial.z1, threaded.z1)
        assert np.array_equal(serial.p, threaded.p)
        assert serial.restart_index == threaded.restart_index

    def test_input_scale_equivariance(self):
        rng = np.random.default_rng(8)
        d1 = pairwise_euclidean(rng.standard_normal((25, 3)))
        d2 = pairwise_euclidean(rng.standard_normal((20, 3)))
        w1, w2 = uniform_weight_matrix(25), uniform_weight_matrix(20)
        c = 2.0
        base = solve(d1, d2, w1, w2,
                     JointConfig(dim=2, outer_iters=6, restarts=2, seed=5, epsilon0=1.0))
        scaled = solve(c * d1, c * d2, w1, w2,
                       JointConfig(dim=2, outer_iters=6, restarts=2, seed=5,
                                   epsilon0=c**2 * 1.0))
        assert np.array_equal(match_argmax(base.p), match_argmax(scaled.p))
        ratio = scaled.z1 / base.z1
        assert np.abs(ratio - c).max() <= 1e-6

    def test_objective_trace_non_increasing_with_slack(self):
        rng = np.random.default_rng(9)
        d = pairwise_euclidean(rng.standard_normal((30, 2)))
        w = uniform_weight_matrix(30)
        cfg = JointConfig(dim=2, lam=0.1, outer_iters=15, restarts=1, seed=2)
        res = solve(d, d, w, w, cfg)
        increases = np.diff(np.array(res.objective_trace))
        assert increases.max(initial=-np.inf) <= 1e-6

    @pytest.mark.parametrize("lam", [0.1, 0.0])
    def test_final_objective_is_joint_objective(self, lam):
        rng = np.random.default_rng(14)
        d1 = pairwise_euclidean(rng.standard_normal((20, 3)))
        d2 = pairwise_euclidean(rng.standard_normal((16, 3)))
        w1, w2 = uniform_weight_matrix(20), uniform_weight_matrix(16)
        res = solve(d1, d2, w1, w2, JointConfig(lam=lam, outer_iters=4, restarts=1))
        direct = joint_objective(res.z1, res.z2, d1, d2, w1, w2, res.p, np.eye(2), lam)
        assert res.final_objective == res.objective_trace[-1]
        assert abs(res.final_objective - direct) <= 1e-12 * direct

    def test_lambda_anneal_without_gw_init(self):
        rng = np.random.default_rng(15)
        d = pairwise_euclidean(rng.standard_normal((15, 2)))
        w = uniform_weight_matrix(15)
        cfg = JointConfig(outer_iters=4, restarts=1, seed=0, gw_init=False)
        constant = solve(d, d, w, w, cfg)
        cfg.lambda_anneal = True
        ramped = solve(d, d, w, w, cfg)
        assert ramped.objective_trace != constant.objective_trace

    def test_marginals_hold_on_final_coupling(self):
        rng = np.random.default_rng(10)
        d1 = pairwise_euclidean(rng.standard_normal((15, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((12, 2)))
        w1, w2 = uniform_weight_matrix(15), uniform_weight_matrix(12)
        res = solve(d1, d2, w1, w2, JointConfig(outer_iters=5, restarts=1, seed=0))
        a = np.full(15, 1 / 15)
        b = np.full(12, 1 / 12)
        violation = (np.abs(res.p.sum(axis=1) - a).sum()
                     + np.abs(res.p.sum(axis=0) - b).sum())
        assert violation <= 10 * jointmds.WP_SINKHORN_TOL

    def test_restart_selection_smallest_objective(self):
        rng = np.random.default_rng(11)
        d = pairwise_euclidean(rng.standard_normal((16, 2)))
        w = uniform_weight_matrix(16)
        cfg = JointConfig(outer_iters=3, restarts=3, seed=4)
        res = solve(d, d, w, w, cfg)
        singles = [
            solve(d, d, w, w, JointConfig(outer_iters=3, restarts=1, seed=4 + r))
            for r in range(3)
        ]
        best = min(range(3), key=lambda r: (singles[r].final_objective, r))
        assert res.restart_index == best
        assert res.final_objective == singles[best].final_objective

    def test_gw_init_runs(self):
        rng = np.random.default_rng(12)
        d = pairwise_euclidean(rng.standard_normal((15, 2)))
        w = uniform_weight_matrix(15)
        cfg = JointConfig(outer_iters=3, restarts=1, seed=0,
                          gw_init=True, lambda_anneal=True)
        res = solve(d, d, w, w, cfg)
        assert res.p.shape == (15, 15)

    def test_invalid_weights_shape(self):
        rng = np.random.default_rng(13)
        d = pairwise_euclidean(rng.standard_normal((10, 2)))
        w = uniform_weight_matrix(9)
        with pytest.raises(InvalidInput):
            solve(d, d, w, w, JointConfig())
