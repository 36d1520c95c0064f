import functools
import importlib
import multiprocessing
import os

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from jointscale import (
    FULL_MATRIX_FACTOR,
    DegenerateWeights,
    InvalidInput,
    JointConfig,
    Marginals,
    NumericalFailure,
    assemble_joint,
    cost_matrix,
    entropic_gw,
    foscttm,
    joint_objective,
    match_argmax,
    pairwise_euclidean,
    power_weight_matrix,
    smacof,
    solve,
    stress,
    uniform_weight_matrix,
    wasserstein_procrustes,
)
from jointscale import _blas, jointmds, transport

smacof_module = importlib.import_module("jointscale.smacof")


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

        # replayed under the one-thread BLAS that solve runs, for the same bits
        with _blas.single_threaded():
            z1, z2 = jointmds._initial_embeddings(d1, d2, cfg, 0)
            z1, _ = smacof(d1, w1, z1, max_iter=jointmds.INIT_SMACOF_MAX_ITER)
            z2, _ = smacof(d2, w2, z2, max_iter=jointmds.INIT_SMACOF_MAX_ITER)
            m = Marginals.uniform(25, 20)
            eps = max(cfg.epsilon0,
                      jointmds.EPSILON_FLOOR_FRACTION * float(np.mean(cost_matrix(z1, z2))))
            _, rot, _ = wasserstein_procrustes(z1, z2, m, eps, cfg.inner_wp_iters,
                                               sinkhorn_tol=jointmds.WP_SINKHORN_TOL)
            z1f, r1 = smacof(d1, w1, z1 @ rot, max_iter=cfg.inner_smacof_iters)
            z2f, r2 = smacof(d2, w2, z2, max_iter=cfg.inner_smacof_iters)
        assert np.array_equal(res.z1, z1f)
        assert np.array_equal(res.z2, z2f)
        # at zero penalty the pass is two runs, both counted
        assert res.joint_guttman_steps == r1.iterations_used + r2.iterations_used
        assert res.joint_smacof_at_budget == (not r1.converged) + (not r2.converged)

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

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_helper_matches_serial_bitwise(self, monkeypatch, lam):
        # every step split in two, so the helper runs a block of each, and
        # the distances go a few rows at a time
        monkeypatch.setattr(smacof_module, "SPLIT_ROWS", 2)
        monkeypatch.setattr(smacof_module, "CHUNK_BYTES", 500)
        rng = np.random.default_rng(11)
        d1 = pairwise_euclidean(rng.standard_normal((21, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((16, 2)))
        w1, w2 = uniform_weight_matrix(21), uniform_weight_matrix(16)
        cfg = JointConfig(outer_iters=4, restarts=1, seed=2, lam=lam)
        serial = solve(d1, d2, w1, w2, cfg, threads=1)
        helped = solve(d1, d2, w1, w2, cfg, threads=2)
        for name in ("z1", "z2", "p"):
            assert np.array_equal(getattr(serial, name), getattr(helped, name)), name
        assert serial.objective_trace == helped.objective_trace

    @pytest.mark.parametrize("threads,restarts,helped", [
        (1, 1, False), (2, 1, True), (2, 2, False), (3, 2, False), (4, 2, True),
        (3, 1, True), (8, 3, True), (5, 3, False),
    ])
    def test_helper_only_with_a_spare_thread_per_restart(self, monkeypatch, fork_log, threads,
                                                         restarts, helped):
        # the calls run in the worker processes when restarts run on a pool,
        # so whether each got a helper is recorded through a file
        def recording(real):
            def call(*args, _helper=None, **kwargs):
                fork_log.append(_helper is not None)
                return real(*args, _helper=_helper, **kwargs)
            return call

        for name in ("smacof", "joint_smacof"):
            monkeypatch.setattr(jointmds, name, recording(getattr(jointmds, name)))
        d = pairwise_euclidean(np.random.default_rng(12).standard_normal((10, 2)))
        w = uniform_weight_matrix(10)
        solve(d, d, w, w, JointConfig(outer_iters=2, restarts=restarts, seed=0),
              threads=threads)
        seen = fork_log.read()
        # two initial runs and two joint passes per restart
        assert len(seen) == 4 * restarts
        assert all(has_helper == helped for has_helper in seen)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        d = pairwise_euclidean(np.random.default_rng(13).standard_normal((6, 2)))
        w = uniform_weight_matrix(6)
        with pytest.raises(InvalidInput, match="threads must be >= 1"):
            solve(d, d, w, w, JointConfig(outer_iters=1, restarts=1), threads=threads)

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

    def test_counts_subproblems_at_budget(self, monkeypatch):
        # one Sinkhorn iteration per transport solve and one initial Guttman
        # step per dataset stop every one of them at its budget
        rng = np.random.default_rng(16)
        d = pairwise_euclidean(rng.standard_normal((15, 2)))
        w = uniform_weight_matrix(15)
        cfg = JointConfig(outer_iters=3, inner_wp_iters=2, restarts=2, seed=0)
        normal = solve(d, d, w, w, cfg)
        assert normal.sinkhorn_at_budget == 0
        assert normal.smacof_init_at_budget == 0
        assert cfg.outer_iters <= normal.joint_guttman_steps
        assert normal.joint_guttman_steps <= cfg.outer_iters * cfg.inner_smacof_iters
        monkeypatch.setattr(transport, "sinkhorn",
                            functools.partial(transport.sinkhorn, max_iter=1))
        monkeypatch.setattr(jointmds, "INIT_SMACOF_MAX_ITER", 1)
        cfg.inner_smacof_iters = 1
        starved = solve(d, d, w, w, cfg)
        assert starved.sinkhorn_at_budget == cfg.outer_iters * cfg.inner_wp_iters
        assert starved.smacof_init_at_budget == 2
        assert starved.joint_guttman_steps == cfg.outer_iters
        assert starved.joint_smacof_at_budget == cfg.outer_iters

    def test_counts_newton_steps(self, monkeypatch):
        steps = []

        def recording(*args, **kwargs):
            out = wasserstein_procrustes(*args, **kwargs)
            steps.append(out[2]["newton_steps"])
            return out

        monkeypatch.setattr(jointmds, "wasserstein_procrustes", recording)
        rng = np.random.default_rng(19)
        d = pairwise_euclidean(rng.standard_normal((20, 2)))
        w = uniform_weight_matrix(20)
        res = solve(d, d, w, w, JointConfig(outer_iters=40, restarts=1, seed=0))
        assert len(steps) == 40
        assert res.sinkhorn_newton_steps == sum(steps) > 0

    def test_epsilon_floor_is_a_fraction_of_the_mean_cost(self, monkeypatch):
        # a tiny epsilon0 leaves the floor as epsilon in every outer iteration;
        # Guttman steps center their output, so the initial configurations
        # are moved off the origin to make the cross term of the mean count
        ratios = []

        def shifted(*args, **kwargs):
            z, report = smacof(*args, **kwargs)
            return z + 3.0, report

        def recording(z1, z2, marginals, eps, *args, **kwargs):
            floor = jointmds.EPSILON_FLOOR_FRACTION * np.mean(cost_matrix(z1, z2))
            ratios.append(eps / floor)
            return wasserstein_procrustes(z1, z2, marginals, eps, *args, **kwargs)

        monkeypatch.setattr(jointmds, "wasserstein_procrustes", recording)
        monkeypatch.setattr(jointmds, "smacof", shifted)
        rng = np.random.default_rng(20)
        d1 = pairwise_euclidean(rng.standard_normal((20, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((17, 2)))
        w1, w2 = uniform_weight_matrix(20), uniform_weight_matrix(17)
        solve(d1, d2, w1, w2, JointConfig(outer_iters=5, restarts=1, seed=0, epsilon0=1e-12))
        assert len(ratios) == 5
        assert np.abs(np.array(ratios) - 1.0).max() <= 1e-12

    def test_counts_gw_solves_at_budget(self, monkeypatch):
        # one Sinkhorn iteration per warm-start solve stops each at its budget;
        # the shared warm start's count reaches every restart's result
        rng = np.random.default_rng(18)
        d = pairwise_euclidean(rng.standard_normal((15, 2)))
        w = uniform_weight_matrix(15)
        cfg = JointConfig(outer_iters=2, restarts=2, seed=0, gw_init=True)
        assert solve(d, d, w, w, cfg).gw_sinkhorn_at_budget == 0
        # entropic_gw looks up transport.sinkhorn at call time and leaves its
        # budget at the default
        monkeypatch.setattr(transport, "sinkhorn",
                            functools.partial(transport.sinkhorn, max_iter=1))
        gw_eps = jointmds.GW_EPSILON_FRACTION * 2 * float(np.mean(d**2))
        _, info = entropic_gw(d, d, Marginals.uniform(15, 15), gw_eps)
        assert info["sinkhorn_at_budget"] > 0
        results, real = [], jointmds._run_restart

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(jointmds, "_run_restart", recording)
        solve(d, d, w, w, cfg)
        assert [r.gw_sinkhorn_at_budget for r in results] == [info["sinkhorn_at_budget"]] * 2
        cfg.gw_init = False
        assert solve(d, d, w, w, cfg).gw_sinkhorn_at_budget == 0

    def test_weight_connectivity_checked_once_per_initial_smacof_run(self, monkeypatch):
        # solve checks each dataset once up front and each restart's two
        # initial smacof runs check it again; the joint passes need no
        # connectivity check of their own
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return connected_components(*args, **kwargs)

        monkeypatch.setattr(smacof_module, "connected_components", counting)
        rng = np.random.default_rng(17)
        d = pairwise_euclidean(rng.standard_normal((12, 2)))
        w = power_weight_matrix(d, 4.0)
        cfg = JointConfig(outer_iters=5, restarts=2, seed=0)
        solve(d, d, w, w, cfg, threads=1)
        assert len(calls) == 2 + 2 * cfg.restarts

    @pytest.mark.parametrize("threads", [1, 2])
    def test_disconnected_weights_are_degenerate(self, monkeypatch, threads):
        # two components: nothing ties the first six points to the other six;
        # the error names the dataset and comes before the GW warm start
        def forbidden(*args, **kwargs):
            raise AssertionError("warm start run on disconnected weights")

        monkeypatch.setattr(jointmds, "entropic_gw", forbidden)
        rng = np.random.default_rng(18)
        d = pairwise_euclidean(rng.standard_normal((12, 2)))
        w = power_weight_matrix(d, 4.0)
        w[:6, 6:] = w[6:, :6] = 0.0
        cfg = JointConfig(outer_iters=2, restarts=2, gw_init=True)
        with pytest.raises(DegenerateWeights, match="second weight matrix has 2 components"):
            solve(d, d, power_weight_matrix(d, 4.0), w, cfg, threads=threads)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_uniform_weights_take_no_laplacian_inverse(self, monkeypatch, lam):
        # all weights positive: the graph is complete and V^+ has a closed form
        def forbidden(*args, **kwargs):
            raise AssertionError("called on uniform weights")

        for name in ("connected_components", "_laplacian_pinv", "v_matrix_pinv", "_laplacian"):
            monkeypatch.setattr(smacof_module, name, forbidden)
        monkeypatch.setattr(jointmds, "v_matrix_pinv", forbidden)
        rng = np.random.default_rng(17)
        d1 = pairwise_euclidean(rng.standard_normal((12, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((9, 2)))
        cfg = JointConfig(outer_iters=3, restarts=2, seed=0, lam=lam)
        res = solve(d1, d2, uniform_weight_matrix(12), np.ones((9, 9)), cfg)
        assert np.isfinite(res.final_objective)

    @pytest.mark.parametrize("which,bad", [(0, np.nan), (1, np.inf), (0, -1e-3), (1, -np.inf)])
    def test_invalid_weight_values_rejected(self, which, bad):
        rng = np.random.default_rng(13)
        d = pairwise_euclidean(rng.standard_normal((10, 2)))
        w = [power_weight_matrix(d, 4.0), uniform_weight_matrix(10)]
        w[which] = w[which].copy()
        w[which][2, 5] = bad
        name = ("first", "second")[which]
        with pytest.raises(InvalidInput, match=f"{name} weight matrix"):
            solve(d, d, *w, JointConfig(outer_iters=2, restarts=1))

    @pytest.mark.parametrize("which", [0, 1])
    def test_empty_dissimilarity_rejected(self, which):
        d = [pairwise_euclidean(np.random.default_rng(13).standard_normal((10, 2)))] * 2
        w = [uniform_weight_matrix(10)] * 2
        d[which], w[which] = np.zeros((0, 0)), np.zeros((0, 0))
        name = ("first", "second")[which]
        with pytest.raises(InvalidInput, match=f"{name} dissimilarity matrix is empty"):
            solve(*d, *w, JointConfig(outer_iters=2, restarts=1))

    def test_invalid_weights_shape(self):
        rng = np.random.default_rng(13)
        d = pairwise_euclidean(rng.standard_normal((10, 2)))
        w = uniform_weight_matrix(9)
        with pytest.raises(InvalidInput):
            solve(d, d, w, w, JointConfig())


def failing_restart(bad: set):
    """``_initial_embeddings`` that raises ``NumericalFailure`` for the restarts in ``bad``."""
    real = jointmds._initial_embeddings

    def initial(d1, d2, cfg, restart):
        if restart in bad:
            raise NumericalFailure(f"planted failure of restart {restart}")
        return real(d1, d2, cfg, restart)
    return initial


class TestRestartPool:
    """Restarts on forked worker processes (``threads`` > 1 and restarts > 1)."""

    @pytest.fixture
    def instance(self):
        rng = np.random.default_rng(21)
        d1 = pairwise_euclidean(rng.standard_normal((14, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((11, 2)))
        return d1, d2, uniform_weight_matrix(14), uniform_weight_matrix(11)

    @pytest.mark.parametrize("threads,restarts,split_rows", [
        (2, 3, smacof_module.SPLIT_ROWS),  # more restarts than workers
        (4, 2, 2),  # every step split, the second block on each worker's helper
    ])
    def test_pool_matches_serial_bitwise(self, monkeypatch, instance, threads, restarts,
                                         split_rows):
        monkeypatch.setattr(smacof_module, "SPLIT_ROWS", split_rows)
        cfg = JointConfig(outer_iters=4, restarts=restarts, seed=3)
        serial = solve(*instance, cfg, threads=1)
        pooled = solve(*instance, cfg, threads=threads)
        for name in ("z1", "z2", "p"):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name)), name
        assert serial.objective_trace == pooled.objective_trace
        assert serial.restart_index == pooled.restart_index

    def test_on_outer_replayed_in_the_caller(self, instance):
        cfg = JointConfig(outer_iters=5, restarts=3, seed=0)
        serial, pooled = [], []
        solve(*instance, cfg, threads=1, on_outer=lambda *call: serial.append(call))
        res = solve(*instance, cfg, threads=2,
                    on_outer=lambda *call: pooled.append((os.getpid(),) + call))
        assert {pid for pid, *_ in pooled} == {os.getpid()}
        calls = [call[1:] for call in pooled]
        assert len(calls) == len(set((r, t) for r, t, _ in calls)) == 15
        for r in range(3):
            # each restart's iterations in order, with the serial run's values
            assert [c for c in calls if c[0] == r] == [c for c in serial if c[0] == r]
        assert [obj for r, _, obj in calls if r == res.restart_index] == res.objective_trace
        assert multiprocessing.active_children() == []

    def test_failing_restart_skipped(self, monkeypatch, instance):
        cfg = JointConfig(outer_iters=3, restarts=3, seed=1)
        singles = [solve(*instance, JointConfig(outer_iters=3, restarts=1, seed=1 + r))
                   for r in range(3)]
        best = min((0, 2), key=lambda r: (singles[r].final_objective, r))
        monkeypatch.setattr(jointmds, "_initial_embeddings", failing_restart({1}))
        seen = []
        res = solve(*instance, cfg, threads=2, on_outer=lambda r, *_: seen.append(r))
        assert res.restart_index == best
        assert res.final_objective == singles[best].final_objective
        assert sorted(set(seen)) == [0, 2]
        assert multiprocessing.active_children() == []

    def test_all_restarts_failing(self, monkeypatch, instance):
        monkeypatch.setattr(jointmds, "_initial_embeddings", failing_restart({0, 1, 2}))
        with pytest.raises(NumericalFailure, match="all 3 restarts failed; last error: "
                                                    "planted failure of restart 2"):
            solve(*instance, JointConfig(outer_iters=2, restarts=3, seed=0), threads=2)
        assert multiprocessing.active_children() == []

    def test_unexpected_errors_end_the_pool(self, monkeypatch, instance):
        # an error other than NumericalFailure ends the solve, from a worker
        # or from on_outer in the caller, and the pending restarts are dropped
        cfg = JointConfig(outer_iters=2, restarts=4, seed=0)

        def broken(*args, **kwargs):
            raise ZeroDivisionError("planted bug")

        def stop(*_):
            raise KeyError("stop")

        with pytest.raises(KeyError, match="stop"):
            solve(*instance, cfg, threads=2, on_outer=stop)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(jointmds, "wasserstein_procrustes", broken)
        with pytest.raises(ZeroDivisionError, match="planted bug"):
            solve(*instance, cfg, threads=2)
        assert multiprocessing.active_children() == []

    def test_serial_in_the_calling_thread_without_fork(self, monkeypatch, instance):
        # without fork the restarts run one after another in the caller, and
        # a spare thread still gives each a helper
        def no_pool(*args, **kwargs):
            raise AssertionError("restart pool used without fork")

        def recording(*args, _helper=None, **kwargs):
            seen.append((os.getpid(), _helper is not None))
            return real(*args, _helper=_helper, **kwargs)

        seen, real = [], jointmds.joint_smacof
        monkeypatch.setattr(jointmds, "_CAN_FORK", False)
        monkeypatch.setattr(jointmds, "_run_forked", no_pool)
        monkeypatch.setattr(jointmds, "joint_smacof", recording)
        cfg = JointConfig(outer_iters=2, restarts=2, seed=0)
        serial = solve(*instance, cfg, threads=1)
        unforked = solve(*instance, cfg, threads=2)
        assert np.array_equal(serial.z1, unforked.z1)
        assert seen == [(os.getpid(), False)] * 4 + [(os.getpid(), True)] * 4
