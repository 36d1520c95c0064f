import functools
import importlib
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from jointscale import (
    FULL_MATRIX_FACTOR,
    DegenerateInput,
    DegenerateWeights,
    InvalidInput,
    JointConfig,
    Marginals,
    NumericalFailure,
    assemble_joint,
    classical_embedding,
    cost_matrix,
    entropic_gw,
    foscttm,
    joint_objective,
    match_argmax,
    pairwise_euclidean,
    power_weight_matrix,
    random_embedding,
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
            d_tilde, w_tilde, z_tilde = assemble_joint(d1, d2, w1, w2, p, lam, z1, z2)
            via_blocks = FULL_MATRIX_FACTOR * stress(
                z_tilde, d_tilde, w_tilde
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

    @pytest.mark.parametrize("field,value", [
        ("lam", float("nan")), ("lam", float("inf")),
        ("epsilon0", float("inf")), ("epsilon0", float("nan")), ("seed", -1),
    ])
    def test_rejects_non_finite_or_negative_by_name(self, field, value):
        with pytest.raises(InvalidInput, match=f"^{field} must be"):
            JointConfig(**{field: value}).validate()


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
            z1, _ = smacof(d1, w1, classical_embedding(d1, 2),
                           max_iter=jointmds.INIT_SMACOF_MAX_ITER)
            z2, _ = smacof(d2, w2, classical_embedding(d2, 2),
                           max_iter=jointmds.INIT_SMACOF_MAX_ITER)
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

    @pytest.mark.parametrize("weights", ["uniform", "1/d^4"])
    def test_side_by_side_runs_give_the_serial_bits(self, weights):
        # both runs read the same d and w, and the threads switch often, so a
        # run writing into what the other reads shows
        rng = np.random.default_rng(14)
        d = pairwise_euclidean(rng.standard_normal((40, 3)))
        w = uniform_weight_matrix(40) if weights == "uniform" else power_weight_matrix(d, 4.0)
        z1, z2 = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
        serial = jointmds._smacof_pair(d, d, w, w, z1, z2, 60, None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=1) as helper:
                helped = jointmds._smacof_pair(d, d, w, w, z1, z2, 60, helper)
        finally:
            sys.setswitchinterval(interval)
        for (z, report), (z_helped, report_helped) in zip(serial, helped):
            assert np.array_equal(z, z_helped)
            assert report.per_iteration == report_helped.per_iteration

    @pytest.mark.parametrize("threads,restarts,helped", [
        (1, 1, False), (2, 1, True), (2, 2, False), (3, 2, False), (4, 2, True),
        (3, 1, True), (8, 3, True), (5, 3, False),
    ])
    def test_helper_only_with_a_spare_thread_per_restart(self, monkeypatch, fork_log, threads,
                                                         restarts, helped):
        # the shared initial runs put the second dataset's run on a helper
        # whenever there is a second thread; the joint passes run in the
        # worker processes when restarts run on a pool, so whether each got a
        # helper is recorded through a file
        def on_main_thread(*args, **kwargs):
            fork_log.append(["smacof", threading.current_thread() is threading.main_thread()])
            return real_smacof(*args, **kwargs)

        def joint(*args, _helper=None, **kwargs):
            fork_log.append(["joint", _helper is not None])
            return real_joint(*args, _helper=_helper, **kwargs)

        real_smacof, real_joint = jointmds.smacof, jointmds.joint_smacof
        monkeypatch.setattr(jointmds, "smacof", on_main_thread)
        monkeypatch.setattr(jointmds, "joint_smacof", joint)
        d = pairwise_euclidean(np.random.default_rng(12).standard_normal((10, 2)))
        w = uniform_weight_matrix(10)
        solve(d, d, w, w, JointConfig(outer_iters=2, restarts=restarts, seed=0),
              threads=threads)
        seen = fork_log.read()
        # two initial runs per solve and two joint passes per restart
        assert sorted(main for kind, main in seen if kind == "smacof") == [threads == 1, True]
        assert [has_helper for kind, has_helper in seen if kind == "joint"] == (
            [helped] * 2 * restarts)

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

    def test_objective_trace_non_increasing_with_slack(self, monkeypatch):
        # the trace is stress + 2 lam <P, C> and leaves out the coupling's
        # entropy H(P).  Outer iteration t lowers stress + 2 lam (<P, C> -
        # eps_t H(P)) at its own eps_t (Procrustes, Sinkhorn and the
        # majorization pass each lower it), so the trace changes by at most
        # 2 lam eps_t (H(P_t) - H(P_t-1)) and rises only where the entropy does
        couplings = []

        def recording(z1, z2, marginals, eps, *args, **kwargs):
            out = wasserstein_procrustes(z1, z2, marginals, eps, *args, **kwargs)
            couplings.append((eps, out[0]))
            return out

        monkeypatch.setattr(jointmds, "wasserstein_procrustes", recording)
        rng = np.random.default_rng(9)
        d = pairwise_euclidean(rng.standard_normal((30, 2)))
        w = uniform_weight_matrix(30)
        cfg = JointConfig(dim=2, lam=0.1, outer_iters=15, restarts=1, seed=2)
        res = solve(d, d, w, w, cfg)
        assert len(couplings) == cfg.outer_iters
        entropy = [-np.sum(p[p > 0] * np.log(p[p > 0])) for _, p in couplings]
        for t in range(1, cfg.outer_iters):
            rise = res.objective_trace[t] - res.objective_trace[t - 1]
            allowed = 2.0 * cfg.lam * couplings[t][0] * (entropy[t] - entropy[t - 1])
            assert rise <= allowed + 1e-6

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
        last = {}
        res = solve(d, d, w, w, cfg, on_outer=lambda r, t, obj: last.__setitem__(r, obj))
        best = min(range(3), key=lambda r: (last[r], r))
        assert res.restart_index == best
        assert res.final_objective == last[best]

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
        # step per dataset stop every one of them at its budget; the points
        # span 3-D, so the 2-D classical start is no exact fit that one step
        # could finish
        rng = np.random.default_rng(16)
        d = pairwise_euclidean(rng.standard_normal((15, 3)))
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 4])
    def test_gw_init_on_all_zero_dissimilarities(self, monkeypatch, n):
        # every coupling is GW-optimal, and the GW epsilon, a share of the
        # mean square dissimilarity, would be 0: the warm start is skipped,
        # and the solve is the one made without it
        def forbidden(*args, **kwargs):
            raise AssertionError("warm start run on all-zero dissimilarities")

        monkeypatch.setattr(jointmds, "entropic_gw", forbidden)
        d, w = np.zeros((n, n)), uniform_weight_matrix(n)
        cfg = JointConfig(outer_iters=3, restarts=2, seed=0, gw_init=True)
        res = solve(d, d, w, w, cfg)
        cfg.gw_init = False
        plain = solve(d, d, w, w, cfg)
        assert res.final_objective == plain.final_objective == 0.0
        assert np.array_equal(res.p, plain.p)
        assert np.array_equal(res.z1, plain.z1) and np.array_equal(res.z2, plain.z2)

    def test_weight_connectivity_checked_once_per_initial_smacof_run(self, monkeypatch):
        # solve checks each dataset once up front and the two initial smacof
        # runs, which the restarts share, check it again; the joint passes
        # need no connectivity check of their own
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
        assert len(calls) == 2 + 2

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

    def initial(d1, d2, w1, w2, cfg, restart, *args):
        if restart in bad:
            raise NumericalFailure(f"planted failure of restart {restart}")
        return real(d1, d2, w1, w2, cfg, restart, *args)
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
        (2, 2, smacof_module.SPLIT_ROWS),  # one worker per restart
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
        last = {}
        solve(*instance, cfg, on_outer=lambda r, t, obj: last.__setitem__(r, obj))
        best = min((0, 2), key=lambda r: (last[r], r))
        monkeypatch.setattr(jointmds, "_initial_embeddings", failing_restart({1}))
        seen = []
        res = solve(*instance, cfg, threads=2, on_outer=lambda r, *_: seen.append(r))
        assert res.restart_index == best
        assert res.final_objective == last[best]
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

    def test_no_other_thread_alive_at_the_fork(self, instance):
        # the helper of the shared initial runs is shut down before the pool
        # forks; the hook stays registered, so it records only during the solve
        counts, recording = [], [True]
        os.register_at_fork(
            before=lambda: recording[0] and counts.append(threading.active_count()))
        before = threading.active_count()
        try:
            solve(*instance, JointConfig(outer_iters=2, restarts=2, seed=0), threads=2)
        finally:
            recording[0] = False
        forks = 2 if jointmds._CAN_FORK else 0
        # before Python 3.11 the pool forks its second worker on demand, after
        # its own manager thread has started
        quiet = forks if sys.version_info >= (3, 11) else min(forks, 1)
        assert len(counts) == forks and counts[:quiet] == [before] * quiet

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


class TestStarts:
    """Classical-scaling starts under axis reflections, and the seeded fallback."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_restart_flips_second_axes_by_its_bits(self, dim):
        rng = np.random.default_rng(30)
        d1 = pairwise_euclidean(rng.standard_normal((9, 3)))
        d2 = pairwise_euclidean(rng.standard_normal((7, 3)))
        w1, w2 = uniform_weight_matrix(9), uniform_weight_matrix(7)
        starts = [smacof(d, w, classical_embedding(d, dim), max_iter=jointmds.INIT_SMACOF_MAX_ITER)
                  for d, w in ((d1, w1), (d2, w2))]
        cfg = JointConfig(dim=dim, seed=5)
        for r in range(2**dim):
            (z1, r1), (z2, r2) = jointmds._initial_embeddings(d1, d2, w1, w2, cfg, r, starts,
                                                              None)
            signs = np.array([-1.0 if r >> k & 1 else 1.0 for k in range(dim)])
            assert np.array_equal(z1, starts[0][0]) and r1 is starts[0][1]
            assert np.array_equal(z2, starts[1][0] * signs) and r2 is starts[1][1]
        # past the 2^dim reflections, and without shared starts, the seed draws
        for r, given in ((2**dim, starts), (2**dim + 3, starts), (0, None), (1, None)):
            (z1, r1), (z2, r2) = jointmds._initial_embeddings(d1, d2, w1, w2, cfg, r, given,
                                                              None)
            z = random_embedding(16, dim, 5 + r, jointmds._init_scale(d1, d2))
            y1, q1 = smacof(d1, w1, z[:9], max_iter=jointmds.INIT_SMACOF_MAX_ITER)
            y2, q2 = smacof(d2, w2, z[9:], max_iter=jointmds.INIT_SMACOF_MAX_ITER)
            assert np.array_equal(z1, y1) and np.array_equal(z2, y2)
            assert r1.per_iteration == q1.per_iteration and r2.per_iteration == q2.per_iteration

    @pytest.mark.parametrize("gw_init", [False, True])
    def test_classical_embedding_computed_once_per_solve(self, monkeypatch, fork_log, gw_init):
        # each dataset's classical scaling and its initial run are computed
        # in the caller, and the forked workers inherit them; a warm start
        # keeps the seeded starts
        calls = []

        def counting(d, dim):
            calls.append(d.shape[0])
            return classical_embedding(d, dim)

        def recording(d1, d2, w1, w2, cfg, restart, starts, helper):
            fork_log.append([restart, starts is not None])
            return real(d1, d2, w1, w2, cfg, restart, starts, helper)

        real = jointmds._initial_embeddings
        monkeypatch.setattr(jointmds, "classical_embedding", counting)
        monkeypatch.setattr(jointmds, "_initial_embeddings", recording)
        rng = np.random.default_rng(31)
        d1 = pairwise_euclidean(rng.standard_normal((12, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((10, 2)))
        cfg = JointConfig(outer_iters=2, restarts=3, seed=0, gw_init=gw_init)
        solve(d1, d2, uniform_weight_matrix(12), uniform_weight_matrix(10), cfg, threads=2)
        assert calls == ([] if gw_init else [12, 10])
        assert sorted(fork_log.read()) == [[r, not gw_init] for r in range(3)]

    @pytest.mark.parametrize("gw_init", [False, True])
    def test_initial_runs_shared_by_the_reflected_restarts(self, monkeypatch, fork_log,
                                                           gw_init):
        # criterion 6's 4 restarts in 2 dimensions: 2 initial smacof runs per
        # solve, not 8; after a warm start every restart makes its own 2
        def counting(*args, **kwargs):
            fork_log.append(os.getpid())
            return real(*args, **kwargs)

        real = jointmds.smacof
        monkeypatch.setattr(jointmds, "smacof", counting)
        rng = np.random.default_rng(34)
        d1 = pairwise_euclidean(rng.standard_normal((12, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((10, 2)))
        cfg = JointConfig(dim=2, outer_iters=2, restarts=4, seed=0, gw_init=gw_init)
        solve(d1, d2, uniform_weight_matrix(12), uniform_weight_matrix(10), cfg, threads=2)
        assert len(fork_log.read()) == (8 if gw_init else 2)

    @pytest.mark.parametrize("weights", ["uniform", "1/d^4"])
    def test_shared_start_is_the_run_from_the_reflected_start(self, monkeypatch, weights):
        rng = np.random.default_rng(36)
        d1 = pairwise_euclidean(rng.standard_normal((12, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((10, 2)))
        if weights == "uniform":
            w1, w2 = uniform_weight_matrix(12), uniform_weight_matrix(10)
        else:
            w1, w2 = power_weight_matrix(d1, 4.0), power_weight_matrix(d2, 4.0)
        seen, real = {}, jointmds._initial_embeddings

        def recording(d1, d2, w1, w2, cfg, restart, *args):
            seen[restart] = real(d1, d2, w1, w2, cfg, restart, *args)
            return seen[restart]

        monkeypatch.setattr(jointmds, "_initial_embeddings", recording)
        solve(d1, d2, w1, w2, JointConfig(dim=2, outer_iters=1, restarts=4, seed=0))
        # replayed under the one-thread BLAS that solve runs, for the same bits
        with _blas.single_threaded():
            own1 = smacof(d1, w1, classical_embedding(d1, 2),
                          max_iter=jointmds.INIT_SMACOF_MAX_ITER)
            for r in range(4):
                signs = np.array([-1.0 if r >> k & 1 else 1.0 for k in range(2)])
                own2 = smacof(d2, w2, classical_embedding(d2, 2) * signs,
                              max_iter=jointmds.INIT_SMACOF_MAX_ITER)
                for (z, report), (z_own, report_own) in zip(seen[r], (own1, own2)):
                    assert np.array_equal(z, z_own)
                    assert report.per_iteration == report_own.per_iteration

    @pytest.mark.parametrize("dim,restarts,gw_init,zero,expected", [
        (2, 4, False, False, 0), (2, 6, False, False, 2), (1, 3, False, False, 1),
        (2, 3, True, False, 3), (2, 3, True, True, 0), (3, 9, True, True, 1),
    ])
    def test_seeded_restarts(self, dim, restarts, gw_init, zero, expected):
        d = pairwise_euclidean(np.random.default_rng(32).standard_normal((6, 2)))
        if zero:
            d = np.zeros_like(d)
        cfg = JointConfig(dim=dim, restarts=restarts, gw_init=gw_init)
        assert jointmds.seeded_restarts(d, d, cfg) == expected

    def test_seed_matters_only_past_the_reflections(self):
        rng = np.random.default_rng(33)
        d = pairwise_euclidean(rng.standard_normal((10, 2)))
        w = uniform_weight_matrix(10)
        a = solve(d, d, w, w, JointConfig(dim=1, outer_iters=2, restarts=2, seed=0))
        b = solve(d, d, w, w, JointConfig(dim=1, outer_iters=2, restarts=2, seed=7))
        assert np.array_equal(a.z1, b.z1) and a.objective_trace == b.objective_trace
        seen = {}
        for seed in (0, 7):
            on_outer = functools.partial(lambda s, r, t, obj: seen.__setitem__((s, r), obj), seed)
            solve(d, d, w, w, JointConfig(dim=1, outer_iters=2, restarts=3, seed=seed),
                  on_outer=on_outer)
        assert seen[0, 0] == seen[7, 0] and seen[0, 1] == seen[7, 1]
        assert seen[0, 2] != seen[7, 2]

    @pytest.mark.filterwarnings("error")
    def test_gw_init_skipped_when_its_epsilon_underflows(self, monkeypatch):
        # the squares of 1e-170 d underflow, so the warm start's epsilon is 0:
        # it is skipped, and both solves fail by name in the first majorization
        # instead of collapsing Z
        def forbidden(*args, **kwargs):
            raise AssertionError("warm start run at epsilon 0")

        monkeypatch.setattr(jointmds, "entropic_gw", forbidden)
        d = 1e-170 * pairwise_euclidean(np.random.default_rng(0).standard_normal((6, 2)))
        w = uniform_weight_matrix(6)
        assert jointmds._gw_epsilon(d, d) == 0.0 and d.any()
        for gw_init in (True, False):
            cfg = JointConfig(outer_iters=3, restarts=2, seed=0, gw_init=gw_init)
            with pytest.raises(DegenerateInput, match="dissimilarities too small"):
                solve(d, d, w, w, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e150, 1e154, 1e155, 1e160])
@pytest.mark.parametrize("run", ["smacof", "solve", "solve, gw_init"])
def test_dissimilarities_too_large_fail_by_name(monkeypatch, run, scale):
    # from about 1e154 on their squares overflow: smacof and solve fail by
    # name before the first step, and solve with a warm start before the warm
    # start; 1e150 still solves
    d = scale * pairwise_euclidean(np.random.default_rng(0).standard_normal((6, 2)))
    w = uniform_weight_matrix(6)
    if run == "smacof":
        def call():
            return smacof(d, w, classical_embedding(d, 2))[1].per_iteration[-1]
    else:
        def call():
            cfg = JointConfig(outer_iters=3, restarts=2, seed=0, gw_init=run != "solve")
            return solve(d, d, w, w, cfg).final_objective
    if scale < 1e154:
        assert np.isfinite(call())
        return

    def forbidden(*args, **kwargs):
        raise AssertionError("warm start run on overflowing dissimilarities")

    monkeypatch.setattr(jointmds, "entropic_gw", forbidden)
    with pytest.raises(DegenerateInput, match="dissimilarities too large.*rescale them"):
        call()


def edge_case(kind: str):
    """Dissimilarities (d1, d2) of the start edge cases."""
    rng = np.random.default_rng(35)

    def points(n, p=2):
        return pairwise_euclidean(rng.standard_normal((n, p)))

    if kind.startswith("n = "):
        n = int(kind[4:])
        return points(n), points(n)
    if kind == "n1 != n2":
        return points(9), points(5)
    if kind == "duplicate points":
        x = rng.standard_normal((8, 2))
        x[[3, 6]] = x[1]
        return pairwise_euclidean(x), points(8)
    if kind == "all zero":
        return np.zeros((5, 5)), np.zeros((5, 5))
    return (float(kind[4:]) * points(7) for _ in range(2))


EDGE_CASES = ["n = 1", "n = 2", "n = 3", "n1 != n2", "duplicate points", "all zero",
              "d x 1e-150", "d x 1e150"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gw_init", [False, True])
@pytest.mark.parametrize("kind", EDGE_CASES)
def test_start_edge_cases(kind, gw_init):
    # dim = 3 is more than n for the smallest inputs; every case solves
    # without a warning, to finite outputs
    d1, d2 = edge_case(kind)
    n1, n2 = d1.shape[0], d2.shape[0]
    w1, w2 = uniform_weight_matrix(n1), uniform_weight_matrix(n2)
    cfg = JointConfig(dim=3, outer_iters=3, restarts=3, seed=0, gw_init=gw_init)
    res = solve(d1, d2, w1, w2, cfg)
    assert res.z1.shape == (n1, 3) and res.z2.shape == (n2, 3)
    for value in (res.z1, res.z2, res.p, res.final_objective):
        assert np.all(np.isfinite(value))
    direct = joint_objective(res.z1, res.z2, d1, d2, w1, w2, res.p, np.eye(3), cfg.lam)
    assert abs(res.final_objective - direct) <= 1e-9 * max(direct, np.finfo(float).tiny)
