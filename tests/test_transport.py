import functools
import math
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest
from scipy.special import logsumexp, xlogy

from jointscale import (
    InvalidInput,
    Marginals,
    NumericalFailure,
    cost_matrix,
    entropic_gw,
    match_argmax,
    orthogonal_procrustes,
    pairwise_euclidean,
    planted_pair,
    sinkhorn,
    wasserstein_procrustes,
)
from jointscale import transport


def entropy(p):
    """H(P) = -sum P_ij (log P_ij - 1), with 0 log 0 = 0."""
    return float(-np.sum(xlogy(p, p)) + p.sum())


def haar_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def log_domain_sinkhorn(c, m, eps, max_iter, tol, warm_start=None):
    """Plain log-domain Sinkhorn with the same warm-up and stopping rule.

    The oracle for the kernel-domain loop: returns the coupling and the
    iteration count at the target epsilon.  As in ``sinkhorn``, the warm
    start and the potentials between warm-up stages are in the cost's units,
    divided by each stage's epsilon.
    """
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(m.a), np.log(m.b)

    def scale(eps_run, u, v, budget):
        mk = -c / eps_run
        used = 0
        for used in range(1, budget + 1):
            u = log_a - logsumexp(mk + v[None, :], axis=1)
            v = log_b - logsumexp(mk + u[:, None], axis=0)
            rows = np.exp(u + logsumexp(mk + v[None, :], axis=1))
            if np.abs(rows - m.a).sum() < tol:
                break
        return u, v, used

    if warm_start is not None:
        f, g = warm_start
    else:
        f, g = np.zeros(c.shape[0]), np.zeros(c.shape[1])
        eps_run = float(c.max() - c.min()) / transport.WARMUP_SPREAD_FACTOR
        while eps_run > eps:
            u, v, _ = scale(eps_run, f / eps_run, g / eps_run, transport.WARMUP_STAGE_ITERS)
            f, g = eps_run * u, eps_run * v
            eps_run = max(eps_run / 2.0, eps)
    u, v, used = scale(eps, f / eps, g / eps, max_iter)
    return np.exp(-c / eps + u[:, None] + v[None, :]), used


def counting(monkeypatch, name):
    """Replace ``transport.<name>`` by a wrapper that counts its calls."""
    calls = []
    real = getattr(transport, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, name, wrapper)
    return calls


def assert_coupling_of_potentials(p, c, eps, info):
    """The returned coupling is exp((f (+) g - c) / eps) of the returned potentials.

    To 1e-12 relative; below the smallest normal float, where entries carry
    fewer significant bits, to that float absolutely.
    """
    np.testing.assert_allclose(
        p, np.exp((info["f"][:, None] + info["g"][None, :] - c) / eps), rtol=1e-12,
        atol=np.finfo(float).tiny)


def marginal_violation(p, m):
    return np.abs(p.sum(axis=1) - m.a).sum() + np.abs(p.sum(axis=0) - m.b).sum()


@contextmanager
def scaling_only():
    """Keep every solve inside on the scaling loop: Newton steps never fit the budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "NEWTON_MIN_START", 10**9)
        yield


def default_solve(c, m, eps, max_iter, tol, warm_start=None):
    """The solve as the program makes it, Newton steps allowed: converged, with Newton steps."""
    p, info = sinkhorn(c, m, eps, max_iter=max_iter, tol=tol, log=True,
                       warm_start=warm_start)
    assert info["converged"]
    assert info["newton_steps"] > 0
    assert marginal_violation(p, m) < tol
    return p, info


def assert_matches_long_run(c, m, eps, max_iter, tol, warm_start=None):
    """The default solve lies within 1e-10 L1 of a long log-domain run from the same start."""
    p, _ = default_solve(c, m, eps, max_iter, tol, warm_start)
    oracle, iterations = log_domain_sinkhorn(c, m, eps, 100_000, 1e-13, warm_start)
    assert iterations < 100_000
    assert np.abs(p - oracle).sum() <= 1e-10


def stall_handover(c, m, eps, tol, warm_start):
    """The iteration at which the default solve hands its stalled scaling to Newton.

    Read off plain-scaling replays of the same solve: a budget below two
    shares takes no Newton step, so the replay with budget j walks the
    default solve's first j iterates.  Applies the rule as stated: at each
    window end j, hand over once the rate rho over the window is in (0, 1)
    and log(tol / v_j) / log rho > newton_start - j.  None when no window
    end before ``newton_start`` hands over.
    """
    start, window = transport.newton_start(*c.shape), transport.STALL_WINDOW
    earlier = np.inf
    for j in range(window, start, window):
        _, info = sinkhorn(c, m, eps, max_iter=j, tol=tol, log=True, warm_start=warm_start)
        if info["converged"]:
            return None
        now = info["marginal_violation"]
        rate = (now / earlier) ** (1 / window)
        if 0 < rate < 1 and math.log(tol / now) / math.log(rate) > start - j:
            return j
        earlier = now
    return None


def cloud_costs(n, m, seed):
    """Cost between two noisy copies of a point cloud, a nearby earlier cost, marginals.

    The call pattern of Wasserstein-Procrustes: the earlier cost's potentials
    warm-start the solve on the current one.
    """
    rng = np.random.default_rng(seed)
    z1, z2 = rng.standard_normal((n, 2)), rng.standard_normal((m, 2))
    k = min(n, m)
    z2[:k] = z1[:k] + 0.1 * rng.standard_normal((k, 2))
    earlier = cost_matrix(z1 + 0.01 * rng.standard_normal((n, 2)), z2)
    marginals = Marginals(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m)))
    return cost_matrix(z1, z2), earlier, marginals


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
        # the entropic dual f.a + g.b - eps sum P after k iterations from a
        # fixed start, replayed for every k up to convergence, never decreases
        rng = np.random.default_rng(2)
        c = rng.random((6, 6))
        m = Marginals.uniform(6, 6)
        eps = 0.05
        zeros = (np.zeros(6), np.zeros(6))
        with scaling_only():
            _, info = sinkhorn(c, m, eps, tol=1e-12, log=True, warm_start=zeros)
            trace = []
            for k in range(1, info["iterations"] + 1):
                p, info_k = sinkhorn(c, m, eps, max_iter=k, tol=1e-12, log=True,
                                     warm_start=zeros)
                assert info_k["iterations"] == k
                trace.append(info_k["f"] @ m.a + info_k["g"] @ m.b - eps * p.sum())
        assert len(trace) > 100
        assert np.all(np.diff(trace) >= -1e-10)
        assert_matches_long_run(c, m, eps, transport.SINKHORN_MAX_ITER, 1e-12, zeros)

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

    def test_matches_log_domain_oracle_warm_started(self, monkeypatch):
        # the call pattern of Wasserstein-Procrustes: potentials of a nearby cost
        rng = np.random.default_rng(20)
        c = rng.random((40, 40))
        m = Marginals.uniform(40, 40)
        _, prev = sinkhorn(c + 0.01 * rng.random((40, 40)), m, 0.01, tol=1e-9, log=True)
        warm = (prev["f"], prev["g"])
        fallbacks = counting(monkeypatch, "_lse")
        with scaling_only():
            p, info = sinkhorn(c, m, 0.01, tol=1e-9, log=True, warm_start=warm)
        oracle, iterations = log_domain_sinkhorn(c, m, 0.01, transport.SINKHORN_MAX_ITER,
                                                 1e-9, warm)
        assert np.abs(p - oracle).sum() <= 1e-12
        assert info["iterations"] == iterations
        assert not fallbacks
        assert_coupling_of_potentials(p, c, 0.01, info)
        assert_matches_long_run(c, m, 0.01, transport.SINKHORN_MAX_ITER, 1e-9, warm)

    def test_matches_log_domain_oracle_cold_start(self):
        rng = np.random.default_rng(21)
        c = rng.random((30, 30))
        m = Marginals.uniform(30, 30)
        with scaling_only():
            p, info = sinkhorn(c, m, 0.02, max_iter=20_000, tol=1e-9, log=True)
        oracle, iterations = log_domain_sinkhorn(c, m, 0.02, 20_000, 1e-9)
        assert info["warmup_iterations"] > 0
        assert info["converged"]
        assert_coupling_of_potentials(p, c, 0.02, info)
        assert np.abs(p - oracle).sum() <= 1e-12
        assert info["iterations"] == iterations
        assert_matches_long_run(c, m, 0.02, 20_000, 1e-9)

    def test_matches_log_domain_oracle_rectangular(self):
        rng = np.random.default_rng(22)
        c = 3.0 * rng.random((25, 45))
        m = Marginals(rng.dirichlet(np.ones(25)), rng.dirichlet(np.ones(45)))
        with scaling_only():
            p, info = sinkhorn(c, m, 0.05, max_iter=20_000, tol=1e-10, log=True)
        oracle, iterations = log_domain_sinkhorn(c, m, 0.05, 20_000, 1e-10)
        assert np.abs(p - oracle).sum() <= 1e-12
        assert info["iterations"] == iterations
        assert_matches_long_run(c, m, 0.05, 20_000, 1e-10)

    def test_zero_mass_matches_log_domain_oracle(self):
        rng = np.random.default_rng(23)
        c = rng.random((8, 6))
        a = np.full(8, 1 / 6)
        a[[2, 5]] = 0.0
        m = Marginals(a, np.full(6, 1 / 6))
        p, info = sinkhorn(c, m, 0.1, tol=1e-10, log=True)
        oracle, iterations = log_domain_sinkhorn(c, m, 0.1, transport.SINKHORN_MAX_ITER,
                                                 1e-10)
        assert info["converged"]
        assert np.all(p[[2, 5]] == 0.0)
        assert np.abs(p - oracle).sum() <= 1e-12
        assert info["iterations"] == iterations

    def test_stale_warm_start_falls_back_to_log_domain(self, monkeypatch):
        # potentials of another cost, one spread lower, at epsilon = 1e-3 x
        # spread leave the kernel underflowed until log-domain steps repair it
        rng = np.random.default_rng(24)
        c_old, c = rng.random((20, 20)), 1.0 + rng.random((20, 20))
        m = Marginals.uniform(20, 20)
        eps = 1e-3 * float(c.max() - c.min())
        _, stale = sinkhorn(c_old, m, eps, max_iter=100_000, tol=1e-6, log=True)
        stale = (stale["f"], stale["g"])
        fallbacks = counting(monkeypatch, "_lse")
        with scaling_only():
            p, info = sinkhorn(c, m, eps, max_iter=100_000, tol=1e-4, log=True,
                               warm_start=stale)
        assert fallbacks
        assert info["converged"]
        assert marginal_violation(p, m) <= 1e-4
        assert_coupling_of_potentials(p, c, eps, info)
        oracle, iterations = log_domain_sinkhorn(c, m, eps, 100_000, 1e-4, stale)
        assert np.abs(p - oracle).sum() <= 1e-12
        assert info["iterations"] == iterations
        # log-domain scaling from the stale start is still 3e-6 short of the
        # marginals after 300000 iterations, so the default solve is checked
        # as a fixed point instead: a long log-domain run from its potentials
        # leaves the coupling where it is
        fallbacks.clear()
        p, info = default_solve(c, m, eps, 100_000, 1e-11, stale)
        assert fallbacks
        oracle, _ = log_domain_sinkhorn(c, m, eps, 1000, 0.0, (info["f"], info["g"]))
        assert np.abs(p - oracle).sum() <= 1e-10

    def test_absorbing_run_meets_tolerance(self, monkeypatch):
        # from zero potentials at epsilon = spread / 100 the potentials travel
        # far beyond log(ABSORB), so the scalings are folded in along the way
        rng = np.random.default_rng(25)
        c = rng.random((30, 30))
        m = Marginals.uniform(30, 30)
        eps = 0.01 * float(c.max() - c.min())
        kernels = counting(monkeypatch, "_kernel")
        fallbacks = counting(monkeypatch, "_lse")
        p, info = sinkhorn(c, m, eps, max_iter=50_000, tol=1e-9, log=True,
                           warm_start=(np.zeros(30), np.zeros(30)))
        assert len(kernels) > 1
        assert not fallbacks
        assert info["converged"]
        assert marginal_violation(p, m) <= 1e-9
        assert_coupling_of_potentials(p, c, eps, info)

    @pytest.mark.parametrize("power", [-7, 3])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_potentials_are_in_cost_units(self, power, start):
        # scaling cost, epsilon and the warm start by a power of two s leaves
        # every quotient by epsilon with the same bits: the same coupling, and
        # s times the potentials
        c, earlier, m = cloud_costs(15, 25, 3)
        eps = 1e-3 * float(c.max() - c.min())
        s = 2.0**power
        warm = None
        if start == "warm":
            _, prev = sinkhorn(earlier, m, eps, tol=1e-9, log=True)
            warm = (prev["f"], prev["g"])
        p, info = sinkhorn(c, m, eps, tol=1e-11, log=True, warm_start=warm)
        scaled_warm = None if warm is None else (s * warm[0], s * warm[1])
        p_s, info_s = sinkhorn(s * c, m, s * eps, tol=1e-11, log=True,
                               warm_start=scaled_warm)
        assert (info["warmup_iterations"] > 0) == (start == "cold")
        assert info["newton_steps"] > 0
        assert np.array_equal(p_s, p)
        assert np.array_equal(info_s["f"], s * info["f"])
        assert np.array_equal(info_s["g"], s * info["g"])

    def test_warm_start_at_a_decayed_epsilon(self):
        # the outer loop's pattern: the potentials of a solve at eps start
        # the next solve, at 0.95 eps on a nearby cost, as they are
        c, earlier, m = cloud_costs(30, 30, 4)
        eps = 0.01 * float(c.max() - c.min())
        _, prev = sinkhorn(earlier, m, eps, tol=1e-9, log=True)
        warm = (prev["f"], prev["g"])
        with scaling_only():
            p, info = sinkhorn(c, m, 0.95 * eps, tol=1e-9, log=True, warm_start=warm)
        oracle, iterations = log_domain_sinkhorn(c, m, 0.95 * eps,
                                                 transport.SINKHORN_MAX_ITER, 1e-9, warm)
        assert info["converged"]
        assert info["warmup_iterations"] == 0
        assert np.abs(p - oracle).sum() <= 1e-12
        assert info["iterations"] == iterations

    def test_non_finite_cost_rejected(self):
        with pytest.raises(InvalidInput):
            sinkhorn(np.array([[np.inf, 0.0], [0.0, 1.0]]), Marginals.uniform(2, 2), 1.0)


class TestSinkhornNewton:
    """Newton steps on the dual that finish a solve whose scaling stalled."""

    def test_line_search_fails_closed_on_underflowed_entries(self):
        # P_01 and P_10 underflowed to 0; the step's exponent there is +/-1e7,
        # so the full step would weigh 0 * exp(1e7), which has no value: it is
        # shortened until the exponent is finite everywhere
        p = np.array([[0.5, 0.0], [0.0, 0.5]])
        du, dv = np.array([0.0, 1e7]), np.array([0.0, -1e7])
        t = transport._step_length(p, du, dv, linear=1.0, ascent=1.0)
        assert t is not None and t < 1.0
        assert 1e7 * t <= transport.MAX_EXPONENT < 2e7 * t
        # and a direction that loses dual value is refused at every length
        assert transport._step_length(p, du, dv, linear=-1.0, ascent=1.0) is None

    @staticmethod
    def warm_started(c, earlier, m, eps, tol):
        _, prev = sinkhorn(earlier, m, eps, max_iter=100_000, tol=tol, log=True)
        assert prev["converged"]
        return prev["f"], prev["g"]

    @pytest.mark.parametrize("case", ["square", "rectangular"])
    def test_matches_long_log_domain_run(self, case):
        if case == "square":
            # uniform costs at epsilon = spread / 100: scaling needs ~1400 steps
            rng = np.random.default_rng(0)
            c = rng.random((40, 40))
            earlier, m = c + 0.01 * rng.random((40, 40)), Marginals.uniform(40, 40)
            eps = 1e-2 * float(c.max() - c.min())
        else:
            c, earlier, m = cloud_costs(15, 25, 0)
            eps = 1e-3 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        p, info = sinkhorn(c, m, eps, tol=1e-11, log=True, warm_start=warm)
        assert info["newton_steps"] > 0
        # the stalled scaling hands over at the second window's end, not
        # after the full wait of newton_start = 100 iterations
        assert info["iterations"] == stall_handover(c, m, eps, 1e-11, warm) == 20
        assert info["converged"]
        assert marginal_violation(p, m) < 1e-11
        assert_coupling_of_potentials(p, c, eps, info)
        oracle, iterations = log_domain_sinkhorn(c, m, eps, 20_000, 1e-13, warm)
        assert iterations < 20_000
        assert np.abs(p - oracle).sum() <= 1e-10

    def test_stale_warm_start(self, monkeypatch):
        # potentials of a cost one spread lower underflow the kernel; the
        # log-domain repair and then Newton steps still reach the solution
        c, earlier, m = cloud_costs(15, 25, 0)
        spread = float(c.max() - c.min())
        eps = 1e-3 * spread
        stale = self.warm_started(earlier - spread, earlier - spread, m, eps, 1e-11)
        fallbacks = counting(monkeypatch, "_lse")
        p, info = sinkhorn(c, m, eps, tol=1e-11, log=True, warm_start=stale)
        assert len(fallbacks) == 2  # one iteration redone: two log-sum-exps
        assert info["newton_steps"] > 0
        assert info["converged"]
        assert marginal_violation(p, m) < 1e-11
        # that redo is the first iteration and restarts the rate window, so
        # the stalled loop hands over one window after it
        fallbacks.clear()
        sinkhorn(c, m, eps, max_iter=1, tol=1e-11, warm_start=stale)
        assert len(fallbacks) == 2
        assert info["iterations"] == 1 + transport.STALL_WINDOW
        oracle, _ = log_domain_sinkhorn(c, m, eps, 20_000, 1e-13, stale)
        assert np.abs(p - oracle).sum() <= 1e-10

    def test_singular_hessian_retried_with_ridge(self, monkeypatch):
        # at epsilon = spread / 1000 the coupling of a uniform random cost is
        # so close to a permutation that its Hessian fails to factor; the
        # ridged retry still converges, to a fixed point of the log-domain map
        rng = np.random.default_rng(20)
        c = rng.random((20, 20))
        m = Marginals.uniform(20, 20)
        eps = 1e-3 * float(c.max() - c.min())
        failures, real = [], transport.linalg.cho_factor

        def recording(hess, **kwargs):
            try:
                return real(hess, **kwargs)
            except transport.linalg.LinAlgError:
                failures.append(1)
                raise

        monkeypatch.setattr(transport.linalg, "cho_factor", recording)
        p, info = sinkhorn(c, m, eps, tol=1e-9, log=True)
        assert failures
        assert info["newton_steps"] > 0
        assert info["converged"]
        assert marginal_violation(p, m) < 1e-9
        step, _ = log_domain_sinkhorn(c, m, eps, 1, 0.0, (info["f"], info["g"]))
        assert np.abs(step - p).sum() <= 1e-9

    def test_zero_mass_keeps_scaling_path(self):
        # the Hessian is singular with empty rows: scaling alone, as before
        rng = np.random.default_rng(23)
        c = rng.random((8, 6))
        a = np.full(8, 1 / 6)
        a[[2, 5]] = 0.0
        m = Marginals(a, np.full(6, 1 / 6))
        zeros = (np.zeros(8), np.zeros(6))
        p, info = sinkhorn(c, m, 0.05, tol=1e-10, log=True, warm_start=zeros)
        oracle, iterations = log_domain_sinkhorn(c, m, 0.05, transport.SINKHORN_MAX_ITER,
                                                 1e-10, zeros)
        assert info["iterations"] > transport.newton_start(8, 6)
        assert info["newton_steps"] == 0
        assert info["converged"]
        assert np.all(p[[2, 5]] == 0.0)
        assert np.abs(p - oracle).sum() <= 1e-12
        assert info["iterations"] == iterations

    @pytest.mark.parametrize("failure", ["factorization", "line search"])
    def test_failure_falls_back_to_scaling(self, monkeypatch, failure):
        c, earlier, m = cloud_costs(15, 25, 0)
        eps = 1e-3 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        if failure == "factorization":
            def singular(*args, **kwargs):
                raise transport.linalg.LinAlgError("forced")
            monkeypatch.setattr(transport.linalg, "cho_factor", singular)
        else:
            # no step can gain a million times its predicted ascent
            monkeypatch.setattr(transport, "ARMIJO_FRACTION", 1e6)
        p, info = sinkhorn(c, m, eps, max_iter=20_000, tol=1e-11, log=True,
                           warm_start=warm)
        assert info["newton_steps"] == 0
        assert info["converged"]
        assert marginal_violation(p, m) < 1e-11
        oracle, iterations = log_domain_sinkhorn(c, m, eps, 20_000, 1e-11, warm)
        assert info["iterations"] == iterations
        assert np.abs(p - oracle).sum() <= 1e-12

    def test_dual_never_decreases(self, monkeypatch):
        # Newton run one step per call, which walks the same iterates as one
        # call (it keeps nothing between steps but the potentials and their
        # coupling): the dual u.a + v.b - sum P, from the scaling loop's
        # handover on, never decreases
        c, earlier, m = cloud_costs(15, 25, 0)
        eps = 1e-3 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        real, trace = transport._newton, []

        def stepwise(mk, a, b, u, v, p, tol, max_steps):
            trace.append(eps * (u @ a + v @ b - p.sum()))
            steps = 0
            while True:
                u, v, p, violation, took = real(mk, a, b, u, v, p, tol, 1)
                if not took:
                    return u, v, p, violation, steps
                trace.append(eps * (u @ a + v @ b - p.sum()))
                steps += 1
                if steps == max_steps:
                    return u, v, p, violation, steps

        monkeypatch.setattr(transport, "_newton", stepwise)
        _, info = sinkhorn(c, m, eps, tol=1e-14, log=True, warm_start=warm)
        monkeypatch.undo()
        _, whole = sinkhorn(c, m, eps, tol=1e-14, log=True, warm_start=warm)
        assert info["iterations"] == whole["iterations"] == stall_handover(
            c, m, eps, 1e-14, warm) == 20
        assert info["newton_steps"] == whole["newton_steps"] == len(trace) - 1
        assert np.array_equal(info["f"], whole["f"])
        assert len(trace) >= 3
        assert np.all(np.diff(trace) >= -1e-12)

    def test_fast_scaling_never_hands_over_early(self, monkeypatch):
        # at epsilon = 3% of the spread the scaling rate, measured at four
        # window ends, reaches the tolerance inside the wait, so the window
        # never stops the loop: the same bits with the window switched off
        c, earlier, m = cloud_costs(15, 25, 0)
        eps = 0.03 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        p, info = sinkhorn(c, m, eps, tol=1e-11, log=True, warm_start=warm)
        assert info["converged"]
        assert info["newton_steps"] == 0
        assert 4 * transport.STALL_WINDOW < info["iterations"] < transport.newton_start(15, 25)
        monkeypatch.setattr(transport, "STALL_WINDOW", 10**9)
        p_off, info_off = sinkhorn(c, m, eps, tol=1e-11, log=True, warm_start=warm)
        assert np.array_equal(p_off, p)
        assert np.array_equal(info_off["f"], info["f"])
        assert np.array_equal(info_off["g"], info["g"])
        assert info_off["iterations"] == info["iterations"]

    def test_early_newton_without_a_step_retries_after_the_wait(self, monkeypatch):
        # the first Newton attempt, at the early handover, is made to take
        # no step: scaling finishes the share and Newton, tried again at
        # its end, converges
        c, earlier, m = cloud_costs(15, 25, 0)
        eps = 1e-3 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        start = transport.newton_start(15, 25)
        real, entered = transport._newton, []

        def failing_once(mk, a, b, u, v, p, tol, max_steps):
            entered.append(max_steps)
            if len(entered) == 1:
                return u, v, p, marginal_violation(p, m), 0
            return real(mk, a, b, u, v, p, tol, max_steps)

        monkeypatch.setattr(transport, "_newton", failing_once)
        p, info = sinkhorn(c, m, eps, tol=1e-11, log=True, warm_start=warm)
        # entered at iteration 20 and again at the wait's end, each time with
        # as many steps as the budget left holds
        assert entered == [(transport.SINKHORN_MAX_ITER - 20) // start,
                           (transport.SINKHORN_MAX_ITER - start) // start]
        assert info["iterations"] == start
        assert info["newton_steps"] > 0
        assert info["converged"]
        assert marginal_violation(p, m) < 1e-11
        assert_coupling_of_potentials(p, c, eps, info)
        oracle, _ = log_domain_sinkhorn(c, m, eps, 20_000, 1e-13, warm)
        assert np.abs(p - oracle).sum() <= 1e-10

    @pytest.mark.parametrize("failure", [None, "line search"])
    @pytest.mark.parametrize("extra", [0, 1, 19, 20, 21, 99, 250])
    def test_scaling_and_newton_share_the_budget(self, monkeypatch, failure, extra):
        # scaling iterations plus newton_start per Newton step never exceed
        # max_iter, whether Newton converges, runs out of steps or fails
        c, earlier, m = cloud_costs(15, 25, 0)
        eps = 1e-3 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        if failure:
            monkeypatch.setattr(transport, "ARMIJO_FRACTION", 1e6)
        start = transport.newton_start(15, 25)
        budget = 2 * start + extra
        _, info = sinkhorn(c, m, eps, max_iter=budget, tol=1e-14, log=True,
                           warm_start=warm)
        assert info["iterations"] + start * info["newton_steps"] <= budget
        assert (info["newton_steps"] > 0) == (failure is None)

    def test_budget_below_two_starts_takes_no_newton_step(self):
        c, earlier, m = cloud_costs(15, 25, 0)
        eps = 1e-3 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        budget = 2 * transport.newton_start(15, 25) - 1
        p, info = sinkhorn(c, m, eps, max_iter=budget, tol=1e-14, log=True,
                           warm_start=warm)
        oracle, iterations = log_domain_sinkhorn(c, m, eps, budget, 1e-14, warm)
        assert info["newton_steps"] == 0
        assert info["iterations"] == iterations == budget
        assert np.abs(p - oracle).sum() <= 1e-12

    def test_newton_starts_from_the_scaling_coupling(self, monkeypatch):
        # the coupling the scaling loop returns is Newton's first iterate:
        # no kernel is built between the scaling loop's last one and the
        # first Newton step's line search
        c, earlier, m = cloud_costs(15, 25, 0)
        eps = 1e-3 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        events = []
        for name in ("_kernel", "_newton", "_step_length"):
            def wrapper(*args, _real=getattr(transport, name), _name=name, **kwargs):
                events.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(transport, name, wrapper)
        _, info = sinkhorn(c, m, eps, tol=1e-11, log=True, warm_start=warm)
        assert info["newton_steps"] > 0
        entered = events.index("_newton")
        assert "_kernel" in events[:entered]
        assert events[entered + 1:entered + 3] == ["_step_length", "_kernel"]

    def test_non_finite_coupling_raises(self, monkeypatch):
        # room for two Newton steps after the stalled scaling's handover and
        # nothing after them, so the last step's kernel is the coupling
        # returned: a NaN planted in the last kernel built must be caught on
        # the way out
        c, earlier, m = cloud_costs(15, 25, 0)
        eps = 1e-3 * float(c.max() - c.min())
        warm = self.warm_started(c, earlier, m, eps, 1e-11)
        handover = stall_handover(c, m, eps, 1e-14, warm)
        assert handover == 20
        budget = handover + 2 * transport.newton_start(15, 25)
        real, built = transport._kernel, []
        plant_at = 0

        def planting(*args):
            k = real(*args)
            built.append(1)
            if len(built) == plant_at:
                k[0, 0] = np.nan
            return k

        monkeypatch.setattr(transport, "_kernel", planting)
        _, info = sinkhorn(c, m, eps, max_iter=budget, tol=1e-14, log=True, warm_start=warm)
        assert info["iterations"] == handover
        assert info["newton_steps"] == 2
        plant_at, built[:] = len(built), []
        with pytest.raises(NumericalFailure, match="coupling contains non-finite"):
            sinkhorn(c, m, eps, max_iter=budget, tol=1e-14, warm_start=warm)
        assert len(built) == plant_at


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
        p, o, _ = wasserstein_procrustes(z1, z1, m, 0.01, 15)
        assert np.linalg.norm(z1 @ o - z1) / np.linalg.norm(z1) < 0.05
        assert np.array_equal(match_argmax(p), np.arange(30))

    def test_planted_correspondence_with_gw_start(self):
        z1, z2, perm = planted_pair(200, 5, seed=11, noise=0.01)
        m = Marginals.uniform(200, 200)
        d1, d2 = pairwise_euclidean(z1), pairwise_euclidean(z2)
        p0, _ = entropic_gw(d1, d2, m, 0.01 * (np.mean(d1**2) + np.mean(d2**2)))
        eps = 0.01 * float(np.mean(cost_matrix(z1, z2)))
        p, *_ = wasserstein_procrustes(z1, z2, m, eps, 10, p0=p0)
        assert np.mean(match_argmax(p) == perm) >= 0.95

    def test_zero_rounds_rejected(self):
        rng = np.random.default_rng(9)
        z1 = rng.standard_normal((5, 2))
        z2 = rng.standard_normal((6, 2))
        p0 = np.full((5, 6), 1 / 30)
        with pytest.raises(InvalidInput):
            wasserstein_procrustes(z1, z2, Marginals.uniform(5, 6), 1.0, 0, p0=p0)

    def test_reports_rounds_at_budget(self, monkeypatch):
        rng = np.random.default_rng(26)
        z1 = rng.standard_normal((12, 2))
        z2 = rng.standard_normal((10, 2))
        m = Marginals.uniform(12, 10)
        *_, info = wasserstein_procrustes(z1, z2, m, 1.0, 3, sinkhorn_tol=1e-6)
        assert info["sinkhorn_at_budget"] == 0
        # one scaling iteration per transport solve stops each at its budget
        monkeypatch.setattr(transport, "sinkhorn",
                            functools.partial(transport.sinkhorn, max_iter=1))
        *_, info = wasserstein_procrustes(z1, z2, m, 0.01, 3)
        assert info["sinkhorn_at_budget"] == 3

    def test_reports_newton_steps(self, monkeypatch):
        steps, real = [], transport.sinkhorn

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            steps.append(out[1]["newton_steps"])
            return out

        monkeypatch.setattr(transport, "sinkhorn", recording)
        z1, z2 = planted_pair(25, 2, seed=27, noise=0.05)[:2]
        m = Marginals.uniform(25, 25)
        eps = 1e-3 * float(cost_matrix(z1, z2).max())
        *_, info = wasserstein_procrustes(z1, z2, m, eps, 4, sinkhorn_tol=1e-11)
        assert len(steps) == 4
        assert info["newton_steps"] == sum(steps) > 0

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
                                                warm_start=potentials)
            potentials = info["potentials"]
            trace.append(float(np.sum(p * cost_matrix(z1 @ o, z2))) - eps * entropy(p))
        assert np.all(np.diff(trace) <= 1e-8)
        p_all, o_all, _ = wasserstein_procrustes(z1, z2, m, eps, 12)
        assert np.array_equal(p, p_all)
        assert np.array_equal(o, o_all)


class TestEntropicGW:
    def test_self_matching_identity(self):
        rng = np.random.default_rng(12)
        d = pairwise_euclidean(rng.standard_normal((20, 3)))
        m = Marginals.uniform(20, 20)
        p, _ = entropic_gw(d, d, m, 0.01 * 2 * float(np.mean(d**2)))
        assert np.array_equal(match_argmax(p), np.arange(20))

    def test_planted_permutation(self):
        z1, z2, perm = planted_pair(30, 3, seed=13, noise=0.0)
        d1, d2 = pairwise_euclidean(z1), pairwise_euclidean(z2)
        m = Marginals.uniform(30, 30)
        p, _ = entropic_gw(d1, d2, m, 0.01 * (np.mean(d1**2) + np.mean(d2**2)))
        assert np.mean(match_argmax(p) == perm) >= 0.90

    def test_single_point(self):
        p, _ = entropic_gw(np.zeros((1, 1)), np.zeros((1, 1)), Marginals.uniform(1, 1), 0.1)
        assert np.allclose(p, [[1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b", [
        ([0.25, 0.25, 0.25, 0.25, 0.0], [0.25, 0.25, 0.25, 0.25, 0.0]),
        ([0.0, 0.25, 0.25, 0.0, 0.25, 0.25], [0.25, 0.25, 0.0, 0.25, 0.25]),
    ], ids=["last point", "scattered"])
    def test_zero_mass_solved_on_the_support(self, a, b):
        # the empty rows and columns stay 0, and the support's block is the
        # coupling of the problem restricted to the support, bit for bit
        a, b = np.array(a), np.array(b)
        rng = np.random.default_rng(15)
        d1 = pairwise_euclidean(rng.standard_normal((a.size, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((b.size, 2)))
        rows, cols = a > 0, b > 0
        p, info = entropic_gw(d1, d2, Marginals(a, b), 0.05)
        block, block_info = entropic_gw(d1[np.ix_(rows, rows)], d2[np.ix_(cols, cols)],
                                        Marginals(a[rows], b[cols]), 0.05)
        assert np.array_equal(p[np.ix_(rows, cols)], block)
        assert np.all(p[~rows] == 0.0) and np.all(p[:, ~cols] == 0.0)
        assert info == block_info
        assert marginal_violation(p, Marginals(a, b)) <= 1e-5

    def test_marginals_respected(self):
        rng = np.random.default_rng(14)
        d1 = pairwise_euclidean(rng.standard_normal((12, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((9, 2)))
        m = Marginals.uniform(12, 9)
        p, _ = entropic_gw(d1, d2, m, 0.05)
        assert np.abs(p.sum(axis=1) - m.a).sum() + np.abs(p.sum(axis=0) - m.b).sum() <= 1e-5
