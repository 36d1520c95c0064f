"""Acceptance suite: one test per shipping criterion, printed pass/fail lines.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The two timed criteria (1 and 6) assert their wall-clock budgets.
"""

import time
from itertools import permutations

import numpy as np
import pytest

import jointscale as js
from jointscale import fileio
from jointscale.cli import main as cli_main


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {detail}")


def haar_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def align_to(z, target):
    """Center both configurations and rotate z onto target."""
    zc = z - z.mean(axis=0)
    tc = target - target.mean(axis=0)
    o = js.orthogonal_procrustes(zc, np.eye(z.shape[0]) / z.shape[0], tc)
    return zc @ o, tc


@pytest.fixture(scope="module")
def swiss_roll_geodesics():
    pair = js.generate(js.GenSpec(kind="swiss_roll", n=300, p1=1000, p2=2000, seed=42))
    dgs = []
    for x in (pair.x1, pair.x2):
        d = js.pairwise_euclidean(js.standardize(x))
        graph = js.knn_graph(d, 10)
        dgs.append(js.rescale_by_mean(js.geodesic_distances(graph, connect=True, source=d)))
    return pair, dgs[0], dgs[1], js.uniform_weight_matrix(300)


def test_criterion_1_smacof_exactness():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 3))
    d = js.pairwise_euclidean(x)
    w = js.uniform_weight_matrix(100)
    scale = float(d.sum() / (100 * 99))
    z0 = js.random_embedding(100, 3, seed=1, scale=scale)
    start = time.perf_counter()
    z, rep = js.smacof(d, w, z0, rtol=0.0, max_iter=2000)
    elapsed = time.perf_counter() - start
    iu = np.triu_indices(100, k=1)
    relative = rep.per_iteration[-1] / float(np.sum(w[iu] * d[iu] ** 2))
    aligned, target = align_to(z, x)
    rms = float(np.sqrt(np.mean(np.sum((aligned - target) ** 2, axis=1))))
    assert relative <= 1e-8
    assert rms <= 1e-3
    assert elapsed <= 5.0
    report(1, f"relative stress {relative:.2e}, RMS error {rms:.2e}, {elapsed:.2f}s")


def test_criterion_2_stress_monotonicity():
    rng = np.random.default_rng(1)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(5, 15))
        dim = int(rng.integers(1, 4))
        d = js.pairwise_euclidean(rng.standard_normal((n, 3)))
        w = rng.random((n, n)) + 0.05
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        z0 = rng.standard_normal((n, dim))
        _, rep = js.smacof(d, w, z0, rtol=0.0, max_iter=40)
        worst = max(worst, float(np.diff(rep.per_iteration).max()))
    assert worst <= 1e-10
    report(2, f"max stress increase over 50 weighted instances: {worst:.2e}")


def test_criterion_3_sinkhorn_oracle_equivalence():
    worst_gap = -np.inf
    worst_violation = 0.0
    m = js.Marginals.uniform(5, 5)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        c = rng.random((5, 5))
        p, info = js.sinkhorn(c, m, 1e-3, max_iter=200_000, tol=1e-7, log=True)
        best = min(sum(c[i, pi[i]] for i in range(5)) for pi in permutations(range(5)))
        gap = float(np.sum(p * c)) - best / 5
        worst_gap = max(worst_gap, gap)
        worst_violation = max(worst_violation, info["marginal_violation"])
        assert gap <= 0.01
        assert info["marginal_violation"] <= 1e-6
    report(3, f"100 seeds: worst cost gap {worst_gap:.2e}, "
              f"worst marginal violation {worst_violation:.2e}")


def test_criterion_4_procrustes_recovery():
    worst_err = -np.inf
    worst_cert = -np.inf
    for d in (2, 3, 8):
        rng = np.random.default_rng(d)
        z1 = rng.standard_normal((60, d))
        q = haar_orthogonal(d, rng)
        p = np.eye(60) / 60
        o = js.orthogonal_procrustes(z1, p, z1 @ q)
        err = float(np.linalg.norm(o - q))
        m = z1.T @ p @ (z1 @ q)
        cert = abs(float(np.sum(o * m)) - np.linalg.svd(m, compute_uv=False).sum())
        worst_err = max(worst_err, err)
        worst_cert = max(worst_cert, cert)
        assert err <= 1e-8
        assert cert <= 1e-8
    report(4, f"d in (2,3,8): worst ||O-Q||_F {worst_err:.2e}, "
              f"worst certificate gap {worst_cert:.2e}")


def test_criterion_5_wasserstein_procrustes_planted():
    # Initialization of the coupling via Gromov-Wasserstein, the documented
    # route for hard matching problems; recovery asserted on the WP output.
    recoveries = []
    for seed in range(5):
        z1, z2, perm = js.planted_pair(200, 5, seed=seed, noise=0.01)
        m = js.Marginals.uniform(200, 200)
        d1, d2 = js.pairwise_euclidean(z1), js.pairwise_euclidean(z2)
        p0, _ = js.entropic_gw(d1, d2, m, 0.01 * float(np.mean(d1**2) + np.mean(d2**2)))
        eps = 0.01 * float(np.mean(js.cost_matrix(z1, z2)))
        p, *_ = js.wasserstein_procrustes(z1, z2, m, eps, 10, p0=p0)
        recoveries.append(float(np.mean(js.match_argmax(p) == perm)))
    median = float(np.median(recoveries))
    assert median >= 0.95
    report(5, f"planted recovery per seed: {[f'{r:.0%}' for r in recoveries]}, "
              f"median {median:.0%}")


def test_criterion_6_joint_mds_swiss_roll(swiss_roll_geodesics):
    _, d1g, d2g, w = swiss_roll_geodesics
    cfg = js.JointConfig(dim=2, lam=0.1, epsilon0=1.0, alpha=0.95, outer_iters=60,
                         inner_wp_iters=5, inner_smacof_iters=25, restarts=4, seed=0)
    start = time.perf_counter()
    res = js.solve(d1g, d2g, w, w, cfg)
    elapsed = time.perf_counter() - start
    fos = js.foscttm(res.z1, res.z2)
    assert fos <= 0.05
    assert elapsed <= 120.0
    report(6, f"FOSCTTM {fos:.4f} (restart {res.restart_index}), {elapsed:.0f}s")


def test_criterion_7_transfer_accuracy_swiss_roll(swiss_roll_geodesics):
    pair, d1g, d2g, w = swiss_roll_geodesics
    cfg = js.JointConfig(dim=16, lam=0.1, epsilon0=1.0, alpha=0.95, outer_iters=60,
                         inner_wp_iters=5, inner_smacof_iters=25, restarts=4, seed=0,
                         gw_init=True, lambda_anneal=True)
    res = js.solve(d1g, d2g, w, w, cfg)
    predicted = js.knn_transfer(res.z1, pair.labels, res.z2, k=5)
    acc = js.accuracy(predicted, pair.labels)
    assert acc >= 0.95
    report(7, f"5-NN transfer accuracy at d=16: {acc:.4f}")


def er_edges(n, p, rng):
    from scipy.sparse.csgraph import connected_components

    while True:
        mask = np.triu(rng.random((n, n)) < p, 1)
        adj = mask | mask.T
        if connected_components(adj.astype(int), directed=False)[0] == 1:
            return [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]


def test_criterion_8_graph_self_matching():
    scores = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        edges = er_edges(100, 0.1, rng)
        perm = rng.permutation(100)
        edges2 = [(int(perm[i]), int(perm[j])) for i, j in edges]
        d1 = js.graph_dissimilarity(js.normalized_adjacency(edges, 100), mode="hop")
        d2 = js.graph_dissimilarity(js.normalized_adjacency(edges2, 100), mode="hop")
        w1 = js.power_weight_matrix(d1, 4.0)
        w2 = js.power_weight_matrix(d2, 4.0)
        cfg = js.JointConfig(dim=8, lam=0.1, epsilon0=1.0, alpha=0.95, outer_iters=60,
                             inner_wp_iters=5, inner_smacof_iters=25, restarts=2,
                             seed=seed, gw_init=True, lambda_anneal=True)
        res = js.solve(d1, d2, w1, w2, cfg)
        # every transport solve, warm start included, meets its tolerance
        assert res.sinkhorn_at_budget == 0
        assert res.gw_sinkhorn_at_budget == 0
        truth = np.zeros((100, 100), dtype=int)
        truth[np.arange(100), perm] = 1
        scores.append(js.node_correctness(res.p, truth))
    median = float(np.median(scores))
    assert median >= 0.9
    report(8, f"node correctness per seed: {[f'{s:.3f}' for s in scores]}, "
              f"median {median:.3f} (PPI/MIMIC reference runs need external data)")


def test_criterion_9_rmsd_identity_and_oracle():
    rng = np.random.default_rng(5)
    n = 12
    z1 = rng.standard_normal((n, 3))
    perm = rng.permutation(n)
    z2 = np.empty_like(z1)
    z2[perm] = z1
    t = np.zeros((n, n), dtype=int)
    t[np.arange(n), perm] = 1
    d1, d2 = js.pairwise_euclidean(z1), js.pairwise_euclidean(z2)
    self_value = js.rmsd_d(d1, d2, z1, z2, t)
    assert self_value <= 1e-6

    z2r = rng.standard_normal((n, 3))
    d1r = js.pairwise_euclidean(rng.standard_normal((n, 3)))
    d2r = js.pairwise_euclidean(rng.standard_normal((n, 3)))
    s1 = s2 = s3 = 0.0
    for i in range(n):
        for j in range(n):
            s1 += (d1r[i, j] - np.linalg.norm(z1[i] - z1[j])) ** 2
            s2 += (d2r[i, j] - np.linalg.norm(z2r[i] - z2r[j])) ** 2
            s3 += t[i, j] * np.sum((z1[i] - z2r[j]) ** 2)
    oracle = np.sqrt(s1 / n**2) + np.sqrt(s2 / n**2) + np.sqrt(s3 / n)
    gap = abs(js.rmsd_d(d1r, d2r, z1, z2r, t) - oracle)
    assert gap <= 1e-10
    report(9, f"self-alignment RMSD-D {self_value:.2e}, oracle gap {gap:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(6)
    x1 = rng.standard_normal((20, 5))
    x2 = rng.standard_normal((20, 8))
    s1, s2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
    fileio.write_matrix(s1, x1)
    fileio.write_matrix(s2, x2)
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_main(["joint", str(s1), str(s2), "--dim", "2", "--iters", "6",
                         "--restarts", "2", "--seed", "13", "--truth", "identity",
                         "--out", str(out)])
        assert code == 0
        outs.append(out)
    compared = []
    for fname in ("z1.csv", "z2.csv", "coupling.csv", "trace.jsonl", "metrics.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
        compared.append(fname)
    report(10, f"bitwise-identical reruns: {', '.join(compared)} "
               f"(manifest excluded: it records wall-clock)")


def test_criterion_11_objective_block_equivalence():
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(20):
        n1 = int(rng.integers(3, 10))
        n2 = int(rng.integers(3, 10))
        dim = int(rng.integers(1, 4))
        d1 = js.pairwise_euclidean(rng.standard_normal((n1, dim)))
        d2 = js.pairwise_euclidean(rng.standard_normal((n2, dim)))
        w1 = js.uniform_weight_matrix(n1)
        w2 = js.uniform_weight_matrix(n2)
        z1 = rng.standard_normal((n1, dim))
        z2 = rng.standard_normal((n2, dim))
        p = rng.random((n1, n2))
        p /= p.sum()
        lam = float(rng.random()) + 0.05
        direct = js.joint_objective(z1, z2, d1, d2, w1, w2, p, np.eye(dim), lam)
        blocks = js.assemble_joint(d1, d2, w1, w2, p, lam, z1, z2)
        via_blocks = js.FULL_MATRIX_FACTOR * js.stress(
            blocks.z_tilde, blocks.d_tilde, blocks.w_tilde
        )
        worst = max(worst, abs(direct - via_blocks))
    assert worst <= 1e-10
    report(11, f"20 random instances: worst objective/block-stress gap {worst:.2e}")
