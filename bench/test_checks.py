"""Each output check accepts correct outputs and rejects corrupted ones.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import jointscale as js  # noqa: E402


def small_instance(seed=0, n=12, m=10):
    rng = np.random.default_rng(seed)
    d1 = js.pairwise_euclidean(rng.standard_normal((n, 3)))
    d2 = js.pairwise_euclidean(rng.standard_normal((m, 3)))
    z1, z2 = rng.standard_normal((n, 2)), rng.standard_normal((m, 2))
    w1, w2 = checks.uniform_weights(n), js.power_weight_matrix(d2, 2.0)
    p = js.sinkhorn(js.cost_matrix(z1, z2), js.Marginals.uniform(n, m), 1.0, tol=1e-12)
    return z1, z2, d1, d2, w1, w2, p


def test_objective_recomputation_agrees_with_the_program():
    z1, z2, d1, d2, w1, w2, p = small_instance()
    ours = checks.joint_objective(z1, z2, d1, d2, w1, w2, p, 0.3)
    theirs = js.joint_objective(z1, z2, d1, d2, w1, w2, p, np.eye(2), 0.3)
    checks.check_objective(theirs, ours)


def test_edited_objective_is_rejected():
    z1, z2, d1, d2, w1, w2, p = small_instance()
    ours = checks.joint_objective(z1, z2, d1, d2, w1, w2, p, 0.3)
    with pytest.raises(checks.CheckFailed):
        checks.check_objective(ours * (1 + 1e-7), ours)


def test_swapped_embedding_is_rejected():
    z1, z2, d1, d2, w1, w2, p = small_instance(n=10, m=10)
    reported = checks.joint_objective(z1, z2, d1, d2, w1, w2, p, 0.3)
    with pytest.raises(checks.CheckFailed):
        checks.check_objective(reported, checks.joint_objective(z2, z1, d1, d2, w1, w2, p, 0.3))
    assert checks.foscttm(z1, z1 + 1e-3) == 0.0
    assert checks.foscttm(z1, z1[::-1]) > checks.SWISS_FOSCTTM_BOUND


def test_coupling_checks():
    p = small_instance()[-1]
    assert checks.check_coupling(p, p.shape) < 1e-10
    perturbed = p.copy()
    perturbed[0] *= 1.01
    with pytest.raises(checks.CheckFailed, match="marginal"):
        checks.check_coupling(perturbed, p.shape)
    for bad in (-p, np.where(p == p.max(), np.nan, p)):
        with pytest.raises(checks.CheckFailed):
            checks.check_coupling(bad, p.shape)
    with pytest.raises(checks.CheckFailed, match="shape"):
        checks.check_coupling(p.T, p.shape)


def test_winner_must_be_the_lowest_last_objective():
    checks.check_winner(1.0, 1, {0: 2.0, 1: 1.0})
    with pytest.raises(checks.CheckFailed):
        checks.check_winner(2.0, 0, {0: 2.0, 1: 1.0})
    with pytest.raises(checks.CheckFailed):
        checks.check_winner(0.5, 1, {0: 2.0, 1: 1.0})


def test_quality_measures_match_the_program():
    rng = np.random.default_rng(3)
    z1, z2 = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
    labels = rng.integers(0, 3, 40)
    assert checks.foscttm(z1, z2) == js.foscttm(z1, z2)
    predicted = js.knn_transfer(z1, labels, z2, k=5)
    assert checks.transfer_accuracy(z1, labels, z2, labels) == js.accuracy(predicted, labels)
    p = rng.random((40, 40))
    perm = rng.permutation(40)
    truth = np.zeros((40, 40), dtype=int)
    truth[np.arange(40), perm] = 1
    assert checks.node_correctness(p, perm) == pytest.approx(js.node_correctness(p, truth))


def test_rebuilt_dissimilarities_match_the_program():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((80, 30))
    d = js.pairwise_euclidean(x)
    theirs = js.rescale_by_mean(js.geodesic_distances(js.knn_graph(d, 4), connect=True, source=d))
    np.testing.assert_allclose(checks.geodesic_distances(x, 4), theirs, rtol=1e-12)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
    np.testing.assert_array_equal(
        checks.hop_distances(edges, 4),
        js.graph_dissimilarity(js.normalized_adjacency(edges, 4), mode="hop"))


class TinyCli(workloads.Swiss1kCli):
    n = 60


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    workload = TinyCli(seed=1)
    workload.setup(workdir)
    return workload, workload.run(workdir)


def corrupted(cli_run, tmp_path, edit):
    workload, (out, log) = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    log = edit(copy, log)
    return workload, (copy, log)


def test_cli_outputs_pass(cli_run):
    workload, written = cli_run
    found = workload.check(written)
    assert found["objective"] > 0


def test_cli_warning_lines_in_the_log_are_skipped(cli_run, tmp_path):
    def edit(out, log):
        warning = ("smacof.py:120: UserWarning: SMACOF stopped at its iteration budget\n"
                   "  warnings.warn(\n")
        return warning + log.replace("\n", "\n" + warning, 1) + warning

    workload, written = corrupted(cli_run, tmp_path, edit)
    assert "UserWarning" in written[1]
    assert workload.check(written)["objective"] > 0


def test_cli_edited_objective_is_rejected(cli_run, tmp_path):
    def edit(out, log):
        doc = json.loads((out / "manifest.json").read_text())
        doc["summary"]["final_objective"] *= 1.001
        (out / "manifest.json").write_text(json.dumps(doc))
        return log

    with pytest.raises(checks.CheckFailed, match="objective"):
        workload, written = corrupted(cli_run, tmp_path, edit)
        workload.check(written)


def test_cli_edited_trace_and_log_are_rejected(cli_run, tmp_path):
    def edit(out, log):
        doc = json.loads((out / "manifest.json").read_text())
        doc["summary"]["final_objective"] *= 1.001
        (out / "manifest.json").write_text(json.dumps(doc))
        lines = (out / "trace.jsonl").read_text().splitlines()
        rec = json.loads(lines[-1])
        rec["objective"] = doc["summary"]["final_objective"]
        (out / "trace.jsonl").write_text("\n".join(lines[:-1] + [json.dumps(rec)]) + "\n")
        old = json.dumps(json.loads(lines[-1])["objective"])
        return log.replace(f'"objective": {old}', f'"objective": {json.dumps(rec["objective"])}')

    # only the recomputation from the files can catch a consistent edit
    with pytest.raises(checks.CheckFailed, match="recomputation"):
        workload, written = corrupted(cli_run, tmp_path, edit)
        workload.check(written)


def test_cli_perturbed_marginals_are_rejected(cli_run, tmp_path):
    def edit(out, log):
        p = np.loadtxt(out / "coupling.csv", delimiter=",")
        p[:, 0] *= 1.05
        np.savetxt(out / "coupling.csv", p, fmt="%.17g", delimiter=",")
        return log

    with pytest.raises(checks.CheckFailed, match="marginal"):
        workload, written = corrupted(cli_run, tmp_path, edit)
        workload.check(written)


def test_cli_swapped_embeddings_are_rejected(cli_run, tmp_path):
    def edit(out, log):
        (out / "z1.csv").rename(out / "tmp.csv")
        (out / "z2.csv").rename(out / "z1.csv")
        (out / "tmp.csv").rename(out / "z2.csv")
        return log

    with pytest.raises(checks.CheckFailed):
        workload, written = corrupted(cli_run, tmp_path, edit)
        workload.check(written)


def test_cli_edited_metrics_are_rejected(cli_run, tmp_path):
    def edit(out, log):
        doc = json.loads((out / "metrics.json").read_text())
        doc["transfer_accuracy"] += 1 / 60 if doc["transfer_accuracy"] < 0.5 else -1 / 60
        (out / "metrics.json").write_text(json.dumps(doc))
        return log

    with pytest.raises(checks.CheckFailed, match="transfer_accuracy"):
        workload, written = corrupted(cli_run, tmp_path, edit)
        workload.check(written)
