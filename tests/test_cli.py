import builtins
import dataclasses
import functools
import gzip
import io
import json
import os

import numpy as np
import pytest

from jointscale import _blas, fileio, jointmds, pairwise_euclidean, transport
from jointscale.cli import _CONFIG_FIELDS, build_parser, main
from jointscale.jointmds import JointConfig


def run_cli(args):
    return main([str(a) for a in args])


def write_points(path, pts):
    fileio.write_matrix(path, pts)
    return path


class TestEmbed:
    def test_collinear_distances_dim1(self, tmp_path):
        d = pairwise_euclidean(np.array([[0.0], [1.0], [2.0]]))
        src = tmp_path / "d.csv"
        fileio.write_matrix(src, d)
        out = tmp_path / "out"
        # seed chosen in the exact-recovery basin; 1-D stress has local minima
        code = run_cli(["embed", src, "--kind", "distances", "--dim", "1",
                        "--seed", "4", "--out", out])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["relative_stress"] <= 1e-8
        z = fileio.read_embedding(out / "embedding.csv")
        assert z.shape == (3, 1)

    def test_dim_zero_usage_error(self, tmp_path):
        src = write_points(tmp_path / "x.csv",
                           np.random.default_rng(0).standard_normal((5, 2)))
        code = run_cli(["embed", src, "--dim", "0", "--out", tmp_path / "o"])
        assert code != 0
        # rejected before the input is read or the output directory is made
        assert not (tmp_path / "o").exists()

    def test_seed_determinism(self, tmp_path):
        src = write_points(tmp_path / "x.csv",
                           np.random.default_rng(1).standard_normal((12, 3)))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["embed", src, "--dim", "2", "--seed", "7",
                            "--out", out]) == 0
        assert (out1 / "embedding.csv").read_bytes() == (out2 / "embedding.csv").read_bytes()

    def test_compressed_input(self, tmp_path):
        plain = write_points(tmp_path / "x.csv",
                             np.random.default_rng(8).standard_normal((12, 3)))
        packed = tmp_path / "x.csv.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        outs = [tmp_path / "plain", tmp_path / "packed"]
        for src, out in zip((plain, packed), outs):
            assert run_cli(["embed", src, "--dim", "2", "--seed", "3", "--out", out]) == 0
        assert (outs[0] / "embedding.csv").read_bytes() == (outs[1] / "embedding.csv").read_bytes()
        manifest = json.loads((outs[1] / "manifest.json").read_text())
        assert manifest["inputs"] == {str(packed): fileio.sha256_file(packed)}

    def test_geodesic_flag(self, tmp_path):
        theta = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        src = write_points(tmp_path / "circle.csv", pts)
        out = tmp_path / "out"
        assert run_cli(["embed", src, "--dim", "2", "--geodesic", "2",
                        "--rescale-mean", "--seed", "0", "--out", out]) == 0
        assert (out / "trace.jsonl").exists()


class TestJoint:
    def test_self_match_node_correctness(self, tmp_path):
        rng = np.random.default_rng(2)
        d = pairwise_euclidean(rng.standard_normal((30, 2)))
        src = tmp_path / "d.csv"
        fileio.write_matrix(src, d)
        out = tmp_path / "out"
        code = run_cli(["joint", src, src, "--kind", "distances", "--dim", "2",
                        "--lambda", "0.1", "--epsilon", "0.1", "--iters", "80",
                        "--inner-wp", "5", "--inner-smacof", "25", "--restarts", "2",
                        "--seed", "0", "--gw-init", "--lambda-anneal",
                        "--truth", "identity", "--out", out])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["node_correctness"] >= 0.9
        assert metrics["foscttm"] <= 0.05

    def test_truth_index_out_of_range(self, tmp_path, capsys):
        src = write_points(tmp_path / "x.csv",
                           np.random.default_rng(2).standard_normal((12, 3)))
        truth = tmp_path / "t.csv"
        fileio.write_labels(truth, np.append(np.arange(11), 40))
        out = tmp_path / "out"
        assert run_cli(["joint", src, src, "--iters", "2", "--restarts", "1",
                        "--truth", truth, "--out", out]) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["level"] == "error"
        assert str(truth) in error["message"] and "40" in error["message"]
        # the truth file is checked before the solve
        assert not (out / "z1.csv").exists()

    def test_missing_second_input(self, tmp_path):
        src = write_points(tmp_path / "x.csv", np.zeros((3, 2)))
        with pytest.raises(SystemExit):
            run_cli(["joint", src, "--out", tmp_path / "o"])

    def test_determinism_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((15, 4))
        x2 = rng.standard_normal((15, 6))
        s1 = write_points(tmp_path / "x1.csv", x1)
        s2 = write_points(tmp_path / "x2.csv", x2)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["joint", s1, s2, "--dim", "2", "--iters", "4",
                            "--restarts", "2", "--seed", "11", "--out", out]) == 0
            outs.append(out)
        for fname in ("z1.csv", "z2.csv", "coupling.csv", "trace.jsonl"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_labels_trigger_transfer_metrics(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 3))
        s1 = write_points(tmp_path / "x1.csv", x)
        s2 = write_points(tmp_path / "x2.csv", x + 0.01 * rng.standard_normal((20, 3)))
        labels = rng.integers(0, 2, 20)
        fileio.write_labels(tmp_path / "l.csv", labels)
        out = tmp_path / "out"
        assert run_cli(["joint", s1, s2, "--iters", "4", "--restarts", "1",
                        "--labels1", tmp_path / "l.csv", "--labels2", tmp_path / "l.csv",
                        "--seed", "0", "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "transfer_accuracy" in metrics

    @staticmethod
    def _read_once_case(command, tmp_path):
        """Input paths and argv of one ``command`` run over 12-point inputs."""
        rng = np.random.default_rng(6)
        truth = tmp_path / "t.csv"
        fileio.write_labels(truth, np.arange(12))
        if command == "joint":
            s1 = write_points(tmp_path / "x1.csv", rng.standard_normal((12, 3)))
            s2 = write_points(tmp_path / "x2.csv", rng.standard_normal((12, 4)))
            labels = tmp_path / "l.csv"
            fileio.write_labels(labels, rng.integers(0, 2, 12))
            return [s1, s2, labels], ["joint", s1, s2, "--iters", "2", "--restarts", "1",
                                      "--labels1", labels, "--labels2", labels]
        if command == "match":
            e1, e2 = tmp_path / "e1.txt", tmp_path / "e2.txt"
            ring = [(i, (i + 1) % 12, 1.0) for i in range(12)]
            fileio.write_edge_list(e1, ring + [(0, 6, 1.0)])
            fileio.write_edge_list(e2, ring + [(3, 9, 1.0)])
            return [e1, e2, truth], ["match", e1, e2, "--iters", "2", "--restarts", "1",
                                     "--truth", truth]
        z = rng.standard_normal((12, 2))
        z1, z2, d1, d2 = (tmp_path / name for name in ("z1.csv", "z2.csv", "d1.csv", "d2.csv"))
        fileio.write_embedding(z1, z)
        fileio.write_embedding(z2, z + 0.01 * rng.standard_normal((12, 2)))
        fileio.write_matrix(d1, pairwise_euclidean(z))
        fileio.write_matrix(d2, pairwise_euclidean(z))
        if command == "eval-dense":
            coupling = tmp_path / "p.csv"
            fileio.write_matrix(coupling, np.eye(12) / 12)
        else:
            coupling = tmp_path / "p.txt"
            fileio.write_coupling_triplets(coupling, np.eye(12) / 12)
        inputs = [z1, z2, d1, d2, coupling, truth]
        return inputs, ["eval", "--z1", z1, "--z2", z2, "--d1", d1, "--d2", d2,
                        "--coupling", coupling, "--truth", truth]

    @pytest.mark.parametrize("command", ["joint", "match", "eval-dense", "eval-triplets"])
    def test_each_input_read_once(self, tmp_path, monkeypatch, command):
        inputs, argv = self._read_once_case(command, tmp_path)
        inputs = [str(path) for path in inputs]
        opened = []

        def counting(real_open):
            def counting_open(file, *args, **kwargs):
                if str(file) in inputs:
                    opened.append(str(file))
                return real_open(file, *args, **kwargs)
            return counting_open

        # pathlib opens files through io.open, np.loadtxt through its
        # datasource, and other code through open
        for module in (io, builtins, np.lib._datasource):
            monkeypatch.setattr(module, "open", counting(module.open))
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", out]) == 0
        monkeypatch.undo()
        assert sorted(opened) == sorted(inputs)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {path: fileio.sha256_file(path) for path in inputs}

    @pytest.mark.parametrize("command", ["joint", "eval"])
    def test_manifest_lists_every_metric_input(self, tmp_path, command):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((10, 2))
        z1, z2 = tmp_path / "z1.csv", tmp_path / "z2.csv"
        write = write_points if command == "joint" else fileio.write_embedding
        write(z1, x)
        write(z2, x)
        l1, l2, truth = tmp_path / "l1.csv", tmp_path / "l2.csv", tmp_path / "truth.csv"
        fileio.write_labels(l1, rng.integers(0, 2, 10))
        fileio.write_labels(l2, rng.integers(0, 2, 10))
        fileio.write_labels(truth, np.arange(10))
        out = tmp_path / "out"
        if command == "joint":
            argv = ["joint", z1, z2, "--iters", "2", "--restarts", "1"]
        else:
            argv = ["eval", "--z1", z1, "--z2", z2]
        assert run_cli(argv + ["--labels1", l1, "--labels2", l2, "--truth", truth,
                               "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"foscttm", "transfer_accuracy"} <= set(metrics)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {str(path): fileio.sha256_file(path)
                                      for path in (z1, z2, l1, l2, truth)}

    @pytest.mark.parametrize("flags, shared", [([], True), (["--weight-exponent", "1"], False)])
    def test_uniform_weights_shared(self, tmp_path, monkeypatch, flags, shared):
        rng = np.random.default_rng(15)
        s1 = write_points(tmp_path / "x1.csv", rng.standard_normal((10, 2)))
        s2 = write_points(tmp_path / "x2.csv", rng.standard_normal((10, 3)))
        seen = []

        def solve(d1, d2, w1, w2, *args, **kwargs):
            seen.append(w1 is w2)
            return real_solve(d1, d2, w1, w2, *args, **kwargs)

        real_solve = jointmds.solve
        monkeypatch.setattr(jointmds, "solve", solve)
        assert run_cli(["joint", s1, s2, "--iters", "2", "--restarts", "1",
                        "--out", tmp_path / "out"] + flags) == 0
        assert seen == [shared]

    @pytest.mark.parametrize("exponent", ["-inf", "inf", "nan"])
    def test_non_finite_weight_exponent_rejected(self, tmp_path, capsys, monkeypatch, exponent):
        def solve(*args, **kwargs):
            raise AssertionError("solve reached with a non-finite weight exponent")

        monkeypatch.setattr(jointmds, "solve", solve)
        rng = np.random.default_rng(15)
        s1 = write_points(tmp_path / "x1.csv", rng.standard_normal((10, 2)))
        code = run_cli(["joint", s1, s1, f"--weight-exponent={exponent}",
                        "--out", tmp_path / "out"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "weight exponent must be finite" in json.loads(lines[0])["message"]

    def test_label_count_checked_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solve reached with a short labels file")

        monkeypatch.setattr(jointmds, "solve", solve)
        rng = np.random.default_rng(16)
        s1 = write_points(tmp_path / "x1.csv", rng.standard_normal((40, 2)))
        short, full = tmp_path / "short.csv", tmp_path / "full.csv"
        fileio.write_labels(short, rng.integers(0, 2, 30))
        fileio.write_labels(full, rng.integers(0, 2, 40))
        out = tmp_path / "out"
        assert run_cli(["joint", s1, s1, "--labels1", short, "--labels2", full,
                        "--out", out]) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert str(short) in error["message"] and "30" in error["message"]
        assert not (out / "z1.csv").exists()

    def test_sparse_coupling_output(self, tmp_path):
        rng = np.random.default_rng(5)
        d = pairwise_euclidean(rng.standard_normal((10, 2)))
        src = tmp_path / "d.csv"
        fileio.write_matrix(src, d)
        out = tmp_path / "out"
        assert run_cli(["joint", src, src, "--kind", "distances", "--iters", "3",
                        "--restarts", "1", "--seed", "0", "--sparse-coupling",
                        "--out", out]) == 0
        p = fileio.read_coupling_triplets(out / "coupling.txt")
        assert p.shape == (10, 10)

    def test_config_file_and_flag_precedence(self, tmp_path):
        rng = np.random.default_rng(6)
        d = pairwise_euclidean(rng.standard_normal((8, 2)))
        src = tmp_path / "d.csv"
        fileio.write_matrix(src, d)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 3, "restarts": 1, "seed": 5, "dim": 3}))
        out = tmp_path / "out"
        assert run_cli(["joint", src, src, "--kind", "distances",
                        "--config", cfg, "--dim", "2", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dim"] == 2          # flag wins
        assert manifest["config"]["outer_iters"] == 3  # from JSON
        z1 = fileio.read_embedding(out / "z1.csv")
        assert z1.shape == (8, 2)

    @pytest.mark.parametrize("entry", [
        {"seed": "5"}, {"dim": "2"}, {"restarts": 2.0}, {"seed": True},
        {"lambda": "0.1"}, {"epsilon": False},
        {"gw_init": 1}, {"lambda_anneal": "true"},
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, entry):
        src = write_points(tmp_path / "x.csv", np.eye(4))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        code = run_cli(["joint", src, src, "--config", cfg, "--out", tmp_path / "out"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["level"] == "error"
        assert repr(next(iter(entry))) in record["message"]

    def test_config_not_an_object_rejected(self, tmp_path, capsys):
        src = write_points(tmp_path / "x.csv", np.eye(4))
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[2, 3]")
        code = run_cli(["joint", src, src, "--config", cfg, "--out", tmp_path / "out"])
        assert code == 1
        assert "JSON object" in json.loads(capsys.readouterr().err)["message"]

    def test_config_int_accepted_for_float(self, tmp_path):
        src = write_points(tmp_path / "x.csv", np.eye(4))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 1, "iters": 2, "restarts": 1,
                                   "gw_init": True}))
        out = tmp_path / "out"
        assert run_cli(["joint", src, src, "--config", cfg, "--out", out]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["lam"] == 1.0 and isinstance(config["lam"], float)
        assert config["gw_init"] is True

    def test_manifest_records_cores_and_blas_threads(self, tmp_path):
        src = write_points(tmp_path / "x.csv", np.eye(4))
        # the default is every core the process may run on
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        for flag, threads in (([], usable), (["--threads", "3"], 3)):
            out = tmp_path / f"out{len(flag)}"
            assert run_cli(["joint", src, src, "--iters", "2", "--restarts", "1",
                            "--out", out] + flag) == 0
            machine = json.loads((out / "manifest.json").read_text())["machine"]
            assert machine["cpu_count"] == os.cpu_count()
            assert machine["solver_threads"] == threads
            assert machine["openblas"] == [
                {"library": name, "threads": get(), "threads_in_solve": 1}
                for name, (get, _) in _blas.openblas_pools().items()]

    @pytest.mark.parametrize("command", ["joint", "match"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command, threads):
        src = tmp_path / "e.txt"
        src.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "out"
        code = run_cli([command, src, src, "--threads", threads, "--out", out])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["level"] == "error"
        assert f"--threads must be >= 1, got {threads}" in record["message"]
        assert not out.exists()

    def test_subproblems_at_budget_reported(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(7)
        src = write_points(tmp_path / "x.csv", rng.standard_normal((12, 3)))
        argv = ["joint", src, src, "--iters", "2", "--inner-wp", "2",
                "--restarts", "1", "--seed", "0"]

        def run(name):
            out = tmp_path / name
            assert run_cli(argv + ["--out", out]) == 0
            records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
            summary = json.loads((out / "manifest.json").read_text())["summary"]
            return out, summary, [r for r in records if r["level"] == "warning"]

        out, summary, warnings = run("normal")
        assert summary["sinkhorn_at_budget"] == 0
        assert summary["smacof_init_at_budget"] == 0
        assert summary["gw_sinkhorn_at_budget"] == 0
        assert summary["sinkhorn_newton_steps"] >= 0
        assert 2 <= summary["joint_guttman_steps"] <= 2 * 50
        assert 0 <= summary["joint_smacof_at_budget"] <= 2
        assert warnings == []
        # joint passes stopping at their inner budget are counted, not warned about
        argv += ["--inner-smacof", "1"]
        inner, summary, warnings = run("inner")
        assert summary["joint_guttman_steps"] == 2
        assert summary["joint_smacof_at_budget"] == 2
        assert warnings == []
        # one scaling iteration per transport solve stops each at its budget
        monkeypatch.setattr(transport, "sinkhorn",
                            functools.partial(transport.sinkhorn, max_iter=1))
        starved, summary, warnings = run("starved")
        assert summary["sinkhorn_at_budget"] == 4
        assert len(warnings) == 1
        assert warnings[0]["sinkhorn_at_budget"] == 4
        assert warnings[0]["smacof_init_at_budget"] == summary["smacof_init_at_budget"]
        assert warnings[0]["gw_sinkhorn_at_budget"] == 0
        # a starved Gromov-Wasserstein warm start is counted and warned about
        argv += ["--gw-init"]
        gw, summary, warnings = run("gw")
        assert summary["gw_sinkhorn_at_budget"] > 0
        assert len(warnings) == 1
        assert warnings[0]["gw_sinkhorn_at_budget"] == summary["gw_sinkhorn_at_budget"]
        for path in (out, inner, starved, gw):
            keys = {tuple(sorted(json.loads(line)))
                    for line in (path / "trace.jsonl").read_text().splitlines()}
            assert keys == {("iter", "objective")}


class TestMatch:
    @staticmethod
    def er_edges(n, p, rng):
        from scipy.sparse.csgraph import connected_components

        while True:
            mask = np.triu(rng.random((n, n)) < p, 1)
            adj = mask | mask.T
            if connected_components(adj.astype(int), directed=False)[0] == 1:
                return [(i, j) for i, j in zip(*np.nonzero(mask))]

    def test_er_self_matching(self, tmp_path):
        scores = []
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            edges = self.er_edges(60, 0.15, rng)
            perm = rng.permutation(60)
            e1 = tmp_path / f"g1_{seed}.txt"
            e2 = tmp_path / f"g2_{seed}.txt"
            fileio.write_edge_list(e1, [(i, j, 1.0) for i, j in edges])
            fileio.write_edge_list(e2, [(perm[i], perm[j], 1.0) for i, j in edges])
            truth = tmp_path / f"truth_{seed}.csv"
            fileio.write_labels(truth, perm)
            out = tmp_path / f"out_{seed}"
            code = run_cli(["match", e1, e2, "--dim", "8", "--iters", "60",
                            "--inner-wp", "5", "--inner-smacof", "25",
                            "--restarts", "2", "--seed", str(seed),
                            "--truth", truth, "--out", out])
            assert code == 0
            metrics = json.loads((out / "metrics.json").read_text())
            scores.append(metrics["node_correctness"])
        assert np.median(scores) >= 0.9

    def test_self_loop_dropped_with_warning(self, tmp_path, capsys):
        e1 = tmp_path / "g1.txt"
        e2 = tmp_path / "g2.txt"
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (1, 1, 1.0)]
        fileio.write_edge_list(e1, edges)
        fileio.write_edge_list(e2, edges[:3])
        out = tmp_path / "out"
        code = run_cli(["match", e1, e2, "--dim", "2", "--iters", "2",
                        "--restarts", "1", "--seed", "0", "--out", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "self-loops" in captured.err
        assert (out / "matches.csv").exists()

    def test_config_file_overrides_match_defaults(self, tmp_path):
        e1 = tmp_path / "g1.txt"
        fileio.write_edge_list(e1, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 2, "restarts": 1, "gw_init": False}))
        out = tmp_path / "out"
        assert run_cli(["match", e1, e1, "--config", cfg, "--out", out]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["gw_init"] is False        # from JSON
        assert config["lambda_anneal"] is True   # match default

    def test_disconnected_graph_reports_components(self, tmp_path, capsys):
        e1 = tmp_path / "g1.txt"
        fileio.write_edge_list(e1, [(0, 1, 1.0), (2, 3, 1.0)])
        out = tmp_path / "out"
        code = run_cli(["match", e1, e1, "--iters", "2", "--restarts", "1",
                        "--out", out])
        assert code != 0
        assert "components" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_rejected(self, tmp_path, capsys, weight):
        e1 = tmp_path / "g1.txt"
        e1.write_text(f"0 1 1\n1 2 {weight}\n2 3 1\n3 0 1\n")
        code = run_cli(["match", e1, e1, "--iters", "2", "--restarts", "1",
                        "--out", tmp_path / "out"])
        assert code == 1
        message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert "edge (1,2) has non-finite weight" in message
        assert "components" not in message


class TestConfigFlags:
    def test_table_covers_every_config_field_once(self):
        fields = [field for field, _ in _CONFIG_FIELDS.values()]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(JointConfig))

    @pytest.mark.parametrize("command", ["joint", "match"])
    @pytest.mark.parametrize("key", list(_CONFIG_FIELDS))
    def test_flag_parses_to_field_type(self, command, key):
        field = _CONFIG_FIELDS[key][0]
        default = getattr(JointConfig(), field)
        flag = "--" + key.replace("_", "-")
        parser = build_parser()
        base = [command, "a", "b"]
        # unset flags stay None, so a config file value is not overridden
        assert getattr(parser.parse_args(base), key) is None
        if isinstance(default, bool):
            assert getattr(parser.parse_args(base + [flag]), key) is True
            assert getattr(parser.parse_args(base + ["--no-" + flag[2:]]), key) is False
        else:
            value = getattr(parser.parse_args(base + [flag, "3"]), key)
            assert type(value) is type(default) and value == 3


@pytest.mark.parametrize("argv, flag", [
    (["embed", "missing.csv", "--graph", "inv"], "--graph"),
    (["joint", "missing.csv", "missing.csv", "--kind", "distances", "--graph", "hop"],
     "--graph"),
    (["embed", "missing.txt", "--kind", "edges", "--header"], "--header"),
    (["match", "missing.txt", "missing.txt", "--header"], "--header"),
])
def test_input_flag_ignored_by_kind_rejected(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert run_cli(argv + ["--out", out]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["level"] == "error"
    # the inputs do not exist: the flag is checked before any file is read
    assert record["message"].startswith(flag)
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--labels1", "--labels2"])
def test_joint_lone_labels_flag_rejected(tmp_path, capsys, flag):
    # no metric reads one labels file alone; the inputs do not exist, so the
    # pair is checked before any file is read
    out = tmp_path / "o"
    assert run_cli(["joint", "missing.csv", "missing.csv", flag, "missing.txt",
                    "--out", out]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["level"] == "error"
    assert record["message"] == "--labels1 and --labels2 must be given together"
    assert not out.exists()


@pytest.mark.parametrize("command", [["match", "g1.txt", "g2.txt"], ["eval"]])
def test_kind_flag_rejected(tmp_path, command):
    # match always reads edge lists and eval reads no dissimilarity input
    with pytest.raises(SystemExit):
        run_cli(command + ["--kind", "features", "--out", tmp_path / "o"])


class TestEval:
    def test_identical_embeddings_zero_foscttm(self, tmp_path):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((10, 2))
        zf = tmp_path / "z.csv"
        fileio.write_embedding(zf, z)
        out = tmp_path / "out"
        assert run_cli(["eval", "--z1", zf, "--z2", zf, "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["foscttm"] == 0.0
        assert "node_correctness" in metrics["skipped"]

    def test_scaled_truth_coupling_full_correctness(self, tmp_path):
        n = 6
        perm = np.random.default_rng(8).permutation(n)
        p = np.zeros((n, n)); p[np.arange(n), perm] = 1 / n
        pf = tmp_path / "p.csv"
        fileio.write_matrix(pf, p)
        tf = tmp_path / "t.csv"
        fileio.write_labels(tf, perm)
        out = tmp_path / "out"
        assert run_cli(["eval", "--coupling", pf, "--truth", tf, "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["node_correctness"] == 1.0
        assert metrics["top3_accuracy"] == 1.0
        # triplets are read by their .txt suffix, also in front of a compression suffix
        triplets = tmp_path / "p.txt"
        fileio.write_coupling_triplets(triplets, p)
        packed = tmp_path / "p.txt.gz"
        packed.write_bytes(gzip.compress(triplets.read_bytes()))
        for path in (triplets, packed):
            out = tmp_path / ("out-" + path.name)
            assert run_cli(["eval", "--coupling", path, "--truth", tf, "--out", out]) == 0
            assert json.loads((out / "metrics.json").read_text()) == metrics

    def test_truth_index_out_of_range(self, tmp_path, capsys):
        pf = tmp_path / "p.csv"
        fileio.write_matrix(pf, np.full((12, 12), 1 / 144))
        tf = tmp_path / "t.csv"
        fileio.write_labels(tf, np.append(np.arange(11), 40))
        assert run_cli(["eval", "--coupling", pf, "--truth", tf,
                        "--out", tmp_path / "out"]) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["level"] == "error"
        assert str(tf) in error["message"] and "40" in error["message"]

    @pytest.mark.parametrize("line", ["-1 1 0.5", "5 1 0.5", "1 x 0.5"])
    def test_bad_sparse_coupling_line_rejected(self, tmp_path, capsys, line):
        # "-1 1" once wrote row 1 and scored node correctness 1.0 against identity
        pf = tmp_path / "c.txt"
        pf.write_text(f"# 2 2\n0 0 0.5\n{line}\n")
        assert run_cli(["eval", "--coupling", pf, "--truth", "identity",
                        "--out", tmp_path / "out"]) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["level"] == "error"
        assert f"{pf}:3:" in error["message"]
        assert not (tmp_path / "out" / "metrics.json").exists()

    @pytest.mark.parametrize("name,text,lineno", [
        ("c.txt", "# 2 2\n0 0 nan\n1 1 0.5\n", 2),
        ("c.txt", "# 2 2\n0 0 0.5\n1 1 -0.5\n", 3),
        ("c.csv", "0.5,0\n0,inf\n", 2),
    ])
    def test_non_finite_or_negative_coupling_rejected(self, tmp_path, capsys, name, text,
                                                      lineno):
        # a NaN coupling once scored node_correctness NaN into metrics.json
        pf = tmp_path / name
        pf.write_text(text)
        sparse = ["--sparse-coupling"] if name.endswith(".txt") else []
        assert run_cli(["eval", "--coupling", pf, *sparse, "--truth", "identity",
                        "--out", tmp_path / "out"]) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert f"{pf}:{lineno}: coupling value" in error["message"]
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_reproduces_joint_metrics(self, tmp_path):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((16, 3))
        s1 = write_points(tmp_path / "x1.csv", x)
        s2 = write_points(tmp_path / "x2.csv", x @ rng.standard_normal((3, 4)))
        labels = tmp_path / "l.csv"
        fileio.write_labels(labels, rng.integers(0, 3, 16))
        pair = ["--truth", "identity", "--labels1", labels, "--labels2", labels]
        run, out = tmp_path / "run", tmp_path / "eval"
        assert run_cli(["joint", s1, s2, "--iters", "3", "--restarts", "1",
                        "--seed", "0", "--out", run] + pair) == 0
        assert run_cli(["eval", "--z1", run / "z1.csv", "--z2", run / "z2.csv",
                        "--coupling", run / "coupling.csv", "--out", out] + pair) == 0
        keys = ("foscttm", "node_correctness", "top3_accuracy", "top5_accuracy",
                "transfer_accuracy")
        joint, evaluated = (json.loads((path / "metrics.json").read_text())
                            for path in (run, out))
        assert {key: joint[key] for key in keys} == {key: evaluated[key] for key in keys}

    def test_rmsd_on_self_aligned_exact_instance(self, tmp_path):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((12, 3))
        d = pairwise_euclidean(z)
        zf = tmp_path / "z.csv"
        fileio.write_embedding(zf, z)
        df = tmp_path / "d.csv"
        fileio.write_matrix(df, d)
        tf = tmp_path / "t.csv"
        fileio.write_labels(tf, np.arange(12))
        out = tmp_path / "out"
        assert run_cli(["eval", "--z1", zf, "--z2", zf, "--d1", df, "--d2", df,
                        "--truth", tf, "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmsd_d"] <= 1e-6


class TestGen:
    def test_swiss_roll_file_shapes(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["gen", "--kind", "swiss_roll", "--n", "300", "--seed", "1",
                        "--out", out]) == 0
        x1 = fileio.read_matrix(out / "x1.csv")
        x2 = fileio.read_matrix(out / "x2.csv")
        assert x1.shape == (300, 1000)
        assert x2.shape == (300, 2000)
        assert fileio.read_labels(out / "labels.csv").shape == (300,)
        assert fileio.read_matrix(out / "latent.csv").shape == (300, 3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["kind"] == "swiss_roll"

    def test_repeated_seed_bitwise_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["gen", "--kind", "bifurcation", "--n", "40",
                            "--p1", "10", "--p2", "12", "--seed", "3",
                            "--out", out]) == 0
            outs.append(out)
        for fname in ("x1.csv", "x2.csv", "labels.csv", "latent.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_n_zero_usage_error(self, tmp_path):
        assert run_cli(["gen", "--kind", "swiss_roll", "--n", "0",
                        "--out", tmp_path / "o"]) != 0


class TestSeedEnvFallback:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(10)
        src = write_points(tmp_path / "x.csv", rng.standard_normal((8, 2)))
        out_env, out_flag = tmp_path / "e", tmp_path / "f"
        monkeypatch.setenv("JOINTSCALE_SEED", "21")
        assert run_cli(["embed", src, "--dim", "2", "--out", out_env]) == 0
        monkeypatch.delenv("JOINTSCALE_SEED")
        assert run_cli(["embed", src, "--dim", "2", "--seed", "21",
                        "--out", out_flag]) == 0
        assert (out_env / "embedding.csv").read_bytes() == (out_flag / "embedding.csv").read_bytes()

    def test_config_seed_beats_env(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        src = write_points(tmp_path / "x.csv", rng.standard_normal((8, 2)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 2, "restarts": 1, "seed": 5}))
        monkeypatch.setenv("JOINTSCALE_SEED", "21")
        assert run_cli(["joint", src, src, "--config", cfg, "--out", tmp_path / "c"]) == 0
        assert run_cli(["joint", src, src, "--config", cfg, "--seed", "8",
                        "--out", tmp_path / "f"]) == 0
        seeds = [json.loads((tmp_path / name / "manifest.json").read_text())["seed"]
                 for name in ("c", "f")]
        assert seeds == [5, 8]

    @pytest.mark.parametrize("command", [
        ["gen", "--kind", "swiss_roll", "--n", "10", "--p1", "3", "--p2", "3"],
        ["embed", "x.csv"],
    ])
    def test_env_seed_not_an_integer(self, tmp_path, capsys, monkeypatch, command):
        write_points(tmp_path / "x.csv", np.eye(4))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("JOINTSCALE_SEED", "abc")
        assert run_cli(command + ["--out", tmp_path / "o"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["level"] == "error"
        assert "JOINTSCALE_SEED" in record["message"]
