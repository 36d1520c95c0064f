"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

One operation is one full pipeline, from the generated inputs to returned
or written outputs.  Every call into ``jointscale`` goes through a module
attribute (``ds.knn_graph``, ``jointmds.solve``, ``cli.main``), so the
traced run can wrap each public function where its caller looks it up.

The instances are fixed: the swiss rolls use data seed 42 and the graph is
the ER graph of seed 0 with its planted permutation, the instances of
acceptance criteria 6 and 8.  ``--seed`` draws only the form in which the
same instance reaches the program: the swiss rolls' feature columns are
permuted and sign-flipped (an isometry, so distances change by rounding
only) and the graph edge lists are shuffled and their endpoints swapped.
Two reasons keep the instances fixed.  About half of all random restarts
land in a mirrored matching, so on other swiss-roll data seeds both
restarts can miss the FOSCTTM bound.  And the graph's wall time follows
the planted permutation: seven permutations took 15.7 to 21.1 s per
operation, a spread wider than a useful regression bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

import checks
from jointscale import cli, fileio, jointmds, synthdata
from jointscale import dissimilarity as ds
from jointscale import metrics as mt

SWISS_DATA_SEED = 42
GRAPH_SEED = 0
GEODESIC_K = 10


@dataclass
class Outcome:
    """What one operation returned or wrote."""

    z1: np.ndarray
    z2: np.ndarray
    p: np.ndarray
    objective: float
    restart_index: int
    last_by_restart: dict
    # ground-truth quality as the program's own metrics module computed it
    quality: dict = field(default_factory=dict)


class OuterLog:
    """``on_outer`` callback keeping each restart's last objective; thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self.last: dict[int, tuple[int, float]] = {}

    def __call__(self, restart: int, iteration: int, objective: float) -> None:
        with self._lock:
            if iteration >= self.last.get(restart, (0, 0.0))[0]:
                self.last[restart] = (iteration, objective)

    def objectives(self) -> dict[int, float]:
        return {r: obj for r, (_, obj) in self.last.items()}


def signed_column_permutation(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permute and sign-flip the columns: an isometry of the feature space."""
    perm = rng.permutation(x.shape[1])
    signs = rng.choice((-1.0, 1.0), size=x.shape[1])
    return x[:, perm] * signs


def swiss_roll_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pair = synthdata.generate(synthdata.GenSpec(kind="swiss_roll", n=n, p1=1000, p2=2000,
                                                seed=SWISS_DATA_SEED))
    rng = np.random.default_rng(seed)
    return (signed_column_permutation(pair.x1, rng),
            signed_column_permutation(pair.x2, rng), pair.labels)


def shuffled_edges(edges: list[tuple[int, int]], rng: np.random.Generator) -> list:
    """The same undirected edges in a random order, each with random orientation."""
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    return [edges[k][::-1] if flip[k] else edges[k] for k in order]


def er_edges(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Erdos-Renyi edges, redrawn until the graph is connected."""
    while True:
        mask = np.triu(rng.random((n, n)) < p, 1)
        if connected_components((mask | mask.T).astype(int), directed=False)[0] == 1:
            return [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]


def outer_objectives(log: str) -> dict[int, float]:
    """Each restart's last objective from the CLI's JSON stderr log.

    Lines that are not JSON objects, such as a Python or numpy warning, are
    skipped: they say nothing about the outputs.
    """
    last: dict[int, float] = {}
    for line in log.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and rec.get("message") == "outer iteration":
            last[rec["restart"]] = rec["objective"]
    return last


def check_common(out: Outcome, d1, d2, w1, w2, lam: float) -> dict:
    """Coupling validity, objective recomputation and winner selection."""
    violation = checks.check_coupling(out.p, (out.z1.shape[0], out.z2.shape[0]))
    own = checks.joint_objective(out.z1, out.z2, d1, d2, w1, w2, out.p, lam)
    checks.check_objective(out.objective, own)
    checks.check_winner(out.objective, out.restart_index, out.last_by_restart)
    return {"objective": out.objective, "marginal_violation": violation}


class Swiss300:
    """Criterion-6 pipeline through the library: two restarts on a thread pool."""

    name = "swiss300"
    n = 300

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.x1, self.x2, self.labels = swiss_roll_pair(self.n, self.seed)

    @staticmethod
    def _geodesic(x: np.ndarray) -> np.ndarray:
        d = ds.pairwise_euclidean(synthdata.standardize(x))
        graph = ds.knn_graph(d, GEODESIC_K)
        return ds.rescale_by_mean(ds.geodesic_distances(graph, connect=True, source=d))

    def config(self) -> jointmds.JointConfig:
        return jointmds.JointConfig(dim=2, lam=0.1, epsilon0=1.0, alpha=0.95, outer_iters=60,
                                    inner_wp_iters=5, inner_smacof_iters=25, restarts=2, seed=0)

    def run(self, workdir: Path) -> Outcome:
        d1, d2 = self._geodesic(self.x1), self._geodesic(self.x2)
        w = ds.uniform_weight_matrix(self.n)
        log = OuterLog()
        res = jointmds.solve(d1, d2, w, w, self.config(), threads=2, on_outer=log)
        quality = {
            "foscttm": mt.foscttm(res.z1, res.z2),
            "transfer_accuracy": mt.accuracy(
                mt.knn_transfer(res.z1, self.labels, res.z2, k=5), self.labels),
        }
        return Outcome(res.z1, res.z2, res.p, res.final_objective, res.restart_index,
                       log.objectives(), quality)

    def check(self, out: Outcome) -> dict:
        d1 = checks.geodesic_distances(checks.standardize(self.x1), GEODESIC_K)
        d2 = checks.geodesic_distances(checks.standardize(self.x2), GEODESIC_K)
        w = checks.uniform_weights(self.n)
        found = check_common(out, d1, d2, w, w, self.config().lam)
        fos = checks.foscttm(out.z1, out.z2)
        checks.require(fos <= checks.SWISS_FOSCTTM_BOUND,
                       f"FOSCTTM {fos:.4f} > {checks.SWISS_FOSCTTM_BOUND}")
        found.update(foscttm=fos, transfer_accuracy=checks.transfer_accuracy(
            out.z1, self.labels, out.z2, self.labels), restart_index=out.restart_index)
        for name, value in out.quality.items():
            checks.check_metric(name, value, found[name])
        return found


class Graph100:
    """Criterion-8 pipeline on one ER graph and a permuted copy, one restart."""

    name = "graph100"
    n = 100

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        rng = np.random.default_rng(GRAPH_SEED)
        edges = er_edges(self.n, 0.1, rng)
        self.perm = rng.permutation(self.n)
        copy = [(int(self.perm[i]), int(self.perm[j])) for i, j in edges]
        form = np.random.default_rng(self.seed)
        self.edges1, self.edges2 = shuffled_edges(edges, form), shuffled_edges(copy, form)

    def config(self) -> jointmds.JointConfig:
        return jointmds.JointConfig(dim=8, lam=0.1, epsilon0=1.0, alpha=0.95, outer_iters=60,
                                    inner_wp_iters=5, inner_smacof_iters=25, restarts=1, seed=0,
                                    gw_init=True, lambda_anneal=True)

    def run(self, workdir: Path) -> Outcome:
        d1 = ds.graph_dissimilarity(ds.normalized_adjacency(self.edges1, self.n), mode="hop")
        d2 = ds.graph_dissimilarity(ds.normalized_adjacency(self.edges2, self.n), mode="hop")
        w1, w2 = ds.power_weight_matrix(d1, 4.0), ds.power_weight_matrix(d2, 4.0)
        log = OuterLog()
        res = jointmds.solve(d1, d2, w1, w2, self.config(), threads=1, on_outer=log)
        truth = np.zeros((self.n, self.n), dtype=int)
        truth[np.arange(self.n), self.perm] = 1
        quality = {"node_correctness": mt.node_correctness(res.p, truth)}
        return Outcome(res.z1, res.z2, res.p, res.final_objective, res.restart_index,
                       log.objectives(), quality)

    def check(self, out: Outcome) -> dict:
        d1 = checks.hop_distances(self.edges1, self.n)
        d2 = checks.hop_distances(self.edges2, self.n)
        w1, w2 = checks.inverse_power_weights(d1, 4.0), checks.inverse_power_weights(d2, 4.0)
        found = check_common(out, d1, d2, w1, w2, self.config().lam)
        nc = checks.node_correctness(out.p, self.perm)
        checks.require(nc >= checks.GRAPH_NODE_CORRECTNESS_BOUND,
                       f"node correctness {nc:.4f} < {checks.GRAPH_NODE_CORRECTNESS_BOUND}")
        found.update(node_correctness=nc)
        checks.check_metric("node_correctness", out.quality["node_correctness"], nc)
        return found


class Swiss1kCli:
    """``jointscale joint`` in-process on n=1000 swiss-roll feature CSVs."""

    name = "swiss1k_cli"
    n = 1000
    lam = 0.1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.x1, self.x2, self.labels = swiss_roll_pair(self.n, self.seed)
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        fileio.write_matrix(self.inputs / "x1.csv", self.x1)
        fileio.write_matrix(self.inputs / "x2.csv", self.x2)
        fileio.write_labels(self.inputs / "labels.csv", self.labels)

    def argv(self, out_dir: Path) -> list[str]:
        labels = str(self.inputs / "labels.csv")
        return ["joint", str(self.inputs / "x1.csv"), str(self.inputs / "x2.csv"),
                "--geodesic", str(GEODESIC_K), "--rescale-mean", "--dim", "2", "--iters", "6",
                "--lambda", str(self.lam),
                "--restarts", "1", "--seed", "0", "--truth", "identity",
                "--labels1", labels, "--labels2", labels, "--out", str(out_dir)]

    def run(self, workdir: Path) -> tuple[Path, str]:
        """Returns the output directory and the stderr log."""
        out_dir = workdir / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv(out_dir))
        if code != 0:
            raise RuntimeError(f"jointscale joint exited with {code}: {stderr.getvalue()[-500:]}")
        return out_dir, stderr.getvalue()

    def check(self, written: tuple[Path, str]) -> dict:
        """Everything is read back from the files and the stderr log."""
        try:
            return self._check_files(*written)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            raise checks.CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from exc

    def _check_files(self, out: Path, log: str) -> dict:
        z1 = np.loadtxt(out / "z1.csv", delimiter=",", ndmin=2)
        z2 = np.loadtxt(out / "z2.csv", delimiter=",", ndmin=2)
        p = np.loadtxt(out / "coupling.csv", delimiter=",", ndmin=2)
        for name, z in (("z1", z1), ("z2", z2)):
            checks.require(z.shape == (self.n, 3), f"{name}.csv has shape {z.shape}")
            checks.require(np.array_equal(z[:, 0], np.arange(self.n)),
                           f"{name}.csv lacks the row-index column")
        z1, z2 = z1[:, 1:], z2[:, 1:]
        manifest = json.loads((out / "manifest.json").read_text())
        trace = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        reported = manifest["summary"]["final_objective"]
        checks.require(reported == trace[-1]["objective"],
                       f"manifest objective {reported!r} != last trace line "
                       f"{trace[-1]['objective']!r}")
        result = Outcome(z1, z2, p, reported, manifest["summary"]["restart_index"],
                         outer_objectives(log))
        d1 = checks.geodesic_distances(self.x1, GEODESIC_K)
        d2 = checks.geodesic_distances(self.x2, GEODESIC_K)
        w = checks.uniform_weights(self.n)
        found = check_common(result, d1, d2, w, w, self.lam)
        own = {
            "foscttm": checks.foscttm(z1, z2),
            "node_correctness": checks.node_correctness(p, np.arange(self.n)),
            "transfer_accuracy": checks.transfer_accuracy(z1, self.labels, z2, self.labels),
        }
        reported_metrics = json.loads((out / "metrics.json").read_text())
        for name, value in own.items():
            checks.check_metric(name, reported_metrics[name], value)
        found.update(own)
        return found


WORKLOADS = {w.name: w for w in (Swiss300, Graph100, Swiss1kCli)}
