"""Command-line front end.

One binary with subcommands ``embed | joint | match | eval | gen``.  Reads
feature matrices, distance matrices or edge lists; writes embeddings,
couplings, traces, metrics and a run manifest into the output directory.
Config precedence is defaults < JSON config file < flags.  Standard error
carries JSON-lines logs; standard output carries the human-readable summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dissimilarity as ds, fileio, jointmds, metrics as mt
from . import synthdata
from .errors import JointScaleError
from .jointmds import JointConfig
from .smacof import random_embedding

PROG = "jointscale"


def _log(level: str, message: str, **context) -> None:
    record = {"level": level, "message": message}
    record.update(context)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _fail(message: str, code: int = 1):
    _log("error", message)
    raise SystemExit(code)


# ---------------------------------------------------------------------------
# flags

def _add_kind_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("features", "distances", "edges"),
                   default="features", help="how to interpret the input files")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delimiter", default=",", help="matrix delimiter (default ',')")
    p.add_argument("--header", action="store_true",
                   help="skip one header line when reading matrices")
    p.add_argument("--out", metavar="DIR", default=".", help="output directory")


def _add_dissimilarity_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--geodesic", metavar="K", type=int, default=None,
                   help="use shortest paths on a K-nearest-neighbor graph")
    p.add_argument("--graph", choices=("hop", "inv"), default=None,
                   help="edge length for edge-list inputs: hop count or 1/weight")
    p.add_argument("--rescale-mean", action="store_true",
                   help="rescale distances so the off-diagonal mean is 1")
    p.add_argument("--weight-exponent", metavar="E", type=float, default=None,
                   help="stress weights 1/d^E instead of uniform 1/n^2")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    # defaults stay None so explicitly passed flags can override a JSON config
    p.add_argument("--dim", type=int, default=None, help="embedding dimension")
    p.add_argument("--lambda", type=float, default=None,
                   help="matching penalty")
    p.add_argument("--epsilon", type=float, default=None,
                   help="initial entropic regularization")
    p.add_argument("--alpha", type=float, default=None,
                   help="epsilon decay factor per outer iteration")
    p.add_argument("--iters", type=int, default=None, help="outer iterations")
    p.add_argument("--inner-smacof", type=int, default=None,
                   help="majorization steps per outer iteration")
    p.add_argument("--inner-wp", type=int, default=None,
                   help="transport/Procrustes rounds per outer iteration")
    p.add_argument("--restarts", type=int, default=None, help="random restarts")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (falls back to $JOINTSCALE_SEED, then 0)")
    p.add_argument("--gw-init", action=argparse.BooleanOptionalAction, default=None,
                   help="warm start the coupling with Gromov-Wasserstein")
    p.add_argument("--lambda-anneal", action=argparse.BooleanOptionalAction, default=None,
                   help="ramp the matching penalty over the first half of the run")
    p.add_argument("--config", metavar="FILE", default=None,
                   help="JSON config file; flags override its entries")
    p.add_argument("--threads", type=int, default=1,
                   help="restart-level parallelism (default 1)")


# JSON config key, which is also the flag's argparse dest -> JointConfig field
_CONFIG_FIELDS = {
    "dim": "dim",
    "lambda": "lam",
    "epsilon": "epsilon0",
    "alpha": "alpha",
    "iters": "outer_iters",
    "inner_smacof": "inner_smacof_iters",
    "inner_wp": "inner_wp_iters",
    "restarts": "restarts",
    "seed": "seed",
    "gw_init": "gw_init",
    "lambda_anneal": "lambda_anneal",
}


# JointConfig field -> its annotated type name ("int", "float" or "bool")
_FIELD_TYPES = {f.name: getattr(f.type, "__name__", f.type)
                for f in dataclasses.fields(JointConfig)}


def _config_value(key: str, value, path: str):
    """A config-file value checked against its JointConfig field type.

    Integers are accepted for float fields; booleans are accepted only for
    bool fields, not as integers.
    """
    kind = _FIELD_TYPES[_CONFIG_FIELDS[key]]
    if kind == "bool":
        valid = isinstance(value, bool)
    elif kind == "int":
        valid = isinstance(value, int) and not isinstance(value, bool)
    else:
        valid = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not valid:
        _fail(f"config file {path}: {key!r} must be {kind}, got {value!r}")
    return float(value) if kind == "float" else value


def _seed(args: argparse.Namespace, doc: dict | None = None) -> int:
    """Seed precedence: --seed flag > config file > $JOINTSCALE_SEED > 0."""
    if args.seed is not None:
        return args.seed
    if doc and "seed" in doc:
        return doc["seed"]
    env_seed = os.environ.get("JOINTSCALE_SEED")
    if env_seed is None:
        return 0
    try:
        return int(env_seed)
    except ValueError:
        _fail(f"$JOINTSCALE_SEED must be an integer, got {env_seed!r}")


def _build_config(args: argparse.Namespace, **defaults) -> JointConfig:
    """JointConfig from ``defaults``, then the config file, then the flags."""
    cfg = JointConfig(**defaults)
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _fail(f"config file {args.config}: {exc}")
        if not isinstance(doc, dict):
            _fail(f"config file {args.config}: expected a JSON object")
        for key, value in doc.items():
            field_name = _CONFIG_FIELDS.get(key)
            if field_name is None:
                _fail(f"config file {args.config}: unknown key {key!r}")
            setattr(cfg, field_name, _config_value(key, value, args.config))
    for key, field_name in _CONFIG_FIELDS.items():
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, field_name, value)
    cfg.seed = _seed(args, doc)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# pipeline pieces

def _load_dissimilarity(path: str, args, data: bytes) -> np.ndarray:
    """Input file and its bytes -> validated dissimilarity matrix, per the --kind pipeline."""
    if args.kind == "edges":
        edges, n = fileio.read_edge_list(path, data=data)
        kept = [(i, j, w) for i, j, w in edges if i != j]
        if len(kept) < len(edges):
            _log("warning", "dropped self-loops", path=str(path),
                 dropped=len(edges) - len(kept))
        adj = ds.normalized_adjacency(kept, n)
        mode = "inverse-weight" if args.graph == "inv" else "hop"
        d = ds.graph_dissimilarity(adj, mode=mode)
    else:
        m = fileio.read_matrix(path, delimiter=args.delimiter, header=args.header,
                               data=data)
        if args.kind == "features":
            d = ds.pairwise_euclidean(m)
        else:
            d = ds.validate_dissimilarity(m, str(path))
    if args.geodesic is not None:
        graph = ds.knn_graph(d, args.geodesic)
        d = ds.geodesic_distances(graph, connect=True, source=d)
    if args.rescale_mean:
        d = ds.rescale_by_mean(d)
    return d


def _weights_for(d: np.ndarray, args) -> np.ndarray:
    if getattr(args, "weight_exponent", None) is not None:
        return ds.power_weight_matrix(d, args.weight_exponent)
    return ds.uniform_weight_matrix(d.shape[0])


def _resolve_truth(spec: str, n: int) -> np.ndarray:
    if spec == "identity":
        return np.arange(n)
    truth = fileio.read_match_indices(spec)
    if truth.shape != (n,):
        _fail(f"truth file {spec} has {truth.shape[0]} entries, expected {n}")
    return truth


def _truth_matrix(truth: np.ndarray, n: int, m: int) -> np.ndarray:
    t = np.zeros((n, m), dtype=int)
    t[np.arange(n), truth] = 1
    return t


class _Manifest:
    """Collects run metadata; written atomically at the end of a command."""

    def __init__(self, out_dir: Path, argv: list[str], seed: int | None):
        self.out_dir = out_dir
        self.start = time.monotonic()
        self.doc = {
            "command": [PROG] + argv,
            "seed": seed,
            "config": None,
            "inputs": {},
            "outputs": [],
            "versions": {
                "jointscale": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "summary": {},
        }
        import scipy

        self.doc["versions"]["scipy"] = scipy.__version__

    def add_input(self, path) -> bytes:
        """Read ``path`` once: record the SHA-256 of its bytes and return them to parse."""
        data = fileio.read_bytes(path)
        self.doc["inputs"][str(path)] = fileio.sha256_bytes(data)
        return data

    def add_output(self, path) -> Path:
        self.doc["outputs"].append(str(path))
        return path

    def write(self) -> Path:
        self.doc["duration_seconds"] = time.monotonic() - self.start
        target = self.out_dir / "manifest.json"
        self.doc["outputs"].append(str(target))
        fileio.write_json(target, self.doc)
        return target


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_embed(args) -> int:
    out = _prepare_out(args)
    seed = _seed(args)
    manifest = _Manifest(out, args.argv, seed)
    d = _load_dissimilarity(args.input, args, manifest.add_input(args.input))
    w = _weights_for(d, args)
    dim = args.dim if args.dim is not None else 2
    if dim < 1:
        _fail(f"--dim must be >= 1, got {dim}")
    scale = jointmds._init_scale(d, d)
    z0 = random_embedding(d.shape[0], dim, seed, scale)
    z, report = jointmds._relative_smacof(d, w, z0, args.max_iter)
    fileio.write_embedding(manifest.add_output(out / "embedding.csv"), z,
                           delimiter=args.delimiter)
    fileio.write_trace(
        manifest.add_output(out / "trace.jsonl"),
        [{"iter": i, "stress": s} for i, s in enumerate(report.per_iteration)],
    )
    iu = np.triu_indices(d.shape[0], k=1)
    denom = float(np.sum(w[iu] * d[iu] ** 2))
    final = report.per_iteration[-1]
    manifest.doc["config"] = {"dim": dim, "seed": seed, "max_iter": args.max_iter}
    manifest.doc["summary"] = {
        "stress": final,
        "relative_stress": final / denom if denom > 0 else 0.0,
        "iterations": report.iterations_used,
        "converged": report.converged,
    }
    manifest.write()
    print(f"embedded {d.shape[0]} points into {dim}-D; "
          f"relative stress {manifest.doc['summary']['relative_stress']:.3e}")
    return 0


def _write_joint_outputs(args, out, manifest, result) -> None:
    fileio.write_embedding(manifest.add_output(out / "z1.csv"), result.z1,
                           delimiter=args.delimiter)
    fileio.write_embedding(manifest.add_output(out / "z2.csv"), result.z2,
                           delimiter=args.delimiter)
    if args.sparse_coupling:
        fileio.write_coupling_triplets(
            manifest.add_output(out / "coupling.txt"), result.p)
    else:
        fileio.write_matrix(manifest.add_output(out / "coupling.csv"), result.p,
                            delimiter=args.delimiter)
    fileio.write_trace(
        manifest.add_output(out / "trace.jsonl"),
        [{"iter": i + 1, "objective": v} for i, v in enumerate(result.objective_trace)],
    )


def _joint_metrics(args, manifest, out, result, labels1, labels2) -> dict:
    doc: dict = {"params": {"knn_k": 5, "topk": [3, 5]}}
    n1, n2 = result.z1.shape[0], result.z2.shape[0]
    if args.truth is not None:
        truth = _resolve_truth(args.truth, n1)
        if n1 == n2:
            doc["foscttm"] = mt.foscttm(result.z1, result.z2[truth])
        t = _truth_matrix(truth, n1, n2)
        doc["node_correctness"] = mt.node_correctness(result.p, t)
        for k in (3, 5):
            if k <= n2:
                doc[f"top{k}_accuracy"] = mt.topk_accuracy(result.p, truth, k)
    if labels1 is not None and labels2 is not None:
        predicted = mt.knn_transfer(result.z1, labels1, result.z2, k=5)
        doc["transfer_accuracy"] = mt.accuracy(predicted, labels2)
    if len(doc) > 1:
        fileio.write_json(manifest.add_output(out / "metrics.json"), doc)
    return doc


def _print_metrics(doc: dict) -> None:
    for key in ("foscttm", "node_correctness", "top3_accuracy", "top5_accuracy",
                "transfer_accuracy"):
        if key in doc:
            value = doc[key]
            if key == "node_correctness":
                print(f"{key}: {100.0 * value:.2f}%")
            else:
                print(f"{key}: {value:.4f}")


def _run_pair(args, cfg: JointConfig, path1, path2, label_paths=(None, None),
              write_matches: bool = False) -> tuple[jointmds.JointResult, dict]:
    """Shared body of ``joint`` and ``match``: load, solve, write every output."""
    out = _prepare_out(args)
    manifest = _Manifest(out, args.argv, cfg.seed)
    d1 = _load_dissimilarity(path1, args, manifest.add_input(path1))
    d2 = _load_dissimilarity(path2, args, manifest.add_input(path2))
    w1 = _weights_for(d1, args)
    w2 = _weights_for(d2, args)
    by_path: dict = {}
    for path in label_paths:
        if path and path not in by_path:
            by_path[path] = fileio.read_labels(path, data=manifest.add_input(path))
    labels = [by_path.get(path) for path in label_paths]

    def on_outer(restart, iteration, objective):
        _log("info", "outer iteration", restart=restart, iter=iteration,
             objective=objective)

    result = jointmds.solve(d1, d2, w1, w2, cfg, threads=args.threads,
                            on_outer=on_outer)
    _write_joint_outputs(args, out, manifest, result)
    if write_matches:
        fileio.write_labels(manifest.add_output(out / "matches.csv"),
                            jointmds.match_argmax(result.p))
    doc = _joint_metrics(args, manifest, out, result, *labels)
    at_budget = {
        "sinkhorn_at_budget": result.sinkhorn_at_budget,
        "smacof_init_at_budget": result.smacof_init_at_budget,
    }
    if any(at_budget.values()):
        _log("warning", "solver subproblems stopped at their iteration budget",
             restart=result.restart_index, **at_budget)
    manifest.doc["config"] = cfg.__dict__
    manifest.doc["summary"] = {
        "final_objective": result.final_objective,
        "restart_index": result.restart_index,
        **at_budget,
        # stopping at the inner budget is by design, so no warning for these
        "joint_guttman_steps": result.joint_guttman_steps,
        "joint_smacof_at_budget": result.joint_smacof_at_budget,
    }
    manifest.write()
    return result, doc


def cmd_joint(args) -> int:
    result, doc = _run_pair(args, _build_config(args), args.input1, args.input2,
                            (args.labels1, args.labels2))
    print(f"joint embedding done; final objective {result.final_objective:.6g} "
          f"(restart {result.restart_index})")
    _print_metrics(doc)
    return 0


def cmd_match(args) -> int:
    cfg = _build_config(args, gw_init=True, lambda_anneal=True)
    result, doc = _run_pair(args, cfg, args.edges1, args.edges2, write_matches=True)
    print(f"matched {result.z1.shape[0]} x {result.z2.shape[0]} nodes; "
          f"final objective {result.final_objective:.6g}")
    _print_metrics(doc)
    return 0


def cmd_eval(args) -> int:
    out = _prepare_out(args)
    manifest = _Manifest(out, args.argv, None)
    loaded: dict = {}
    for name in ("z1", "z2"):
        path = getattr(args, name)
        if path:
            loaded[name] = fileio.read_embedding(path, delimiter=args.delimiter,
                                                 data=manifest.add_input(path))
    for name in ("d1", "d2"):
        path = getattr(args, name)
        if path:
            loaded[name] = fileio.read_matrix(path, delimiter=args.delimiter,
                                              header=args.header,
                                              data=manifest.add_input(path))
    coupling = None
    if args.coupling:
        data = manifest.add_input(args.coupling)
        if args.sparse_coupling or args.coupling.endswith(".txt"):
            coupling = fileio.read_coupling_triplets(args.coupling, data=data)
        else:
            coupling = fileio.read_matrix(args.coupling, delimiter=args.delimiter,
                                          data=data)
    labels1 = fileio.read_labels(args.labels1) if args.labels1 else None
    labels2 = fileio.read_labels(args.labels2) if args.labels2 else None
    truth = None
    if args.truth:
        n_rows = None
        if "z1" in loaded:
            n_rows = loaded["z1"].shape[0]
        elif coupling is not None:
            n_rows = coupling.shape[0]
        if n_rows is None:
            _fail("--truth needs --z1 or --coupling to determine the row count")
        truth = _resolve_truth(args.truth, n_rows)

    doc: dict = {"params": {"knn_k": args.knn}}
    skipped: dict = {}

    z1, z2 = loaded.get("z1"), loaded.get("z2")
    if z1 is not None and z2 is not None and z1.shape == z2.shape:
        pair = (z1, z2[truth]) if truth is not None else (z1, z2)
        doc["foscttm"] = mt.foscttm(*pair)
    else:
        skipped["foscttm"] = "needs --z1 and --z2 with equal shapes"

    if coupling is not None and truth is not None:
        t = _truth_matrix(truth, coupling.shape[0], coupling.shape[1])
        doc["node_correctness"] = mt.node_correctness(coupling, t)
        for k in (3, 5):
            if k <= coupling.shape[1]:
                doc[f"top{k}_accuracy"] = mt.topk_accuracy(coupling, truth, k)
    else:
        skipped["node_correctness"] = "needs --coupling and --truth"

    if all(key in loaded for key in ("d1", "d2")) and z1 is not None and z2 is not None \
            and truth is not None and z1.shape[0] == z2.shape[0]:
        t = _truth_matrix(truth, z1.shape[0], z2.shape[0])
        doc["rmsd_d"] = mt.rmsd_d(loaded["d1"], loaded["d2"], z1, z2, t)
    else:
        skipped["rmsd_d"] = "needs --d1 --d2 --z1 --z2 --truth with n = n'"

    if z1 is not None and z2 is not None and labels1 is not None:
        predicted = mt.knn_transfer(z1, labels1, z2, k=args.knn)
        if labels2 is not None:
            doc["transfer_accuracy"] = mt.accuracy(predicted, labels2)
        else:
            skipped["transfer_accuracy"] = "needs --labels2 as ground truth"
    else:
        skipped["transfer_accuracy"] = "needs --z1 --z2 --labels1"

    if skipped:
        doc["skipped"] = skipped
    fileio.write_json(manifest.add_output(out / "metrics.json"), doc)
    manifest.write()
    _print_metrics(doc)
    for name, reason in skipped.items():
        print(f"{name}: skipped ({reason})")
    return 0


def cmd_gen(args) -> int:
    out = _prepare_out(args)
    seed = _seed(args)
    spec = synthdata.GenSpec(kind=args.kind, n=args.n, p1=args.p1, p2=args.p2,
                             noise_sigma=args.noise_sigma, seed=seed)
    manifest = _Manifest(out, args.argv, seed)
    pair = synthdata.generate(spec)
    fileio.write_matrix(manifest.add_output(out / "x1.csv"), pair.x1)
    fileio.write_matrix(manifest.add_output(out / "x2.csv"), pair.x2)
    fileio.write_labels(manifest.add_output(out / "labels.csv"), pair.labels)
    fileio.write_matrix(manifest.add_output(out / "latent.csv"), pair.latent)
    manifest.doc["config"] = {
        "kind": spec.kind, "n": spec.n, "p1": spec.p1, "p2": spec.p2,
        "noise_sigma": spec.noise_sigma, "seed": spec.seed,
    }
    manifest.write()
    print(f"generated {spec.kind} pair: {spec.n} samples, "
          f"{spec.p1}/{spec.p2} features")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Joint isometric embedding of two dissimilarity datasets "
                    "with unsupervised correspondence recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="metric MDS of a single dataset")
    p.add_argument("input", help="input file")
    _add_kind_flag(p)
    _add_io_flags(p)
    _add_dissimilarity_flags(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=300)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("joint", help="joint embedding and correspondence recovery")
    p.add_argument("input1")
    p.add_argument("input2")
    _add_kind_flag(p)
    _add_io_flags(p)
    _add_dissimilarity_flags(p)
    _add_config_flags(p)
    p.add_argument("--labels1", default=None, help="class labels of dataset 1")
    p.add_argument("--labels2", default=None, help="class labels of dataset 2")
    p.add_argument("--truth", default=None,
                   help="true match file (index per row) or 'identity'")
    p.add_argument("--sparse-coupling", action="store_true",
                   help="write the coupling as sparse triplets")
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("match", help="graph matching from two edge lists")
    p.add_argument("edges1")
    p.add_argument("edges2")
    _add_io_flags(p)
    _add_dissimilarity_flags(p)
    _add_config_flags(p)
    p.add_argument("--truth", default=None,
                   help="true match file (index per row) or 'identity'")
    p.add_argument("--sparse-coupling", action="store_true")
    p.set_defaults(func=cmd_match, kind="edges", weight_exponent=4.0)

    p = sub.add_parser("eval", help="compute metrics from saved files")
    _add_io_flags(p)
    p.add_argument("--z1", default=None, help="first embedding CSV")
    p.add_argument("--z2", default=None, help="second embedding CSV")
    p.add_argument("--coupling", default=None, help="coupling CSV or triplet file")
    p.add_argument("--d1", default=None, help="first dissimilarity CSV")
    p.add_argument("--d2", default=None, help="second dissimilarity CSV")
    p.add_argument("--labels1", default=None)
    p.add_argument("--labels2", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--knn", type=int, default=5, help="neighbors for label transfer")
    p.add_argument("--sparse-coupling", action="store_true",
                   help="coupling file holds sparse triplets")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate a synthetic dataset pair")
    p.add_argument("--kind", choices=synthdata.KINDS, required=True)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--p1", type=int, default=1000)
    p.add_argument("--p2", type=int, default=2000)
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="DIR", default=".")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except JointScaleError as exc:
        _log("error", str(exc), error=type(exc).__name__)
        return 1
    except SystemExit as exc:  # _fail inside a subcommand
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
