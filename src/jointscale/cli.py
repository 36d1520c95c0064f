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
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _blas, dissimilarity as ds, fileio, jointmds, metrics as mt
from . import synthdata
from .errors import JointScaleError
from .jointmds import JointConfig
from .smacof import random_embedding, smacof

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


def _usable_cores() -> int:
    """Cores this process may run on, or all of them where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


# JSON config key -> (JointConfig field, help text).  The flag is --key with
# "_" as "-", so the key is also the flag's argparse dest.
_CONFIG_FIELDS = {
    "dim": ("dim", "embedding dimension"),
    "lambda": ("lam", "matching penalty"),
    "epsilon": ("epsilon0", "initial entropic regularization"),
    "alpha": ("alpha", "epsilon decay factor per outer iteration"),
    "iters": ("outer_iters", "outer iterations"),
    "inner_smacof": ("inner_smacof_iters", "majorization steps per outer iteration"),
    "inner_wp": ("inner_wp_iters", "transport/Procrustes rounds per outer iteration"),
    "restarts": ("restarts", "random restarts"),
    "seed": ("seed", "base seed (falls back to $JOINTSCALE_SEED, then 0)"),
    "gw_init": ("gw_init", "warm start the coupling with Gromov-Wasserstein"),
    "lambda_anneal": ("lambda_anneal",
                      "ramp the matching penalty over the first half of the run"),
}


# JointConfig field -> its annotated type name ("int", "float" or "bool")
_FIELD_TYPES = {f.name: getattr(f.type, "__name__", f.type)
                for f in dataclasses.fields(JointConfig)}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    # defaults stay None so explicitly passed flags can override a JSON config
    for key, (field_name, help_text) in _CONFIG_FIELDS.items():
        kind = _FIELD_TYPES[field_name]
        parse = ({"action": argparse.BooleanOptionalAction} if kind == "bool"
                 else {"type": {"int": int, "float": float}[kind]})
        p.add_argument("--" + key.replace("_", "-"), default=None, help=help_text, **parse)
    p.add_argument("--config", metavar="FILE", default=None,
                   help="JSON config file; flags override its entries")
    p.add_argument("--threads", type=int, default=_usable_cores(),
                   help="cores the solver may use, >= 1: restarts run in parallel in "
                        "processes forked from this one (on Linux; elsewhere one after "
                        "another), progress is logged from this process as each restart "
                        "finishes, and a spare core runs the second dataset's majorization "
                        "beside the first's; OpenBLAS "
                        "runs on one thread inside the solve, and results do not depend "
                        "on this count (default: the usable cores, here %(default)s)")


def _add_pair_flags(p: argparse.ArgumentParser, labels: bool = True) -> None:
    if labels:
        p.add_argument("--labels1", default=None, help="class labels of dataset 1")
        p.add_argument("--labels2", default=None, help="class labels of dataset 2")
    p.add_argument("--truth", default=None,
                   help="true match file (index per row) or 'identity'")
    p.add_argument("--sparse-coupling", action="store_true",
                   help="coupling as sparse 'i j value' triplets: joint and match write "
                        "coupling.txt; eval reads --coupling so (as it does any .txt)")


def _config_value(key: str, value, path: str):
    """A config-file value checked against its JointConfig field type.

    Integers are accepted for float fields; booleans are accepted only for
    bool fields, not as integers.
    """
    kind = _FIELD_TYPES[_CONFIG_FIELDS[key][0]]
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
        seed, source = args.seed, "--seed"
    elif doc and "seed" in doc:
        seed, source = doc["seed"], f"config file {args.config}: 'seed'"
    else:
        env_seed = os.environ.get("JOINTSCALE_SEED")
        if env_seed is None:
            return 0
        try:
            seed, source = int(env_seed), "$JOINTSCALE_SEED"
        except ValueError:
            _fail(f"$JOINTSCALE_SEED must be an integer, got {env_seed!r}")
    if seed < 0:
        _fail(f"{source} must be >= 0, got {seed}")
    return seed


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
            if key not in _CONFIG_FIELDS:
                _fail(f"config file {args.config}: unknown key {key!r}")
            setattr(cfg, _CONFIG_FIELDS[key][0], _config_value(key, value, args.config))
    for key, (field_name, _) in _CONFIG_FIELDS.items():
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, field_name, value)
    cfg.seed = _seed(args, doc)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# pipeline pieces

def _load_dissimilarity(path: str, args, manifest: _Manifest) -> np.ndarray:
    """Input file -> validated dissimilarity matrix, per the --kind pipeline.

    Parsed features are dropped once their distances exist.
    """
    if args.kind == "edges":
        edges, n = manifest.read(path, fileio.read_edge_list)
        loops = sum(i == j for i, j, _ in edges)
        if loops:
            _log("warning", "dropped self-loops", path=str(path), dropped=loops)
        adj = ds.normalized_adjacency(edges, n)
        mode = "inverse-weight" if args.graph == "inv" else "hop"
        d = ds.graph_dissimilarity(adj, mode=mode)
    else:
        m = manifest.read(path, fileio.read_matrix, delimiter=args.delimiter,
                          header=args.header)
        if args.kind == "features":
            d = ds.pairwise_euclidean(m)
            del m
        else:
            d = ds.validate_dissimilarity(m, str(path))
    if args.geodesic is not None:
        graph = ds.knn_graph(d, args.geodesic)
        d = ds.geodesic_distances(graph, connect=True, source=d)
    if args.rescale_mean:
        d = ds.rescale_by_mean(d)
    return d


def _check_input_flags(args) -> None:
    """Reject input flags that the chosen --kind would ignore, before any file is read."""
    if args.graph is not None and args.kind != "edges":
        _fail(f"--graph applies to edge lists only, not --kind {args.kind}")
    if args.header and args.kind == "edges":
        _fail("--header applies to matrices only, not edge lists")


def _weights_for(d: np.ndarray, args) -> np.ndarray:
    if args.weight_exponent is not None:
        return ds.power_weight_matrix(d, args.weight_exponent)
    return ds.uniform_weight_matrix(d.shape[0])


def _resolve_truth(spec: str, n: int, m: int | None, manifest: _Manifest) -> np.ndarray:
    """The true match column of each of ``n`` rows, each below ``m`` (unchecked if None)."""
    if spec == "identity":
        truth = np.arange(n)
    else:
        truth = manifest.read(spec, fileio.read_match_indices)
        if truth.shape != (n,):
            _fail(f"truth file {spec} has {truth.shape[0]} entries, expected {n}")
    if m is not None and truth.max() >= m:
        _fail(f"truth {spec}: match index {truth.max()} is out of range for {m} columns")
    return truth


def _read_labels(manifest: _Manifest, paths, counts) -> list:
    """Labels per path (None where absent), each with its count of entries
    (unchecked where None); a path given twice is read once."""
    by_path: dict = {}
    for path, n in zip(paths, counts):
        if not path:
            continue
        if path not in by_path:
            by_path[path] = manifest.read(path, fileio.read_labels)
        if n is not None and by_path[path].shape != (n,):
            _fail(f"labels file {path} has {len(by_path[path])} entries, expected {n}")
    return [by_path.get(path) for path in paths]


def _is_triplet_file(path: str) -> bool:
    """Whether ``path`` ends in ``.txt``, in front of any compression suffix."""
    path = Path(path)
    if path.suffix in fileio._UNPACK:
        path = path.with_suffix("")
    return path.suffix == ".txt"


def _truth_matrix(truth: np.ndarray, n: int, m: int) -> np.ndarray:
    t = np.zeros((n, m), dtype=int)
    t[np.arange(n), truth] = 1
    return t


class _Manifest:
    """Owns the output directory and collects run metadata; written atomically at the end."""

    def __init__(self, args, seed: int | None):
        self.out_dir = Path(args.out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.start = time.monotonic()
        self.doc = {
            "command": [PROG] + args.argv,
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

    def read(self, path, read, **kwargs):
        """``read(path, **kwargs)`` with ``read`` a reader of ``fileio``: record
        the SHA-256 of ``path`` from the same streamed read, so each input is
        opened once."""
        digest = hashlib.sha256()
        value = read(path, digest=digest, **kwargs)
        self.doc["inputs"][str(path)] = digest.hexdigest()
        return value

    def add_output(self, name: str) -> Path:
        """Path of output ``name`` in the output directory, recorded in the manifest."""
        path = self.out_dir / name
        self.doc["outputs"].append(str(path))
        return path

    def write(self) -> None:
        self.doc["duration_seconds"] = time.monotonic() - self.start
        fileio.write_json(self.add_output("manifest.json"), self.doc)


# ---------------------------------------------------------------------------
# subcommands

def cmd_embed(args) -> int:
    if args.dim < 1:
        _fail(f"--dim must be >= 1, got {args.dim}")
    _check_input_flags(args)
    seed = _seed(args)
    manifest = _Manifest(args, seed)
    d = _load_dissimilarity(args.input, args, manifest)
    w = _weights_for(d, args)
    scale = jointmds._init_scale(d, d)
    z0 = random_embedding(d.shape[0], args.dim, seed, scale)
    # as in the joint solve, so the output does not depend on the BLAS thread count
    with _blas.single_threaded():
        z, report = smacof(d, w, z0, max_iter=args.max_iter)
    fileio.write_embedding(manifest.add_output("embedding.csv"), z,
                           delimiter=args.delimiter)
    fileio.write_trace(
        manifest.add_output("trace.jsonl"),
        [{"iter": i, "stress": s} for i, s in enumerate(report.per_iteration)],
    )
    iu = np.triu_indices(d.shape[0], k=1)
    denom = float(np.sum(w[iu] * d[iu] ** 2))
    final = report.per_iteration[-1]
    manifest.doc["config"] = {"dim": args.dim, "seed": seed, "max_iter": args.max_iter}
    manifest.doc["summary"] = {
        "stress": final,
        "relative_stress": final / denom if denom > 0 else 0.0,
        "iterations": report.iterations_used,
        "converged": report.converged,
    }
    manifest.write()
    print(f"embedded {d.shape[0]} points into {args.dim}-D; "
          f"relative stress {manifest.doc['summary']['relative_stress']:.3e}")
    return 0


def _write_joint_outputs(args, manifest, result) -> None:
    fileio.write_embedding(manifest.add_output("z1.csv"), result.z1,
                           delimiter=args.delimiter)
    fileio.write_embedding(manifest.add_output("z2.csv"), result.z2,
                           delimiter=args.delimiter)
    if args.sparse_coupling:
        fileio.write_coupling_triplets(manifest.add_output("coupling.txt"), result.p)
    else:
        fileio.write_matrix(manifest.add_output("coupling.csv"), result.p,
                            delimiter=args.delimiter)
    fileio.write_trace(
        manifest.add_output("trace.jsonl"),
        [{"iter": i + 1, "objective": v} for i, v in enumerate(result.objective_trace)],
    )


def _coupling_metrics(p: np.ndarray, truth: np.ndarray) -> dict:
    """Node correctness and top-3/top-5 accuracy of coupling ``p`` against ``truth``."""
    doc = {"node_correctness": mt.node_correctness(p, _truth_matrix(truth, *p.shape))}
    for k in (3, 5):
        if k <= p.shape[1]:
            doc[f"top{k}_accuracy"] = mt.topk_accuracy(p, truth, k)
    return doc


def _joint_metrics(manifest, result, truth, labels1, labels2) -> dict:
    doc: dict = {"params": {"knn_k": 5, "topk": [3, 5]}}
    if truth is not None:
        if result.z1.shape[0] == result.z2.shape[0]:
            doc["foscttm"] = mt.foscttm(result.z1, result.z2[truth])
        doc.update(_coupling_metrics(result.p, truth))
    if labels1 is not None and labels2 is not None:
        predicted = mt.knn_transfer(result.z1, labels1, result.z2, k=5)
        doc["transfer_accuracy"] = mt.accuracy(predicted, labels2)
    if len(doc) > 1:
        fileio.write_json(manifest.add_output("metrics.json"), doc)
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
    if args.threads < 1:
        _fail(f"--threads must be >= 1, got {args.threads}")
    _check_input_flags(args)
    manifest = _Manifest(args, cfg.seed)
    d1 = _load_dissimilarity(path1, args, manifest)
    d2 = _load_dissimilarity(path2, args, manifest)
    w1 = _weights_for(d1, args)
    # uniform weights of one size are one array: the solver never writes into
    # w, and of uniform weights it reads only the one value (smacof._check_weights)
    uniform_pair = args.weight_exponent is None and d2.shape == d1.shape
    w2 = w1 if uniform_pair else _weights_for(d2, args)
    labels = _read_labels(manifest, label_paths, (d1.shape[0], d2.shape[0]))
    truth = None
    if args.truth is not None:
        truth = _resolve_truth(args.truth, d1.shape[0], d2.shape[0], manifest)

    def on_outer(restart, iteration, objective):
        _log("info", "outer iteration", restart=restart, iter=iteration,
             objective=objective)

    # thread counts outside the solve; solve runs every OpenBLAS build at one
    manifest.doc["machine"] = {
        "cpu_count": os.cpu_count(),
        "solver_threads": args.threads,
        "openblas": [{"library": name, "threads": get(), "threads_in_solve": 1}
                     for name, (get, _) in _blas.openblas_pools().items()],
    }
    if jointmds.seeded_restarts(d1, d2, cfg) == 0:
        # every restart starts from a reflection of the classical scalings
        _log("info", "no restart draws from the seed", seed=cfg.seed,
             restarts=cfg.restarts, reflections=2**cfg.dim)
    result = jointmds.solve(d1, d2, w1, w2, cfg, threads=args.threads,
                            on_outer=on_outer)
    _write_joint_outputs(args, manifest, result)
    if write_matches:
        fileio.write_labels(manifest.add_output("matches.csv"),
                            jointmds.match_argmax(result.p))
    doc = _joint_metrics(manifest, result, truth, *labels)
    at_budget = {
        "sinkhorn_at_budget": result.sinkhorn_at_budget,
        "smacof_init_at_budget": result.smacof_init_at_budget,
        "gw_sinkhorn_at_budget": result.gw_sinkhorn_at_budget,
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
        "sinkhorn_newton_steps": result.sinkhorn_newton_steps,
    }
    manifest.write()
    return result, doc


def cmd_joint(args) -> int:
    # transfer accuracy, the one metric that reads labels, needs both files
    if (args.labels1 is None) != (args.labels2 is None):
        _fail("--labels1 and --labels2 must be given together")
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
    manifest = _Manifest(args, None)
    loaded: dict = {}
    for name in ("z1", "z2"):
        path = getattr(args, name)
        if path:
            loaded[name] = manifest.read(path, fileio.read_embedding,
                                         delimiter=args.delimiter)
    for name in ("d1", "d2"):
        path = getattr(args, name)
        if path:
            loaded[name] = manifest.read(path, fileio.read_matrix,
                                         delimiter=args.delimiter, header=args.header)
    coupling = None
    if args.coupling:
        if args.sparse_coupling or _is_triplet_file(args.coupling):
            coupling = manifest.read(args.coupling, fileio.read_coupling_triplets)
        else:
            coupling = manifest.read(args.coupling, fileio.read_coupling_matrix,
                                     delimiter=args.delimiter)
    labels1, labels2 = _read_labels(manifest, (args.labels1, args.labels2),
                                    [loaded[z].shape[0] if z in loaded else None
                                     for z in ("z1", "z2")])
    truth = None
    if args.truth:
        n_rows = None
        if "z1" in loaded:
            n_rows = loaded["z1"].shape[0]
        elif coupling is not None:
            n_rows = coupling.shape[0]
        if n_rows is None:
            _fail("--truth needs --z1 or --coupling to determine the row count")
        # truth indexes the rows of z2 and the columns of the coupling
        n_cols = [loaded["z2"].shape[0]] if "z2" in loaded else []
        if coupling is not None:
            n_cols.append(coupling.shape[1])
        truth = _resolve_truth(args.truth, n_rows, min(n_cols, default=None), manifest)

    doc: dict = {"params": {"knn_k": args.knn}}
    skipped: dict = {}

    z1, z2 = loaded.get("z1"), loaded.get("z2")
    if z1 is not None and z2 is not None and z1.shape == z2.shape:
        pair = (z1, z2[truth]) if truth is not None else (z1, z2)
        doc["foscttm"] = mt.foscttm(*pair)
    else:
        skipped["foscttm"] = "needs --z1 and --z2 with equal shapes"

    if coupling is not None and truth is not None:
        doc.update(_coupling_metrics(coupling, truth))
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
    fileio.write_json(manifest.add_output("metrics.json"), doc)
    manifest.write()
    _print_metrics(doc)
    for name, reason in skipped.items():
        print(f"{name}: skipped ({reason})")
    return 0


def cmd_gen(args) -> int:
    seed = _seed(args)
    spec = synthdata.GenSpec(kind=args.kind, n=args.n, p1=args.p1, p2=args.p2,
                             noise_sigma=args.noise_sigma, seed=seed)
    manifest = _Manifest(args, seed)
    pair = synthdata.generate(spec)
    fileio.write_matrix(manifest.add_output("x1.csv"), pair.x1)
    fileio.write_matrix(manifest.add_output("x2.csv"), pair.x2)
    fileio.write_labels(manifest.add_output("labels.csv"), pair.labels)
    fileio.write_matrix(manifest.add_output("latent.csv"), pair.latent)
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
    p.add_argument("--dim", type=int, default=2)
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
    _add_pair_flags(p)
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("match", help="graph matching from two edge lists")
    p.add_argument("edges1")
    p.add_argument("edges2")
    _add_io_flags(p)
    _add_dissimilarity_flags(p)
    _add_config_flags(p)
    _add_pair_flags(p, labels=False)
    p.set_defaults(func=cmd_match, kind="edges", weight_exponent=4.0)

    p = sub.add_parser("eval", help="compute metrics from saved files")
    _add_io_flags(p)
    p.add_argument("--z1", default=None, help="first embedding CSV")
    p.add_argument("--z2", default=None, help="second embedding CSV")
    p.add_argument("--coupling", default=None, help="coupling CSV or triplet file")
    p.add_argument("--d1", default=None, help="first dissimilarity CSV")
    p.add_argument("--d2", default=None, help="second dissimilarity CSV")
    _add_pair_flags(p)
    p.add_argument("--knn", type=int, default=5, help="neighbors for label transfer")
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
