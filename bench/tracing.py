"""Spans and counters around the public functions of ``jointscale``.

Each function is wrapped where its caller looks the name up, e.g.
``jointscale.jointmds.smacof`` (the name the solver calls) or
``jointscale.transport.sinkhorn`` (the name Wasserstein-Procrustes and
Gromov-Wasserstein call).  No code inside the package changes.

Spans are kept in memory and written once at the end.  The wrappers are
thread-safe: each thread keeps its own span stack, and a span opened on a
pool thread with nothing open on that thread takes as parent the span open
on the main thread (``jointmds.solve`` while restarts run on a pool).

Two kinds of time come out:

* ``<layer>.s`` and ``<layer>.<function>.s`` are busy time summed over
  threads: the durations of the outermost spans of that layer or function.
  With two restarts on two threads they can exceed the wall time.
* ``<layer>.self_s`` is wall time inside the layer's spans that no child
  span, on any thread, covers.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict

from jointscale import cli, fileio, jointmds, synthdata, transport
from jointscale import dissimilarity as ds
from jointscale import metrics as mt

# the package exports the function smacof under the submodule's name
smacof = importlib.import_module("jointscale.smacof")


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_smacof(args, kwargs, out) -> dict:
    report = out[1]
    return {"guttman_steps": report.iterations_used,
            "runs_at_budget": int(not report.converged)}


def _count_sinkhorn(args, kwargs, out) -> dict:
    if not isinstance(out, tuple):
        return {}
    info = out[1]
    return {"iters": info["iterations"], "warmup_iters": info["warmup_iterations"],
            "at_budget": int(not info["converged"])}


def _count_bytes(args, kwargs, out) -> dict:
    """Size of the file a reader or writer was given, after the call."""
    return {"bytes": _path_size(args[0] if args else kwargs["path"])}

# (module, attribute, span name, counter).  The span name's first part is
# the layer; fileio reads and writes are grouped as fileio.read/fileio.write.
WRAPPED = [
    (ds, "pairwise_euclidean", "dissimilarity.pairwise_euclidean", None),
    (ds, "knn_graph", "dissimilarity.knn_graph", None),
    (ds, "geodesic_distances", "dissimilarity.geodesic_distances", None),
    (ds, "rescale_by_mean", "dissimilarity.rescale_by_mean", None),
    (ds, "normalized_adjacency", "dissimilarity.normalized_adjacency", None),
    (ds, "graph_dissimilarity", "dissimilarity.graph_dissimilarity", None),
    (ds, "power_weight_matrix", "dissimilarity.power_weight_matrix", None),
    (ds, "uniform_weight_matrix", "dissimilarity.uniform_weight_matrix", None),
    (jointmds, "smacof", "smacof.smacof", _count_smacof),
    (jointmds, "stress", "smacof.stress", None),
    (jointmds, "v_matrix_pinv", "smacof.v_matrix_pinv", None),
    (smacof, "v_matrix_pinv", "smacof.v_matrix_pinv", None),
    (jointmds, "assemble_joint", "smacof.assemble_joint", None),
    (jointmds, "wasserstein_procrustes", "transport.wasserstein_procrustes", None),
    (jointmds, "entropic_gw", "transport.entropic_gw", None),
    (jointmds, "cost_matrix", "transport.cost_matrix", None),
    (transport, "sinkhorn", "transport.sinkhorn", _count_sinkhorn),
    (transport, "orthogonal_procrustes", "transport.orthogonal_procrustes", None),
    (jointmds, "solve", "jointmds.solve", None),
    (jointmds, "joint_objective", "jointmds.joint_objective", None),
    (fileio, "read_matrix", "fileio.read", _count_bytes),
    (fileio, "read_labels", "fileio.read", _count_bytes),
    (fileio, "sha256_file", "fileio.read", _count_bytes),
    (fileio, "write_matrix", "fileio.write", _count_bytes),
    (fileio, "write_embedding", "fileio.write", _count_bytes),
    (fileio, "write_labels", "fileio.write", _count_bytes),
    (fileio, "write_trace", "fileio.write", _count_bytes),
    (fileio, "write_json", "fileio.write", _count_bytes),
    (mt, "foscttm", "metrics.foscttm", None),
    (mt, "node_correctness", "metrics.node_correctness", None),
    (mt, "topk_accuracy", "metrics.topk_accuracy", None),
    (mt, "knn_transfer", "metrics.knn_transfer", None),
    (mt, "accuracy", "metrics.accuracy", None),
    (cli, "main", "cli.main", None),
    (synthdata, "generate", "synthdata.generate", None),
    (synthdata, "standardize", "synthdata.standardize", None),
]


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "phase", "counts")

    def __init__(self, id_, name, parent, thread, phase):
        self.id, self.name, self.parent, self.thread = id_, name, parent, thread
        self.phase = phase
        self.start = self.end = 0.0
        self.counts: dict = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Installs the wrappers, records spans, and aggregates them per layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            elif tracer._main_stack:
                parent = tracer._main_stack[-1].id
            else:
                parent = None
            with tracer._lock:
                span = Span(len(tracer.spans), name, parent, threading.get_ident(), tracer.phase)
                tracer.spans.append(span)
            if name == "jointmds.solve":
                args, kwargs = tracer._count_outer(span, args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_outer(self, span: Span, args, kwargs):
        """Wrap solve's ``on_outer`` callback to count outer iterations and restarts."""
        args = list(args)
        user = args.pop(6) if len(args) > 6 else kwargs.pop("on_outer", None)
        restarts: set = set()
        lock = threading.Lock()

        def on_outer(restart, iteration, objective):
            with lock:
                restarts.add(restart)
                span.counts["outer_iters"] = span.counts.get("outer_iters", 0) + 1
                span.counts["restarts"] = len(restarts)
            if user is not None:
                user(restart, iteration, objective)

        kwargs["on_outer"] = on_outer
        return args, kwargs

    def install(self) -> None:
        for module, attr, name, counter in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # aggregation

    def _outermost(self, spans, key) -> list[Span]:
        """Spans with no ancestor of the same key (so nested calls count once)."""
        by_id = {s.id: s for s in self.spans}
        out = []
        for s in spans:
            parent = by_id.get(s.parent)
            while parent is not None and key(parent) != key(s):
                parent = by_id.get(parent.parent)
            if parent is None:
                out.append(s)
        return out

    def _self_time(self, span: Span) -> float:
        """Wall time in the span that none of its children covers."""
        children = sorted((c.start, c.end) for c in self.spans if c.parent == span.id)
        covered, cursor = 0.0, span.start
        for start, end in children:
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.end - span.start - covered

    def metrics(self, op_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics of the operation phase plus set-up's generation time."""
        op = [s for s in self.spans if s.phase == "op"]
        by_layer: dict = defaultdict(list)
        by_name: dict = defaultdict(list)
        for s in self._outermost(op, lambda s: s.layer):
            by_layer[s.layer].append(s)
        for s in self._outermost(op, lambda s: s.name):
            by_name[s.name].append(s)

        def busy(spans):
            return sum(s.end - s.start for s in spans)

        def count(name, key):
            return sum(s.counts.get(key, 0) for s in op if s.name == name)

        def calls(name):
            return sum(1 for s in op if s.name == name)

        top = [s for s in op if s.parent is None]
        values = {
            "dissimilarity.s": busy(by_layer["dissimilarity"]),
            "dissimilarity.pairwise_euclidean.s": busy(by_name["dissimilarity.pairwise_euclidean"]),
            "dissimilarity.knn_graph.s": busy(by_name["dissimilarity.knn_graph"]),
            "dissimilarity.geodesic_distances.s": busy(by_name["dissimilarity.geodesic_distances"]),
            "smacof.s": busy(by_layer["smacof"]),
            "smacof.v_matrix_pinv.s": busy(by_name["smacof.v_matrix_pinv"]),
            "smacof.v_matrix_pinv.calls": calls("smacof.v_matrix_pinv"),
            "smacof.assemble_joint.s": busy(by_name["smacof.assemble_joint"]),
            "smacof.guttman_steps": count("smacof.smacof", "guttman_steps"),
            "smacof.runs_at_budget": count("smacof.smacof", "runs_at_budget"),
            "transport.s": busy(by_layer["transport"]),
            "transport.sinkhorn.s": busy(by_name["transport.sinkhorn"]),
            "transport.sinkhorn.calls": calls("transport.sinkhorn"),
            "transport.sinkhorn.iters": count("transport.sinkhorn", "iters"),
            "transport.sinkhorn.warmup_iters": count("transport.sinkhorn", "warmup_iters"),
            "transport.sinkhorn.at_budget": count("transport.sinkhorn", "at_budget"),
            "transport.wasserstein_procrustes.s": busy(by_name["transport.wasserstein_procrustes"]),
            "transport.entropic_gw.s": busy(by_name["transport.entropic_gw"]),
            "transport.orthogonal_procrustes.calls": calls("transport.orthogonal_procrustes"),
            "jointmds.solve.s": busy(by_name["jointmds.solve"]),
            "jointmds.self_s": sum(self._self_time(s) for s in by_name["jointmds.solve"]),
            "jointmds.joint_objective.s": busy(by_name["jointmds.joint_objective"]),
            "jointmds.outer_iters": count("jointmds.solve", "outer_iters"),
            "jointmds.restarts": count("jointmds.solve", "restarts"),
            "fileio.read.s": busy(by_name["fileio.read"]),
            "fileio.write.s": busy(by_name["fileio.write"]),
            "fileio.bytes_read": sum(s.counts.get("bytes", 0) for s in by_name["fileio.read"]),
            "fileio.bytes_written": sum(s.counts.get("bytes", 0) for s in by_name["fileio.write"]),
            "metrics.s": busy(by_layer["metrics"]),
            "cli.self_s": sum(self._self_time(s) for s in by_name["cli.main"]),
            "synthdata.generate.s": sum(s.end - s.start for s in self.spans
                                        if s.phase == "setup" and s.name == "synthdata.generate"),
            "trace.overhead_s": op_wall - untraced_wall,
            "trace.coverage": busy(top) / op_wall,
        }
        return values
