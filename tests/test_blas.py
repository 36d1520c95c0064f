"""BLAS threads inside ``solve``: every OpenBLAS build runs at one thread there,
and the counts found are put back afterwards."""

import importlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import jointscale
from jointscale import (JointConfig, NumericalFailure, _blas, fileio, jointmds,
                        pairwise_euclidean, solve, uniform_weight_matrix)

smacof_module = importlib.import_module("jointscale.smacof")

pytestmark = pytest.mark.skipif(
    not _blas.openblas_pools(),
    reason="no OpenBLAS build is loaded (MKL, Accelerate or not Linux), so the "
           "solver leaves BLAS threads alone")

SRC = Path(jointscale.__file__).resolve().parents[1]
# at n = 300 OpenBLAS splits the solver's matrix products over its threads
LARGE = JointConfig(outer_iters=2, restarts=2, seed=0)
CHILD = """
import sys
import numpy as np
from jointscale import JointConfig, solve
d = np.load(sys.argv[1])
cfg = JointConfig(outer_iters=2, restarts=2, seed=0)
res = solve(d["d1"], d["d2"], d["w"], d["w"], cfg, threads=2)
np.savez(sys.argv[2], z1=res.z1, z2=res.z2, p=res.p)
"""


EMBED_CHILD = """
import sys
from jointscale.cli import main
sys.exit(main(["embed", sys.argv[1], "--out", sys.argv[2]]))
"""


def child_env(blas_threads: str) -> dict:
    return {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def thread_counts() -> dict:
    return {name: get() for name, (get, _) in _blas.openblas_pools().items()}


@pytest.fixture
def two_threads():
    """Every build at two threads, so a count left at one shows; the counts
    found are put back afterwards."""
    pools = _blas.openblas_pools().values()
    found = [(set_, get()) for get, set_ in pools]
    for _, set_ in pools:
        set_(2)
    yield
    for set_, count in found:
        set_(count)


@pytest.fixture(scope="module")
def small():
    d = pairwise_euclidean(np.random.default_rng(3).standard_normal((18, 2)))
    return d, uniform_weight_matrix(18), JointConfig(outer_iters=3, restarts=2, seed=0)


@pytest.fixture(scope="module")
def large():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 2))
    d1 = pairwise_euclidean(x)
    d2 = pairwise_euclidean(x + 0.05 * rng.standard_normal(x.shape))
    return d1, d2, uniform_weight_matrix(300)


def test_one_thread_inside_and_counts_restored(small, two_threads, monkeypatch, fork_log):
    # every outer iteration's joint pass records the counts where it runs: in
    # a worker process forked for its restart, so through a file
    real = jointmds.joint_smacof

    def probing(*args, **kwargs):
        fork_log.append([os.getpid(), thread_counts()])
        return real(*args, **kwargs)

    monkeypatch.setattr(jointmds, "joint_smacof", probing)
    d, w, cfg = small
    solve(d, d, w, w, cfg, threads=2)
    seen = fork_log.read()
    assert len(seen) == cfg.outer_iters * cfg.restarts
    assert all(pid != os.getpid() for pid, _ in seen)
    assert all(set(counts.values()) == {1} for _, counts in seen)
    assert set(thread_counts().values()) == {2}


def test_counts_restored_when_every_restart_fails(small, two_threads, monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalFailure("planted failure")

    monkeypatch.setattr(jointmds, "wasserstein_procrustes", failing)
    d, w, cfg = small
    with pytest.raises(NumericalFailure, match="all 2 restarts failed"):
        solve(d, d, w, w, cfg, threads=2)
    assert set(thread_counts().values()) == {2}


def test_nested_scope_restores_once(small, two_threads):
    d, w, cfg = small
    with _blas.single_threaded():
        solve(d, d, w, w, cfg)
        # the inner solve leaves the outer scope's setting in place
        assert set(thread_counts().values()) == {1}
    assert set(thread_counts().values()) == {2}


def test_concurrent_scopes_restore_once(two_threads):
    # more threads than cores enter and leave at once; a scope that saved the
    # one-thread setting of another, or restored early, shows as a wrong count
    seen_inside, errors = set(), []

    def enter_and_leave():
        try:
            for _ in range(200):
                with _blas.single_threaded():
                    seen_inside.update(thread_counts().values())
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert seen_inside == {1}
    assert set(thread_counts().values()) == {2}


def test_results_do_not_depend_on_blas_threads(large, tmp_path):
    d1, d2, w = large
    np.savez(tmp_path / "d.npz", d1=d1, d2=d2, w=w)
    outputs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}.npz"
        subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "d.npz"), str(out)],
                       env=child_env(blas_threads), check=True)
        with np.load(out) as saved:
            outputs.append(dict(saved))
    for name in ("z1", "z2", "p"):
        assert np.array_equal(outputs[0][name], outputs[1][name]), name


def test_threads_match_serial_at_blas_size(large):
    d1, d2, w = large
    serial = solve(d1, d2, w, w, LARGE, threads=1)
    threaded = solve(d1, d2, w, w, LARGE, threads=2)
    assert np.array_equal(serial.z1, threaded.z1)
    assert np.array_equal(serial.z2, threaded.z2)
    assert np.array_equal(serial.p, threaded.p)
    assert serial.restart_index == threaded.restart_index


def test_embed_does_not_depend_on_blas_threads(tmp_path):
    points = tmp_path / "x.csv"
    fileio.write_matrix(points, np.random.default_rng(0).standard_normal((300, 5)))
    written = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        subprocess.run([sys.executable, "-c", EMBED_CHILD, str(points), str(out)],
                       env=child_env(blas_threads), check=True, stdout=subprocess.DEVNULL)
        written.append((out / "embedding.csv").read_bytes())
    assert written[0] == written[1]


def test_one_thread_inside_the_helper(two_threads, monkeypatch):
    # the helper that runs the second row block of a split Guttman step sees
    # the same one-thread setting as the thread running the restart
    monkeypatch.setattr(smacof_module, "SPLIT_ROWS", 2)
    seen, real = [], jointmds.joint_smacof

    def probing(*args, _helper=None, **kwargs):
        seen.append(_helper.submit(lambda: (threading.get_ident(), thread_counts())).result())
        return real(*args, _helper=_helper, **kwargs)

    monkeypatch.setattr(jointmds, "joint_smacof", probing)
    d = pairwise_euclidean(np.random.default_rng(4).standard_normal((12, 2)))
    w = uniform_weight_matrix(12)
    solve(d, d, w, w, JointConfig(outer_iters=2, restarts=1, seed=0), threads=2)
    assert len(seen) == 2
    assert all(ident != threading.get_ident() for ident, _ in seen)
    assert all(set(counts.values()) == {1} for _, counts in seen)
    assert set(thread_counts().values()) == {2}


def test_pairwise_euclidean_does_not_depend_on_blas_threads(two_threads):
    # at this shape OpenBLAS's product of a matrix with its own transpose has
    # other bits at two threads than at one
    x = np.random.default_rng(11).standard_normal((300, 50)) + 2.0
    results = []
    for count in (1, 2):
        for _, set_ in _blas.openblas_pools().values():
            set_(count)
        results.append(pairwise_euclidean(x))
    assert results[0].tobytes() == results[1].tobytes()
    assert set(thread_counts().values()) == {2}
