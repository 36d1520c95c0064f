"""Alternating solver producing a common embedding for two dissimilarity datasets.

One restart runs: independent stress majorization per dataset, an optional
Gromov-Wasserstein warm start for the coupling, then outer iterations that
alternate (i) entropic alignment of the two embeddings, (ii) rotation of the
first embedding, and (iii) a joint majorization pass on the coupled block
instance (``joint_smacof``, which never builds that instance).  The entropic
regularization decays geometrically across outer iterations; the matching
penalty ramps up over the first half of the run when ``lambda_anneal`` is
set.  Restarts differ only in their seed and the smallest final objective
wins; ``solve`` runs them on worker processes forked from the caller.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .dissimilarity import validate_dissimilarity
from .errors import InvalidInput, NumericalFailure
from .smacof import (FULL_MATRIX_FACTOR, _check_connected, _check_weights, joint_smacof,
                     random_embedding, smacof, stress)

# unused here; bench/tracing.py wraps these names on this module
from .smacof import assemble_joint, v_matrix_pinv  # noqa: F401
from .transport import Marginals, cost_matrix, entropic_gw, wasserstein_procrustes

__all__ = ["JointConfig", "JointResult", "joint_objective", "solve", "match_argmax"]

INIT_SMACOF_MAX_ITER = 300
EPSILON_FLOOR_FRACTION = 1e-3
GW_EPSILON_FRACTION = 0.01
# restarts run on forked processes only on Linux: fork is not available on
# Windows and not safe with macOS system libraries
_CAN_FORK = sys.platform.startswith("linux")
# marginal tolerance for the transport subproblems inside the outer loop;
# the annealed couplings are warm-started, so this is reached quickly
WP_SINKHORN_TOL = 1e-7


@dataclass
class JointConfig:
    """Hyperparameters of the alternating solver."""

    dim: int = 2
    lam: float = 0.1
    epsilon0: float = 1.0
    alpha: float = 0.95
    outer_iters: int = 30
    inner_smacof_iters: int = 50
    inner_wp_iters: int = 10
    restarts: int = 4
    seed: int = 0
    gw_init: bool = False
    lambda_anneal: bool = False

    def validate(self) -> "JointConfig":
        if self.dim < 1:
            raise InvalidInput(f"dim must be >= 1, got {self.dim}")
        if self.lam < 0:
            raise InvalidInput(f"lambda must be >= 0, got {self.lam}")
        if self.epsilon0 <= 0:
            raise InvalidInput(f"epsilon0 must be > 0, got {self.epsilon0}")
        if not 0 < self.alpha <= 1:
            raise InvalidInput(f"alpha must be in (0, 1], got {self.alpha}")
        if self.outer_iters < 1:
            raise InvalidInput(f"outer iterations must be >= 1, got {self.outer_iters}")
        if self.inner_smacof_iters < 1 or self.inner_wp_iters < 1:
            raise InvalidInput("inner iteration budgets must be >= 1")
        if self.restarts < 1:
            raise InvalidInput(f"restarts must be >= 1, got {self.restarts}")
        return self


@dataclass
class JointResult:
    """One restart's aligned embeddings, coupling, and objective history.

    ``sinkhorn_at_budget`` counts the restart's transport solves that
    stopped at their iteration budget short of the marginal tolerance, and
    ``smacof_init_at_budget`` its initial per-dataset majorization runs that
    stopped at ``INIT_SMACOF_MAX_ITER``.  ``joint_guttman_steps`` counts the
    Guttman steps of the majorization passes inside the outer loop, and
    ``joint_smacof_at_budget`` those passes that stopped at
    ``inner_smacof_iters``, which is by design and not a warning.  At a zero
    matching penalty a pass is two per-dataset runs, each counted.
    ``sinkhorn_newton_steps`` counts the Newton steps that finished the
    restart's transport solves.  ``gw_sinkhorn_at_budget`` counts the
    Gromov-Wasserstein warm start's Sinkhorn solves that stopped at their
    budget; that warm start is shared, so every restart carries the same
    count.
    """

    z1: np.ndarray
    z2: np.ndarray
    p: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    final_objective: float = math.inf
    restart_index: int = 0
    sinkhorn_at_budget: int = 0
    smacof_init_at_budget: int = 0
    joint_guttman_steps: int = 0
    joint_smacof_at_budget: int = 0
    sinkhorn_newton_steps: int = 0
    gw_sinkhorn_at_budget: int = 0


def joint_objective(
    z1: np.ndarray,
    z2: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    p: np.ndarray,
    o: np.ndarray,
    lam: float,
) -> float:
    """Coupled objective: both full-matrix stresses plus 2*lam <P, d^2(z1 o, z2)>."""
    p = np.asarray(p, dtype=float)
    o = np.asarray(o, dtype=float)
    if p.shape != (z1.shape[0], z2.shape[0]):
        raise InvalidInput(
            f"coupling shape {p.shape} does not match ({z1.shape[0]}, {z2.shape[0]})"
        )
    if o.shape != (z1.shape[1], z1.shape[1]):
        raise InvalidInput(f"rotation shape {o.shape} does not match d={z1.shape[1]}")
    value = FULL_MATRIX_FACTOR * (stress(z1, d1, w1) + stress(z2, d2, w2))
    return value + 2.0 * lam * float(np.sum(p * cost_matrix(z1 @ o, z2)))


def match_argmax(p: np.ndarray) -> np.ndarray:
    """Hard correspondences: per row, the column of the maximum (ties to lowest index)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise InvalidInput(f"coupling must be 2-D, got shape {p.shape}")
    return np.argmax(p, axis=1)


def _init_scale(d1: np.ndarray, d2: np.ndarray) -> float:
    n1, n2 = d1.shape[0], d2.shape[0]
    total = d1.sum() + d2.sum()
    count = n1 * (n1 - 1) + n2 * (n2 - 1)
    if count == 0 or total == 0:
        return 1.0
    return float(total / count)


def _initial_embeddings(
    d1: np.ndarray, d2: np.ndarray, cfg: JointConfig, restart: int
) -> tuple[np.ndarray, np.ndarray]:
    n1 = d1.shape[0]
    z = random_embedding(n1 + d2.shape[0], cfg.dim, cfg.seed + restart, _init_scale(d1, d2))
    return z[:n1], z[n1:]


def _run_restart(
    d1, d2, w1, w2, cfg: JointConfig, restart: int, gw_coupling=None, on_outer=None, helper=None
) -> JointResult:
    z1, z2 = _initial_embeddings(d1, d2, cfg, restart)
    z1, r1 = smacof(d1, w1, z1, max_iter=INIT_SMACOF_MAX_ITER, _helper=helper)
    z2, r2 = smacof(d2, w2, z2, max_iter=INIT_SMACOF_MAX_ITER, _helper=helper)
    smacof_init_at_budget = (not r1.converged) + (not r2.converged)

    marginals = Marginals.uniform(d1.shape[0], d2.shape[0])
    coupling = gw_coupling

    ramp_iters = math.ceil(cfg.outer_iters / 2)
    epsilon = cfg.epsilon0
    trace: list[float] = []
    potentials = None
    sinkhorn_at_budget = newton_steps = 0
    reports = []
    for t in range(1, cfg.outer_iters + 1):
        # mean of cost_matrix(z1, z2), without the n1 x n2 matrix
        mean_cost = (np.vdot(z1, z1) / len(z1) + np.vdot(z2, z2) / len(z2)
                     - 2.0 * z1.mean(axis=0) @ z2.mean(axis=0))
        eps_eff = max(epsilon, EPSILON_FLOOR_FRACTION * float(mean_cost))
        coupling, rotation, wp_info = wasserstein_procrustes(
            z1, z2, marginals, eps_eff, cfg.inner_wp_iters, p0=coupling,
            sinkhorn_tol=WP_SINKHORN_TOL, warm_start=potentials,
        )
        potentials = wp_info["potentials"]
        sinkhorn_at_budget += wp_info["sinkhorn_at_budget"]
        newton_steps += wp_info["newton_steps"]
        z1 = z1 @ rotation

        lam_t = cfg.lam
        if cfg.lambda_anneal:
            lam_t = cfg.lam * min(1.0, t / ramp_iters)

        # the inner run's last stress is the coupled objective at the rotation
        # already absorbed into z1 (block-stress identity)
        if lam_t > 0:
            z1, z2, report = joint_smacof(d1, d2, w1, w2, coupling, lam_t, z1, z2,
                                          max_iter=cfg.inner_smacof_iters, _helper=helper)
            objective = FULL_MATRIX_FACTOR * report.per_iteration[-1]
            reports.append(report)
        else:
            # zero penalty decouples the block problem into the two datasets
            z1, r1 = smacof(d1, w1, z1, max_iter=cfg.inner_smacof_iters, _helper=helper)
            z2, r2 = smacof(d2, w2, z2, max_iter=cfg.inner_smacof_iters, _helper=helper)
            objective = FULL_MATRIX_FACTOR * (r1.per_iteration[-1] + r2.per_iteration[-1])
            reports += [r1, r2]

        trace.append(objective)
        if on_outer is not None:
            on_outer(restart, t, objective)
        epsilon = cfg.alpha * epsilon

    return JointResult(
        z1=z1, z2=z2, p=coupling, objective_trace=trace, final_objective=trace[-1],
        restart_index=restart, sinkhorn_at_budget=sinkhorn_at_budget,
        smacof_init_at_budget=smacof_init_at_budget,
        joint_guttman_steps=sum(r.iterations_used for r in reports),
        joint_smacof_at_budget=sum(not r.converged for r in reports),
        sinkhorn_newton_steps=newton_steps,
    )


def _restart_outcome(d1, d2, w1, w2, cfg, gw_coupling, split, on_outer, restart: int):
    """One restart's ``JointResult``, or the ``NumericalFailure`` that ended it."""
    try:
        with ThreadPoolExecutor(max_workers=1) if split else nullcontext() as helper:
            return _run_restart(d1, d2, w1, w2, cfg, restart, gw_coupling, on_outer, helper)
    except NumericalFailure as exc:
        return exc


# a forked worker's restart inputs, set by _init_worker in the worker only
_worker_inputs: tuple = ()


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_restart(restart: int):
    return _restart_outcome(*_worker_inputs, None, restart)


def _run_forked(workers: int, inputs: tuple, restarts: int, on_outer) -> list:
    """Every restart's outcome, computed on ``workers`` forked processes.

    The workers inherit ``inputs`` and the caller's BLAS setting through fork;
    only restart indices and outcomes cross the process boundary.  From
    Python 3.11 on, a fork executor starts all its workers before its own
    manager thread, so no thread of the pool is running at a fork.  Each
    finished restart's trace is replayed through ``on_outer`` here.  If
    anything raises, the restarts not yet started are dropped and the
    running ones finish before the error propagates, so no worker outlives
    the call.
    """
    outcomes = [None] * restarts
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=inputs)
    try:
        futures = {pool.submit(_worker_restart, r): r for r in range(restarts)}
        for future in as_completed(futures):
            restart = futures[future]
            outcomes[restart] = outcome = future.result()
            if on_outer is not None and isinstance(outcome, JointResult):
                for t, objective in enumerate(outcome.objective_trace, start=1):
                    on_outer(restart, t, objective)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return outcomes


def solve(
    d1: np.ndarray,
    d2: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    cfg: JointConfig,
    threads: int = 1,
    on_outer=None,
) -> JointResult:
    """Run all restarts and return the one with the smallest final objective.

    Parameters
    ----------
    d1, d2 : ndarray
        Intra-dataset dissimilarity matrices.
    w1, w2 : ndarray
        Stress weights for each dataset.
    cfg : JointConfig
        Solver hyperparameters; restart r uses seed ``cfg.seed + r``.
    threads : int
        Cores the solver may use, >= 1.  Restarts run on a pool of
        ``min(threads, cfg.restarts)`` processes forked from the caller, so
        they do not share one interpreter lock; with one, they run in the
        calling thread.  Off Linux, where the solver does not fork, they
        always run one after another in the calling thread.  When
        ``threads`` is at least twice the restarts running at once, each
        restart also gets a one-worker helper thread, which computes the
        second row block of every Guttman step that ``smacof`` and
        ``joint_smacof`` split (see ``smacof.SPLIT_ROWS``).  The blocks
        depend only on the row counts, so results are bitwise identical for
        every ``threads``.  Inside ``solve`` every OpenBLAS build in the
        process runs on one thread (process-wide, inherited by the forked
        workers), and its thread count is put back on return, so results do
        not depend on the core count either.  Under MKL or Accelerate BLAS
        keeps its own threads.
    on_outer : callable, optional
        ``on_outer(restart, iteration, objective)`` called once per outer
        iteration of each restart, in iteration order, e.g. for progress
        logging.  It always runs in the calling process: in the calling
        thread right after each outer iteration when the restarts run
        there, and with a process pool for every entry of a restart's
        ``objective_trace`` as soon as that restart has finished (so a
        restart that fails reports nothing).

    Raises
    ------
    InvalidInput
        On an invalid configuration, inputs of mismatched shapes, a
        non-finite or negative weight, or ``threads < 1``.
    DegenerateWeights
        If a dataset's weights are not one value c > 0 off the diagonal and
        their graph is disconnected; checked, naming the dataset, before
        the warm start and the restarts.
    NumericalFailure
        Only if every restart fails; a failing restart is otherwise skipped.
    """
    cfg.validate()
    if threads < 1:
        raise InvalidInput(f"threads must be >= 1, got {threads}")
    d1 = validate_dissimilarity(d1, "first dissimilarity matrix")
    d2 = validate_dissimilarity(d2, "second dissimilarity matrix")
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != d1.shape or w2.shape != d2.shape:
        raise InvalidInput("weight shapes must match their dissimilarity matrices")
    for w, name in ((w1, "first weight matrix"), (w2, "second weight matrix")):
        if _check_weights(w, name) is None:
            _check_connected(w, f"graph of the {name}")

    # the restart pool and the helpers are the only parallelism: BLAS threads
    # would compete with them for the same cores; workers forked inside this
    # scope inherit the one-thread setting
    with _blas.single_threaded():
        gw_coupling, gw_at_budget = None, 0
        if cfg.gw_init:
            # deterministic in the inputs, hence shared across restarts
            gw_eps = GW_EPSILON_FRACTION * float(np.mean(d1**2) + np.mean(d2**2))
            gw_coupling, gw_info = entropic_gw(
                d1, d2, Marginals.uniform(d1.shape[0], d2.shape[0]), gw_eps)
            gw_at_budget = gw_info["sinkhorn_at_budget"]

        # at most `workers` restarts run at once; each gets a one-worker helper
        # for the second row block of its Guttman steps when the threads allow
        workers = min(threads, cfg.restarts) if _CAN_FORK else 1
        split = threads >= 2 * workers
        inputs = (d1, d2, w1, w2, cfg, gw_coupling, split)
        if workers > 1:
            outcomes = _run_forked(workers, inputs, cfg.restarts, on_outer)
        else:
            outcomes = [_restart_outcome(*inputs, on_outer, r) for r in range(cfg.restarts)]

    results = [r for r in outcomes if isinstance(r, JointResult)]
    if not results:
        raise NumericalFailure(
            f"all {cfg.restarts} restarts failed; last error: {outcomes[-1]}"
        )
    for result in results:
        result.gw_sinkhorn_at_budget = gw_at_budget
    return min(results, key=lambda r: (r.final_objective, r.restart_index))
