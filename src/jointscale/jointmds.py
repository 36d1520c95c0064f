"""Alternating solver producing a common embedding for two dissimilarity datasets.

One restart runs: independent stress majorization per dataset, an optional
Gromov-Wasserstein warm start for the coupling, then outer iterations that
alternate (i) entropic alignment of the two embeddings, (ii) rotation of the
first embedding, and (iii) a joint majorization pass on the coupled block
instance.  The entropic regularization decays geometrically across outer
iterations; the matching penalty ramps up over the first half of the run
when ``lambda_anneal`` is set.  Restarts differ only in their seed and the
smallest final objective wins.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dissimilarity import validate_dissimilarity
from .errors import InvalidInput, NumericalFailure
from .smacof import (
    FULL_MATRIX_FACTOR,
    assemble_joint,
    smacof,
    stress,
    v_matrix_pinv,
)
from .transport import Marginals, cost_matrix, entropic_gw, wasserstein_procrustes

__all__ = ["JointConfig", "JointResult", "joint_objective", "solve", "match_argmax"]

INIT_SMACOF_MAX_ITER = 300
# Inner stopping is relative to the stress at the start of each call so the
# whole pipeline is equivariant under rescaling of the input dissimilarities.
INNER_RTOL = 1e-9
EPSILON_FLOOR_FRACTION = 1e-3
GW_EPSILON_FRACTION = 0.01
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
    """Winning restart: aligned embeddings, coupling, and objective history."""

    z1: np.ndarray
    z2: np.ndarray
    p: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    final_objective: float = math.inf
    restart_index: int = 0


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
    scale = _init_scale(d1, d2)
    rng = np.random.default_rng(cfg.seed + restart)
    z1 = scale * rng.standard_normal((d1.shape[0], cfg.dim))
    z2 = scale * rng.standard_normal((d2.shape[0], cfg.dim))
    return z1, z2


def _relative_smacof(d, w, z0, max_iter, v_pinv=None):
    tol = INNER_RTOL * stress(z0, d, w)
    return smacof(d, w, z0, tol=tol, max_iter=max_iter, v_pinv=v_pinv)


def _run_restart(
    d1, d2, w1, w2, cfg: JointConfig, restart: int, v1_pinv, v2_pinv,
    gw_coupling=None, on_outer=None
) -> JointResult:
    z1, z2 = _initial_embeddings(d1, d2, cfg, restart)
    z1, _ = _relative_smacof(d1, w1, z1, INIT_SMACOF_MAX_ITER, v1_pinv)
    z2, _ = _relative_smacof(d2, w2, z2, INIT_SMACOF_MAX_ITER, v2_pinv)

    marginals = Marginals.uniform(d1.shape[0], d2.shape[0])
    coupling = gw_coupling

    ramp_iters = math.ceil(cfg.outer_iters / 2)
    epsilon = cfg.epsilon0
    trace: list[float] = []
    potentials = None
    eps_prev = None
    for t in range(1, cfg.outer_iters + 1):
        floor = EPSILON_FLOOR_FRACTION * float(np.mean(cost_matrix(z1, z2)))
        eps_eff = max(epsilon, floor)
        if potentials is not None and eps_prev is not None:
            # scaling potentials are dual values over epsilon; keep them warm
            ratio = eps_prev / eps_eff
            potentials = (potentials[0] * ratio, potentials[1] * ratio)
        coupling, rotation, wp_info = wasserstein_procrustes(
            z1, z2, marginals, eps_eff, cfg.inner_wp_iters, p0=coupling,
            sinkhorn_tol=WP_SINKHORN_TOL, warm_start=potentials, log=True,
        )
        potentials = wp_info["potentials"]
        eps_prev = eps_eff
        z1 = z1 @ rotation

        lam_t = cfg.lam
        if cfg.lambda_anneal:
            lam_t = cfg.lam * min(1.0, t / ramp_iters)

        # the inner run's last stress is the coupled objective at the rotation
        # already absorbed into z1 (block-stress identity)
        if lam_t > 0:
            blocks = assemble_joint(d1, d2, w1, w2, coupling, lam_t, z1, z2)
            z_tilde, report = _relative_smacof(
                blocks.d_tilde, blocks.w_tilde, blocks.z_tilde, cfg.inner_smacof_iters
            )
            z1, z2 = z_tilde[: blocks.n1], z_tilde[blocks.n1 :]
            objective = FULL_MATRIX_FACTOR * report.per_iteration[-1]
        else:
            # zero penalty decouples the block problem into the two datasets
            z1, r1 = _relative_smacof(d1, w1, z1, cfg.inner_smacof_iters, v1_pinv)
            z2, r2 = _relative_smacof(d2, w2, z2, cfg.inner_smacof_iters, v2_pinv)
            objective = FULL_MATRIX_FACTOR * (r1.per_iteration[-1] + r2.per_iteration[-1])

        trace.append(objective)
        if on_outer is not None:
            on_outer(restart, t, objective)
        epsilon = cfg.alpha * epsilon

    return JointResult(z1, z2, coupling, trace, trace[-1], restart)


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
        Restart-level parallelism; results are identical to a serial run.
    on_outer : callable, optional
        ``on_outer(restart, iteration, objective)`` called after every outer
        iteration, e.g. for progress logging.

    Raises
    ------
    NumericalFailure
        Only if every restart fails; a failing restart is otherwise skipped.
    """
    cfg.validate()
    d1 = validate_dissimilarity(d1, "first dissimilarity matrix")
    d2 = validate_dissimilarity(d2, "second dissimilarity matrix")
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != d1.shape or w2.shape != d2.shape:
        raise InvalidInput("weight shapes must match their dissimilarity matrices")

    v1_pinv = v_matrix_pinv(w1)
    v2_pinv = v_matrix_pinv(w2)

    gw_coupling = None
    if cfg.gw_init:
        # deterministic in the inputs, hence shared across restarts
        gw_eps = GW_EPSILON_FRACTION * float(np.mean(d1**2) + np.mean(d2**2))
        gw_coupling = entropic_gw(d1, d2, Marginals.uniform(d1.shape[0], d2.shape[0]), gw_eps)

    def run(restart: int):
        try:
            return _run_restart(d1, d2, w1, w2, cfg, restart, v1_pinv, v2_pinv,
                                gw_coupling, on_outer)
        except NumericalFailure as exc:
            return exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run, range(cfg.restarts)))
    else:
        outcomes = [run(r) for r in range(cfg.restarts)]

    results = [r for r in outcomes if isinstance(r, JointResult)]
    if not results:
        raise NumericalFailure(
            f"all {cfg.restarts} restarts failed; last error: {outcomes[-1]}"
        )
    return min(results, key=lambda r: (r.final_objective, r.restart_index))
