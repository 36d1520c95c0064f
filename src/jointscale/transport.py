"""Entropic optimal transport and orthogonal alignment.

Sinkhorn iterations run as stabilized scaling (Schmitzer 2019): multiplicative
updates of two scaling vectors on a Gibbs kernel that already carries the
current log potentials, two matrix-vector products per iteration.  Once a
scaling leaves [1/ABSORB, ABSORB] it is absorbed into the log potentials and
the kernel is rebuilt, so the kernel stays representable however small the
regularization; an iteration whose kernel products under- or overflow anyway
(a stale warm start, say) is redone in the log domain.  The orthogonal factor
is recovered from a d x d SVD, and the two are alternated to align point
sets with unknown correspondences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import xlogy

from .errors import InvalidInput, NumericalFailure

__all__ = [
    "Marginals",
    "cost_matrix",
    "sinkhorn",
    "entropy",
    "orthogonal_procrustes",
    "wasserstein_procrustes",
    "entropic_gw",
]

SINKHORN_MAX_ITER = 1000
SINKHORN_TOL = 1e-6
GW_OUTER_ITERS = 50

# warm-up schedule for small regularization: the plain iteration enters a
# slow O(1/t) regime once epsilon is far below the cost spread, so the
# potentials are first run in at a geometrically decaying epsilon
WARMUP_SPREAD_FACTOR = 10.0
WARMUP_STAGE_ITERS = 100

# the scalings are folded into the log potentials, and the kernel rebuilt,
# once one of them leaves [1/ABSORB, ABSORB]
ABSORB = 1e3


@dataclass(frozen=True)
class Marginals:
    """Pair of probability vectors prescribing coupling row/column sums."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name, vec in (("a", self.a), ("b", self.b)):
            vec = np.asarray(vec, dtype=float)
            if vec.ndim != 1 or vec.size < 1:
                raise InvalidInput(f"marginal {name} must be a nonempty vector")
            if np.any(vec < 0) or not np.all(np.isfinite(vec)):
                raise InvalidInput(f"marginal {name} must be nonnegative and finite")
            if abs(vec.sum() - 1.0) > 1e-12:
                raise InvalidInput(f"marginal {name} must sum to 1 within 1e-12")
            object.__setattr__(self, name, vec)

    @staticmethod
    def uniform(n: int, m: int) -> "Marginals":
        return Marginals(np.full(n, 1.0 / n), np.full(m, 1.0 / m))


def cost_matrix(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Squared Euclidean costs C_ij = ||z1_i - z2_j||^2."""
    z1 = np.atleast_2d(np.asarray(z1, dtype=float))
    z2 = np.atleast_2d(np.asarray(z2, dtype=float))
    if z1.shape[1] != z2.shape[1]:
        raise InvalidInput(
            f"embeddings have different dimensions {z1.shape[1]} and {z2.shape[1]}"
        )
    return cdist(z1, z2, metric="sqeuclidean")


def entropy(p: np.ndarray) -> float:
    """H(P) = -sum P_ij (log P_ij - 1), with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    return float(-np.sum(xlogy(p, p)) + p.sum())


def _lse_rows(m: np.ndarray) -> np.ndarray:
    mx = np.max(m, axis=1)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    return safe + np.log(np.exp(m - safe[:, None]).sum(axis=1))


def _lse_cols(m: np.ndarray) -> np.ndarray:
    mx = np.max(m, axis=0)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    return safe + np.log(np.exp(m - safe[None, :]).sum(axis=0))


def _kernel(mk: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stabilized Gibbs kernel exp(mk + u (+) v)."""
    k = mk + u[:, None]
    k += v[None, :]
    return np.exp(k, out=k)


def sinkhorn(
    c: np.ndarray,
    m: Marginals,
    epsilon: float,
    max_iter: int = SINKHORN_MAX_ITER,
    tol: float = SINKHORN_TOL,
    log: bool = False,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Entropic optimal transport by stabilized matrix scaling.

    Solves min_P <P, C> - epsilon * H(P) over couplings with marginals
    ``m``.  Each iteration updates both scaling potentials and stops once
    the L1 marginal violation (rows plus columns) falls below ``tol``.
    The updates are multiplicative on the kernel exp(-C/epsilon + u (+) v)
    of the current log potentials u, v; the scalings are absorbed into u, v
    when they leave [1/ABSORB, ABSORB], and an iteration whose kernel
    products under- or overflow is redone in the log domain.  Both give
    the same iterates as a log-domain loop up to rounding.  With zero
    entries in the marginals every iteration after the first runs in the
    log domain.
    When ``epsilon`` is small against the cost spread and no warm start is
    given, the potentials are first run in at geometrically decaying
    regularization; the fixed point solved for is unchanged.

    Parameters
    ----------
    c : ndarray of shape (n, n')
        Cost matrix, finite entries.
    m : Marginals
        Prescribed row and column sums.
    epsilon : float
        Entropic regularization, > 0.
    max_iter, tol : int, float
        Iteration budget at the target epsilon and L1 marginal tolerance.
    log : bool
        Also return a dict with the log-domain coupling
        (``"log_coupling"``), the log potentials (``"u"``, ``"v"``), the L1
        marginal violation of the returned coupling, the iteration counts at
        the target epsilon and in the warm-up (``"iterations"``,
        ``"warmup_iterations"``) and whether the violation is below ``tol``
        (``"converged"``).
    warm_start : (u, v), optional
        Log-domain scaling potentials to start from, e.g. from a previous
        call on a nearby cost.

    Returns
    -------
    ndarray of shape (n, n'), and a dict when ``log`` is set.
    """
    if epsilon <= 0:
        raise InvalidInput(f"epsilon must be > 0, got {epsilon}")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter}")
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise InvalidInput(f"cost matrix must be 2-D, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidInput("cost matrix contains non-finite entries")
    a, b = m.a, m.b
    if c.shape != (a.size, b.size):
        raise InvalidInput(
            f"cost shape {c.shape} does not match marginals ({a.size}, {b.size})"
        )
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)

    def scale(eps, u, v, budget):
        # Multiplicative scaling on the stabilized kernel K = exp(mk + u (+) v):
        # the iterate's log potentials are u + log sa and v + log sb.  After
        # each sb update the column sums equal b exactly, so convergence is
        # tracked on the row sums sa * (K @ sb), whose second factor also
        # gives the next sa: two matrix-vector products per iteration.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mk = -c / eps
            k = _kernel(mk, u, v)
            kb = k.sum(axis=1)
            sa, sb = np.ones_like(a), np.ones_like(b)
            violation = np.inf
            iterations = 0
            for iterations in range(1, budget + 1):
                sa = a / kb
                sb_next = b / (k.T @ sa)
                kb = k @ sb_next
                violation = float(np.abs(sa * kb - a).sum())
                if math.isfinite(violation):
                    sb = sb_next
                else:
                    # the kernel under- or overflowed (stale warm start, tiny
                    # epsilon): redo this iteration in the log domain
                    u = log_a - _lse_rows(mk + (v + np.log(sb))[None, :])
                    v = log_b - _lse_cols(mk + u[:, None])
                    sa, sb = np.ones_like(a), np.ones_like(b)
                    k = _kernel(mk, u, v)
                    kb = k.sum(axis=1)
                    violation = float(np.abs(kb - a).sum())
                    if not math.isfinite(violation):
                        raise NumericalFailure("sinkhorn scaling produced non-finite marginals")
                if violation < tol:
                    break
                if (sa.max() > ABSORB or sa.min() < 1.0 / ABSORB
                        or sb.max() > ABSORB or sb.min() < 1.0 / ABSORB):
                    u, v = u + np.log(sa), v + np.log(sb)
                    sa, sb = np.ones_like(a), np.ones_like(b)
                    k = _kernel(mk, u, v)
                    kb = k.sum(axis=1)
            return u + np.log(sa), v + np.log(sb), violation, iterations

    warmup_iterations = 0
    if warm_start is not None:
        u, v = np.asarray(warm_start[0], dtype=float), np.asarray(warm_start[1], dtype=float)
    else:
        u = np.zeros_like(a)
        v = np.zeros_like(b)
        spread = float(c.max() - c.min()) if c.size else 0.0
        eps_run = spread / WARMUP_SPREAD_FACTOR
        while eps_run > epsilon:
            u, v, _, used = scale(eps_run, u, v, WARMUP_STAGE_ITERS)
            warmup_iterations += used
            eps_next = max(eps_run / 2.0, epsilon)
            # potentials are f/eps; rescale to keep the dual variables continuous
            u, v = u * (eps_run / eps_next), v * (eps_run / eps_next)
            eps_run = eps_next

    u, v, _, iterations = scale(epsilon, u, v, max_iter)
    log_p = -c / epsilon + u[:, None] + v[None, :]
    p = np.exp(log_p)
    violation = float(
        np.abs(p.sum(axis=1) - a).sum() + np.abs(p.sum(axis=0) - b).sum()
    )
    if not np.all(np.isfinite(p)):
        raise NumericalFailure("sinkhorn coupling contains non-finite entries")
    if log:
        info = {
            "log_coupling": log_p,
            "u": u,
            "v": v,
            "marginal_violation": violation,
            "iterations": iterations,
            "warmup_iterations": warmup_iterations,
            "converged": violation < tol,
        }
        return p, info
    return p


def orthogonal_procrustes(z1: np.ndarray, p: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Orthogonal matrix maximizing <O, z1^T p z2> via SVD.

    The optimum is U V^T for the SVD of M = z1^T p z2; the certificate
    <O, M> equals the nuclear norm of M.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    p = np.asarray(p, dtype=float)
    if z1.shape[1] != z2.shape[1]:
        raise InvalidInput("embeddings must share the target dimension")
    if p.shape != (z1.shape[0], z2.shape[0]):
        raise InvalidInput(
            f"coupling shape {p.shape} does not match ({z1.shape[0]}, {z2.shape[0]})"
        )
    mat = z1.T @ p @ z2
    try:
        u, _, vt = np.linalg.svd(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed in Procrustes step: {exc}") from exc
    return u @ vt


def wasserstein_procrustes(
    z1: np.ndarray,
    z2: np.ndarray,
    m: Marginals,
    epsilon: float,
    inner_iters: int,
    p0: np.ndarray | None = None,
    sinkhorn_max_iter: int = SINKHORN_MAX_ITER,
    sinkhorn_tol: float = 1e-9,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
    log: bool = False,
):
    """Alternate entropic OT and orthogonal Procrustes between two point sets.

    Starting from ``p0`` (through an initial Procrustes step) or from the
    identity when absent, each round solves the transport problem on
    cost(z1 @ O, z2) and then re-fits O to the fresh coupling, so the
    entropic alignment objective never increases across rounds.

    Returns
    -------
    (coupling, rotation), plus an info dict when ``log`` is set: the final
    scaling potentials under ``"potentials"`` and, under
    ``"sinkhorn_at_budget"``, how many rounds' transport solves stopped at
    ``sinkhorn_max_iter`` short of ``sinkhorn_tol``.
    """
    if inner_iters < 1:
        raise InvalidInput(f"inner_iters must be >= 1, got {inner_iters}")
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape[1] != z2.shape[1]:
        raise InvalidInput("embeddings must share the target dimension")
    rotation = np.eye(z1.shape[1])
    if p0 is not None:
        rotation = orthogonal_procrustes(z1, p0, z2)
    potentials = warm_start
    at_budget = 0
    for _ in range(inner_iters):
        coupling, info = sinkhorn(
            cost_matrix(z1 @ rotation, z2),
            m,
            epsilon,
            max_iter=sinkhorn_max_iter,
            tol=sinkhorn_tol,
            log=True,
            warm_start=potentials,
        )
        potentials = (info["u"], info["v"])
        at_budget += not info["converged"]
        rotation = orthogonal_procrustes(z1, coupling, z2)
    if log:
        return coupling, rotation, {"potentials": potentials,
                                    "sinkhorn_at_budget": at_budget}
    return coupling, rotation


def entropic_gw(
    d1: np.ndarray,
    d2: np.ndarray,
    m: Marginals,
    epsilon: float,
    outer_iters: int = GW_OUTER_ITERS,
    tol: float = 1e-9,
) -> np.ndarray:
    """Entropic Gromov-Wasserstein coupling between two dissimilarity matrices.

    Mirror-descent iterations with squared difference loss: each step builds
    the gradient cost of <L(d1, d2) x P, P> at the current coupling,
    proximally regularized by the KL to the current iterate, and re-projects
    with Sinkhorn.  Starts from the product coupling.
    """
    if epsilon <= 0:
        raise InvalidInput(f"epsilon must be > 0, got {epsilon}")
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    a, b = m.a, m.b
    if d1.shape != (a.size, a.size) or d2.shape != (b.size, b.size):
        raise InvalidInput("dissimilarity shapes do not match the marginals")
    const = (d1**2 @ a)[:, None] + (d2**2 @ b)[None, :]
    coupling = np.outer(a, b)
    log_coupling = np.log(coupling)
    potentials = None
    for _ in range(outer_iters):
        grad = const - 2.0 * d1 @ coupling @ d2
        # KL-proximal (mirror) step keeps iterates sharp at small epsilon
        cost = grad - epsilon * log_coupling
        cost -= cost.min()
        new, info = sinkhorn(cost, m, epsilon, log=True, warm_start=potentials)
        delta = float(np.abs(new - coupling).sum())
        coupling = new
        log_coupling = info["log_coupling"]
        potentials = (info["u"], info["v"])
        if delta < tol:
            break
    return coupling
