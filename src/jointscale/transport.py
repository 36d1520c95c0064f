"""Entropic optimal transport and orthogonal alignment.

Sinkhorn iterations run as stabilized scaling (Schmitzer 2019): multiplicative
updates of two scaling vectors on a Gibbs kernel that already carries the
current log potentials, two matrix-vector products per iteration.  Once a
scaling leaves [1/ABSORB, ABSORB] it is absorbed into the log potentials and
the kernel is rebuilt, so the kernel stays representable however small the
regularization; an iteration whose kernel products under- or overflow anyway
(a stale warm start, say) is redone in the log domain.  A solve whose scaling
stalls at the target regularization is finished by Newton steps on the dual
(Brauer, Clason, Lorenz & Wirth 2017).  The scaling loop has a share of the
budget before them, ``newton_start`` iterations, about as much work as one
dense Newton solve.  Sinkhorn converges linearly (Franklin & Lorenz 1989),
so the loop measures its rate every ``STALL_WINDOW`` iterations and hands
over as soon as that rate cannot reach the tolerance within the share; if
Newton then takes no step, scaling finishes the share and Newton is tried
again.  Newton hands the rest of the budget back to scaling if a
factorization or line search fails.  The orthogonal factor is recovered
from a d x d SVD, and the two are alternated to align point sets with
unknown correspondences.

``wasserstein_procrustes`` and ``entropic_gw`` always return an info dict
after their result, counting the Sinkhorn solves that stopped at their
budget; ``sinkhorn`` returns the coupling, and its own info dict as well
when called with ``log=True``, as both of them do.

Dual potentials cross these calls as (f, g) in the cost's units: the
coupling of cost C at regularization epsilon is
P = exp((f (+) g - C) / epsilon).  They do not depend on epsilon, so the
potentials of one solve warm-start the next at another epsilon as they are;
only ``sinkhorn`` divides them by epsilon, on entry, and multiplies back on
exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.spatial.distance import cdist

from .errors import InvalidInput, NumericalFailure

__all__ = [
    "Marginals",
    "cost_matrix",
    "sinkhorn",
    "orthogonal_procrustes",
    "wasserstein_procrustes",
    "entropic_gw",
]

SINKHORN_MAX_ITER = 1000
SINKHORN_TOL = 1e-6
# Gromov-Wasserstein mirror-descent steps, and the L1 change of the coupling
# below which they stop early
GW_OUTER_ITERS = 50
GW_TOL = 1e-9

# warm-up schedule for small regularization: the plain iteration enters a
# slow O(1/t) regime once epsilon is far below the cost spread, so the
# potentials are first run in at a geometrically decaying epsilon
WARMUP_SPREAD_FACTOR = 10.0
WARMUP_STAGE_ITERS = 100

# the scalings are folded into the log potentials, and the kernel rebuilt,
# once one of them leaves [1/ABSORB, ABSORB]
ABSORB = 1e3

# the wait before Newton steps on the dual is no shorter than this many
# scaling iterations; each step uses as much of the iteration budget as the
# wait
NEWTON_MIN_START = 100
# before Newton, the scaling loop measures its linear rate over windows of
# this many iterations and hands over as soon as that rate cannot reach the
# tolerance within the wait
STALL_WINDOW = 10
# Armijo fraction of the predicted dual ascent a Newton step must achieve,
# and the shortest step tried before the line search counts as failed
ARMIJO_FRACTION = 1e-4
MIN_NEWTON_STEP = 2.0**-30
# largest exponent whose exp, and expm1, is finite
MAX_EXPONENT = math.log(np.finfo(float).max)
# ridge, relative to the largest diagonal entry, added to a Hessian that a
# near-permutation coupling has left numerically singular
NEWTON_RIDGE = 1e-12


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


def _lse(m: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp of ``m`` along ``axis``; a slice of all -inf gives -inf."""
    mx = np.max(m, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    return safe.squeeze(axis) + np.log(np.exp(m - safe).sum(axis=axis))


def _kernel(mk: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stabilized Gibbs kernel exp(mk + u (+) v)."""
    k = mk + u[:, None]
    k += v[None, :]
    return np.exp(k, out=k)


def newton_start(n: int, m: int) -> int:
    """Scaling iterations an n x m solve makes before Newton steps may start.

    A Cholesky factorization of the (n+m-1)-square dual Hessian costs about
    (n+m)^3 / 6 multiply-adds, as many as (n+m)^3 / (6nm) products with the
    n x m kernel.  The wait is that many iterations, at least
    ``NEWTON_MIN_START``; an iteration makes two kernel products, so it is
    twice as many products as the factorization costs.  It depends on the
    problem's size only; a loop whose measured rate shows it stalling hands
    over before it (see ``_stalled``).
    """
    return max(NEWTON_MIN_START, (n + m) ** 3 // (6 * n * m))


def _stalled(violation, earlier, tol, left):
    """Whether scaling at its measured rate misses ``tol`` in ``left`` iterations.

    The rate is rho = (violation / earlier)^(1 / STALL_WINDOW), from the
    violation ``earlier`` one window back.  Sinkhorn converges linearly, so
    at 0 < rho < 1 it needs log(tol / violation) / log rho more iterations,
    and it stalls when that exceeds ``left``: violation * rho^left > tol.  A
    rate of 1 or more, or of 0 (no window yet), never stalls.
    """
    rate = (violation / earlier) ** (1.0 / STALL_WINDOW)
    return 0.0 < rate < 1.0 and violation * rate**left > tol


def _factor(hess, diagonal):
    """Cholesky factor of the dual Hessian (lower triangle filled).

    A coupling close to a permutation leaves directions whose curvature is
    the mass of its near-zero entries, below rounding; the factorization is
    then retried once with ``NEWTON_RIDGE`` times the largest diagonal entry
    added, which shortens the step along those directions only.  The ridge
    shapes the step, not the solution.  Raises ``LinAlgError`` if both fail.
    """
    try:
        return linalg.cho_factor(hess, lower=True, check_finite=False)
    except linalg.LinAlgError:
        idx = np.arange(diagonal.size)
        hess[idx, idx] = diagonal + NEWTON_RIDGE * diagonal.max()
        return linalg.cho_factor(hess, lower=True, check_finite=False)


def _step_length(p, du, dv, linear, ascent):
    """Armijo backtracking along the dual direction (du, dv) from coupling ``p``.

    Returns the longest step t = 1, 1/2, ... down to ``MIN_NEWTON_STEP``
    whose dual change t * linear - sum P (exp(t (du (+) dv)) - 1), with
    ``linear`` = a.du + b.dv, gains at least ``ARMIJO_FRACTION * t * ascent``,
    or None.  The change is taken with expm1 so it stays exact as steps
    shrink.  A step whose exponent overflows anywhere is shortened unweighed:
    an entry of P that underflowed to 0 gives such an exponent no value, so
    the test fails closed rather than on a NaN.
    """
    shift = np.add.outer(du, dv)
    top = float(shift.max())
    t = 1.0
    while t >= MIN_NEWTON_STEP:
        if t * top <= MAX_EXPONENT:
            gain = t * linear - float(np.sum(p * np.expm1(t * shift)))
            if gain >= ARMIJO_FRACTION * t * ascent:
                return t
        t *= 0.5
    return None


def _newton(mk, a, b, u, v, p, tol, max_steps):
    """Damped Newton ascent on the dual a.u + b.v - sum exp(mk + u (+) v).

    Starts from the potentials u, v and their coupling ``p``, as the
    scaling loop returns them.  The last entry of ``v`` stays pinned, which
    removes the dual's one flat direction (u + s, v - s) and leaves the
    Hessian [[diag(P1), P], [P^T, diag(P^T 1)]] positive definite.  Each
    step is backtracked until it gains at least ``ARMIJO_FRACTION`` of the
    predicted ascent (see ``_step_length``).  Stops once the L1 marginal
    violation (rows plus columns) is below ``tol``, after ``max_steps``
    steps, or when a factorization or line search fails; returns the
    potentials, their coupling exp(mk + u (+) v), its violation and the
    number of steps taken.
    """
    n = a.size
    steps = 0
    with np.errstate(over="ignore"):
        while True:
            rows, cols = p.sum(axis=1), p.sum(axis=0)
            violation = float(np.abs(rows - a).sum() + np.abs(cols - b).sum())
            if violation < tol or steps == max_steps:
                return u, v, p, violation, steps
            grad = np.concatenate((a - rows, (b - cols)[:-1]))
            diagonal = np.concatenate((rows, cols[:-1]))
            hess = np.diag(diagonal)  # the lower triangle is all the factorization reads
            hess[n:, :n] = p[:, :-1].T
            try:
                factor = _factor(hess, diagonal)
            except linalg.LinAlgError:
                return u, v, p, violation, steps
            delta = linalg.cho_solve(factor, grad, check_finite=False)
            du, dv = delta[:n], np.append(delta[n:], 0.0)
            ascent = float(grad @ delta)
            linear = float(a @ du + b @ dv)
            if not (math.isfinite(ascent) and ascent > 0 and math.isfinite(linear)):
                return u, v, p, violation, steps
            t = _step_length(p, du, dv, linear, ascent)
            if t is None:
                return u, v, p, violation, steps
            u, v = u + t * du, v + t * dv
            p = _kernel(mk, u, v)
            steps += 1


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
    of the current log potentials u = f / epsilon, v = g / epsilon; the
    scalings are absorbed into u, v when they leave [1/ABSORB, ABSORB],
    and an iteration whose kernel products under- or overflow is redone in
    the log domain.  Both give the same iterates as a log-domain loop up to
    rounding.  With zero entries in the marginals every iteration after the
    first runs in the log domain.
    When ``epsilon`` is small against the cost spread and no warm start is
    given, the potentials (f, g) are first run in at geometrically decaying
    regularization, each stage dividing them by its own epsilon; the fixed
    point solved for is unchanged.
    A solve still short of ``tol`` after ``start = newton_start(n, n')``
    iterations at the target epsilon is finished by damped Newton steps on
    the dual (see ``_newton``), each of which uses ``start`` iterations of
    the budget; a budget below two such shares takes no Newton step.  The
    scaling loop hands over before ``start`` once it stalls: every
    ``STALL_WINDOW`` iterations it takes the rate rho = (v_j / v_{j-w})^(1/w)
    of its L1 violation v over the last w = ``STALL_WINDOW`` iterations, and
    at iteration j hands over once 0 < rho < 1 and log(tol / v_j) / log rho
    > start - j, that is, once this rate cannot reach ``tol`` within the
    share.  An iteration redone in the log domain restarts the window.  If
    that early Newton attempt takes no step, scaling finishes the share and
    Newton is tried again at ``start``.  Newton takes at most
    (``max_iter`` - iterations) // ``start`` steps, so the scaling
    iterations plus ``start`` per Newton step never exceed ``max_iter``.
    If a factorization fails even with a ridge (see ``_factor``), or a line
    search fails, scaling resumes from the Newton iterate for the rest of
    the budget, ``max_iter`` - iterations - ``start`` x Newton steps.
    Marginals with zero entries make the Hessian singular and never take
    the Newton path.

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
        Also return a dict with the dual potentials in the cost's units
        (``"f"``, ``"g"``; the coupling is exp((f (+) g - c) / epsilon)), the L1
        marginal violation of the returned coupling, the scaling iteration
        counts at the target epsilon and in the warm-up (``"iterations"``,
        ``"warmup_iterations"``), the Newton steps taken
        (``"newton_steps"``) and whether the violation is below ``tol``
        (``"converged"``).
    warm_start : (f, g), optional
        Dual potentials in the cost's units to start from, e.g. those of a
        previous call on a nearby cost, at any epsilon.

    Returns
    -------
    ndarray of shape (n, n'), and a dict when ``log`` is set.
        The coupling is the last phase's own: the scaling loop's kernel
        scaled by its two scalings, or the last Newton iterate.  It equals
        exp((f (+) g - c) / epsilon) of the returned potentials to rounding.
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

    def scale(mk, u, v, budget, watch=False):
        # Multiplicative scaling on the stabilized kernel K = exp(mk + u (+) v):
        # the iterate's log potentials are u + log sa and v + log sb.  After
        # each sb update the column sums equal b exactly, so convergence is
        # tracked on the row sums sa * (K @ sb), whose second factor also
        # gives the next sa: two matrix-vector products per iteration.  The
        # kernel, scaled in place by sa (x) sb, is the iterate's coupling.
        # With ``watch`` set the loop also stops, short of ``tol``, once the
        # rate over its last STALL_WINDOW iterations cannot reach ``tol``
        # within the budget (see ``_stalled``).
        def restart(u, v):
            k = _kernel(mk, u, v)
            return k, k.sum(axis=1), np.ones_like(a), np.ones_like(b)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            k, kb, sa, sb = restart(u, v)
            violation = np.inf
            iterations = 0
            # the rate window: the violation STALL_WINDOW iterations back
            window_at, window_violation = 0, np.inf
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
                    u = log_a - _lse(mk + (v + np.log(sb))[None, :], axis=1)
                    v = log_b - _lse(mk + u[:, None], axis=0)
                    k, kb, sa, sb = restart(u, v)
                    violation = float(np.abs(kb - a).sum())
                    if not math.isfinite(violation):
                        raise NumericalFailure("sinkhorn scaling produced non-finite marginals")
                    # a rate taken across the redo would not be the loop's
                    window_at, window_violation = iterations, violation
                if violation < tol:
                    break
                if watch and iterations - window_at == STALL_WINDOW:
                    if _stalled(violation, window_violation, tol, budget - iterations):
                        break
                    window_at, window_violation = iterations, violation
                if (sa.max() > ABSORB or sa.min() < 1.0 / ABSORB
                        or sb.max() > ABSORB or sb.min() < 1.0 / ABSORB):
                    u, v = u + np.log(sa), v + np.log(sb)
                    k, kb, sa, sb = restart(u, v)
            k *= sa[:, None]
            k *= sb[None, :]
            return u + np.log(sa), v + np.log(sb), k, violation, iterations

    warmup_iterations = 0
    if warm_start is not None:
        f, g = np.asarray(warm_start[0], dtype=float), np.asarray(warm_start[1], dtype=float)
    else:
        f = np.zeros_like(a)
        g = np.zeros_like(b)
        spread = float(c.max() - c.min())
        eps_run = spread / WARMUP_SPREAD_FACTOR
        while eps_run > epsilon:
            u, v, _, _, used = scale(-c / eps_run, f / eps_run, g / eps_run,
                                     WARMUP_STAGE_ITERS)
            warmup_iterations += used
            f, g = eps_run * u, eps_run * v
            eps_run = max(eps_run / 2.0, epsilon)

    mk = -c / epsilon
    u, v = f / epsilon, g / epsilon
    # Newton steps need positive marginals, else the Hessian is singular
    start = newton_start(a.size, b.size)
    newton = max_iter >= 2 * start and a.min() > 0 and b.min() > 0
    # each Newton step uses `start` iterations of the budget
    u, v, p, violation, iterations = scale(mk, u, v, start if newton else max_iter,
                                           watch=newton)
    newton_steps = 0
    if newton and violation >= tol:
        u, v, p, violation, newton_steps = _newton(
            mk, a, b, u, v, p, tol, (max_iter - iterations) // start)
        if violation >= tol and newton_steps == 0 and iterations < start:
            # the stalled loop handed over early and Newton took no step:
            # scaling finishes the share and Newton is tried again after it
            u, v, p, violation, more = scale(mk, u, v, start - iterations)
            iterations += more
            if violation >= tol:
                u, v, p, violation, newton_steps = _newton(
                    mk, a, b, u, v, p, tol, (max_iter - iterations) // start)
    remaining = max_iter - iterations - start * newton_steps
    if violation >= tol and remaining > 0:
        # Newton stopped short (a failed factorization or line search, or its
        # share of the budget spent): scaling takes the rest
        u, v, p, _, more = scale(mk, u, v, remaining)
        iterations += more
    rows = p.sum(axis=1)
    # p >= 0, so a NaN or infinite entry leaves its row's sum non-finite
    if not np.all(np.isfinite(rows)):
        raise NumericalFailure("sinkhorn coupling contains non-finite entries")
    violation = float(np.abs(rows - a).sum() + np.abs(p.sum(axis=0) - b).sum())
    if log:
        info = {
            "f": epsilon * u,
            "g": epsilon * v,
            "marginal_violation": violation,
            "iterations": iterations,
            "warmup_iterations": warmup_iterations,
            "newton_steps": newton_steps,
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
    sinkhorn_tol: float = 1e-9,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Alternate entropic OT and orthogonal Procrustes between two point sets.

    Starting from ``p0`` (through an initial Procrustes step) or from the
    identity when absent, each round solves the transport problem on
    cost(z1 @ O, z2) and then re-fits O to the fresh coupling, so the
    entropic alignment objective never increases across rounds.

    Returns
    -------
    (coupling, rotation, info), with the last solve's dual potentials
    (f, g), in the cost's units, under ``info["potentials"]``; they
    warm-start a later call at any epsilon through ``warm_start``.  Under
    ``"sinkhorn_at_budget"``, how many rounds' transport solves stopped at
    their iteration budget short of ``sinkhorn_tol``, and under
    ``"newton_steps"`` the Newton steps those solves took.
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
    at_budget = newton_steps = 0
    for _ in range(inner_iters):
        coupling, info = sinkhorn(
            cost_matrix(z1 @ rotation, z2),
            m,
            epsilon,
            tol=sinkhorn_tol,
            log=True,
            warm_start=potentials,
        )
        potentials = (info["f"], info["g"])
        at_budget += not info["converged"]
        newton_steps += info["newton_steps"]
        rotation = orthogonal_procrustes(z1, coupling, z2)
    return coupling, rotation, {"potentials": potentials,
                                "sinkhorn_at_budget": at_budget,
                                "newton_steps": newton_steps}


def entropic_gw(
    d1: np.ndarray,
    d2: np.ndarray,
    m: Marginals,
    epsilon: float,
):
    """Entropic Gromov-Wasserstein coupling between two dissimilarity matrices.

    Mirror-descent iterations with squared difference loss: each step builds
    the gradient cost of <L(d1, d2) x P, P> at the current coupling,
    proximally regularized by the KL to the current iterate, and re-projects
    with Sinkhorn.  The proximal term is read off the last solve: its
    coupling is exp((f (+) g - cost) / epsilon), so the next cost is
    gradient + cost - (f (+) g), from the product coupling's f = epsilon
    log a, g = epsilon log b and cost 0 at the start.  Makes at most
    ``GW_OUTER_ITERS`` steps, stopping once a step changes the coupling by
    less than ``GW_TOL`` in L1.  Rows and columns of zero mass carry no
    coupling: the problem is solved on the marginals' support, and its
    coupling is returned with zero rows and columns put back.

    Returns
    -------
    (coupling, info), where ``info["sinkhorn_at_budget"]`` counts the
    Sinkhorn solves that stopped at their budget short of their tolerance.
    """
    if epsilon <= 0:
        raise InvalidInput(f"epsilon must be > 0, got {epsilon}")
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    a, b = m.a, m.b
    if d1.shape != (a.size, a.size) or d2.shape != (b.size, b.size):
        raise InvalidInput("dissimilarity shapes do not match the marginals")
    rows, cols = a > 0, b > 0
    if not (rows.all() and cols.all()):
        # epsilon log a, and the potentials of an empty row, would be -inf
        inner, info = entropic_gw(d1[np.ix_(rows, rows)], d2[np.ix_(cols, cols)],
                                  Marginals(a[rows], b[cols]), epsilon)
        coupling = np.zeros((a.size, b.size))
        coupling[np.ix_(rows, cols)] = inner
        return coupling, info
    const = (d1**2 @ a)[:, None] + (d2**2 @ b)[None, :]
    # the product coupling, exp((f (+) g - cost) / epsilon) of these
    coupling = np.outer(a, b)
    cost, f, g = 0.0, epsilon * np.log(a), epsilon * np.log(b)
    potentials = None  # the first solve starts cold, through sinkhorn's warm-up
    at_budget = 0
    for _ in range(GW_OUTER_ITERS):
        grad = const - 2.0 * d1 @ coupling @ d2
        # KL-proximal (mirror) step keeps iterates sharp at small epsilon:
        # cost - (f (+) g) is -epsilon log P of the current coupling
        cost = grad + cost - f[:, None] - g[None, :]
        cost -= cost.min()
        new, info = sinkhorn(cost, m, epsilon, log=True, warm_start=potentials)
        at_budget += not info["converged"]
        delta = float(np.abs(new - coupling).sum())
        coupling = new
        potentials = f, g = info["f"], info["g"]
        if delta < GW_TOL:
            break
    return coupling, {"sinkhorn_at_budget": at_budget}
