"""Weighted metric MDS by stress majorization.

The stress of a configuration Z against dissimilarities D under weights W is
summed over the upper triangle (i < j).  The symmetric full-matrix double
sum is exactly ``FULL_MATRIX_FACTOR`` times this value; reported numbers
state which convention they use.

Each majorization step is a Guttman transform Z -> V^+ B(Z) Z, which never
increases the stress (sandwich inequality).  A step makes one n x n
distance pass: w * d is divided by the distances in place, and the row
sums of that ratio and one product with Z give B(Z) Z.  The stress of Z
comes from the same pass through the SMACOF identity

    stress(Z) = eta_d^2 + eta^2(Z) - 2 rho(Z),

with eta_d^2 = sum_{i<j} w_ij d_ij^2 computed once per run,
rho(Z) = <Z, B(Z) Z>, and eta^2(Z) = sum_{i<j} w_ij ||z_i - z_j||^2 taken
from the weight row sums and W Z (de Leeuw 1977; Borg & Groenen 2005,
ch. 8).  B(Z) is built from sym(w * d), so the identity holds for
asymmetric d and w too.  Its values carry an absolute error of a few
machine epsilons times eta_d^2, visible only near zero stress.  ``stress``
sums the squared residuals directly and is the reference the identity is
tested against.

``smacof`` iterates the step on one dataset.  ``joint_smacof`` iterates it
on the coupled two-dataset instance without building that instance: its
cross dissimilarities are zero, so B(Z) Z is computed block by block, and
the coupling P enters only through

    V~ = [[V1 + lam diag(P 1), -lam P], [-lam P^T, V2 + lam diag(P^T 1)]],

whose pseudo-inverse is taken once per call.  Both share one B(Z) Z kernel,
one stopping loop and one Laplacian pseudo-inverse, (V + J/n)^{-1} - J/n by
Cholesky factorization.  ``assemble_joint`` builds the dense block instance
and stays as the reference the structured iteration is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .errors import DegenerateWeights, InvalidInput, NumericalFailure

__all__ = [
    "FULL_MATRIX_FACTOR",
    "StressReport",
    "JointBlocks",
    "random_embedding",
    "stress",
    "v_matrix_pinv",
    "guttman_transform",
    "smacof",
    "joint_smacof",
    "assemble_joint",
]

# The full-matrix double-sum stress of a symmetric instance is twice the
# upper-triangle stress computed here.
FULL_MATRIX_FACTOR = 2.0

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 300

# rows per block when the Cholesky inverse is mirrored into a full matrix
_SYM_BLOCK = 128


@dataclass
class StressReport:
    """Trajectory of one majorization run.

    ``per_iteration[0]`` is the stress of the initial configuration;
    subsequent entries follow each Guttman transform.  The sequence is
    non-increasing up to roundoff.  Values come from the SMACOF identity
    eta_d^2 + eta^2 - 2 rho, so their absolute error is a few machine
    epsilons times eta_d^2 = sum_{i<j} w_ij d_ij^2; near a realizable
    instance that error dominates, and values are clamped at 0.
    """

    per_iteration: list[float]
    iterations_used: int
    converged: bool


@dataclass
class JointBlocks:
    """Block instance turning the coupled two-dataset subproblem into one MDS.

    The dissimilarity cross blocks are zero, the weight cross blocks carry
    the coupling scaled by the matching penalty, and the embedding is the
    vertical stack of both configurations.
    """

    d_tilde: np.ndarray
    w_tilde: np.ndarray
    z_tilde: np.ndarray
    n1: int


def random_embedding(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Deterministic Gaussian start configuration with standard deviation ``scale``."""
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, d))


def _check_shapes(z: np.ndarray, d: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.ndim != 2:
        raise InvalidInput(f"embedding must be 2-D, got shape {z.shape}")
    n = z.shape[0]
    if d.shape != (n, n):
        raise InvalidInput(f"dissimilarity shape {d.shape} does not match n={n}")
    if w.shape != (n, n):
        raise InvalidInput(f"weight shape {w.shape} does not match n={n}")
    return z, d, w


def _stress_from_dist(dist: np.ndarray, d: np.ndarray, w: np.ndarray) -> float:
    diff = d - dist
    np.fill_diagonal(diff, 0.0)
    return float(np.einsum("ij,ij,ij->", w, diff, diff) / FULL_MATRIX_FACTOR)


def stress(z: np.ndarray, d: np.ndarray, w: np.ndarray) -> float:
    """Weighted stress sum_{i<j} w_ij (d_ij - ||z_i - z_j||)^2."""
    z, d, w = _check_shapes(z, d, w)
    return _stress_from_dist(cdist(z, z), d, w)


def _sym(w: np.ndarray) -> np.ndarray:
    return 0.5 * (w + w.T)


def _laplacian(sym_w: np.ndarray, out: np.ndarray) -> None:
    """Write the weighted Laplacian of symmetric weights ``sym_w`` into ``out``."""
    np.negative(sym_w, out=out)
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))


def _laplacian_pinv(v: np.ndarray) -> np.ndarray:
    """Pseudo-inverse (V + J/n)^{-1} - J/n of a connected graph's Laplacian ``v``.

    V + J/n is symmetric positive definite, so it is inverted through its
    Cholesky factor (LAPACK ``potrf`` + ``potri``).  ``v`` is overwritten
    and returned as the result, so no second n x n array is made.

    Raises
    ------
    NumericalFailure
        If V + J/n is not numerically positive definite.
    """
    n = v.shape[0]
    v += 1.0 / n
    # v is symmetric, so its transpose is the same matrix in Fortran order,
    # which LAPACK factors and inverts in place
    inv, info = lapack.dpotrf(v.T, lower=1, overwrite_a=1)
    if info == 0:
        inv, info = lapack.dpotri(inv, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalFailure(
            f"Cholesky inverse of the {n}x{n} weighted Laplacian failed (LAPACK info {info})"
        )
    # potri fills the lower triangle of the Fortran-order result, which is the
    # upper one of its C-order transpose; mirror it in row blocks
    inv = inv.T
    for r0 in range(0, n, _SYM_BLOCK):
        r1 = min(r0 + _SYM_BLOCK, n)
        inv[r0:r1, :r0] = inv[:r0, r0:r1].T
        block = inv[r0:r1, r0:r1]
        lower = np.tril_indices(r1 - r0, -1)
        block[lower] = block.T[lower]
    inv -= 1.0 / n
    return inv


def v_matrix_pinv(w: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of the weighted Laplacian V.

    V = sum_{i<j} w_ij (e_i - e_j)(e_i - e_j)^T has null space spanned by
    the ones vector whenever the weight graph is connected, so the
    pseudo-inverse equals (V + J/n)^{-1} - J/n with J the all-ones matrix.

    Raises
    ------
    DegenerateWeights
        If the graph of nonzero weights is disconnected (V has rank < n-1).
    NumericalFailure
        If V + J/n is not numerically positive definite.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n):
        raise InvalidInput(f"weight matrix must be square, got shape {w.shape}")
    if n == 1:
        return np.zeros((1, 1))
    n_comp, _ = connected_components((w != 0).astype(np.int8), directed=False)
    if n_comp > 1:
        raise DegenerateWeights(
            f"weight graph has {n_comp} components; the MDS subproblem decouples"
        )
    v = _sym(w)
    _laplacian(v, out=v)
    return _laplacian_pinv(v)


def _b_times(wd: np.ndarray, z: np.ndarray) -> np.ndarray:
    """B(Z) Z from ``wd`` = sym(w * d), in one distance pass.

    b_ij = -wd_ij / ||z_i - z_j|| off the diagonal, 0 where the embedded
    points coincide, and each row of B sums to zero.
    """
    ratio = cdist(z, z)
    np.fill_diagonal(ratio, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(wd, ratio, out=ratio)
        rows = ratio.sum(axis=1)
        if not np.isfinite(rows).all():
            # coincident points divide by zero; their b_ij is 0
            ratio[~np.isfinite(ratio)] = 0.0
            rows = ratio.sum(axis=1)
    return rows[:, None] * z - ratio @ z


def _squared_norms(z: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", z, z)


def _evaluator(d: np.ndarray, w: np.ndarray):
    """``evaluate(z) -> (stress(z, d, w), B(Z) Z)``.

    The stress is eta_d^2 + eta^2(Z) - 2 <Z, B(Z) Z>, exact for any d and w
    because B(Z) is built from sym(w * d), the part of w * d the distances
    see.  With s the mean of w's row and column sums,
    eta^2(Z) = sum_i s_i ||z_i||^2 - <Z, W Z>, which drops w's diagonal as
    the stress does.
    """
    wd = w * d
    eta_d = 0.5 * (np.vdot(wd, d) - np.vdot(np.diagonal(wd), np.diagonal(d)))
    # in place: numpy buffers the overlapping transpose
    wd += wd.T
    wd *= 0.5
    s = 0.5 * (w.sum(axis=0) + w.sum(axis=1))

    def evaluate(z):
        bz = _b_times(wd, z)
        eta = s @ _squared_norms(z) - np.vdot(z, w @ z)
        return float(eta_d + eta - 2.0 * np.vdot(z, bz)), bz

    return evaluate


def guttman_transform(
    z: np.ndarray, d: np.ndarray, w: np.ndarray, v_pinv: np.ndarray
) -> np.ndarray:
    """One majorization step V^+ B(Z) Z.

    B(Z) uses b_ij = -(w_ij d_ij + w_ji d_ji) / (2 ||z_i - z_j||) when the
    embedded points are distinct and b_ij = 0 when they coincide.
    """
    z, d, w = _check_shapes(z, d, w)
    return v_pinv @ _b_times(_sym(w * d), z)


def _majorize(evaluate, v_pinv, z, max_iter: int, tol: float = 0.0, rtol: float = 0.0):
    """Guttman steps from ``z`` until the stress drop falls below tol + rtol * start stress.

    ``evaluate(z)`` returns the stress of ``z`` and B(Z) Z; the next
    configuration is ``v_pinv @ B(Z) Z``.  The stop compares the values as
    computed; the trajectory clamps them at 0, below which only roundoff
    of the identity can take them.
    """
    value, bz = evaluate(z)
    trajectory = [max(value, 0.0)]
    threshold = tol + rtol * trajectory[0]
    converged = False
    for _ in range(max_iter):
        z = v_pinv @ bz
        previous = value
        value, bz = evaluate(z)
        trajectory.append(max(value, 0.0))
        if previous - value < threshold:
            converged = True
            break
    return z, StressReport(trajectory, len(trajectory) - 1, converged)


def _smacof(d, w, z0, max_iter: int, v_pinv=None, tol: float = 0.0, rtol: float = 0.0):
    """``smacof`` with an absolute (``tol``) or start-relative (``rtol``) stop."""
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter}")
    z, d, w = _check_shapes(z0, d, w)
    if v_pinv is None:
        v_pinv = v_matrix_pinv(w)
    return _majorize(_evaluator(d, w), v_pinv, z, max_iter, tol, rtol)


def smacof(
    d: np.ndarray,
    w: np.ndarray,
    z0: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    v_pinv: np.ndarray | None = None,
) -> tuple[np.ndarray, StressReport]:
    """Iterate Guttman transforms from ``z0`` until the stress drop falls below ``tol``.

    Parameters
    ----------
    d, w : ndarray of shape (n, n)
        Dissimilarities and weights.
    z0 : ndarray of shape (n, dim)
        Start configuration.
    tol : float
        Stop when stress(Z_{t-1}) - stress(Z_t) < tol.  The stress values
        carry an absolute error of a few machine epsilons times
        sum_{i<j} w_ij d_ij^2 (see ``StressReport``), so ``tol = 0`` stops
        once the drop falls to that floor.
    max_iter : int
        Iteration budget.
    v_pinv : ndarray, optional
        Precomputed ``v_matrix_pinv(w)``; recompute cost is cubic, so callers
        looping over couplings pass it in.

    Returns
    -------
    (ndarray, StressReport)
        Final configuration and the stress trajectory.
    """
    if tol < 0:
        raise InvalidInput(f"tol must be >= 0, got {tol}")
    return _smacof(d, w, z0, max_iter, v_pinv, tol=tol)


def joint_smacof(
    d1: np.ndarray,
    d2: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    p: np.ndarray,
    lam: float,
    z1: np.ndarray,
    z2: np.ndarray,
    rtol: float = 0.0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, StressReport]:
    """Guttman iterations on the block instance of ``assemble_joint``, without building it.

    The steps and stress values are those of ``smacof`` on the assembled
    instance.  Its cross dissimilarities are zero, so B(Z) Z is computed
    block by block from one distance pass over each dataset, and the
    coupling enters through V~, whose pseudo-inverse is taken once per call.
    The reported stress is the block stress

        stress(z1, d1, w1) + stress(z2, d2, w2) + lam * <P, C(z1, z2)>

    with C the squared Euclidean distances, i.e. ``joint_objective`` at the
    identity rotation divided by ``FULL_MATRIX_FACTOR``.  Each dataset's
    stress comes from the SMACOF identity, and the cross term from
    a . ||z1||^2 + b . ||z2||^2 - 2 <Z1, P Z2> with a = P 1, b = P^T 1.

    Parameters
    ----------
    d1, d2, w1, w2 : ndarray
        Per-dataset dissimilarities and weights; each weight graph must be
        connected (``v_matrix_pinv`` checks this).
    p : ndarray of shape (n1, n2)
        Nonnegative coupling with at least one positive entry.
    lam : float
        Matching penalty, > 0 (at 0 the instance decouples into one
        ``smacof`` run per dataset).
    z1, z2 : ndarray
        Start configurations in a common dimension.
    rtol : float
        Stop when the stress drop of a step falls below ``rtol`` times the
        start stress.
    max_iter : int
        Iteration budget.

    Raises
    ------
    InvalidInput
        On mismatched shapes, ``lam <= 0`` or a negative or zero coupling.
    NumericalFailure
        If V~ + J/n is not numerically positive definite.
    """
    z1, d1, w1 = _check_shapes(z1, d1, w1)
    z2, d2, w2 = _check_shapes(z2, d2, w2)
    if z1.shape[1] != z2.shape[1]:
        raise InvalidInput("embeddings must share the target dimension")
    if not lam > 0:
        raise InvalidInput(f"lambda must be > 0, got {lam}")
    if rtol < 0:
        raise InvalidInput(f"rtol must be >= 0, got {rtol}")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter}")
    n1, n2 = z1.shape[0], z2.shape[0]
    p = np.asarray(p, dtype=float)
    if p.shape != (n1, n2):
        raise InvalidInput(f"coupling shape {p.shape} does not match ({n1}, {n2})")
    if p.min() < 0 or not p.any():
        # a zero coupling leaves V~ singular, which Cholesky need not detect
        raise InvalidInput("coupling must be nonnegative with a positive entry")

    a, b = p.sum(axis=1), p.sum(axis=0)
    v = np.empty((n1 + n2, n1 + n2))
    _laplacian(_sym(w1), out=v[:n1, :n1])
    _laplacian(_sym(w2), out=v[n1:, n1:])
    v[:n1, n1:] = -lam * p
    v[n1:, :n1] = v[:n1, n1:].T
    diag = np.arange(n1 + n2)
    v[diag, diag] += lam * np.concatenate([a, b])
    v_pinv = _laplacian_pinv(v)
    evaluate1, evaluate2 = _evaluator(d1, w1), _evaluator(d2, w2)

    def evaluate(z):
        z1, z2 = z[:n1], z[n1:]
        value1, bz1 = evaluate1(z1)
        value2, bz2 = evaluate2(z2)
        # <P, C(z1, z2)> with ||z1_i - z2_j||^2 expanded, so no n1 x n2 cost matrix
        cross = a @ _squared_norms(z1) + b @ _squared_norms(z2) - 2.0 * np.vdot(z1, p @ z2)
        return value1 + value2 + lam * float(cross), np.vstack([bz1, bz2])

    z, report = _majorize(evaluate, v_pinv, np.vstack([z1, z2]), max_iter, rtol=rtol)
    return z[:n1], z[n1:], report


def assemble_joint(
    d1: np.ndarray,
    d2: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    p: np.ndarray,
    lam: float,
    z1: np.ndarray,
    z2: np.ndarray,
) -> JointBlocks:
    """Assemble the block MDS instance coupling two datasets through ``p``.

    The cross weights are ``lam * p`` and its transpose against a zero cross
    dissimilarity target, so the block stress reproduces the coupled
    objective with the rotation absorbed into ``z1``.
    """
    z1, d1, w1 = _check_shapes(z1, d1, w1)
    z2, d2, w2 = _check_shapes(z2, d2, w2)
    if z1.shape[1] != z2.shape[1]:
        raise InvalidInput("embeddings must share the target dimension")
    if lam < 0:
        raise InvalidInput(f"lambda must be >= 0, got {lam}")
    n1, n2 = z1.shape[0], z2.shape[0]
    p = np.asarray(p, dtype=float)
    if p.shape != (n1, n2):
        raise InvalidInput(f"coupling shape {p.shape} does not match ({n1}, {n2})")
    d_tilde = np.zeros((n1 + n2, n1 + n2))
    d_tilde[:n1, :n1] = d1
    d_tilde[n1:, n1:] = d2
    w_tilde = np.zeros_like(d_tilde)
    w_tilde[:n1, :n1] = w1
    w_tilde[n1:, n1:] = w2
    w_tilde[:n1, n1:] = lam * p
    w_tilde[n1:, :n1] = lam * p.T
    z_tilde = np.vstack([z1, z2])
    return JointBlocks(d_tilde, w_tilde, z_tilde, n1)
