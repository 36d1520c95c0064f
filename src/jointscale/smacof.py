"""Weighted metric MDS by stress majorization.

The stress of a configuration Z against dissimilarities D under weights W is
summed over the upper triangle (i < j).  The symmetric full-matrix double
sum is exactly ``FULL_MATRIX_FACTOR`` times this value; reported numbers
state which convention they use.

Each majorization step is an over-relaxed Guttman transform

    Z+ = Z + omega (G(Z) - Z),    G(Z) = V^+ B(Z) Z,

with omega = ``RELAXATION`` (de Leeuw & Heiser 1980; Borg & Groenen 2005,
ch. 8).  It never increases the stress.  The majorizer of the stress at Z,
tau(X) = eta_d^2 + tr X^T V X - 2 tr X^T B(Z) Z, is a quadratic in the
V-norm with its minimum at G(Z), so

    tau(Z+) = tau(G) + (1 - omega)^2 ||Z - G||_V^2 <= tau(G) + ||Z - G||_V^2
            = tau(Z) = stress(Z)

for every omega in [0, 2], and stress(Z+) <= tau(Z+) (sandwich inequality).
Over-relaxation reaches the same stopping rule in fewer steps: at 1.5 the
joint passes of the ``swiss300`` benchmark take about a quarter fewer,
while at 1.8 two of twelve measured runs stalled and at 2 the steps
oscillate.  The plain step is omega = 1.  The relaxed update is
elementwise, so it keeps every result bitwise independent of the helper
thread.  A step makes one n x n distance pass: w * d is divided by the
distances in place, and the row sums of that ratio and one product with Z
give B(Z) Z.  The stress of Z
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

    V~ = [[V1 + lam diag(P 1), -lam P], [-lam P^T, V2 + lam diag(P^T 1)]].

Both share one B(Z) Z kernel and one stopping rule.  The rule stops a run
once a step lowers the stress by less than ``rtol`` (``DEFAULT_RTOL``
unless given) times the stress of its start, so the steps taken do not
depend on the scale of the dissimilarities.

How the next configuration is solved for depends on the weights.  When
every off-diagonal weight of a dataset is one value c > 0, as with the
CLI's uniform 1/n^2, V = c (n I - 1 1^T) and V^+ = (I - J/n) / (c n), so
a ``smacof`` step is the column-centred B(Z) Z divided by c n (Borg &
Groenen 2005, ch. 8), every stress term is c times its unit-weight value,
and no array is made from w.  When both datasets of ``joint_smacof`` are
like that, each diagonal block of V~ is diagonal minus rank one: the
larger dataset's block is applied through Sherman-Morrison, and the
Schur complement on the smaller dataset, plus a multiple of J, is
factored by Cholesky once per call (``_SchurStep``).  The solve's largest
array is then that n_s x n_s factor, not the (n1 + n2)^2 V~.  Any other
weights take the Laplacian pseudo-inverse (V + J/n)^{-1} - J/n by
Cholesky factorization, of V once per ``smacof`` run (``v_matrix_pinv``)
and of V~ once per ``joint_smacof`` call, and a step is one product with
it.  On ``assemble_joint``'s dense block instance the cross weights differ
from the within-dataset ones, so ``smacof`` on it takes that path and
stays the reference the structured iteration is tested against.

Every step takes its distances ``CHUNK_BYTES`` of whole rows at a time,
through scratch arrays allocated once per run on the calling thread, so
each chunk stays in cache across the divide, the row sums and the product
with Z, and no step allocates an n x n distance array.

A ``joint_smacof`` step evaluates the two datasets as two blocks (each
also takes half of the rows of P Z2 for the coupling term).  A step over at
least ``SPLIT_ROWS`` rows also solves in two fixed row blocks: the two
datasets' rows of the V~^+ product, or halves of the rows of each of the
Schur solve's two products with P; centring stays whole.  The caller may
hand the second block of each pair to a helper thread.  The blocks depend
only on the row counts, so every result has the same bits with or without
one; a split solve matches the one-block solve to roundoff.  ``smacof``
runs are never split: a spare core runs the second dataset's run instead.
"""

from __future__ import annotations

from concurrent import futures
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import blas, eigh, lapack
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .dissimilarity import _max_asymmetry
from .errors import DegenerateInput, DegenerateWeights, InvalidInput, NumericalFailure

__all__ = [
    "FULL_MATRIX_FACTOR",
    "StressReport",
    "random_embedding",
    "classical_embedding",
    "stress",
    "v_matrix_pinv",
    "smacof",
    "joint_smacof",
    "assemble_joint",
]

# The full-matrix double-sum stress of a symmetric instance is twice the
# upper-triangle stress computed here.
FULL_MATRIX_FACTOR = 2.0

# a run stops once a step lowers the stress by less than this fraction of
# its start stress, which keeps the whole pipeline equivariant under a
# rescaling of the input dissimilarities
DEFAULT_RTOL = 1e-9
DEFAULT_MAX_ITER = 300

# a joint_smacof step over at least this many rows solves in two fixed row
# blocks, the second on the caller's helper thread (see the module docstring)
SPLIT_ROWS = 725
# bytes of distances a block computes at a time (whole rows): half of
# a 4 MiB L2; with a helper, the fastest chunk tried (32 rows up to a whole
# block) at n = 2000, and within 12% of the fastest at n = 1000
CHUNK_BYTES = 1 << 21

# omega of the over-relaxed step Z + omega (V^+ B(Z) Z - Z); any value in
# [0, 2] keeps the stress monotone (see the module docstring)
RELAXATION = 1.5

# rows per block when the Cholesky inverse is mirrored into a full matrix
_SYM_BLOCK = 128


@dataclass
class StressReport:
    """Trajectory of one majorization run.

    ``per_iteration[0]`` is the stress of the initial configuration;
    subsequent entries follow each over-relaxed Guttman step.  The
    sequence is non-increasing up to roundoff.  Values come from the SMACOF identity
    eta_d^2 + eta^2 - 2 rho, so their absolute error is a few machine
    epsilons times eta_d^2 = sum_{i<j} w_ij d_ij^2; near a realizable
    instance that error dominates, and values are clamped at 0.
    """

    per_iteration: list[float]
    iterations_used: int
    converged: bool


def random_embedding(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Deterministic Gaussian start configuration with standard deviation ``scale``."""
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, d))


def classical_embedding(d: np.ndarray, dim: int) -> np.ndarray:
    """Classical (Torgerson 1952) scaling of the dissimilarities ``d`` in ``dim`` dimensions.

    Column k is the k-th eigenvector of -1/2 J D^2 J (J the centring
    matrix, D^2 the squared dissimilarities), largest eigenvalue first,
    scaled by the square root of its eigenvalue clipped at 0.  Columns past
    n are zero.  Each eigenvector's largest-magnitude entry is made
    positive (the first of them on a tie), so the result does not depend on
    the LAPACK build.  The eigenproblem is solved on d / max d and the
    result scaled back, so squaring d neither overflows nor underflows.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    z = np.zeros((n, dim))
    top = float(d.max(initial=0.0))
    if top == 0.0:
        return z
    b = np.divide(d, top)
    b *= b
    b -= b.mean(axis=0)
    b -= b.mean(axis=1)[:, None]
    b *= -0.5
    k = min(dim, n)
    values, vectors = eigh(b, subset_by_index=[n - k, n - 1], overwrite_a=True)
    values, vectors = values[::-1], vectors[:, ::-1]
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)]
    z[:, :k] = vectors * (np.sign(lead) * np.sqrt(np.maximum(values, 0.0)))
    z *= top
    return z


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


def _sym(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 (w + w^T), written into ``out`` when given."""
    out = np.add(w, w.T, out=out)
    out *= 0.5
    return out


def _check_weights(w: np.ndarray, name: str) -> float | None:
    """The one off-diagonal value c > 0 of the square weights ``w``, or None if there is none.

    The off-diagonal entries are read through a strided view of the
    flattened array (a copy only if ``w`` is neither C- nor F-contiguous),
    so the scan makes no n x n array.

    Raises
    ------
    InvalidInput
        If an entry of ``w`` is non-finite or negative.
    """
    n = w.shape[0]
    off = np.ravel(w, order="K")[1:].reshape(n - 1, n + 1)[:, :n]
    lo, hi = off.min(initial=np.inf), off.max(initial=-np.inf)
    diag = np.diagonal(w)
    if not (lo >= 0 and hi < np.inf and diag.min(initial=0.0) >= 0
            and diag.max(initial=0.0) < np.inf):
        raise InvalidInput(f"{name} has non-finite or negative entries")
    return float(hi) if 0 < hi == lo else None


def _check_connected(w: np.ndarray, name: str) -> None:
    """Raise ``DegenerateWeights`` naming ``name`` if w's nonzero entries form a disconnected graph."""
    n_comp, _ = connected_components((w != 0).astype(np.int8), directed=False)
    if n_comp > 1:
        raise DegenerateWeights(f"{name} has {n_comp} components; the MDS subproblem decouples")


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
    _check_connected(w, "weight graph")
    v = _sym(w)
    _laplacian(v, out=v)
    return _laplacian_pinv(v)


class _Evaluator:
    """Stress and B(Z) Z of one dataset.

    The stress is eta_d^2 + eta^2(Z) - 2 <Z, B(Z) Z>, exact for any d and w
    because B(Z) is built from sym(w * d), the part of w * d the distances
    see.  With s the mean of w's row and column sums,
    eta^2(Z) = sum_i s_i ||z_i||^2 - <Z, W Z>, which drops w's diagonal as
    the stress does.

    With one weight ``c`` off the diagonal every term is c times its
    unit-weight value: B(Z) Z comes from sym(d), which is d itself when d
    is symmetric, and eta^2(Z) = c (n sum_i ||z_i||^2 - ||sum_i z_i||^2), so
    no array is made from w.
    """

    def __init__(self, d: np.ndarray, w: np.ndarray, c: float | None = None):
        self.c = c
        if c is not None:
            self.eta_d = 0.5 * c * (np.vdot(d, d) - np.vdot(np.diagonal(d), np.diagonal(d)))
            self.wd = d if _max_asymmetry(d) == 0 else _sym(d)
        else:
            wd = w * d
            self.eta_d = 0.5 * (np.vdot(wd, d) - np.vdot(np.diagonal(wd), np.diagonal(d)))
            # in place: numpy buffers the overlapping transpose
            wd += wd.T
            wd *= 0.5
            self.wd, self.w = wd, w
            self.s = 0.5 * (w.sum(axis=0) + w.sum(axis=1))
        if not np.isfinite(self.eta_d):
            raise DegenerateInput("dissimilarities too large: their weighted sum of squares "
                                  "overflows; rescale them")
        if (self.eta_d < np.finfo(float).tiny
                and np.count_nonzero(self.wd > 0) > np.count_nonzero(np.diagonal(self.wd) > 0)):
            # the stress terms would be subnormal or zero: the steps stall or
            # collapse Z where the distances' squares underflow
            raise DegenerateInput(
                f"dissimilarities too small: their weighted sum of squares {self.eta_d:.3g} "
                "is below the smallest normal float; rescale them")
        n = d.shape[0]
        self.scratch = np.empty((min(n, max(1, CHUNK_BYTES // (8 * n))), n))

    def evaluate(self, z: np.ndarray, bz: np.ndarray) -> float:
        """B(Z) Z into ``bz``; returns the stress of ``z``, eta_d^2 + eta^2 - 2 rho.

        b_ij = -wd_ij / ||z_i - z_j|| off the diagonal, 0 where the embedded
        points coincide, and each row of B sums to zero.  The rows go c at a
        time through the c x n ``scratch``, up to ``CHUNK_BYTES`` of them, so
        each chunk stays in cache across the passes over its distances and no
        step allocates a distance array.
        """
        eta = rho = 0.0
        size = self.scratch.shape[0]
        total = None if self.c is None else z.sum(axis=0)
        for c0 in range(0, len(z), size):
            c1 = min(c0 + size, len(z))
            zc, out = z[c0:c1], bz[c0:c1]
            ratio = cdist(zc, z, out=self.scratch[:c1 - c0])
            # the chunk's part of the diagonal: entries (k, c0 + k)
            np.fill_diagonal(ratio[:, c0:c1], np.inf)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(self.wd[c0:c1], ratio, out=ratio)
                sums = ratio.sum(axis=1)
                if not np.isfinite(sums).all():
                    # coincident points divide by zero; their b_ij is 0
                    ratio[~np.isfinite(ratio)] = 0.0
                    sums = ratio.sum(axis=1)
            np.matmul(ratio, z, out=out)
            np.subtract(sums[:, None] * zc, out, out=out)
            if self.c is None:
                eta += self.s[c0:c1] @ _squared_norms(zc) - np.vdot(zc, self.w[c0:c1] @ z)
            else:
                out *= self.c
                eta += self.c * (len(z) * np.vdot(zc, zc) - zc.sum(axis=0) @ total)
            rho += np.vdot(zc, out)
        return float(self.eta_d + eta - 2.0 * rho)


def _squared_norms(z: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", z, z)


def _run_blocks(helper, tasks: list) -> list:
    """Results of one or two callables, the second on ``helper`` when one is given.

    An exception from either is raised only once both have finished, so no
    block still writes into shared scratch when the caller sees it.
    """
    if helper is None:
        return [task() for task in tasks]
    first, second = tasks
    future = helper.submit(second)
    try:
        result = first()
    finally:
        futures.wait([future])
    return [result, future.result()]


def _check_stop(rtol: float, max_iter: int) -> None:
    if rtol < 0:
        raise InvalidInput(f"rtol must be >= 0, got {rtol}")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter}")


def _row_blocks(n: int, split: bool) -> list[tuple[int, int]]:
    """Rows 0:n as one block, or as the two halves of a split step."""
    return [(0, n // 2), (n // 2, n)] if split else [(0, n)]


def _blocked_product(a: np.ndarray, bounds: list, x: np.ndarray, helper) -> np.ndarray:
    """a @ x, rows r0:r1 of each ``(r0, r1)`` in ``bounds`` as one product (see ``_run_blocks``)."""
    out = np.empty((a.shape[0], x.shape[1]))
    _run_blocks(helper, [partial(np.matmul, a[r0:r1], x, out=out[r0:r1]) for r0, r1 in bounds])
    return out


def _centred_step(scale: float, bz: np.ndarray, helper) -> np.ndarray:
    """(I - J/n) B(Z) Z / scale: V^+ B(Z) Z for one weight c off the diagonal when scale = c n."""
    nxt = bz - bz.mean(axis=0)
    nxt /= scale
    return nxt


class _SchurStep:
    """Next Z = V~^+ B(Z) Z when each dataset has one off-diagonal weight, without V~.

    The block of the larger dataset ("big", coupled to the other through
    Q = P or P^T) is A = c_b (n_b I - 1 1^T) + lam diag(Q 1), diagonal
    minus rank one, so Sherman-Morrison applies A^{-1} in O(n_b).  Its
    Schur complement S = C - lam^2 Q^T A^{-1} Q is n_s x n_s, the size of
    the smaller dataset; S has the null space of the ones vector, and
    K = S + c_s 1 1^T, in which c_s 1 1^T cancels C's rank-one part, is
    factored once per pass.  A step then applies A^{-1}, one product with
    Q^T, one Cholesky solve with K, one product with Q and A^{-1} again,
    and centres the result, which gives the minimum-norm solution as the
    pseudo-inverse does.  With ``split``, each product is two fixed row
    blocks, the second on the helper when there is one.
    """

    def __init__(self, p: np.ndarray, a: np.ndarray, b: np.ndarray, lam: float, c1: float,
                 c2: float, split: bool):
        n1, n2 = p.shape
        # a = P 1 and b = P^T 1; below, a and b are Q 1 and Q^T 1
        self.swap = n2 > n1
        q, a, b, cb, cs = (p.T, b, a, c2, c1) if self.swap else (p, a, b, c1, c2)
        nb, ns = q.shape
        # A = diag(dg) - c_b 1 1^T; 1 - c_b sum 1/dg = sum lam a / (n_b dg), with no cancellation
        dg = cb * nb + lam * a
        u = 1.0 / dg
        gamma = cb / float(np.sum(lam * a * u) / nb)
        # lower triangle of K = diag(c_s n_s + lam Q^T 1)
        #                      - lam^2 (Q^T diag(u) Q + gamma (Q^T u)(Q^T u)^T)
        k = np.zeros((ns, ns), order="F")
        rows = max(1, CHUNK_BYTES // (8 * ns))
        for r0 in range(0, nb, rows):
            g = q[r0:r0 + rows] * np.sqrt(u[r0:r0 + rows])[:, None]
            blas.dsyrk(-lam * lam, g.T, beta=1.0, c=k, lower=1, overwrite_c=1)
        k[np.diag_indices(ns)] += cs * ns + lam * b
        blas.dsyr(-lam * lam * gamma, q.T @ u, lower=1, a=k, overwrite_a=1)
        factor, info = lapack.dpotrf(k, lower=1, overwrite_a=1)
        if info != 0:
            raise NumericalFailure(
                f"Cholesky factorization of the {ns}x{ns} Schur complement failed "
                f"(LAPACK info {info})")
        self.q, self.lam, self.u, self.gamma, self.factor = q, lam, u, gamma, factor
        self.q_rows, self.qt_rows = _row_blocks(nb, split), _row_blocks(ns, split)

    def _a_inv(self, r: np.ndarray) -> np.ndarray:
        return self.u[:, None] * (r + self.gamma * (self.u @ r))

    def __call__(self, bz: np.ndarray, helper) -> np.ndarray:
        nb = self.q.shape[0]
        r = bz - bz.mean(axis=0)
        rb, rs = (r[-nb:], r[:-nb]) if self.swap else (r[:nb], r[nb:])
        qt_y = _blocked_product(self.q.T, self.qt_rows, self._a_inv(rb), helper)
        xs, _ = lapack.dpotrs(self.factor, rs + self.lam * qt_y, lower=1)
        q_xs = _blocked_product(self.q, self.q_rows, xs, helper)
        xb = self._a_inv(rb + self.lam * q_xs)
        nxt = np.vstack([xs, xb] if self.swap else [xb, xs])
        nxt -= nxt.mean(axis=0)
        return nxt


def _majorize(blocks, step, z, max_iter: int, rtol: float, helper=None):
    """Guttman steps from ``z`` until the stress drop falls below rtol * start stress.

    ``blocks`` lists one callable per dataset, one in ``smacof`` and two in
    ``joint_smacof``: ``block(z, bz)`` writes its dataset's rows of B(Z) Z
    into ``bz`` and returns its share of the stress of ``z``.
    ``step(bz, helper)`` returns the Guttman transform G(Z) = V^+ B(Z) Z (or
    V~^+ B(Z) Z), and the next configuration is Z + ``RELAXATION`` (G(Z) - Z),
    which covers every kind of step alike.  The second block, and the second
    row block of a split step, runs on ``helper`` when one is given; the
    blocks, and so the bits of every result, are the same either way.  The
    stop compares the values as computed; the trajectory clamps them at 0,
    below which only roundoff of the identity can take them.
    """
    bz = np.empty(z.shape)

    def evaluate(z):
        return sum(_run_blocks(helper, [partial(block, z, bz) for block in blocks]))

    value = evaluate(z)
    trajectory = [max(value, 0.0)]
    threshold = rtol * trajectory[0]
    converged = False
    for _ in range(max_iter):
        z = z + RELAXATION * (step(bz, helper) - z)
        previous = value
        value = evaluate(z)
        trajectory.append(max(value, 0.0))
        if previous - value < threshold:
            converged = True
            break
    return z, StressReport(trajectory, len(trajectory) - 1, converged)


def smacof(
    d: np.ndarray,
    w: np.ndarray,
    z0: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, StressReport]:
    """Guttman steps from ``z0`` until one lowers the stress by less than ``rtol`` of its start.

    Weights with one value c > 0 off the diagonal step by the closed form
    V^+ = (I - J/n) / (c n); other weights take ``v_matrix_pinv(w)`` once
    per run, at cubic cost.

    Parameters
    ----------
    d, w : ndarray of shape (n, n)
        Dissimilarities and weights.
    z0 : ndarray of shape (n, dim)
        Start configuration.
    rtol : float
        Stop when stress(Z_{t-1}) - stress(Z_t) < rtol * stress(Z_0).  The
        stress values carry an absolute error of a few machine epsilons
        times sum_{i<j} w_ij d_ij^2 (see ``StressReport``), so ``rtol = 0``
        stops once the drop falls to that floor.
    max_iter : int
        Iteration budget.

    Returns
    -------
    (ndarray, StressReport)
        Final configuration and the stress trajectory.

    Raises
    ------
    InvalidInput
        On mismatched shapes, invalid stopping parameters, or a non-finite
        or negative weight.
    DegenerateInput
        If the weighted sum of squared dissimilarities overflows, or is
        subnormal or zero while a weighted dissimilarity is positive.
    DegenerateWeights
        If the weights are not one value c > 0 off the diagonal and their
        graph is disconnected.
    NumericalFailure
        If V + J/n is not numerically positive definite.
    """
    _check_stop(rtol, max_iter)
    z, d, w = _check_shapes(z0, d, w)
    c = _check_weights(w, "weight matrix")
    ev, n = _Evaluator(d, w, c), z.shape[0]
    if c is not None:
        step = partial(_centred_step, c * n)
    else:
        step = partial(_blocked_product, v_matrix_pinv(w), [(0, n)])
    return _majorize([ev.evaluate], step, z, max_iter, rtol)


def joint_smacof(
    d1: np.ndarray,
    d2: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    p: np.ndarray,
    lam: float,
    z1: np.ndarray,
    z2: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    _helper=None,
) -> tuple[np.ndarray, np.ndarray, StressReport]:
    """Guttman iterations on the block instance of ``assemble_joint``, without building it.

    The steps and stress values are those of ``smacof`` on the assembled
    instance.  Its cross dissimilarities are zero, so B(Z) Z is computed
    block by block from one distance pass over each dataset, and the
    coupling enters through V~.  When each dataset has one off-diagonal
    weight, V~ is never built: a Schur complement the size of the smaller
    dataset is factored once per call (see the module docstring).
    Otherwise V~'s pseudo-inverse is taken once per call.
    The reported stress is the block stress

        stress(z1, d1, w1) + stress(z2, d2, w2) + lam * <P, C(z1, z2)>

    with C the squared Euclidean distances, i.e. ``joint_objective`` at the
    identity rotation divided by ``FULL_MATRIX_FACTOR``.  Each dataset's
    stress comes from the SMACOF identity, and the cross term from
    a . ||z1||^2 + b . ||z2||^2 - 2 <Z1, P Z2> with a = P 1, b = P^T 1.

    Parameters
    ----------
    d1, d2, w1, w2 : ndarray
        Per-dataset dissimilarities and finite, nonnegative weights.  Their
        graphs' connectivity is not checked here; ``solve`` checks it before
        any majorization runs.
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
        On mismatched shapes, ``lam <= 0``, a non-finite or negative weight,
        or a negative or zero coupling.
    DegenerateInput
        As in ``smacof``, for either dataset.
    NumericalFailure
        If V~ + J/n (or the Schur complement) is not numerically positive
        definite.
    """
    z1, d1, w1 = _check_shapes(z1, d1, w1)
    z2, d2, w2 = _check_shapes(z2, d2, w2)
    if z1.shape[1] != z2.shape[1]:
        raise InvalidInput("embeddings must share the target dimension")
    if not lam > 0:
        raise InvalidInput(f"lambda must be > 0, got {lam}")
    _check_stop(rtol, max_iter)
    n1, n2 = z1.shape[0], z2.shape[0]
    p = np.asarray(p, dtype=float)
    if p.shape != (n1, n2):
        raise InvalidInput(f"coupling shape {p.shape} does not match ({n1}, {n2})")
    c1 = _check_weights(w1, "first weight matrix")
    c2 = _check_weights(w2, "second weight matrix")
    if p.min() < 0 or not p.any():
        # a zero coupling leaves V~ singular, which Cholesky need not detect
        raise InvalidInput("coupling must be nonnegative with a positive entry")

    a, b = p.sum(axis=1), p.sum(axis=0)
    n = n1 + n2
    split = n >= SPLIT_ROWS
    if c1 is not None and c2 is not None:
        step = _SchurStep(p, a, b, lam, c1, c2, split)
    else:
        v = np.empty((n, n))
        # built in place: V~ is the largest array of the solve
        _laplacian(_sym(w1, out=v[:n1, :n1]), out=v[:n1, :n1])
        _laplacian(_sym(w2, out=v[n1:, n1:]), out=v[n1:, n1:])
        np.multiply(p, -lam, out=v[:n1, n1:])
        v[n1:, :n1] = v[:n1, n1:].T
        diag = np.arange(n)
        v[diag, diag] += lam * np.concatenate([a, b])
        rows = [(0, n1), (n1, n)] if split else [(0, n)]
        step = partial(_blocked_product, _laplacian_pinv(v), rows)
    ev1, ev2 = _Evaluator(d1, w1, c1), _Evaluator(d2, w2, c2)
    pz = np.empty((n1, z1.shape[1]))

    # <P, C(z1, z2)> = a . ||z1||^2 + b . ||z2||^2 - 2 <Z1, P Z2>, so no
    # n1 x n2 cost matrix; each dataset's part takes half of the rows of P Z2
    h = n1 // 2

    def first(z, bz):
        z1, z2 = z[:n1], z[n1:]
        cross = a @ _squared_norms(z1) - 2.0 * np.vdot(z1[:h], np.matmul(p[:h], z2, out=pz[:h]))
        return ev1.evaluate(z1, bz[:n1]) + lam * float(cross)

    def second(z, bz):
        z1, z2 = z[:n1], z[n1:]
        cross = b @ _squared_norms(z2) - 2.0 * np.vdot(z1[h:], np.matmul(p[h:], z2, out=pz[h:]))
        return ev2.evaluate(z2, bz[n1:]) + lam * float(cross)

    z, report = _majorize([first, second], step, np.vstack([z1, z2]), max_iter, rtol,
                          _helper if split else None)
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the block MDS instance coupling two datasets through ``p``.

    Returns ``(d_tilde, w_tilde, z_tilde)``: the dissimilarity cross blocks
    are zero, the weight cross blocks are ``lam * p`` and its transpose, and
    the embedding is the vertical stack of ``z1`` and ``z2``, so the block
    stress reproduces the coupled objective with the rotation absorbed into
    ``z1``.
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
    return d_tilde, w_tilde, np.vstack([z1, z2])
