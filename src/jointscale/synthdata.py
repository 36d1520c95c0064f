"""Synthetic benchmark pairs: a shared 3-D latent shape observed through two
independent Gaussian projections with additive white noise, plus planted
alignment fixtures for the transport and solver tests.

The latent parametrizations are re-implementations chosen to match the
published shapes qualitatively; they are not byte-compatible with the
original data files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = ["GenSpec", "SyntheticPair", "generate", "standardize", "planted_pair"]

KINDS = ("bifurcation", "swiss_roll", "circular_frustum")

# default noise level relative to the post-projection feature scale
NOISE_FRACTION = 0.02


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic dataset pair."""

    kind: str
    n: int = 300
    p1: int = 1000
    p2: int = 2000
    noise_sigma: float | None = None
    seed: int = 0

    def validate(self) -> "GenSpec":
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 1:
            raise InvalidInput(f"n must be >= 1, got {self.n}")
        if self.p1 < 3 or self.p2 < 3:
            raise InvalidInput("projected dimensions must be >= 3")
        if self.noise_sigma is not None and self.noise_sigma < 0:
            raise InvalidInput("noise_sigma must be >= 0")
        return self


@dataclass
class SyntheticPair:
    """Two feature matrices with row-wise correspondence and shared labels."""

    x1: np.ndarray
    x2: np.ndarray
    labels: np.ndarray
    latent: np.ndarray


def _latent(kind: str, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample the 3-D latent shape; returns (points, generative parameter)."""
    if kind == "swiss_roll":
        t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
        h = rng.uniform(0.0, 21.0, n)
        pts = np.column_stack([t * np.cos(t), h, t * np.sin(t)])
        return pts, t
    if kind == "circular_frustum":
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        h = rng.uniform(0.0, 10.0, n)
        radius = 2.0 + 2.0 * h / 10.0
        pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), h])
        return pts, theta
    # bifurcation: a trunk splitting into two jittered branches at its midpoint
    s = rng.uniform(0.0, 1.0, n)
    side = rng.integers(0, 2, n) * 2.0 - 1.0
    y = np.where(s < 0.5, 0.0, side * (s - 0.5))
    pts = 4.0 * np.column_stack([s, y, np.zeros(n)])
    pts += 0.02 * rng.standard_normal((n, 3))
    return pts, s


def _segment_labels(param: np.ndarray) -> np.ndarray:
    n = param.size
    ranks = np.empty(n, dtype=int)
    ranks[np.argsort(param, kind="stable")] = np.arange(n)
    return (ranks * 3) // n


def _project(
    latent: np.ndarray,
    p: int,
    noise_sigma: float | None,
    rng: np.random.Generator,
) -> np.ndarray:
    raw = latent @ rng.standard_normal((3, p))
    sigma = NOISE_FRACTION * raw.std() if noise_sigma is None else noise_sigma
    if sigma > 0:
        raw = raw + sigma * rng.standard_normal(raw.shape)
    return raw


def generate(spec: GenSpec) -> SyntheticPair:
    """Generate one dataset pair deterministically from ``spec.seed``."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    latent, param = _latent(spec.kind, spec.n, rng)
    labels = _segment_labels(param)
    x1 = _project(latent, spec.p1, spec.noise_sigma, rng)
    x2 = _project(latent, spec.p2, spec.noise_sigma, rng)
    return SyntheticPair(x1=x1, x2=x2, labels=labels, latent=latent)


def standardize(x: np.ndarray) -> np.ndarray:
    """Center each column and scale to unit population standard deviation.

    Constant columns are mapped to zero.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInput("standardize needs a 2-D matrix with at least two rows")
    constant = x.max(axis=0) == x.min(axis=0)
    centered = x - x.mean(axis=0)
    sd = np.where(constant, 1.0, x.std(axis=0))
    out = centered / sd
    out[:, constant] = 0.0
    return out


def _haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def planted_pair(
    n: int, d: int, seed: int, noise: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian point set, its rotated-and-permuted copy, and the permutation.

    Returns ``(z1, z2, perm)`` with ``z2[perm[i]] = (z1 @ Q)[i] + noise`` for
    a hidden orthogonal Q.
    """
    if n < 2:
        raise InvalidInput(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal((n, d))
    q = _haar_orthogonal(d, rng)
    perm = rng.permutation(n)
    z2 = np.empty_like(z1)
    z2[perm] = z1 @ q
    if noise > 0:
        z2 = z2 + noise * rng.standard_normal((n, d))
    return z1, z2, perm
