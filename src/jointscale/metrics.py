"""Evaluation metrics for aligned embeddings, couplings and label transfer."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidInput

__all__ = [
    "foscttm",
    "node_correctness",
    "topk_accuracy",
    "rmsd_d",
    "knn_transfer",
    "accuracy",
]


def foscttm(z1: np.ndarray, z2: np.ndarray) -> float:
    """Fraction of samples closer than the true match (lower is better).

    Rows of the two embeddings correspond one-to-one by index.  For each
    sample, in both directions, count the cross-domain samples strictly
    closer than its match, divide by n - 1, and average all 2n fractions.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape != z2.shape:
        raise InvalidInput(
            f"embeddings must have equal shapes, got {z1.shape} and {z2.shape}"
        )
    n = z1.shape[0]
    if n < 2:
        raise InvalidInput("FOSCTTM needs at least two samples")
    dist = cdist(z1, z2)
    true_match = np.diag(dist)
    closer_1 = (dist < true_match[:, None]).sum(axis=1)
    closer_2 = (dist < true_match[None, :]).sum(axis=0)
    return float((closer_1.sum() + closer_2.sum()) / (2 * n * (n - 1)))


def node_correctness(p: np.ndarray, t: np.ndarray) -> float:
    """Coupling mass on true pairs divided by total mass."""
    p = np.asarray(p, dtype=float)
    t = np.asarray(t)
    if p.shape != t.shape:
        raise InvalidInput(f"coupling shape {p.shape} does not match truth {t.shape}")
    if not np.isin(t, (0, 1)).all():
        raise InvalidInput("ground-truth match matrix must be binary")
    total = p.sum()
    if total <= 0:
        raise InvalidInput("coupling has no mass")
    return float(p[t.astype(bool)].sum() / total)


def topk_accuracy(p: np.ndarray, truth_best: np.ndarray, k: int) -> float:
    """Fraction of rows whose true best column is among the k largest entries."""
    p = np.asarray(p, dtype=float)
    truth_best = np.asarray(truth_best, dtype=int)
    n, m = p.shape
    if truth_best.shape != (n,):
        raise InvalidInput(f"truth_best must have one entry per row, got {truth_best.shape}")
    if not 1 <= k <= m:
        raise InvalidInput(f"k must satisfy 1 <= k <= {m}, got {k}")
    top = np.argsort(-p, axis=1, kind="stable")[:, :k]  # value desc, ties to lowest index
    return float(np.count_nonzero(top == truth_best[:, None]) / n)


def rmsd_d(
    d1: np.ndarray,
    d2: np.ndarray,
    z1: np.ndarray,
    z2: np.ndarray,
    t: np.ndarray,
) -> float:
    """Root-mean-square deviation of distances and matched positions.

    Sum of three terms: the per-dataset RMS deviation between the target
    dissimilarities and the embedded distances, plus the RMS displacement
    between matched points under the permutation ``t``.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    t = np.asarray(t)
    n = z1.shape[0]
    if z2.shape[0] != n:
        raise InvalidInput("RMSD-D requires equally sized datasets")
    if t.shape != (n, n):
        raise InvalidInput(f"match matrix shape {t.shape} does not match n={n}")
    if (
        not np.isin(t, (0, 1)).all()
        or not (t.sum(axis=0) == 1).all()
        or not (t.sum(axis=1) == 1).all()
    ):
        raise InvalidInput("match matrix must be a permutation matrix")
    term1 = np.sqrt(np.sum((d1 - cdist(z1, z1)) ** 2) / n**2)
    term2 = np.sqrt(np.sum((d2 - cdist(z2, z2)) ** 2) / n**2)
    term3 = np.sqrt(np.sum(t * cdist(z1, z2, metric="sqeuclidean")) / n)
    return float(term1 + term2 + term3)


def knn_transfer(
    source: np.ndarray,
    source_labels: np.ndarray,
    target: np.ndarray,
    k: int = 5,
) -> np.ndarray:
    """Label each target row by majority vote among its k nearest source rows.

    Vote ties break toward the smallest class id; distance ties toward the
    lowest source index.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    source_labels = np.asarray(source_labels)
    if source.shape[1] != target.shape[1]:
        raise InvalidInput("source and target embeddings must share the dimension")
    if source_labels.shape != (source.shape[0],):
        raise InvalidInput("one label per source row required")
    if not 1 <= k <= source.shape[0]:
        raise InvalidInput(f"k must satisfy 1 <= k <= {source.shape[0]}, got {k}")
    classes, encoded = np.unique(source_labels, return_inverse=True)
    dist = cdist(target, source)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    counts = np.zeros((target.shape[0], classes.size), dtype=int)
    np.add.at(counts, (np.arange(target.shape[0])[:, None], encoded[nearest]), 1)
    return classes[np.argmax(counts, axis=1)]


def accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of equal entries."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise InvalidInput(
            f"label lists have different lengths: {predicted.shape} vs {truth.shape}"
        )
    return float(np.mean(predicted == truth))
