"""Readers and writers for matrices, edge lists, labels, couplings and traces.

Numeric values are written with 17 significant digits so a write/read round
trip reproduces float64 values exactly.  Each reader takes the path and,
optionally, the file's bytes already read with ``read_bytes``: a caller that
also hashes an input with ``sha256_bytes`` then reads it once.  Readers parse
those bytes, decompressed first when the path ends in ``.gz``, ``.bz2`` or
``.xz``; hashes are those of the bytes on disk.
"""

from __future__ import annotations

import bz2
import gzip
import hashlib
import io
import json
import lzma
import os
from pathlib import Path

import numpy as np

from .errors import InvalidInput

__all__ = [
    "read_matrix",
    "write_matrix",
    "read_embedding",
    "write_embedding",
    "read_edge_list",
    "write_edge_list",
    "read_labels",
    "write_labels",
    "read_match_indices",
    "read_coupling_triplets",
    "write_coupling_triplets",
    "write_trace",
    "write_json",
    "read_bytes",
    "sha256_bytes",
    "sha256_file",
]

FLOAT_FMT = "%.17g"
SPARSE_DROP = 1e-12

_DECOMPRESS = {".gz": gzip.decompress, ".bz2": bz2.decompress, ".xz": lzma.decompress}


def read_bytes(path) -> bytes:
    """The whole content of ``path``."""
    path = Path(path)
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _content(path: Path, data: bytes | None) -> bytes:
    """The bytes a reader parses: ``data`` (else the file's), decompressed by suffix."""
    data = read_bytes(path) if data is None else data
    decompress = _DECOMPRESS.get(path.suffix)
    if decompress is None:
        return data
    try:
        return decompress(data)
    except (OSError, EOFError, ValueError, lzma.LZMAError) as exc:
        raise InvalidInput(f"{path}: cannot decompress: {exc}") from exc


def _text(path: Path, data: bytes | None) -> str:
    return _content(path, data).decode()


def read_matrix(path, delimiter: str = ",", header: bool = False,
                data: bytes | None = None) -> np.ndarray:
    """Dense matrix from a delimited text file; one row per line."""
    path = Path(path)
    try:
        m = np.loadtxt(io.BytesIO(_content(path, data)), delimiter=delimiter,
                       skiprows=1 if header else 0, ndmin=2)
    except ValueError as exc:
        raise InvalidInput(f"{path}: parse error: {exc}") from exc
    if m.size == 0:
        raise InvalidInput(f"{path}: empty matrix")
    return m


def write_matrix(path, m: np.ndarray, delimiter: str = ",") -> None:
    np.savetxt(path, np.atleast_2d(m), fmt=FLOAT_FMT, delimiter=delimiter)


def write_embedding(path, z: np.ndarray, delimiter: str = ",") -> None:
    """Embedding CSV: leading 0-based row index column, then coordinates."""
    z = np.atleast_2d(z)
    np.savetxt(path, np.column_stack((np.arange(z.shape[0]), z)), fmt=FLOAT_FMT,
               delimiter=delimiter)


def read_embedding(path, delimiter: str = ",", data: bytes | None = None) -> np.ndarray:
    """Read an embedding CSV written by :func:`write_embedding`."""
    m = read_matrix(path, delimiter=delimiter, data=data)
    if m.shape[1] < 2 or not np.array_equal(m[:, 0], np.arange(m.shape[0])):
        raise InvalidInput(
            f"{path}: expected an embedding file with a leading row-index column"
        )
    return m[:, 1:]


def read_edge_list(path, data: bytes | None = None) -> tuple[list[tuple[int, int, float]], int]:
    """Whitespace-delimited ``i j [weight]`` lines with 0-based node ids.

    Returns the edges (self-loops included; callers decide) and the node
    count inferred from the largest id.
    """
    path = Path(path)
    edges: list[tuple[int, int, float]] = []
    max_id = -1
    lines = _text(path, data).splitlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (2, 3):
            raise InvalidInput(f"{path}:{lineno}: expected 'i j [weight]', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
        if i < 0 or j < 0:
            raise InvalidInput(f"{path}:{lineno}: node ids must be nonnegative")
        edges.append((i, j, w))
        max_id = max(max_id, i, j)
    if max_id < 0:
        raise InvalidInput(f"{path}: no edges found")
    return edges, max_id + 1


def write_edge_list(path, edges) -> None:
    with open(path, "w") as fh:
        for i, j, w in edges:
            fh.write(f"{i} {j} {FLOAT_FMT % w}\n")


def read_labels(path, data: bytes | None = None) -> np.ndarray:
    """One integer label per line."""
    path = Path(path)
    try:
        labels = np.loadtxt(io.BytesIO(_content(path, data)), dtype=int, ndmin=1)
    except ValueError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    return labels


def write_labels(path, labels) -> None:
    np.savetxt(path, np.asarray(labels, dtype=int), fmt="%d")


def read_match_indices(path, data: bytes | None = None) -> np.ndarray:
    """Ground-truth match: line i holds the matched column index of row i."""
    idx = read_labels(path, data=data)
    if np.any(idx < 0):
        raise InvalidInput(f"{path}: match indices must be nonnegative")
    return idx


def write_coupling_triplets(path, p: np.ndarray) -> None:
    """Sparse ``i j value`` text under a ``# n m`` shape header; entries below
    ``SPARSE_DROP`` are omitted."""
    p = np.asarray(p, dtype=float)
    i, j = np.nonzero(p >= SPARSE_DROP)
    np.savetxt(path, np.column_stack((i, j, p[i, j])), fmt=("%d", "%d", FLOAT_FMT),
               header=f"{p.shape[0]} {p.shape[1]}", comments="# ")


def read_coupling_triplets(path, data: bytes | None = None) -> np.ndarray:
    """Dense coupling from :func:`write_coupling_triplets` text.

    The first ``# n m`` comment fixes the shape, else it is the largest
    indices plus one.  Indices must lie inside that shape; a repeated
    ``i j`` keeps its last value.
    """
    path = Path(path)
    shape = None
    linenos, ij, values = [], [], []
    lines = _text(path, data).splitlines()
    try:
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                header = stripped[1:].split()
                if shape is None and len(header) == 2:
                    shape = (int(header[0]), int(header[1]))
                    if min(shape) < 0:
                        raise ValueError(f"negative coupling shape {shape}")
                continue
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ValueError("expected 'i j value'")
            ij.append((int(parts[0]), int(parts[1])))
            values.append(float(parts[2]))
            linenos.append(lineno)
    except ValueError as exc:
        raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
    ij = np.array(ij, dtype=int).reshape(-1, 2)
    if shape is None:
        if not values:
            raise InvalidInput(f"{path}: empty coupling file")
        shape = tuple(int(m) + 1 for m in ij.max(axis=0))
    outside = np.flatnonzero((ij < 0).any(axis=1) | (ij >= shape).any(axis=1))
    if outside.size:
        k = outside[0]
        raise InvalidInput(f"{path}:{linenos[k]}: index ({ij[k, 0]}, {ij[k, 1]}) is "
                           f"outside the {shape[0]}x{shape[1]} coupling")
    p = np.zeros(shape)
    p[ij[:, 0], ij[:, 1]] = values
    return p


def write_trace(path, records) -> None:
    """JSON-lines trace, one record per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_json(path, doc) -> None:
    """Atomic JSON write (temp file + rename)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``, as recorded for inputs in a manifest."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(read_bytes(path))
