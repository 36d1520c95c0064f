"""Readers and writers for matrices, edge lists, labels, couplings and traces.

Numeric values are written with 17 significant digits so a write/read round
trip reproduces float64 values exactly.  Every reader takes the path and
streams the file from disk, and, given ``digest`` (a ``hashlib`` object),
hashes every byte on disk in that same read: a caller that records an
input's hash opens it once.  Readers parse the content decompressed first
when the path ends in ``.gz``, ``.bz2`` or ``.xz``; hashes are those of the
bytes on disk.  An empty input raises :class:`InvalidInput` naming its path.
"""

from __future__ import annotations

import bz2
import contextlib
import gzip
import hashlib
import io
import json
import lzma
import os
import warnings
import zlib
from pathlib import Path

import numpy as np

from .errors import InvalidInput, NumericalFailure

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
    "read_coupling_matrix",
    "read_coupling_triplets",
    "write_coupling_triplets",
    "write_trace",
    "write_json",
    "sha256_file",
]

FLOAT_FMT = "%.17g"
SPARSE_DROP = 1e-12

# a decompressing reader over a binary stream, by path suffix
_UNPACK = {".gz": lambda raw: gzip.GzipFile(fileobj=raw), ".bz2": bz2.BZ2File,
           ".xz": lzma.LZMAFile}
# what those readers raise on a damaged or truncated archive, and what a
# failed disk read raises (an OSError with an errno)
_UNPACK_ERRORS = (OSError, EOFError, lzma.LZMAError, zlib.error)
_CHUNK = 1 << 20


class _Hashed(io.RawIOBase):
    """A binary stream whose every byte read is fed to ``digest`` first."""

    def __init__(self, f, digest):
        self._f, self._digest = f, digest

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._f.readinto(b)
        self._digest.update(memoryview(b)[:n])
        return n


@contextlib.contextmanager
def _stream(path: Path, digest=None):
    """The content of ``path`` as a binary stream, decompressed by suffix.

    The file is read in chunks.  Each chunk goes to ``digest`` (a
    ``hashlib`` object) first when one is given, and what the block left
    unread is hashed on exit, so ``digest`` ends up with the hash of every
    byte on disk.  Read and decompression errors in the block raise
    :class:`InvalidInput` naming ``path``; only the archive reader's own
    errors are reported as "cannot decompress".
    """
    try:
        source = open(path, "rb", buffering=0)
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    unpack = _UNPACK.get(path.suffix)
    with source:
        raw = io.BufferedReader(source if digest is None else _Hashed(source, digest), _CHUNK)
        try:
            yield raw if unpack is None else unpack(raw)
            while digest is not None and raw.read(_CHUNK):
                pass
        except _UNPACK_ERRORS as exc:
            # a failed disk read carries the system's errno; the archive readers' errors do not
            what = "cannot decompress: " if unpack and getattr(exc, "errno", None) is None else ""
            raise InvalidInput(f"{path}: {what}{exc}") from exc


def _text(path: Path, digest=None) -> str:
    """The content of ``path``, decompressed by suffix, as text."""
    with _stream(path, digest) as content:
        return content.read().decode()


def _loadtxt(path: Path, digest, what: str, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of the content of ``path`` streamed chunk by chunk, so
    the file's bytes are never held whole; no content raises, naming ``what``."""
    with _stream(path, digest) as content, warnings.catch_warnings():
        # the empty case raises below instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            m = np.loadtxt(content, **kwargs)
        except ValueError as exc:
            raise InvalidInput(f"{path}: parse error: {exc}") from exc
    if m.size == 0:
        raise InvalidInput(f"{path}: empty {what}")
    return m


def read_matrix(path, delimiter: str = ",", header: bool = False, digest=None) -> np.ndarray:
    """Dense matrix from a delimited text file; one row per line."""
    return _loadtxt(Path(path), digest, "matrix", delimiter=delimiter,
                    skiprows=1 if header else 0, ndmin=2)


def write_matrix(path, m: np.ndarray, delimiter: str = ",") -> None:
    np.savetxt(path, np.atleast_2d(m), fmt=FLOAT_FMT, delimiter=delimiter)


def write_embedding(path, z: np.ndarray, delimiter: str = ",") -> None:
    """Embedding CSV: leading 0-based row index column, then coordinates."""
    z = np.atleast_2d(z)
    np.savetxt(path, np.column_stack((np.arange(z.shape[0]), z)), fmt=FLOAT_FMT,
               delimiter=delimiter)


def read_embedding(path, delimiter: str = ",", digest=None) -> np.ndarray:
    """Read an embedding CSV written by :func:`write_embedding`."""
    m = read_matrix(path, delimiter=delimiter, digest=digest)
    if m.shape[1] < 2 or not np.array_equal(m[:, 0], np.arange(m.shape[0])):
        raise InvalidInput(
            f"{path}: expected an embedding file with a leading row-index column"
        )
    return m[:, 1:]


def read_edge_list(path, digest=None) -> tuple[list[tuple[int, int, float]], int]:
    """Whitespace-delimited ``i j [weight]`` lines with 0-based node ids.

    Returns the edges (self-loops included; callers decide) and the node
    count inferred from the largest id.
    """
    path = Path(path)
    edges: list[tuple[int, int, float]] = []
    max_id = -1
    lines = _text(path, digest).splitlines()
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


def read_labels(path, digest=None) -> np.ndarray:
    """One integer label per line."""
    return _loadtxt(Path(path), digest, "file", dtype=int, ndmin=1)


def write_labels(path, labels) -> None:
    np.savetxt(path, np.asarray(labels, dtype=int), fmt="%d")


def read_match_indices(path, digest=None) -> np.ndarray:
    """Ground-truth match: line i holds the matched column index of row i."""
    idx = read_labels(path, digest=digest)
    if np.any(idx < 0):
        raise InvalidInput(f"{path}: match indices must be nonnegative")
    return idx


def write_coupling_triplets(path, p: np.ndarray) -> None:
    """Sparse ``i j value`` text under a ``# n m`` shape header; entries below
    ``SPARSE_DROP`` are omitted."""
    p = np.asarray(p, dtype=float)
    i, j = np.nonzero(p >= SPARSE_DROP)
    line = f"%d %d {FLOAT_FMT}\n"
    with open(path, "w") as fh:
        fh.write(f"# {p.shape[0]} {p.shape[1]}\n")
        # Python ints and floats format faster than numpy scalars
        fh.writelines(line % t for t in zip(i.tolist(), j.tolist(), p[i, j].tolist()))


def _check_coupling_values(path, values: np.ndarray, line_of) -> None:
    """Reject the first negative, infinite or NaN value, naming line ``line_of(k)``
    for flat index ``k``."""
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
    if bad.size:
        k = bad[0]
        raise InvalidInput(f"{path}:{line_of(k)}: coupling value {values.flat[k]} is not "
                           "finite and nonnegative")


def read_coupling_matrix(path, delimiter: str = ",", digest=None) -> np.ndarray:
    """Dense coupling from a delimited text file; values must be finite and nonnegative."""
    path = Path(path)
    p = read_matrix(path, delimiter=delimiter, digest=digest)

    def line_of(k: int) -> int:
        # the reader skips blank and comment-only lines
        lines = _text(path).splitlines()
        rows = [n for n, text in enumerate(lines, start=1) if text.split("#", 1)[0].strip()]
        return rows[k // p.shape[1]]

    _check_coupling_values(path, p.ravel(), line_of)
    return p


def read_coupling_triplets(path, digest=None) -> np.ndarray:
    """Dense coupling from :func:`write_coupling_triplets` text.

    The first ``# n m`` comment fixes the shape, else it is the largest
    indices plus one.  Indices must lie inside that shape and values must be
    finite and nonnegative; a repeated ``i j`` keeps its last value.
    """
    path = Path(path)
    shape = None
    linenos, ij, values = [], [], []
    lines = _text(path, digest).splitlines()
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
    values = np.array(values, dtype=float)
    _check_coupling_values(path, values, linenos.__getitem__)
    p = np.zeros(shape)
    p[ij[:, 0], ij[:, 1]] = values
    return p


def _json(path, doc, **kwargs) -> str:
    """``doc`` as strict JSON: NaN and infinity raise rather than write non-JSON."""
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericalFailure(f"{path}: {exc}") from exc


def write_trace(path, records) -> None:
    """JSON-lines trace, one record per line."""
    text = "".join(_json(path, rec) + "\n" for rec in records)
    Path(path).write_text(text)


def write_json(path, doc) -> None:
    """Atomic JSON write (temp file + rename)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(_json(path, doc, indent=2) + "\n")
    os.replace(tmp, path)


def sha256_file(path) -> str:
    """Hex SHA-256 digest of the bytes of ``path`` on disk, as a manifest records
    for an input."""
    digest = hashlib.sha256()
    with _stream(Path(path), digest):
        pass  # the stream hashes on exit what the block left unread: all of it
    return digest.hexdigest()
