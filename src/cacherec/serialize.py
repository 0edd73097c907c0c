"""Plain-text persistence for matrices and run provenance.

Matrices use a coordinate triplet layout: a header line ``# dims K K``
followed by one ``i j value`` line per stored (nonzero) entry, 0-based
indices. Values are printed with 17 significant decimal digits, which
round-trips IEEE doubles bit-exactly.
"""

import hashlib
import json
from contextlib import contextmanager

import numpy as np

__all__ = [
    "save_matrix",
    "load_matrix",
    "write_provenance",
    "file_sha256",
]


@contextmanager
def open_text(dest, mode: str = "r", newline: str | None = None):
    """Yield a text stream for `dest`, a path or an open file object.

    A path is opened as UTF-8 text and closed on exit; a file object is
    yielded as it is and stays open, since its caller owns it.
    """
    if hasattr(dest, "write") or hasattr(dest, "read"):
        yield dest
    else:
        with open(dest, mode, encoding="utf-8", newline=newline) as fh:
            yield fh


def save_matrix(dest, matrix) -> None:
    """Write a dense matrix in triplet form, skipping exact zeros."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("save_matrix expects a 2-d array")
    with open_text(dest, "w") as fh:
        fh.write(f"# dims {m.shape[0]} {m.shape[1]}\n")
        rows, cols = np.nonzero(m)
        for i, j in zip(rows, cols):
            fh.write(f"{i} {j} {m[i, j]:.17g}\n")


def load_matrix(src) -> np.ndarray:
    """Read a triplet-format matrix back into a dense float array."""
    with open_text(src) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[:2] != ["#", "dims"]:
            raise ValueError("matrix file must start with '# dims K K'")
        nrow, ncol = int(header[2]), int(header[3])
        out = np.zeros((nrow, ncol))
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'i j value'")
            i, j = int(parts[0]), int(parts[1])
            if not (0 <= i < nrow and 0 <= j < ncol):
                raise ValueError(f"line {lineno}: index ({i}, {j}) out of range")
            out[i, j] = float(parts[2])
        return out


def write_provenance(path, record: dict) -> None:
    """Dump a provenance record as stable, human-diffable JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
