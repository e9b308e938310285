"""Matrix Market array-format I/O.

The canonical form written here is the dense array format with a complex
general header, entries in column-major order, one "re im" pair per line
formatted with the shortest exact decimal representation.  Reading a
canonical file and writing it back reproduces the bytes exactly.  Real
and integer files are accepted on input and widened to complex.
"""

from __future__ import annotations

import warnings
from itertools import chain

import numpy as np

from .linalg import as_matrix

__all__ = [
    "format_matrix",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
    "write_vector",
    "read_vector",
]

_HEADER = "%%MatrixMarket matrix array complex general"


def _format_pairs(values, prefix: str = "") -> str:
    """One ``prefix + "re im"`` line per entry of ``values`` in flat order.

    Each part is ``repr`` of a Python float, the shortest decimal string
    that reads back to the same double.
    """
    flat = np.asarray(values, dtype=np.complex128).ravel().view(np.float64).tolist()
    return ((prefix + "%r %r\n") * (len(flat) // 2)) % tuple(flat)


def format_matrix(A) -> str:
    """Render a matrix in the canonical Matrix Market array form."""
    A = as_matrix(A)
    m, n = A.shape
    return f"{_HEADER}\n{m} {n}\n" + _format_pairs(A.T)


def parse_matrix(text: str) -> np.ndarray:
    """Parse Matrix Market array-format text into a complex matrix."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty Matrix Market input")
    tokens = lines[0].split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
        raise ValueError("malformed Matrix Market header")
    _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
    if obj != "matrix" or fmt != "array":
        raise ValueError("only dense matrix array files are supported")
    if field not in ("real", "complex", "integer"):
        raise ValueError(f"unsupported field {field!r}")
    if symmetry != "general":
        raise ValueError(f"unsupported symmetry {symmetry!r}")

    # the size line is the first line that is neither blank nor a comment
    size_at = next((k for k in range(1, len(lines)) if lines[k].lstrip()[:1] not in ("", "%")),
                   None)
    if size_at is None:
        raise ValueError("missing size line")
    size_tokens = lines[size_at].split()
    if len(size_tokens) != 2:
        raise ValueError("malformed size line")
    m, n = (int(t) for t in size_tokens)
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")

    total = m * n
    width = 2 if field == "complex" else 1
    rest = lines[size_at + 1:]
    flat = _loaded(rest, total, width)
    if flat is None:
        entries = [line for line in rest if line.lstrip()[:1] not in ("", "%")]
        flat = _read_values(entries[:total], width)
        if len(entries) > total:
            raise ValueError("too many entries")
        if len(flat) != width * total:
            raise ValueError(f"expected {total} entries, found {len(flat) // width}")
    values = flat.view(np.complex128) if width == 2 else flat.astype(np.complex128)
    return values.reshape((n, m)).T.copy()


def _loaded(lines: list[str], total: int, width: int) -> np.ndarray | None:
    """The values of ``lines`` as float64 when numpy's C reader takes them
    as exactly ``total`` rows of ``width`` values, else None.

    The reader skips blank lines and refuses a comment line, so on
    success the rows are the file's entries; any other outcome is left
    to the line-by-line path and its error messages.
    """
    if len(lines) < total:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns when every line is blank
        try:
            values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return None
    if values.shape != (total, width):
        return None
    return values.ravel()


def _read_values(lines: list[str], width: int) -> np.ndarray:
    """The ``width`` values on each of ``lines``, in order, as float64, read
    one token at a time with ``float``: the fallback for the entries that
    :func:`_loaded` could not read as one block.  It raises the error of
    the first bad line, or reads the forms that only ``float`` accepts
    (such as ``1_000``); numpy's reader converts every other token as
    ``float`` does, so the values do not depend on the path.
    """
    rows = list(map(str.split, lines))
    good = next((k for k, row in enumerate(rows) if len(row) != width), len(rows))
    values = np.array(list(map(float, chain.from_iterable(rows[:good]))), dtype=np.float64)
    if good < len(rows):
        expected = "'re im'" if width == 2 else "one value"
        raise ValueError(f"expected {expected} on line: {lines[good]!r}")
    return values


def write_matrix(path, A) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_matrix(A))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())


def write_vector(path, v) -> None:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 1:
        v = v[:, None]
    write_matrix(path, v)


def read_vector(path) -> np.ndarray:
    """Read an n-by-1 matrix file as a vector."""
    mat = read_matrix(path)
    if mat.shape[1] != 1:
        raise ValueError(f"expected an n-by-1 vector file, got shape {mat.shape}")
    return mat[:, 0]
