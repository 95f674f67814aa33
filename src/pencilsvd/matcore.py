"""Dense matrix foundation: Haar sampling, rank decisions, text I/O.

Everything here works in ``numpy.complex128``; the extended-precision
generator layer lives in :mod:`pencilsvd.ddarith`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class RankReport:
    """Numerical rank decision together with the evidence it was based on.

    ``rank`` counts the singular values strictly above ``tolerance``
    (an absolute threshold, already scaled by the largest singular value).
    """

    rank: int
    values: np.ndarray
    tolerance: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if np.any(np.diff(vals) > 0):
            raise ValueError("singular values must be nonincreasing")
        object.__setattr__(self, "values", vals)


def haar_unitary(n: int, rng, count: int | None = None) -> np.ndarray:
    """Draw an n-by-n unitary matrix from the Haar distribution.

    Complex Ginibre sample, thin QR, then the Q columns are rescaled by the
    phases of R's diagonal so the factorization is unique and the result is
    Haar distributed.

    Parameters
    ----------
    n : int
        Matrix order, at least 1.
    rng : numpy.random.Generator or int
        Random source (an integer is used as a seed).
    count : int, optional
        Draw a ``(count, n, n)`` stack in one stacked QR.  It holds the
        bytes of ``count`` successive draws and leaves ``rng`` in their
        state: each sample's real then imaginary part is drawn in turn.
    """
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    g = rng.standard_normal((1 if count is None else count, 2, n, n))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)[:, None, :]
    u = q * (d / np.abs(d))
    return u[0] if count is None else u


def rank_with_tol(m: np.ndarray) -> RankReport:
    """Numerical rank from singular values: the number of singular values
    ``s_i > max(rows, cols) * eps * s_max``."""
    m = np.asarray(m)
    if m.size == 0:
        return RankReport(0, np.zeros(0), 0.0)
    s = np.linalg.svd(m, compute_uv=False)
    cutoff = max(m.shape) * EPS * s[0]
    return RankReport(int(np.count_nonzero(s > cutoff)), s, float(cutoff))


# -- text format ------------------------------------------------------------
#
# First line: "rows cols field" with field in {real, complex}; then
# rows*cols lines in row-major order, one entry per line, 17 significant
# digits ("re" for real files, "re im" for complex ones).


def write_matrix_text(path, m: np.ndarray) -> None:
    """Write ``m`` in the text format above.  An input that is not a matrix
    or holds a non-finite entry, which :func:`read_matrix_text` could not
    read back, raises ValueError naming ``path`` before the file is opened."""
    m = np.atleast_2d(np.asarray(m))
    if m.ndim != 2:
        raise ValueError(f"{path}: cannot write an array of shape {m.shape} as a matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: cannot write non-finite (NaN or Inf) entries")
    is_real = not np.iscomplexobj(m) or not np.any(m.imag)
    field = "real" if is_real else "complex"
    rows, cols = m.shape
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{rows} {cols} {field}\n")
        for i in range(rows):
            for j in range(cols):
                z = complex(m[i, j])
                if is_real:
                    fh.write(f"{z.real:.16e}\n")
                else:
                    fh.write(f"{z.real:.16e} {z.imag:.16e}\n")


def read_matrix_text(path) -> np.ndarray:
    """Read the text format above; a malformed header (sizes that are not
    non-negative integers, an unknown field) raises ValueError naming the
    file and the header, a short file, a missing number or an entry that is
    not a finite number raises ValueError naming the entry, and non-blank
    content after the last entry (a header that understates the size)
    raises ValueError naming the file."""
    with open(path) as fh:
        header = fh.readline().split()
        if (len(header) != 3 or header[2] not in ("real", "complex")
                or not all(h.isdecimal() for h in header[:2])):
            raise ValueError(f"malformed matrix header in {path}: {' '.join(header)!r}")
        rows, cols, field = int(header[0]), int(header[1]), header[2]
        width = 1 if field == "real" else 2
        out = np.zeros((rows, cols), dtype=np.complex128)
        for i in range(rows):
            for j in range(cols):
                parts = fh.readline().split()
                try:
                    nums = [float(x) for x in parts]
                except ValueError:
                    nums = []
                if len(nums) != width or not np.all(np.isfinite(nums)):
                    raise ValueError(f"{path}: {field} entry ({i}, {j}) needs {width} "
                                     f"finite number(s), got {' '.join(parts)!r}")
                if field == "real":
                    out[i, j] = nums[0]
                else:
                    out[i, j] = nums[0] + 1j * nums[1]
        extra = next((line.strip() for line in fh if line.strip()), None)
        if extra is not None:
            raise ValueError(f"{path}: content after the {rows}x{cols} entries the "
                             f"header announces: {extra!r}")
    return out
