"""Double-double arithmetic on numpy arrays.

A double-double number is an unevaluated sum ``hi + lo`` of two binary64
values with ``|lo| <= 0.5 ulp(hi)``, giving roughly 32 significant decimal
digits (106-bit mantissa).  All primitives below are error-free or correctly
renormalized elementwise operations, so they vectorize over ndarrays.

Only what the generators and ground-truth bookkeeping need is implemented:
real arithmetic (:class:`DD`), complex arithmetic (:class:`CDD`), square
roots, integer roots/powers, diagonal scalings, matrix products and LU
solves with partial pivoting.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant


def _two_sum(a, b):
    """Error-free sum: (s, e) with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _quick_two_sum(a, b):
    """Error-free sum assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    """Error-free product via Dekker splitting: (p, e) with p + e == a*b."""
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


class DD:
    """Array of real double-double values, stored as (hi, lo) float64 pairs."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=np.float64)
        if lo is None:
            self.lo = np.zeros_like(self.hi)
        else:
            self.lo = np.asarray(lo, dtype=np.float64)
            if self.lo.shape != self.hi.shape:
                self.lo = np.broadcast_to(self.lo, self.hi.shape).copy()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_float(cls, x):
        """Promote binary64 data exactly (lo = 0)."""
        return cls(np.array(x, dtype=np.float64), None)

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(shape), np.zeros(shape))

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self):
        return self.hi.shape

    def copy(self):
        return DD(self.hi.copy(), self.lo.copy())

    def __getitem__(self, key):
        return DD(self.hi[key], self.lo[key])

    def __setitem__(self, key, value):
        value = _as_dd(value)
        self.hi[key] = value.hi
        self.lo[key] = value.lo

    def to_float(self):
        """Round to nearest binary64 (exact because |lo| <= 0.5 ulp(hi))."""
        return self.hi + self.lo

    def __repr__(self):
        return f"DD(hi={self.hi!r}, lo={self.lo!r})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __add__(self, other):
        other = _as_dd(other)
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        e = e + t
        s, e = _quick_two_sum(s, e)
        e = e + f
        hi, lo = _quick_two_sum(s, e)
        return DD(hi, lo)

    def __sub__(self, other):
        return self + (-_as_dd(other))

    def __mul__(self, other):
        other = _as_dd(other)
        p, e = _two_prod(self.hi, other.hi)
        e = e + (self.hi * other.lo + self.lo * other.hi)
        hi, lo = _quick_two_sum(p, e)
        return DD(hi, lo)

    def __truediv__(self, other):
        other = _as_dd(other)
        q1 = self.hi / other.hi
        r = self - other * DD(q1)
        q2 = r.hi / other.hi
        r = r - other * DD(q2)
        q3 = r.hi / other.hi
        s, e = _quick_two_sum(q1, q2)
        return DD(s, e) + DD(q3)

    def sqrt(self):
        """Elementwise square root (one dd Newton step from a binary64 seed)."""
        y = np.sqrt(self.hi)
        nonzero = y > 0.0
        ysafe = np.where(nonzero, y, 1.0)
        p, e = _two_prod(ysafe, ysafe)
        corr = (self - DD(p, e)).to_float() / (2.0 * ysafe)
        hi, lo = _quick_two_sum(ysafe, corr)
        return DD(np.where(nonzero, hi, 0.0), np.where(nonzero, lo, 0.0))


def _as_dd(x):
    if isinstance(x, DD):
        return x
    return DD(np.asarray(x, dtype=np.float64))


def dd_pow_int(base: DD, k: int) -> DD:
    """Integer power of a dd scalar/array by repeated multiplication."""
    if k < 0:
        return DD(1.0) / dd_pow_int(base, -k)
    result = DD(np.ones(base.shape))
    acc = base.copy()
    n = k
    while n > 0:
        if n & 1:
            result = result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return result


def dd_nth_root(x: DD, m: int) -> DD:
    """m-th root of a positive dd scalar via Newton iteration on t**m - x."""
    if m <= 0:
        raise ValueError("root order must be positive")
    if not np.all(x.hi > 0.0):
        raise ValueError("dd_nth_root requires positive input")
    t = DD(np.power(x.hi, 1.0 / m))
    for _ in range(3):
        tm1 = dd_pow_int(t, m - 1)
        t = t - (tm1 * t - x) / (tm1 * m)
    return t


class CDD:
    """Array of complex double-double values (a DD pair for re and im)."""

    __slots__ = ("re", "im")

    def __init__(self, re: DD, im: DD):
        self.re = re
        self.im = im

    @classmethod
    def from_complex(cls, z):
        z = np.asarray(z, dtype=np.complex128)
        return cls(DD.from_float(z.real.copy()), DD.from_float(z.imag.copy()))

    @classmethod
    def zeros(cls, shape):
        return cls(DD.zeros(shape), DD.zeros(shape))

    @staticmethod
    def hstack(*blocks: "CDD") -> "CDD":
        """Place 2-d blocks with equal row counts side by side.

        Raises ``ValueError`` if the row counts differ.
        """
        def cat(parts):
            return DD(np.concatenate([p.hi for p in parts], axis=1),
                      np.concatenate([p.lo for p in parts], axis=1))
        return CDD(cat([b.re for b in blocks]), cat([b.im for b in blocks]))

    @property
    def shape(self):
        return self.re.shape

    def copy(self):
        return CDD(self.re.copy(), self.im.copy())

    def __getitem__(self, key):
        return CDD(self.re[key], self.im[key])

    def __setitem__(self, key, value):
        value = _as_cdd(value)
        self.re[key] = value.re
        self.im[key] = value.im

    def to_complex(self):
        return self.re.to_float() + 1j * self.im.to_float()

    def conj(self):
        return CDD(self.re.copy(), -self.im)

    def conj_t(self):
        """Conjugate transpose of a 2-d array."""
        return CDD(DD(self.re.hi.T.copy(), self.re.lo.T.copy()),
                   DD(-self.im.hi.T, -self.im.lo.T))

    def scaled(self, d: DD) -> "CDD":
        """Elementwise product with the real dd array ``d`` (broadcast).

        ``m.scaled(d)`` is ``m @ diag(d)`` and ``m.scaled(d[:, None])`` is
        ``diag(d) @ m``, without forming the diagonal matrix.
        """
        return CDD(self.re * d, self.im * d)

    def abs2(self) -> DD:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        other = _as_cdd(other)
        return CDD(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _as_cdd(other)
        return CDD(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _as_cdd(other)
        return CDD(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = _as_cdd(other)
        d = other.abs2()
        num = self * other.conj()
        return CDD(num.re / d, num.im / d)

    def matmul(self, other: "CDD") -> "CDD":
        """Dense product of 2-d arrays, accumulated in double-double."""
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = CDD.zeros((n, m))
        for j in range(k):
            # outer product of column j and row j, broadcast (n, 1) * (1, m)
            out = out + self[:, j:j + 1] * other[j:j + 1, :]
        return out


def _as_cdd(x):
    if isinstance(x, CDD):
        return x
    return CDD.from_complex(np.asarray(x, dtype=np.complex128))


def cdd_diag(values: DD) -> CDD:
    """Embed a dd vector as a complex-dd diagonal matrix."""
    n = values.shape[0]
    out = CDD.zeros((n, n))
    idx = np.arange(n)
    out.re.hi[idx, idx] = values.hi
    out.re.lo[idx, idx] = values.lo
    return out


def cdd_solve(a: CDD, b: CDD) -> CDD:
    """Solve a @ x = b in complex double-double via LU with partial pivoting.

    The pivots depend on ``a`` alone, and every update of ``x``, back
    substitution included, is elementwise per column: each column of a 2-d
    ``b`` is solved with the same pivots and independently of the others.
    A solve with right-hand sides stacked by :meth:`CDD.hstack` therefore
    equals the separate solves bit for bit, which lets a generator factor
    a coefficient matrix once for all its right-hand sides.

    Raises
    ------
    ZeroDivisionError
        If a pivot is exactly zero (matrix singular at dd precision).
    """
    n, n2 = a.shape
    if n != n2:
        raise ValueError("coefficient matrix must be square")
    lu = a.copy()
    vector = len(b.shape) == 1
    # copy before adding the axis: b[:, None] is a view into b
    x = b.copy()[:, None] if vector else b.copy()
    for k in range(n):
        col_mag = np.abs(lu.re.hi[k:, k]) + np.abs(lu.im.hi[k:, k])
        piv = k + int(np.argmax(col_mag))
        if col_mag[piv - k] == 0.0:
            raise ZeroDivisionError("singular matrix in cdd_solve")
        if piv != k:
            for arr in (lu.re.hi, lu.re.lo, lu.im.hi, lu.im.lo,
                        x.re.hi, x.re.lo, x.im.hi, x.im.lo):
                arr[[k, piv], :] = arr[[piv, k], :]
        if k + 1 < n:
            lu[k + 1:, k] = lu[k + 1:, k] / lu[k, k]
            mcol = lu[k + 1:, k:k + 1]
            lu[k + 1:, k + 1:] = lu[k + 1:, k + 1:] - mcol * lu[k:k + 1, k + 1:]
            x[k + 1:, :] = x[k + 1:, :] - mcol * x[k:k + 1, :]
    # back substitution; the row sum runs left to right
    for k in range(n - 1, -1, -1):
        acc = x[k, :]
        if k + 1 < n:
            prod = lu[k, k + 1:, None] * x[k + 1:, :]
            s = CDD.zeros(acc.shape)
            for j in range(prod.shape[0]):
                s = s + prod[j, :]
            acc = acc - s
        x[k, :] = acc / lu[k, k]
    return x[:, 0] if vector else x


def dd_to_decimal_string(x: DD, digits: int = 32) -> str:
    """Format a dd scalar with the requested number of significant digits."""
    from decimal import Decimal, getcontext

    getcontext().prec = digits + 10
    total = Decimal(float(x.hi)) + Decimal(float(x.lo))
    if total == 0:
        return "0." + "0" * (digits - 1) + "e+00"
    sign, _, _ = total.as_tuple()
    exp10 = total.copy_abs().adjusted()
    mant = total.scaleb(-exp10)
    quant = Decimal(1).scaleb(1 - digits)
    mant = mant.quantize(quant)
    # carry can push the mantissa to +-10.000...
    if mant.copy_abs() >= 10:
        mant = mant.scaleb(-1).quantize(quant)
        exp10 += 1
    return f"{mant}e{exp10:+03d}"
