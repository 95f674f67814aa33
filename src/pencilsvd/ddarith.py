"""Double-double arithmetic on numpy arrays.

A double-double number is an unevaluated sum ``hi + lo`` of two binary64
values with ``|lo| <= 0.5 ulp(hi)``, giving roughly 32 significant decimal
digits (106-bit mantissa).  All primitives below are error-free or correctly
renormalized elementwise operations, so they vectorize over ndarrays.

Each formula has one home, a helper on raw ``(hi, lo)`` arrays.  A complex
array (:class:`CDD`) stacks (re, im) on a leading axis of size 2 of its
``hi`` and ``lo`` arrays, so one helper call covers both parts.
:meth:`CDD.matmul` forms the outer products of a block of columns in one
stacked product and adds them in order of the column; it also takes stacks
of matrices on leading batch axes, so independent products of one shape
share its small ufunc calls (about 240 for 10 columns; their number, not
their flops, is the dd layer's cost).  The kernels perform
the IEEE operations of the per-operator formulas (one real dd operation at
a time) in the same order, so they match those bit for bit.  :func:`cdd_solve`
refines a binary64 solve in double-double, one dd residual product per step,
and stops once the next correction could not move a bit of ``x``: it agrees
with a dd LU to about ``cond(a) * n * 2**-104`` relative, not bit for bit.

Only what the generators and ground-truth bookkeeping need is implemented:
a real container (:class:`DD`, with no arithmetic of its own), for complex
arrays (:class:`CDD`) diagonal scalings, matrix products and linear solves,
and the conversions from and to ``decimal`` (:func:`dd_from_decimal`,
:func:`dd_to_decimal_string`); values the products do not need, such as the
sigma grid's roots and reciprocals, are evaluated in ``decimal`` and rounded
to double-double once.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant

# Outer products that CDD.matmul forms per stacked product, counted as
# block * batch * n * m (batch = members of a stack, 1 for a 2-d product).
# One product over every column is slower once its temporaries outgrow the
# cache: at n = 32 (one BLAS thread) all 32 columns at once took 10.1 ms,
# blocks of 8 (this budget) 6.4 ms and one column at a time 7.6 ms; at
# n = 10 the budget covers all 10 columns, 0.50 ms against 0.63 ms in blocks
# of 8 and 1.07 ms one column at a time.  Stacked (medians of three rounds,
# noisy 2-vCPU machine): at n = 10 four members took 0.99 ms and three 0.86
# ms against 0.52 ms for one; at n = 32 (blocks of 2) four took 17.9 ms and
# three 14.6 ms against 5.2 ms for one, and four without the budget 33.0 ms.
_OUTER_PRODUCT_BUDGET = 8192

# Stopping rule of cdd_solve's refinement (see _refinement_stops).  The dd
# residual carries a rounding noise of n units of 2**-104 or more, so a
# correction of at most _REFINE_RESOLUTION (16 units) has converged, and so
# has one that shrank by at least _REFINE_SHRINK if the next, shrunk by the
# same ratio, would be at most _REFINE_RESOLUTION.  One above _REFINE_SHRINK
# times the one before has stopped shrinking: it is that noise, about
# cond(a) * n * 2**-104, or the refinement diverges; the stop is accepted at
# or below _REFINE_STALL_LIMIT, the binary64 unit roundoff, where x is more
# accurate than any binary64 solve makes it.
_REFINE_RESOLUTION = 2.0 ** -100
_REFINE_SHRINK = 0.5
_REFINE_STALL_LIMIT = 2.0 ** -53


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


def _split(a):
    """Dekker split: (ah, al) with ah + al == a, each half of 26 bits."""
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    return ah, a - ah


def _two_prod(a, b):
    """Error-free product via Dekker splitting: (p, e) with p + e == a*b."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _dd_add(ahi, alo, bhi, blo):
    """Double-double sum of (ahi, alo) and (bhi, blo), as (hi, lo)."""
    s, e = _two_sum(ahi, bhi)
    t, f = _two_sum(alo, blo)
    e = e + t
    s, e = _quick_two_sum(s, e)
    e = e + f
    return _quick_two_sum(s, e)


def _dd_mul(ahi, alo, bhi, blo):
    """Double-double product of (ahi, alo) and (bhi, blo), as (hi, lo)."""
    p, e = _two_prod(ahi, bhi)
    e = e + (ahi * blo + alo * bhi)
    return _quick_two_sum(p, e)


def _cdd_mul(ahi, alo, bhi, blo):
    """Complex dd product of stacked (re, im) operands of equal rank.

    One broadcast product gives ``p[i, j] = a_i * b_j`` for all four pairs
    of parts, and ``(re, im) = (p_rr, p_ri) + (-p_ii, p_ir)``.
    """
    phi, plo = _dd_mul(ahi[:, None], alo[:, None], bhi, blo)
    np.negative(phi[1, 1], out=phi[1, 1])
    np.negative(plo[1, 1], out=plo[1, 1])
    return _dd_add(phi[0], plo[0], phi[1, ::-1], plo[1, ::-1])


class DD:
    """Array of real double-double values, stored as (hi, lo) float64 pairs;
    a container only (the helpers above work on the raw arrays)."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.zeros_like(self.hi) if lo is None else np.asarray(lo, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            raise ValueError(f"lo of shape {self.lo.shape} does not match hi of "
                             f"shape {self.hi.shape}")

    @property
    def shape(self):
        return self.hi.shape

    def __getitem__(self, key):
        return DD(self.hi[key], self.lo[key])

    def to_float(self):
        """Round to nearest binary64 (exact because |lo| <= 0.5 ulp(hi))."""
        return self.hi + self.lo

class CDD:
    """Array of complex double-double values.

    ``hi`` and ``lo`` are float64 arrays of shape ``(2, *shape)``: index 0
    of the leading axis holds the real part, index 1 the imaginary part.
    The constructor wraps them without copying.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    @classmethod
    def stack(cls, zs) -> "CDD":
        """Arrays of one shape stacked on a new leading batch axis."""
        return cls(np.stack([z.hi for z in zs], axis=1), np.stack([z.lo for z in zs], axis=1))

    @classmethod
    def from_complex(cls, z):
        z = np.asarray(z, dtype=np.complex128)
        hi = np.stack([z.real, z.imag])
        return cls(hi, np.zeros_like(hi))

    @property
    def shape(self):
        return self.hi.shape[1:]

    @property
    def re(self) -> DD:
        return DD(self.hi[0], self.lo[0])

    @property
    def im(self) -> DD:
        return DD(self.hi[1], self.lo[1])

    def __getitem__(self, key):
        key = (slice(None),) + (key if isinstance(key, tuple) else (key,))
        return CDD(self.hi[key], self.lo[key])

    def to_complex(self):
        f = self.hi + self.lo
        return f[0] + 1j * f[1]

    def conj_t(self):
        """Conjugate transpose of a 2-d array (of each member of a stack)."""
        # negates the imaginary part exactly
        sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * (self.hi.ndim - 1))
        return CDD((sign * self.hi).swapaxes(-1, -2), (sign * self.lo).swapaxes(-1, -2))

    def scaled(self, d: DD) -> "CDD":
        """Elementwise product with the real dd array ``d`` (broadcast).

        ``m.scaled(d)`` is ``m @ diag(d)`` and ``m.scaled(d[:, None])`` is
        ``diag(d) @ m``, without forming the diagonal matrix.
        """
        return CDD(*_dd_mul(self.hi, self.lo, d.hi, d.lo))

    def __sub__(self, other: "CDD") -> "CDD":
        """Difference of two arrays of the same shape."""
        return CDD(*_dd_add(self.hi, self.lo, -other.hi, -other.lo))

    def matmul(self, other: "CDD") -> "CDD":
        """Dense product, accumulated in double-double, of 2-d arrays or of
        stacks of them: ``(*batch, n, k) @ (*batch, k, m)`` multiplies
        member by member, and each member's product has the bits of its
        2-d product.

        The outer products of column j and row j are added in order of j.
        Those of a block of columns are formed in one stacked complex
        product of shape (2, block, *batch, n, m), with at most
        :data:`_OUTER_PRODUCT_BUDGET` elements per (re, im) part.
        """
        *batch, n, k = self.shape
        *batch2, k2, m = other.shape
        if k != k2 or batch != batch2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = (2, *batch, n, m)
        block = max(1, _OUTER_PRODUCT_BUDGET // max(1, math.prod(out[1:])))
        # column j of self as a (*batch, n, 1) slab and row j of other as a
        # (*batch, 1, m) slab, with j on axis 1; copied to C order, since
        # strided slabs (of a conj_t, say) slow a stack down twofold
        ahi, alo = (np.ascontiguousarray(np.moveaxis(x, -1, 1))[..., None]
                    for x in (self.hi, self.lo))
        bhi, blo = (np.ascontiguousarray(np.moveaxis(x, -2, 1))[..., None, :]
                    for x in (other.hi, other.lo))
        hi, lo = np.zeros(out), np.zeros(out)
        for j in range(0, k, block):
            cols = slice(j, j + block)
            phi, plo = _cdd_mul(ahi[:, cols], alo[:, cols], bhi[:, cols], blo[:, cols])
            for t in range(phi.shape[1]):
                hi, lo = _dd_add(hi, lo, phi[:, t], plo[:, t])
        return CDD(hi, lo)


def _refinement_stops(size: float, last: float) -> bool:
    """Whether refinement stops after a correction of relative ``size``
    (already added to ``x``) that followed one of relative ``last``: at the
    resolution; when it shrank and the next, extrapolated as ``size**2 /
    last``, would be at the resolution (Demmel et al., ACM TOMS 32, 2006);
    or when it stalled below the stall limit.  Raises ValueError when it
    stops unconverged (also for a NaN size)."""
    if size <= _REFINE_RESOLUTION:
        return True
    if size <= _REFINE_SHRINK * last:
        return size * size / last <= _REFINE_RESOLUTION
    if size <= _REFINE_STALL_LIMIT:
        return True
    raise ValueError(f"cdd_solve: refinement stopped converging at a relative correction "
                     f"of {size:.1e}; the matrix is too ill-conditioned for binary64 LU")


def cdd_solve(a: CDD, b: CDD) -> CDD:
    """Solve a @ x = b in complex double-double by iterative refinement.

    ``a`` rounded to complex128 is solved in binary64 (``np.linalg.solve``)
    for a first ``x`` and then for each correction, against the residual
    ``b - a @ x`` formed in double-double; each correction is added to
    ``x`` in double-double (Moler, JACM 14, 1967; Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 12).  A step shrinks
    the error by about ``cond(a) * n * eps``; while that is well below one,
    ``x`` converges to about ``cond(a) * n * 2**-104`` relative.  The
    columns of a 2-d ``b`` share one stopping rule (:func:`_refinement_stops`,
    on the largest column's correction relative to that column of ``x``):
    it stops once the next correction, shrunk by the ratio of the last two,
    would be at most ``2**-100`` of ``x``, which is two steps (two dd
    products) for ``cond(a)`` from about 1e3 to 1e6.  Each step that goes
    on at least halves the correction, so there are at most ~100.

    Raises
    ------
    ValueError
        If ``a`` is not square, if ``b`` does not have one row per row of
        ``a``, or if the refinement does not converge (``a`` too
        ill-conditioned for binary64 LU: ``cond(a) * n * eps`` near one).
    ZeroDivisionError
        If the binary64 LU of ``a`` meets an exactly zero pivot.
    """
    n, n2 = a.shape
    if n != n2:
        raise ValueError("coefficient matrix must be square")
    if b.shape[:1] != (n,):
        raise ValueError(f"right-hand side of shape {b.shape} does not fit "
                         f"a coefficient matrix of shape {a.shape}")
    vector = len(b.shape) == 1
    b2 = b[:, None] if vector else b
    a64 = a.to_complex()
    try:
        x = CDD.from_complex(np.linalg.solve(a64, b2.to_complex()))
    except np.linalg.LinAlgError:  # the loop's solves repeat this LU
        raise ZeroDivisionError("singular matrix in cdd_solve") from None
    last = 1.0  # the first x is the correction of x = 0
    while True:
        d = CDD.from_complex(np.linalg.solve(a64, (b2 - a.matmul(x)).to_complex())).hi
        x = CDD(*_dd_add(x.hi, x.lo, d, 0.0))
        dn, xn = ((np.abs(z[0]) + np.abs(z[1])).max(axis=0) for z in (d, x.hi))
        # a zero column of x has a zero correction
        size = float(np.divide(dn, xn, out=np.zeros_like(dn), where=dn > 0.0).max(initial=0.0))
        if _refinement_stops(size, last):
            return x[:, 0] if vector else x
        last = size


def dd_from_decimal(values) -> DD:
    """Round each ``Decimal`` to double-double: ``hi`` is the nearest
    binary64 to the value and ``lo`` the nearest binary64 to the exact
    remainder, so ``hi + lo`` is within ``2**-106 |hi|`` of the value
    (for magnitudes above about 2e-292, where the remainder is normal)."""
    hi, lo = [], []
    for v in values:
        hi.append(float(v))
        lo.append(float(Fraction(v) - Fraction(hi[-1])))
    return DD(np.array(hi), np.array(lo))


def dd_to_decimal_string(x: DD, digits: int = 32) -> str:
    """Format a dd scalar with the requested number of significant digits
    (half to even), in a decimal context of its own: the caller's context
    is left as it was."""
    with localcontext(Context(prec=digits + 10, rounding=ROUND_HALF_EVEN)):
        total = Decimal(float(x.hi)) + Decimal(float(x.lo))
        if not total.is_finite():
            raise ValueError(f"cannot format the non-finite dd value {total}")
        mant, exp10 = f"{total:.{digits - 1}e}".split("e")
    if total == 0:
        return "0." + "0" * (digits - 1) + "e+00"
    return f"{mant}e{int(exp10):+03d}"
