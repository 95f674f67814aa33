"""Shared test constructions: structured matrices with known partitions,
the chordal metric written in the reciprocals, the spectrum counts walked
from a block multiset that ``kcf.eigenvalue_counts`` must match, the
transformation-chain replay through ``lemma_reduce`` that
``verify_reduction`` must match, and the per-operator double-double
reference: real arithmetic (:class:`RefDD`), and on it the complex
arithmetic (:class:`RefCDD`) for the stacked kernels of
``pencilsvd.ddarith`` (with :func:`cdd_from_parts`, and :func:`cdd_diag`
for the diagonal matrices it multiplies by)."""

import math

import numpy as np

from pencilsvd.bench import chordal
from pencilsvd.ddarith import CDD, DD, _dd_add, _dd_mul, _quick_two_sum
from pencilsvd.eigensolve import CLASS_FINITE, CLASS_INDETERMINATE, CLASS_INFINITE, CLASS_ZERO
from pencilsvd.kcf import (
    _LAYOUTS,
    KIND_J,
    KIND_N,
    KIND_ZERO_BLOCK,
    QsvdPartition,
    RsvdPartition,
    VerificationReport,
    _block_diag,
    _block_permutation_indices,
    _canonical_cpf_expected,
    _chain_sizes,
    lemma_reduce,
    partition_from_ranks,
    qsvd_partition_from_ranks,
)
from pencilsvd.matcore import haar_unitary


def random_svd_counts(rng, max_count=2):
    """Free counts (p1, p2, q2) of A alone with p1 >= 1: rank, row and
    column deficiency."""
    c = rng.integers(0, max_count + 1, 3)
    return (int(c[0]) + 1,) + tuple(int(x) for x in c[1:])


def random_qsvd_counts(rng, max_count=2):
    """Free counts (p1, p2, p3, q1, q2, n3) with p1 >= 1."""
    c = rng.integers(0, max_count + 1, 6)
    return (int(c[0]) + 1,) + tuple(int(x) for x in c[1:])


def qsvd_partition_from_counts(p1, p2, p3, q1, q2, n3) -> QsvdPartition:
    return QsvdPartition(p1=p1, p2=p2, p3=p3, q1=q1, q2=q2, q3=p1, q4=p2,
                         n1=q2, n2=p1, n3=n3)


def svd_partition_from_counts(p1, p2, q2) -> QsvdPartition:
    """The partition of A alone: the quotient one of ``(A, I)``."""
    return qsvd_partition_from_counts(p1, 0, p2, 0, q2, 0)


def random_rsvd_counts(rng, max_count=2):
    """Free counts (p1..p6, q1, q2, m3, n4) with p1 >= 1."""
    c = rng.integers(0, max_count + 1, 10)
    return (int(c[0]) + 1,) + tuple(int(x) for x in c[1:])


def rsvd_partition_from_counts(p1, p2, p3, p4, p5, p6, q1, q2, m3, n4) -> RsvdPartition:
    r_a = p1 + p2 + p3 + p4
    r_b = p1 + p2 + p5
    r_c = p1 + q2 + p3
    r_ab = r_a + p5
    r_ac = r_a + q2
    r_abc = p4 + r_b + r_c
    p = p1 + p2 + p3 + p4 + p5 + p6
    q = q1 + q2 + p1 + p2 + p3 + p4
    m = p1 + p2 + m3 + p5
    n = q2 + p1 + p3 + n4
    return partition_from_ranks(p, q, m, n, r_a, r_b, r_c, r_ab, r_ac, r_abc)


def canonical_qsvd_matrices(part: QsvdPartition, sigmas):
    """Canonical (A0, C0) pair realizing the partition with the given sigmas."""
    sigmas = np.asarray(sigmas, dtype=float)
    assert sigmas.size == part.p1
    alpha = sigmas / np.sqrt(1 + sigmas**2)
    gamma = 1 / np.sqrt(1 + sigmas**2)
    a0 = np.zeros((part.p, part.q), dtype=complex)
    c0 = np.zeros((part.n, part.q), dtype=complex)
    co = np.cumsum([0, part.q1, part.q2, part.q3])
    a0[:part.p1, co[2]:co[2] + part.q3] = np.diag(alpha)
    a0[part.p1:part.p1 + part.p2, co[3]:co[3] + part.q4] = np.eye(part.p2)
    c0[:part.n1, co[1]:co[1] + part.q2] = np.eye(part.n1)
    c0[part.n1:part.n1 + part.n2, co[2]:co[2] + part.q3] = np.diag(gamma)
    return a0, c0


def canonical_rsvd_matrices(part: RsvdPartition, sigmas):
    """Canonical (Sigma_alpha, Sigma_beta, Sigma_gamma) realizing the partition."""
    sigmas = np.asarray(sigmas, dtype=float)
    assert sigmas.size == part.p1
    alpha = sigmas / np.sqrt(1 + sigmas**2)
    gamma = 1 / np.sqrt(1 + sigmas**2)
    sa = np.zeros((part.p, part.q), dtype=complex)
    sb = np.zeros((part.p, part.m), dtype=complex)
    sg = np.zeros((part.n, part.q), dtype=complex)
    ro = np.cumsum([0, part.p1, part.p2, part.p3, part.p4, part.p5])
    co = np.cumsum([0, part.q1, part.q2, part.q3, part.q4, part.q5])
    cm = np.cumsum([0, part.m1, part.m2, part.m3])
    rn = np.cumsum([0, part.n1, part.n2, part.n3])
    sa[ro[0]:ro[0] + part.p1, co[2]:co[2] + part.q3] = np.diag(alpha)
    sa[ro[1]:ro[1] + part.p2, co[3]:co[3] + part.q4] = np.eye(part.p2)
    sa[ro[2]:ro[2] + part.p3, co[4]:co[4] + part.q5] = np.eye(part.p3)
    sa[ro[3]:ro[3] + part.p4, co[5]:co[5] + part.q6] = np.eye(part.p4)
    sb[ro[0]:ro[0] + part.p1, cm[0]:cm[0] + part.m1] = np.eye(part.p1)
    sb[ro[1]:ro[1] + part.p2, cm[1]:cm[1] + part.m2] = np.eye(part.p2)
    sb[ro[4]:ro[4] + part.p5, cm[3]:cm[3] + part.m4] = np.eye(part.p5)
    sg[rn[0]:rn[0] + part.n1, co[1]:co[1] + part.q2] = np.eye(part.n1)
    sg[rn[1]:rn[1] + part.n2, co[2]:co[2] + part.q3] = np.diag(gamma)
    sg[rn[2]:rn[2] + part.n3, co[4]:co[4] + part.q5] = np.eye(part.n3)
    return sa, sb, sg


def assembled_qsvd_pair(part: QsvdPartition, sigmas, rng):
    """(A, C, U, V, Y) with A = U A0 Y^-1, C = V C0 Y^-1, Haar factors."""
    a0, c0 = canonical_qsvd_matrices(part, sigmas)
    u = haar_unitary(part.p, rng) if part.p else np.zeros((0, 0), dtype=complex)
    v = haar_unitary(part.n, rng) if part.n else np.zeros((0, 0), dtype=complex)
    yq = haar_unitary(part.q, rng) if part.q else np.zeros((0, 0), dtype=complex)
    yinv = yq.conj().T
    return u @ a0 @ yinv, v @ c0 @ yinv, u, v, yq


def assembled_rsvd_triplet(part: RsvdPartition, sigmas, rng):
    """(A, B, C, U, V, X, Y) per the restricted factorization, Haar factors."""
    sa, sb, sg = canonical_rsvd_matrices(part, sigmas)
    x = haar_unitary(part.p, rng) if part.p else np.zeros((0, 0), dtype=complex)
    yq = haar_unitary(part.q, rng) if part.q else np.zeros((0, 0), dtype=complex)
    u = haar_unitary(part.m, rng) if part.m else np.zeros((0, 0), dtype=complex)
    v = haar_unitary(part.n, rng) if part.n else np.zeros((0, 0), dtype=complex)
    xict = x  # unitary: X^-* = X
    yinv = yq.conj().T
    a = xict @ sa @ yinv
    b = xict @ sb @ u.conj().T
    c = v @ sg @ yinv
    return a, b, c, u, v, x, yq


# free counts of rank-structured inputs whose cpf and aug pencils have a
# singular part: qsvd (p1, p2, p3, q1, q2, n3), rsvd (p1..p6, q1, q2, m3, n4)
DEFLATING_COUNTS = (
    ("qsvd", (2, 1, 1, 1, 1, 1)),
    ("qsvd", (1, 0, 0, 2, 0, 0)),
    ("qsvd", (2, 2, 1, 1, 2, 2)),
    ("qsvd", (3, 1, 0, 1, 1, 0)),
    ("rsvd", (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("rsvd", (2, 0, 1, 0, 1, 0, 1, 0, 1, 0)),
    ("rsvd", (1, 0, 0, 0, 0, 2, 0, 0, 0, 0)),
    ("rsvd", (2, 1, 0, 1, 0, 1, 2, 1, 0, 1)),
)


def structured_problem(kind, counts, rng):
    """``(partition, sigmas, inputs, factors)`` of a rank-structured svd,
    qsvd or rsvd problem with Haar factors and sigmas spread over [0.5, 2];
    ``inputs`` maps "a", "b", "c" to the matrices, ``factors`` holds the
    keyword arguments of ``verify_reduction``.  An svd problem is A alone,
    whose partition is the quotient one of ``(A, I)``: ``A = U A0 V*`` with
    the null columns first, the qsvd chain's block order, and ``Y = V``."""
    if kind == "svd":
        p1, p2, q2 = counts
        part = svd_partition_from_counts(*counts)
        sigmas = np.linspace(0.5, 2.0, p1)
        a0 = np.zeros((part.p, part.q))
        a0[:p1, q2:] = np.diag(sigmas)
        u, v = haar_unitary(part.p, rng), haar_unitary(part.q, rng)
        return part, sigmas, {"a": u @ a0 @ v.conj().T}, {"u": u, "v": v, "y": v}
    if kind == "qsvd":
        part = qsvd_partition_from_counts(*counts)
        sigmas = np.linspace(0.5, 2.0, part.p1)
        a, c, u, v, y = assembled_qsvd_pair(part, sigmas, rng)
        return part, sigmas, {"a": a, "c": c}, {"u": u, "v": v, "y": y}
    part = rsvd_partition_from_counts(*counts)
    sigmas = np.linspace(0.5, 2.0, part.p1)
    a, b, c, u, v, x, y = assembled_rsvd_triplet(part, sigmas, rng)
    return part, sigmas, {"a": a, "b": b, "c": c}, {"u": u, "v": v, "x": x, "y": y}


def ref_eigenvalue_counts(structure) -> dict[str, int]:
    """Spectrum counts walked from a predicted block multiset: N sizes at
    infinity, J(0) sizes at zero, other J sizes finite and zero blocks as
    indeterminate pairs; ``kcf.eigenvalue_counts`` must equal them."""
    counts = {CLASS_FINITE: 0, CLASS_ZERO: 0, CLASS_INFINITE: 0, CLASS_INDETERMINATE: 0}
    for b in structure.blocks:
        if b.kind == KIND_N:
            counts[CLASS_INFINITE] += b.size
        elif b.kind == KIND_J:
            counts[CLASS_ZERO if b.eigenvalue == 0 else CLASS_FINITE] += b.size
        elif b.kind == KIND_ZERO_BLOCK:
            counts[CLASS_INDETERMINATE] += b.size
    return counts


def ref_verify_reduction(pencil, formulation, partition, **factors):
    """``verify_reduction`` with stage 2 through :func:`lemma_reduce`: per
    sigma, the order-4 cpf pencil and its reduction are built and the reduced
    blocks are compared with ``target``.  Its report must equal the
    library's bit for bit."""
    layout = _LAYOUTS[formulation]
    t = _block_diag([np.asarray(factors[name], dtype=complex)
                     for name in layout.factors.split()])
    sizes = _chain_sizes(layout, partition)
    cols = _block_permutation_indices(layout.perm_x, sizes)
    rows = _block_permutation_indices(layout.perm_y, sizes)
    lhs = (t.conj().T @ pencil.lhs @ t)[np.ix_(rows, cols)]
    rhs = (t.conj().T @ pencil.rhs @ t)[np.ix_(rows, cols)]

    p1 = partition.p1
    f0 = lhs.shape[0] - 4 * p1
    at = [f0 + i * p1 for i in range(4)]
    d_alpha = np.real(np.diagonal(lhs[at[0]:at[1], at[1]:at[2]]))
    d_beta = np.ones(p1)
    if formulation == "cpf-rsvd":
        d_beta = np.real(np.diagonal(rhs[at[0]:at[1], at[2]:at[3]]))
    d_gamma = np.real(np.diagonal(rhs[at[1]:at[2], at[3]:]))
    exp_lhs, exp_rhs = _canonical_cpf_expected(layout, partition, d_alpha, d_beta, d_gamma)
    stage1 = max(np.abs(lhs - exp_lhs).max(initial=0.0),
                 np.abs(rhs - exp_rhs).max(initial=0.0))

    stage2 = 0.0
    for j in range(p1):
        idx = np.array(at) + j
        red = lemma_reduce(d_alpha[j], d_beta[j], d_gamma[j])
        tl = red.y.conj().T @ lhs[np.ix_(idx, idx)] @ red.x
        tr = red.y.conj().T @ rhs[np.ix_(idx, idx)] @ red.x
        stage2 = max(stage2, float(np.abs(tl - red.target.lhs).max()),
                     float(np.abs(tr - red.target.rhs).max()))
    scale = max(np.linalg.norm(pencil.lhs, 2), np.linalg.norm(pencil.rhs, 2))
    return VerificationReport(float(stage1), float(stage2), float(scale))


def chordal_reciprocal(sigma: float, approx: float) -> float:
    """The chordal metric written in the reciprocals; agrees with ``chordal``."""
    if sigma == 0 and approx == 0:
        return 0.0
    if sigma == 0 or approx == 0:
        return chordal(approx, sigma) if sigma == 0 else chordal(sigma, approx)
    return abs(1.0 / sigma - 1.0 / approx) / (
        math.hypot(1.0, 1.0 / sigma) * math.hypot(1.0, 1.0 / approx))


def cdd_from_parts(re: DD, im: DD) -> CDD:
    """Complex dd array of its real and imaginary parts, dd arrays of one shape."""
    return CDD(np.stack([re.hi, im.hi]), np.stack([re.lo, im.lo]))


def cdd_diag(values: DD) -> CDD:
    """Complex dd diagonal matrix of a real dd vector: the product with it
    is the reference for ``CDD.scaled``."""
    zero = np.zeros((values.shape[0],) * 2)
    return cdd_from_parts(DD(np.diag(values.hi), np.diag(values.lo)), DD(zero, zero))


def _dd_div(ahi, alo, bhi, blo):
    """Double-double quotient from three binary64 quotient digits."""
    q1 = ahi / bhi
    phi, plo = _dd_mul(bhi, blo, q1, 0.0)
    rhi, rlo = _dd_add(ahi, alo, -phi, -plo)
    q2 = rhi / bhi
    phi, plo = _dd_mul(bhi, blo, q2, 0.0)
    rhi, rlo = _dd_add(rhi, rlo, -phi, -plo)
    q3 = rhi / bhi
    s, e = _quick_two_sum(q1, q2)
    return _dd_add(s, e, q3, 0.0)


def _as_ref(x) -> DD:
    return x if isinstance(x, DD) else RefDD(x)


class RefDD(DD):
    """Real dd array with the arithmetic operators, one real dd operation
    per operator on the formulas of ``pencilsvd.ddarith``; the other operand
    may be any :class:`DD` or a float array."""

    __slots__ = ()

    @classmethod
    def of(cls, x: DD) -> "RefDD":
        return cls(x.hi.copy(), x.lo.copy())

    def __getitem__(self, key):
        return RefDD(self.hi[key], self.lo[key])

    def __neg__(self):
        return RefDD(-self.hi, -self.lo)

    def __add__(self, other):
        other = _as_ref(other)
        return RefDD(*_dd_add(self.hi, self.lo, other.hi, other.lo))

    def __sub__(self, other):
        other = _as_ref(other)
        return RefDD(*_dd_add(self.hi, self.lo, -other.hi, -other.lo))

    def __mul__(self, other):
        other = _as_ref(other)
        return RefDD(*_dd_mul(self.hi, self.lo, other.hi, other.lo))

    def __truediv__(self, other):
        other = _as_ref(other)
        return RefDD(*_dd_div(self.hi, self.lo, other.hi, other.lo))


class RefCDD:
    """Complex dd array as a (re, im) pair of RefDD arrays, every complex
    operation spelled out one real dd operation at a time.

    The reference that :func:`ref_cdd_solve` and :meth:`RefCDD.matmul`
    build on; the stacked products of ``pencilsvd.ddarith`` must match it
    bit for bit, and its refined ``cdd_solve`` must agree with
    :func:`ref_cdd_solve` to about ``cond(a) * n * 2**-104``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RefDD, im: RefDD):
        self.re = re
        self.im = im

    @classmethod
    def of(cls, z: CDD) -> "RefCDD":
        return cls(RefDD.of(z.re), RefDD.of(z.im))

    @classmethod
    def zeros(cls, shape):
        return cls(RefDD(np.zeros(shape)), RefDD(np.zeros(shape)))

    @property
    def shape(self):
        return self.re.shape

    def parts(self):
        return (self.re.hi, self.re.lo, self.im.hi, self.im.lo)

    def copy(self):
        return RefCDD(RefDD.of(self.re), RefDD.of(self.im))

    def __getitem__(self, key):
        return RefCDD(self.re[key], self.im[key])

    def __setitem__(self, key, value):
        for dst, src in zip(self.parts(), value.parts()):
            dst[key] = src

    def conj(self):
        return RefCDD(RefDD.of(self.re), -self.im)

    def abs2(self) -> DD:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        return RefCDD(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefCDD(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return RefCDD(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        d = other.abs2()
        num = self * other.conj()
        return RefCDD(num.re / d, num.im / d)

    def matmul(self, other: "RefCDD") -> "RefCDD":
        """Dense product of 2-d arrays, one column outer product at a time."""
        n, k = self.shape
        _, m = other.shape
        out = RefCDD.zeros((n, m))
        for j in range(k):
            # outer product of column j and row j, broadcast (n, 1) * (1, m)
            out = out + self[:, j:j + 1] * other[j:j + 1, :]
        return out


def ref_cdd_solve(a: RefCDD, b: RefCDD) -> RefCDD:
    """LU with partial pivoting in double-double, operator by operator, on
    separate copies of the coefficient matrix and the right-hand sides: the
    oracle for ``cdd_solve`` and for the quotient generator's matrices."""
    n = a.shape[0]
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
            for arr in lu.parts() + x.parts():
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
            s = RefCDD.zeros(acc.shape)
            for j in range(prod.shape[0]):
                s = s + prod[j, :]
            acc = acc - s
        x[k, :] = acc / lu[k, k]
    return x[:, 0] if vector else x
