"""Kronecker structure prediction and verification for the pencil families.

The canonical form of every pencil built in :mod:`pencilsvd.pencils` is known
in closed form from the decomposition structure of the inputs: a square zero
block for common null directions, nilpotent blocks ``N_k`` at infinity,
Jordan blocks ``J_2(0)`` at zero, and simple eigenvalues ``+-sqrt(sigma)``,
``+-i sqrt(sigma)`` (or ``+-sigma`` for the classical augmented forms).

This module predicts those block multisets from rank data, and the
spectrum counts they give straight from each formulation's layout
(:func:`eigenvalue_counts`, with no blocks built); it provides the
explicit 4x4 reductions for a single singular value, and replays the full
block-diagonalizing transformation chain (diagonal congruence, block
permutation, per-sigma 4x4 reduction) on concrete matrices, reporting how
far the result is from the predicted canonical form.

General minimal-index extraction for arbitrary singular pencils is out of
scope: only structures arising from the supported formulations are handled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .eigensolve import (
    CLASS_FINITE,
    CLASS_INDETERMINATE,
    CLASS_INFINITE,
    CLASS_ZERO,
    EigenSolution,
)
from .matcore import rank_with_tol
from .pencils import (FORMULATIONS, Pencil, _checked, build_cpf_rsvd, generic_pencil,
                      problem_kind)

KIND_ZERO_BLOCK = "zero-block"
KIND_N = "n-infinite"
KIND_J = "j-finite"

# triplet classes (alpha, beta, gamma) of De Moor & Golub (SIMAX 12(3), 1991):
# regular ones carry a finite nonzero sigma, the others are backed by blocks
TRIPLET_REGULAR = "regular"
TRIPLET_110 = "one-one-zero"
TRIPLET_101 = "one-zero-one"
TRIPLET_100 = "one-zero-zero"
TRIPLET_011 = "zero-one-one"
TRIPLET_TRIVIAL = "trivial"


class PartitionError(ValueError):
    """Numerical ranks are inconsistent with any valid structure."""


@dataclass(frozen=True)
class KcfBlock:
    """One square canonical block of order ``size``: a zero block, ``N_k``
    at infinity or ``J_k(eigenvalue)``."""

    kind: str
    size: int
    eigenvalue: complex | None = None

    def __post_init__(self):
        if self.kind not in (KIND_ZERO_BLOCK, KIND_N, KIND_J):
            raise ValueError(f"unknown canonical block kind {self.kind!r}")


@dataclass(frozen=True)
class KcfStructure:
    """Multiset of canonical blocks for a pencil of the given order, and
    the spectrum counts of :func:`eigenvalue_counts` (which the blocks fix,
    so they stay out of the hash)."""

    blocks: tuple[KcfBlock, ...]
    order: int
    counts: dict[str, int] = field(hash=False)

    def __post_init__(self):
        if sum(b.size for b in self.blocks) != self.order:
            raise ValueError("block sizes do not sum to the pencil order")


# -- structure partitions ----------------------------------------------------


class _Partition:
    """Base of the structure partitions, frozen dataclasses of nonnegative
    counts.  ``COUPLED`` pairs each coupled count with the free count it
    must equal, so the free counts fix a partition (:meth:`of`).  The input
    sizes ``p``, ``q`` (and ``m``, ``n`` where the class has those counts)
    are the sums of the counts of their letter, set once and kept out of
    ``==``, ``hash`` and ``repr``."""

    def __post_init__(self):
        for coupled, free in self.COUPLED:
            got, want = getattr(self, coupled), getattr(self, free)
            if got != want:
                raise PartitionError(f"coupling {coupled} = {got} != {free} = {want}")
        sizes = {}
        for name, count in vars(self).items():  # only the fields so far, in order
            if count < 0:
                raise PartitionError(f"derived count {name} is negative ({count}); "
                                     "ranks inconsistent")
            sizes[name[0]] = sizes.get(name[0], 0) + count
        for size, total in sizes.items():  # not fields, and the dataclass is frozen
            object.__setattr__(self, size, total)

    @classmethod
    def of(cls, **free):
        """The partition of the given free counts, its coupled ones filled in."""
        return cls(**free, **{coupled: free[f] for coupled, f in cls.COUPLED})


@dataclass(frozen=True)
class SvdPartition(_Partition):
    """Ordinary SVD sizes: p1 = rank, p2/q2 the row/column deficiencies."""

    COUPLED = (("q1", "p1"),)
    p1: int
    p2: int
    q1: int
    q2: int


@dataclass(frozen=True)
class QsvdPartition(_Partition):
    """Quotient SVD sizes."""

    COUPLED = (("q3", "p1"), ("n2", "p1"), ("n1", "q2"), ("q4", "p2"))
    p1: int
    p2: int
    p3: int
    q1: int
    q2: int
    q3: int
    q4: int
    n1: int
    n2: int
    n3: int


@dataclass(frozen=True)
class RsvdPartition(_Partition):
    """Restricted SVD sizes; the six ranks they derive from are sums of them."""

    COUPLED = (("q3", "p1"), ("q4", "p2"), ("q5", "p3"), ("q6", "p4"), ("n1", "q2"),
               ("m4", "p5"), ("n2", "p1"), ("m1", "p1"), ("n3", "p3"), ("m2", "p2"))
    p1: int
    p2: int
    p3: int
    p4: int
    p5: int
    p6: int
    q1: int
    q2: int
    q3: int
    q4: int
    q5: int
    q6: int
    m1: int
    m2: int
    m3: int
    m4: int
    n1: int
    n2: int
    n3: int
    n4: int


_PARTITIONS = {"svd": SvdPartition, "qsvd": QsvdPartition, "rsvd": RsvdPartition}


def svd_partition(p: int, q: int, rank: int) -> SvdPartition:
    return SvdPartition.of(p1=rank, p2=p - rank, q2=q - rank)


def qsvd_partition_from_ranks(p: int, q: int, n: int, r_a: int, r_c: int,
                              r_ac: int) -> QsvdPartition:
    return QsvdPartition.of(p1=r_a + r_c - r_ac, p2=r_ac - r_c, p3=p - r_a,
                            q1=q - r_ac, q2=r_ac - r_a, n3=n - r_c)


def partition_from_ranks(p: int, q: int, m: int, n: int,
                         r_a: int, r_b: int, r_c: int,
                         r_ab: int, r_ac: int, r_abc: int) -> RsvdPartition:
    """Restricted-problem partition from the six ranks of A, B, C,
    [A B], [A; C] and [A B; C 0]."""
    return RsvdPartition.of(
        p1=r_abc + r_a - r_ab - r_ac, p2=r_ac + r_b - r_abc, p3=r_ab + r_c - r_abc,
        p4=r_abc - r_b - r_c, p5=r_ab - r_a, p6=p - r_ab,
        q1=q - r_ac, q2=r_ac - r_a, m3=m - r_b, n4=n - r_c)


def input_dims(partition) -> tuple[int, ...]:
    """Input sizes (p, q), (p, q, n) or (p, q, m, n) of a partition."""
    return tuple(getattr(partition, d) for d in "pqmn" if hasattr(partition, d))


def partition_for(a, b=None, c=None):
    """Partition of A (svd), (A, C) (qsvd) or (A, B, C) (rsvd) from the
    numerical ranks of the inputs.  The inputs pass the pencil builders'
    checks (:func:`pencilsvd.pencils._checked`): B without C, an input that
    is not a finite matrix, or shapes that do not fit raise ValueError."""
    def rank(m):
        return rank_with_tol(m).rank

    kind = problem_kind(b, c)
    a, b, c = _checked(a, b, c)
    p, q = a.shape
    if kind == "svd":
        return svd_partition(p, q, rank(a))
    n = c.shape[0]
    if kind == "qsvd":
        return qsvd_partition_from_ranks(p, q, n, rank(a), rank(c),
                                         rank(np.vstack([a, c])))
    m = b.shape[1]
    return partition_from_ranks(
        p, q, m, n, rank(a), rank(b), rank(c),
        rank(np.hstack([a, b])), rank(np.vstack([a, c])),
        rank(np.block([[a, b], [c, np.zeros((n, m), dtype=complex)]])))


# -- canonical layouts ---------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    """Canonical layout of one formulation; counts are sums of partition fields.

    ``block_rows`` are the fields giving the sizes of the pencil's block
    rows (their sum is its order), ``groups`` the canonical blocks ahead of
    the sigma part as ``(block kind, block size, count fields, triplet
    class)``, in canonical order; the count is also that of the triplets of
    the class the blocks back (the aug pencils, of order p+q, have no blocks
    for those counted by ``n3``, ``m3`` and ``n4``).  The cpf formulations
    also carry their transformation chain: ``factors`` of the diagonal
    congruence (one per block row) and the permutations ``perm_x``/``perm_y``
    (1-indexed) of the blocks of :func:`_chain_sizes`.
    """

    block_rows: str
    groups: tuple[tuple[str, int, str, str], ...]
    factors: str = ""
    perm_x: tuple[int, ...] = ()
    perm_y: tuple[int, ...] = ()


_LAYOUTS = {
    "aug-svd": _Layout("p q", ((KIND_J, 1, "p2 q2", TRIPLET_011),)),
    "aug-qsvd": _Layout("p q", ((KIND_ZERO_BLOCK, 1, "q1", TRIPLET_TRIVIAL),
                                (KIND_N, 2, "p2", TRIPLET_110),
                                (KIND_J, 1, "p3 q2", TRIPLET_011))),
    "aug-rsvd": _Layout("p q", ((KIND_ZERO_BLOCK, 1, "p6 q1", TRIPLET_TRIVIAL),
                                (KIND_N, 1, "p4 q6", TRIPLET_100),
                                (KIND_N, 2, "p2", TRIPLET_110), (KIND_N, 2, "p3", TRIPLET_101),
                                (KIND_J, 1, "p5 q2", TRIPLET_011))),
    "cpf-svd": _Layout(
        "p q p q", ((KIND_J, 2, "p2", TRIPLET_011), (KIND_J, 2, "q2", TRIPLET_011)),
        factors="u v u v",
        perm_x=(2, 6, 4, 8, 1, 3, 5, 7), perm_y=(6, 2, 8, 4, 1, 3, 5, 7)),
    "cpf-qsvd": _Layout(
        "p q p n", ((KIND_ZERO_BLOCK, 1, "q1", TRIPLET_TRIVIAL), (KIND_N, 1, "n3", TRIPLET_100),
                    (KIND_N, 3, "p2", TRIPLET_110), (KIND_J, 2, "p3", TRIPLET_011),
                    (KIND_J, 2, "q2", TRIPLET_011)),
        factors="u y u v",
        perm_x=(4, 13, 7, 9, 2, 3, 10, 5, 11, 1, 6, 8, 12),
        perm_y=(4, 13, 2, 9, 7, 10, 3, 11, 5, 1, 6, 8, 12)),
    "cpf-rsvd": _Layout(
        "p q m n", ((KIND_ZERO_BLOCK, 1, "p6 q1", TRIPLET_TRIVIAL),
                    (KIND_N, 1, "p4 q6 m3 n4", TRIPLET_100),
                    (KIND_N, 3, "p2", TRIPLET_110), (KIND_N, 3, "p3", TRIPLET_101),
                    (KIND_J, 2, "p5", TRIPLET_011), (KIND_J, 2, "q2", TRIPLET_011)),
        factors="x y u v",
        perm_x=(6, 7, 12, 4, 15, 20, 10, 14, 2, 3, 19, 11, 5, 16, 8, 17, 1, 9, 13, 18),
        perm_y=(6, 7, 4, 12, 15, 20, 2, 14, 10, 11, 19, 3, 16, 5, 17, 8, 1, 9, 13, 18)),
}


def _fields(partition, names: str) -> list[int]:
    return [getattr(partition, name) for name in names.split()]


def _chain_sizes(layout: _Layout, partition) -> list[int]:
    """Sizes of the blocks the chain permutes: each block row expands to the
    partition's fields of its letter, in field order."""
    return [getattr(partition, f.name) for row in layout.block_rows.split()
            for f in fields(partition) if f.name[0] == row]


def _groups(layout: _Layout, partition):
    """``(block kind, block size, count)`` of each group ahead of the sigma part."""
    return [(kind, size, sum(_fields(partition, names)))
            for kind, size, names, _ in layout.groups]


def _layout(formulation: str, partition) -> _Layout:
    """The formulation's layout; ``ValueError`` for a formulation without
    one or a partition of another kind than the formulation's."""
    layout = _LAYOUTS.get(formulation)
    if layout is None:
        raise ValueError(f"no structure prediction for formulation {formulation!r}")
    want = _PARTITIONS[FORMULATIONS[formulation].kind]
    if not isinstance(partition, want):
        raise ValueError(f"formulation {formulation!r} needs a {want.__name__}, "
                         f"got {type(partition).__name__}")
    return layout


def triplet_counts(formulation: str, partition) -> Counter:
    """Triplets of each class that the formulation's canonical blocks ahead
    of the sigma part back, read from its layout (0 for a class without
    blocks).  An unknown formulation, or a partition of another kind than
    the formulation's, raises ``ValueError``."""
    counts = Counter()
    for _, _, names, triplet in _layout(formulation, partition).groups:
        counts[triplet] += sum(_fields(partition, names))
    return counts


# -- block multiset prediction ------------------------------------------------

# class of the values a block ahead of the sigma part gives, one per unit
# of its order (the layouts' J blocks are all J_k(0))
_BLOCK_CLASS = {KIND_N: CLASS_INFINITE, KIND_J: CLASS_ZERO,
                KIND_ZERO_BLOCK: CLASS_INDETERMINATE}


def eigenvalue_counts(formulation: str, partition) -> dict[str, int]:
    """Spectrum counts of the formulation's pencil, read from its layout:
    each ``N_k`` block gives k infinite values, each ``J_k(0)`` block k
    zeros, the zero block of order c gives c indeterminate pairs, and each
    sigma 4 finite values (2 for the augmented forms).  An unknown
    formulation, or a partition of another kind than the formulation's,
    raises ``ValueError``."""
    layout = _layout(formulation, partition)
    per_sigma = 4 if FORMULATIONS[formulation].family == "cpf" else 2
    counts = {CLASS_FINITE: per_sigma * partition.p1, CLASS_ZERO: 0, CLASS_INFINITE: 0,
              CLASS_INDETERMINATE: 0}
    for kind, size, count in _groups(layout, partition):
        counts[_BLOCK_CLASS[kind]] += size * count
    return counts


def predict_kcf(formulation: str, partition, sigmas=()) -> KcfStructure:
    """Predicted canonical block multiset for a pencil of the given kind.

    ``sigmas`` are the finite nonzero singular values (length p1); the
    classical augmented restricted form needs the per-sigma weights only
    for eigenvalue positions, which stay ``+-sigma`` regardless.  The
    partition must be of the formulation's kind (``SvdPartition`` for an
    svd formulation, and so on) and the sigmas finite and positive;
    ``ValueError`` otherwise.
    """
    layout = _layout(formulation, partition)
    sigmas = tuple(float(s) for s in sigmas)
    if len(sigmas) != partition.p1:
        raise ValueError(f"expected {partition.p1} singular values, got {len(sigmas)}")
    if not all(0.0 < s < np.inf for s in sigmas):  # NaN fails both comparisons
        raise ValueError(f"singular values must be finite and positive, got {sigmas}")
    blocks: list[KcfBlock] = []
    for kind, size, count in _groups(layout, partition):
        if kind == KIND_ZERO_BLOCK:
            # the singular part is one square zero block
            blocks += [KcfBlock(kind, count)] if count else []
        else:
            blocks += [KcfBlock(kind, size, 0j if kind == KIND_J else None)] * count
    if FORMULATIONS[formulation].family == "cpf":
        for s in sigmas:
            root = np.sqrt(complex(s))
            blocks += [KcfBlock(KIND_J, 1, complex(z))
                       for z in (root, -root, 1j * root, -1j * root)]
    else:
        blocks += [KcfBlock(KIND_J, 1, complex(z)) for s in sigmas for z in (s, -s)]
    dim = sum(_fields(partition, layout.block_rows))
    return KcfStructure(tuple(blocks), dim, eigenvalue_counts(formulation, partition))


# -- explicit 4x4 reductions ---------------------------------------------------

_I = 1j
# sign/phase unitaries diagonalizing the order-4 pencil at sigma = 1


_X_UNIT = 0.5 * np.array([
    [1, -1, -_I, _I],
    [1, -1, _I, -_I],
    [1, 1, 1, 1],
    [1, 1, -1, -1],
], dtype=complex)

_Y_UNIT = 0.5 * np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, -_I, _I],
    [1, -1, _I, -_I],
], dtype=complex)


@dataclass(frozen=True)
class LemmaReduction:
    """Reduction of one singular value's order-4 pencil (the 1x1
    ``cpf-rsvd`` pencil of ``([[alpha]], [[beta]], [[gamma]])``, row blocks
    ``(1, 1, 1, 1)``) to ``target`` = ``(D, I)``."""

    x: np.ndarray
    y: np.ndarray
    target: Pencil
    sigma: float
    residual_const: float
    residual_lambda: float


def _lemma_factors(alpha, beta, gamma):
    """``(sigma, x, y, D)`` of the order-4 reduction of :func:`lemma_reduce`."""
    if not all(0 < p < np.inf for p in (alpha, beta, gamma)):  # NaN fails both
        raise ValueError("lemma parameters must be positive and finite")
    sigma = alpha / (beta * gamma)
    root = np.sqrt(sigma)
    scale = sigma ** -0.25 * np.array([1.0 / beta, 1.0 / gamma, root, root])
    x = scale[:, None] * _X_UNIT
    y = scale[:, None] * _Y_UNIT
    d = np.diag([root, -root, 1j * root, -1j * root])
    return sigma, x, y, d


def lemma_reduce(alpha: float, beta: float = 1.0, gamma: float = 1.0) -> LemmaReduction:
    """Explicit transformations with Y* (lhs - lam rhs) X = D - lam I.

    ``D = diag(sqrt(sigma), -sqrt(sigma), i sqrt(sigma), -i sqrt(sigma))``
    with ``sigma = alpha / (beta * gamma)``; the quotient problem's
    reduction is the one with ``beta = 1``, the ordinary one's has
    ``beta = gamma = 1``.  The transformation composes
    the diagonal scaling ``sigma**(-1/4) diag(1/beta, 1/gamma, sqrt(sigma),
    sqrt(sigma))`` with fixed sign/phase unitaries; at sigma = beta =
    gamma = 1 it reduces to those unitaries alone.  Here the order-4 source
    pencil is built and both coefficient identities are verified entrywise
    before returning; :func:`verify_reduction` takes ``x``, ``y`` and ``D``
    from the same construction without them.  Parameters that are not
    positive and finite raise ``ValueError``.
    """
    sigma, x, y, d = _lemma_factors(alpha, beta, gamma)
    root = np.sqrt(sigma)
    source = build_cpf_rsvd([[alpha]], [[beta]], [[gamma]])
    const = y.conj().T @ source.lhs @ x
    lam = y.conj().T @ source.rhs @ x
    res_c = float(np.abs(const - d).max() / max(root, 1.0))
    res_l = float(np.abs(lam - np.eye(4)).max())
    target = generic_pencil(d, np.eye(4, dtype=complex))
    return LemmaReduction(x, y, target, sigma, res_c, res_l)


# -- full transformation chains -------------------------------------------------

def _block_permutation_indices(perm, sizes):
    """Column indices of the block permutation matrix [e_perm(1) ... e_perm(k)]."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    cols = []
    for j in perm:
        cols.extend(range(offsets[j - 1], offsets[j]))
    return np.array(cols, dtype=int)


def _canonical_pair(kind: str, size: int):
    """(lhs, rhs) of one canonical block: N_k is (I, nil), J_k(0) is (nil, I)."""
    nil = np.eye(size, size, 1)
    if kind == KIND_N:
        return np.eye(size), nil
    if kind == KIND_J:
        return nil, np.eye(size)
    return np.zeros((size, size)), np.zeros((size, size))


def _canonical_cpf_expected(layout, partition, d_alpha, d_beta, d_gamma):
    """Expected (lhs, rhs) after stages 0 and 1, built group by group."""
    parts = []  # (lhs_block, rhs_block)
    for kind, size, count in _groups(layout, partition):
        lhs, rhs = _canonical_pair(kind, size)
        parts.append((_kron_eye(lhs, count), _kron_eye(rhs, count)))
    # the sigma part is the cpf layout of the diagonal (alpha, beta, gamma)
    tail = build_cpf_rsvd(np.diag(d_alpha), np.diag(d_beta), np.diag(d_gamma))
    parts.append((tail.lhs, tail.rhs))
    lhs = _block_diag([a for a, _ in parts])
    rhs = _block_diag([b for _, b in parts])
    return lhs, rhs


def _kron_eye(block, count):
    """``np.kron(block, I_count)`` by index placement: entry (i, j) of
    ``block`` lands at (i*count + a, j*count + a) for each a < count."""
    k = block.shape[0]
    out = np.zeros((k * count, k * count), dtype=block.dtype)
    a = np.arange(count)
    out.reshape(k, count, k, count)[:, a, :, a] = block
    return out


def _block_diag(blocks):
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Off-structure magnitudes after each stage, absolute and scaled."""

    stage1_off: float
    stage2_off: float
    pencil_scale: float

    @property
    def off_structure(self) -> float:
        return max(self.stage1_off, self.stage2_off)

    @property
    def relative(self) -> float:
        return self.off_structure / self.pencil_scale


def verify_reduction(pencil: Pencil, formulation: str, partition,
                     u=None, v=None, x=None, y=None) -> VerificationReport:
    """Replay the block-diagonalizing transformation chain on a concrete pencil.

    Stage 0 applies the diagonal congruence built from the decomposition
    factors (``diag(U, V, U, V)`` for ordinary, ``diag(U, Y, U, V)`` for
    quotient, ``diag(X, Y, U, V)`` for restricted problems); stage 1 the
    exact block permutations; stage 2 the per-sigma 4x4 reductions.  The
    report carries the largest deviation from the predicted canonical
    form, checked separately for the constant and the lambda coefficient.
    A partition of another kind than the formulation's, a pencil whose
    order is not the sum of the partition's block rows, or a factor that is
    missing, of the wrong shape or not finite raises ValueError.
    """
    layout = _layout(formulation, partition)
    if not layout.factors:
        raise ValueError(f"no transformation chain for formulation {formulation!r}")
    sizes = _chain_sizes(layout, partition)
    given = dict(u=u, v=v, x=x, y=y)
    group_dims = _fields(partition, layout.block_rows)
    if pencil.lhs.shape[0] != sum(group_dims):
        raise ValueError(f"pencil of order {pencil.lhs.shape[0]} does not fit the partition's "
                         f"block rows {layout.block_rows} = {group_dims}")
    diag_factors = []
    for name, blk in zip(layout.factors.split(), group_dims):
        if given[name] is None:
            raise ValueError("missing decomposition factor")
        f = np.asarray(given[name], dtype=complex)
        if f.shape != (blk, blk):
            raise ValueError(f"factor shape {f.shape} does not match block size {blk}")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"factor {name} must not hold non-finite (NaN or Inf) entries")
        diag_factors.append(f)

    t = _block_diag(diag_factors)
    lhs1 = t.conj().T @ pencil.lhs @ t
    rhs1 = t.conj().T @ pencil.rhs @ t

    cols = _block_permutation_indices(layout.perm_x, sizes)
    rows = _block_permutation_indices(layout.perm_y, sizes)
    lhs2 = lhs1[np.ix_(rows, cols)]
    rhs2 = rhs1[np.ix_(rows, cols)]

    p1 = partition.p1
    k = lhs2.shape[0]
    f0 = k - 4 * p1
    d_alpha = np.real(np.diagonal(lhs2[f0:f0 + p1, f0 + p1:f0 + 2 * p1]))
    # the decomposition fixes which of beta, gamma are 1 (see lemma_reduce)
    kind = FORMULATIONS[formulation].kind
    if kind == "rsvd":
        d_beta = np.real(np.diagonal(rhs2[f0:f0 + p1, f0 + 2 * p1:f0 + 3 * p1]))
    else:
        d_beta = np.ones(p1)
    if kind == "svd":
        d_gamma = np.ones(p1)
    else:
        d_gamma = np.real(np.diagonal(rhs2[f0 + p1:f0 + 2 * p1, f0 + 3 * p1:]))

    exp_lhs, exp_rhs = _canonical_cpf_expected(layout, partition,
                                               d_alpha, d_beta, d_gamma)
    stage1 = max(np.abs(lhs2 - exp_lhs).max(initial=0.0),
                 np.abs(rhs2 - exp_rhs).max(initial=0.0))

    stage2 = 0.0
    for j in range(p1):
        idx = np.array([f0 + j, f0 + p1 + j, f0 + 2 * p1 + j, f0 + 3 * p1 + j])
        sub_l = lhs2[np.ix_(idx, idx)]
        sub_r = rhs2[np.ix_(idx, idx)]
        _, xj, yj, dj = _lemma_factors(d_alpha[j], d_beta[j], d_gamma[j])
        tl = yj.conj().T @ sub_l @ xj
        tr = yj.conj().T @ sub_r @ xj
        stage2 = max(stage2,
                     float(np.abs(tl - dj).max()),
                     float(np.abs(tr - np.eye(4)).max()))

    scale = max(np.linalg.norm(pencil.lhs, 2), np.linalg.norm(pencil.rhs, 2))
    return VerificationReport(float(stage1), float(stage2), float(scale))


@dataclass(frozen=True)
class CountsCheck:
    expected: dict
    observed: dict

    @property
    def ok(self) -> bool:
        return self.expected == self.observed

    def mismatches(self):
        return {k: (self.expected[k], self.observed[k])
                for k in self.expected if self.expected[k] != self.observed[k]}


def spectrum_counts_check(sol: EigenSolution, predicted: KcfStructure) -> CountsCheck:
    """Compare solver classification counts against a predicted structure."""
    return CountsCheck(predicted.counts, sol.counts())
