"""Recover singular values/vectors from cross-product-free pencil spectra.

Each finite nonzero singular value sigma contributes the eigenvalue
quadruple ``+-sqrt(sigma), +-i*sqrt(sigma)``.  Computed quadruple members
do not agree in magnitude to full accuracy, so sigma is estimated by the
squared absolute geometric mean ``(|l1| |l2| |l3| |l4|)**(1/2)`` of the
magnitudes sorted in ascending order.

Grouping puts each value in the class of its nearest quarter turn,
``rint(angle / (pi/2)) mod 4``, sorts each class by magnitude and joins
the j-th value of every class into quadruple j.  The checks are structural
only: ``GroupingError`` is raised when the count is not a multiple of 4, a
value is zero or not finite, or the four classes differ in size.  Each
quadruple's phase residual (the spread of its members turned back onto
class 0) is reported as evidence and rejects nothing: it exceeds the
value error by orders of magnitude, growing with the conditioning, so no
fixed bound on it tells accurate estimates from wrong ones.  Sorting each
class by magnitude already matches clustered values best.

The classes are absolute, so members must lie less than pi/4 off the
axes: a quadruple near the diagonals, where perturbations can push members
across a class boundary, unbalances the classes.  Since a quadruple is
unchanged by a quarter turn, a common rotation counts modulo pi/2.  The
cpf spectra of real sigma >= 0 lie on the axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import (
    CLASS_FINITE,
    CLASS_INDETERMINATE,
    CLASS_INFINITE,
    CLASS_ZERO,
    EigenSolution,
    GeneralizedEigenvalue,
)
from .pencils import Pencil

TRIPLET_REGULAR = "regular"
TRIPLET_110 = "one-one-zero"
TRIPLET_101 = "one-zero-one"
TRIPLET_100 = "one-zero-zero"
TRIPLET_011 = "zero-one-one"
TRIPLET_TRIVIAL = "trivial"


class GroupingError(ValueError):
    """Eigenvalues cannot be partitioned into consistent quadruples."""


@dataclass(frozen=True)
class Quadruple:
    """Four eigenvalues of a common singular value.

    ``phase_residual`` is the relative spread of the members after undoing
    the quarter-turn rotations; it is zero for an exact quadruple.
    """

    members: tuple[GeneralizedEigenvalue, ...]
    member_indices: tuple[int, ...]
    sigma: float
    phase_residual: float


@dataclass(frozen=True)
class SingularTriplet:
    """An (alpha, beta, gamma) triplet with sigma = alpha / (beta * gamma).

    For quotient problems beta is 1.  ``sigma`` is ``inf`` when
    ``beta * gamma = 0`` with ``alpha != 0`` and ``nan`` for trivial
    triplets, which carry no singular value.
    """

    alpha: float
    beta: float
    gamma: float
    sigma: float
    kind: str
    phase_residual: float = 0.0


@dataclass(frozen=True)
class RecoveredVectors:
    """Unit left/right vectors and direction vectors for one triplet.

    ``u`` and ``v`` are unit vectors; ``z`` is the y-direction vector
    scaled so that ``A z ~ sigma B u`` and ``C z ~ v`` (B = identity for
    ordinary/quotient problems); ``x`` is the extra direction vector of
    restricted problems (None otherwise).  ``residual_a`` and
    ``residual_c`` are the 2-norms of those two relations.
    """

    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    x: np.ndarray | None
    sigma: float
    residual_a: float
    residual_c: float


# conjugate quarter turns taking phase classes 0..3 back onto class 0
_UNTURN = np.array([1, -1j, -1, 1j])

# an eigenvector block with norm at or below NORM_FLOOR * |w| carries no
# direction, so the singular vectors cannot be read from it
NORM_FLOOR = 1e-12


def group_quadruples(values) -> list[Quadruple]:
    """Partition finite-nonzero eigenvalues into sigma quadruples.

    The grouping rule, its structural checks and its pi/4 limit are in the
    module docstring.

    Parameters
    ----------
    values : sequence of GeneralizedEigenvalue or complex
        Finite nonzero eigenvalues; the count must be divisible by 4.
    """
    vals = list(values)
    if len(vals) % 4:
        raise GroupingError(f"finite eigenvalue count {len(vals)} is not divisible by 4")
    lams = np.array([v.value if isinstance(v, GeneralizedEigenvalue) else complex(v)
                     for v in vals])
    if np.any(lams == 0) or not np.all(np.isfinite(lams)):
        raise GroupingError("grouping expects finite nonzero eigenvalues")
    quarter = np.rint(np.angle(lams) / (np.pi / 2)).astype(int) % 4
    sizes = np.bincount(quarter, minlength=4)
    if np.any(sizes != len(vals) // 4):
        raise GroupingError(f"quarter-turn classes hold {sizes.tolist()} eigenvalues; "
                            "each quadruple needs one member in every class")
    # class-major, magnitude-minor (stable): row j takes the j-th of each class
    rows = np.lexsort((np.abs(lams), quarter)).reshape(4, -1).T
    rotated = lams[rows] * _UNTURN
    center = rotated.mean(axis=1)
    residuals = np.abs(rotated - center[:, None]).max(axis=1) / np.abs(center)
    members = [v if isinstance(v, GeneralizedEigenvalue)
               else GeneralizedEigenvalue(complex(lam), 1.0 + 0j, CLASS_FINITE)
               for v, lam in zip(vals, lams)]
    quads = [Quadruple(tuple(members[i] for i in row), tuple(int(i) for i in row),
                       geometric_mean_sigma(lams[row]), float(res))
             for row, res in zip(rows, residuals)]
    quads.sort(key=lambda q: -q.sigma)
    return quads


def geometric_mean_sigma(lams) -> float:
    """Squared absolute geometric mean of a quadruple: approximates sigma.

    With ``|lam_i| ~ sqrt(sigma)`` the product of the four magnitudes is
    ``~ sigma**2``, so the exponent is +1/2.  The magnitudes are multiplied
    in ascending order, so the result does not depend on the member order.
    """
    mags = np.sort(np.abs(np.asarray(lams, dtype=complex)))
    if mags.size != 4:
        raise ValueError("a quadruple has exactly four members")
    return float(np.sqrt(mags[0] * mags[1] * mags[2] * mags[3]))


def _sigma_to_triplet(sigma: float, kind: str, phase_residual: float) -> SingularTriplet:
    # representative of the scaling class: beta = 1, alpha^2 + gamma^2 = 1
    gamma = 1.0 / math.hypot(1.0, sigma)
    alpha = sigma * gamma
    return SingularTriplet(alpha, 1.0, gamma, sigma, TRIPLET_REGULAR, phase_residual)


@dataclass(frozen=True)
class SpectrumClassification:
    """Triplets recovered from a cpf spectrum plus raw eigenvalue counts."""

    triplets: tuple[SingularTriplet, ...]
    quadruples: tuple[Quadruple, ...]
    eigenvalue_counts: dict

    def count(self, kind: str) -> int:
        return sum(1 for t in self.triplets if t.kind == kind)


def classify_spectrum(sol: EigenSolution, kind: str, dims,
                      partition=None) -> SpectrumClassification:
    """Convert a cpf pencil spectrum into singular triplets.

    Parameters
    ----------
    sol : EigenSolution
        Spectrum of the cpf pencil of the stated kind.
    kind : {'svd', 'qsvd', 'rsvd'}
    dims : tuple
        Input matrix dimensions: (p, q) / (p, q, n) / (p, q, m, n).
    partition : optional
        Known structure partition.  Required for restricted problems whose
        spectrum contains infinite eigenvalues: eigenvalue counts alone
        cannot split the infinite families (two sizes of blocks at
        infinity), while for quotient problems the split is solvable from
        the counts and dimensions.
    """
    if kind not in ("svd", "qsvd", "rsvd"):
        raise ValueError(f"unknown kind {kind!r}")
    counts = sol.counts()
    n_fin = counts[CLASS_FINITE]
    n_inf = counts[CLASS_INFINITE]
    n_zero = counts[CLASS_ZERO]
    n_ind = counts[CLASS_INDETERMINATE]
    if n_zero % 2:
        raise GroupingError(f"zero eigenvalue count {n_zero} is odd")

    finite_vals = [v for v in sol.values if v.kind == CLASS_FINITE]
    quads = group_quadruples(finite_vals)
    triplets = [_sigma_to_triplet(q.sigma, kind, q.phase_residual) for q in quads]

    n110 = n101 = n100 = 0
    if kind == "svd":
        if n_inf or n_ind:
            raise GroupingError("ordinary problems cannot have infinite or "
                                "indeterminate eigenvalues")
    elif kind == "qsvd":
        p, q, n = dims
        p1 = n_fin // 4
        # unknown partition counts p2, p3, q2, n3 satisfy
        #   p2 + p3 = p - p1,  q2 + p2 = q - q1 - p1,  q2 + n3 = n - p1,
        #   n_inf = n3 + 3 p2,  n_zero = 2 (p3 + q2)
        num = n_inf - (n - p1) + (q - n_ind - p1)
        if num % 4 or num < 0:
            raise GroupingError("spectrum inconsistent with a quotient structure")
        p2 = num // 4
        p3 = (p - p1) - p2
        q2 = (q - n_ind - p1) - p2
        n3 = n_inf - 3 * p2
        if min(p2, p3, q2, n3) < 0 or n_zero != 2 * (p3 + q2):
            raise GroupingError("spectrum inconsistent with a quotient structure")
        n110 = p2   # size-3 blocks at infinity, backed by (1, 0) pairs
        n100 = n3   # simple infinite eigenvalues from the C row deficiency
    else:
        if partition is not None:
            n110 = partition.p2
            n101 = partition.p3
            n100 = partition.p4 + partition.q6 + partition.m3 + partition.n4
            checks = (
                (n_inf, n100 + 3 * (n110 + n101), "infinite"),
                (n_zero, 2 * (partition.p5 + partition.q2), "zero"),
                (n_ind, partition.p6 + partition.q1, "indeterminate"),
                (n_fin, 4 * partition.p1, "finite"),
            )
            for got, want, label in checks:
                if got != want:
                    raise GroupingError(
                        f"{label} eigenvalue count {got} does not match the "
                        f"partition prediction {want}")
        elif n_inf > 0:
            raise ValueError(
                "restricted spectra with infinite eigenvalues need a structure "
                "partition to resolve the infinite triplet classes")

    triplets += [SingularTriplet(1.0, 1.0, 0.0, math.inf, TRIPLET_110)] * n110
    triplets += [SingularTriplet(1.0, 0.0, 1.0, math.inf, TRIPLET_101)] * n101
    triplets += [SingularTriplet(1.0, 0.0, 0.0, math.inf, TRIPLET_100)] * n100
    triplets += [SingularTriplet(0.0, 1.0, 1.0, 0.0, TRIPLET_011)] * (n_zero // 2)
    triplets += [SingularTriplet(0.0, 0.0, 0.0, math.nan, TRIPLET_TRIVIAL)] * n_ind
    return SpectrumClassification(tuple(triplets), tuple(quads), counts)


def extract_vectors(sol: EigenSolution, quad: Quadruple, kind: str,
                    pencil: Pencil, a, b=None, c=None) -> RecoveredVectors:
    """Slice one quadruple's eigenvector into singular vector estimates.

    The eigenvector blocks of the cpf pencils are, up to a common scale,
    ``(u, gamma^-1 y, sqrt(sigma) u, sqrt(sigma) v)`` for quotient problems
    (with ``beta^-1 x`` in the first block for restricted ones).  ``u`` is
    normalized from the third block, ``v`` from the fourth, and the second
    block is rescaled by the least-squares factor minimizing
    ``|A z - sigma B u|^2 + |C z - v|^2``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    member = None
    for idx, val in zip(quad.member_indices, quad.members):
        if val.kind == CLASS_FINITE:
            # prefer the member nearest the positive real axis
            score = abs(np.angle(val.value))
            if member is None or score < member[0]:
                member = (score, idx, val)
    if member is None:
        raise ValueError("quadruple has no member with a computed eigenvector")
    _, idx, val = member
    w = sol.vectors[:, idx]
    off = pencil.row_offsets()
    w1, w2, w3, w4 = (w[off[i]:off[i + 1]] for i in range(4))
    floor = NORM_FLOOR * np.linalg.norm(w)
    needed = [w2, w3, w4] + ([w1] if kind == "rsvd" else [])
    if any(np.linalg.norm(blk) <= floor for blk in needed):
        raise ValueError("degenerate eigenvector: a block norm is below the floor")

    u = w3 / np.linalg.norm(w3)
    lead = np.flatnonzero(np.abs(u) > 1e-8 * np.abs(u).max())[0]
    phase = u[lead] / abs(u[lead])
    u = u * phase.conj()
    v = w4 * phase.conj()
    v = v / np.linalg.norm(v)

    sigma = quad.sigma
    if kind == "svd":
        bmat = np.eye(a.shape[0], dtype=np.complex128)
        cmat = np.eye(a.shape[1], dtype=np.complex128)
    elif kind == "qsvd":
        bmat = np.eye(a.shape[0], dtype=np.complex128)
        cmat = np.atleast_2d(np.asarray(c, dtype=np.complex128))
    elif kind == "rsvd":
        bmat = np.atleast_2d(np.asarray(b, dtype=np.complex128))
        cmat = np.atleast_2d(np.asarray(c, dtype=np.complex128))
    else:
        raise ValueError(f"unknown kind {kind!r}")

    az = a @ w2
    cz = cmat @ w2
    target_a = sigma * (bmat @ u)
    # least-squares complex scale for the second block
    denom = np.vdot(az, az).real + np.vdot(cz, cz).real
    zeta = (np.vdot(az, target_a) + np.vdot(cz, v)) / denom
    z = zeta * w2
    residual_a = float(np.linalg.norm(a @ z - target_a))
    residual_c = float(np.linalg.norm(cmat @ z - v))

    x = None
    if kind == "rsvd":
        bw1 = bmat.conj().T @ w1
        xi = np.vdot(bw1, u) / np.vdot(bw1, bw1).real
        x = xi * w1
    return RecoveredVectors(u, v, z, x, sigma, residual_a, residual_c)
