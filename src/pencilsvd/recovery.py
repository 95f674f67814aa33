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

Classification needs the structure partition of the inputs, whose counts
(read from the cpf layout by :func:`pencilsvd.kcf.eigenvalue_counts`)
decide the classes of the values, since roundoff splits a size-k block at
0 or infinity into values of size ``eps**(1/k)`` (Van Dooren, LAA 27,
1979).  Each quadruple gives a regular triplet, and the other classes --
(1,1,0), (1,0,1), (1,0,0), (0,1,1) and trivial -- are counted from the
blocks that back them in the same layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import CLASS_INDETERMINATE, CLASS_INFINITE, CLASS_ZERO, EigenSolution
from .kcf import (
    TRIPLET_011,
    TRIPLET_100,
    TRIPLET_101,
    TRIPLET_110,
    TRIPLET_REGULAR,
    TRIPLET_TRIVIAL,
    eigenvalue_counts,
    input_dims,
    triplet_counts,
)
from .pencils import FORMULATIONS, Pencil


class GroupingError(ValueError):
    """Eigenvalues cannot be partitioned into consistent quadruples."""


@dataclass(frozen=True)
class Quadruple:
    """Four eigenvalues of a common singular value.

    ``phase_residual`` is the relative spread of the members after undoing
    the quarter-turn rotations; it is zero for an exact quadruple.
    ``member_indices`` are the members' positions among the grouped values;
    from :func:`classify_spectrum` they are positions in ``sol.values``, the
    eigenvector columns that :func:`extract_vectors` reads.
    """

    members: tuple[complex, ...]
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

# least class gap (see classify_spectrum) at which the partition's counts
# separate the zero and infinite values from the finite ones
CLASS_GAP_FLOOR = 2.0

# an eigenvector block with norm at or below NORM_FLOOR * |w| carries no
# direction, so the singular vectors cannot be read from it
NORM_FLOOR = 1e-12


def group_quadruples(values) -> list[Quadruple]:
    """Partition finite-nonzero eigenvalues into sigma quadruples.

    The grouping rule, its structural checks and its pi/4 limit are in the
    module docstring.

    Parameters
    ----------
    values : sequence of complex
        Finite nonzero eigenvalues; the count must be divisible by 4.
    """
    lams = np.array(values, dtype=complex)
    if lams.size % 4:
        raise GroupingError(f"finite eigenvalue count {lams.size} is not divisible by 4")
    if np.any(lams == 0) or not np.all(np.isfinite(lams)):
        raise GroupingError("grouping expects finite nonzero eigenvalues")
    quarter = np.rint(np.angle(lams) / (np.pi / 2)).astype(int) % 4
    sizes = np.bincount(quarter, minlength=4)
    if np.any(sizes != lams.size // 4):
        raise GroupingError(f"quarter-turn classes hold {sizes.tolist()} eigenvalues; "
                            "each quadruple needs one member in every class")
    # class-major, magnitude-minor (stable): row j takes the j-th of each class
    rows = np.lexsort((np.abs(lams), quarter)).reshape(4, -1).T
    rotated = lams[rows] * _UNTURN
    center = rotated.mean(axis=1)
    residuals = np.abs(rotated - center[:, None]).max(axis=1) / np.abs(center)
    quads = [Quadruple(tuple(lams[row].tolist()), tuple(row.tolist()),
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


def _sigma_to_triplet(sigma: float, phase_residual: float) -> SingularTriplet:
    # representative of the scaling class: beta = 1, alpha^2 + gamma^2 = 1
    gamma = 1.0 / math.hypot(1.0, sigma)
    alpha = sigma * gamma
    return SingularTriplet(alpha, 1.0, gamma, sigma, TRIPLET_REGULAR, phase_residual)


@dataclass(frozen=True)
class SpectrumClassification:
    """Triplets recovered from a cpf spectrum, the quadruples behind them,
    and the class gap that separated the classes (see classify_spectrum)."""

    triplets: tuple[SingularTriplet, ...]
    quadruples: tuple[Quadruple, ...]
    class_gap: float


def classify_spectrum(sol: EigenSolution, kind: str, dims,
                      partition) -> SpectrumClassification:
    """Convert a cpf pencil spectrum into singular triplets.

    The classes follow the partition's predicted counts, not the solver's:
    the exact ``(0, 0)`` pairs of deflation must number the indeterminate
    ones (``GroupingError`` otherwise), the zeros are the other pairs of
    least side ratio ``|alpha|/|(alpha, beta)|``, then the infinities those
    of least ``|beta|/|(alpha, beta)|``.  The class gap, the least side ratio
    of the rest over the largest ratio assigned (``inf`` if none is), must
    reach ``CLASS_GAP_FLOOR`` (``GroupingError`` otherwise).  The rest, as
    values ``alpha_e / beta_e``, group into quadruples, one regular triplet
    each.  The other triplets are those the partition's canonical blocks
    back, read from the cpf layout (:func:`pencilsvd.kcf.triplet_counts`),
    in the order 110, 101, 100, 011, trivial.

    Parameters
    ----------
    sol : EigenSolution
        Spectrum of the cpf pencil of the stated kind, at any threshold; its
        order must be the partition's (``ValueError`` otherwise).
    kind : {'svd', 'qsvd', 'rsvd'}
    dims : tuple
        Input matrix dimensions: (p, q) / (p, q, n) / (p, q, m, n); they
        must be the partition's (``ValueError`` otherwise).
    partition : SvdPartition, QsvdPartition or RsvdPartition
        Structure partition of the inputs, e.g. from
        :func:`pencilsvd.kcf.partition_for`.
    """
    if tuple(dims) != input_dims(partition):
        raise ValueError(f"dims {tuple(dims)} are not the partition's input "
                         f"sizes {input_dims(partition)}")
    formulation = f"cpf-{kind}"
    counts = eigenvalue_counts(formulation, partition)
    n_zero, n_inf, n_ind = (counts[c] for c in (CLASS_ZERO, CLASS_INFINITE, CLASS_INDETERMINATE))
    vals, order = sol.values, sum(counts.values())
    if len(vals) != order:
        raise ValueError(f"spectrum of order {len(vals)} is not the order {order} of the "
                         f"partition's {formulation} pencil")
    mag = np.abs(np.array([v.alpha_e for v in vals] + [v.beta_e for v in vals])).reshape(2, -1)
    live = np.flatnonzero(mag.any(axis=0))
    if len(vals) - live.size != n_ind:
        raise GroupingError(f"{len(vals) - live.size} deflated pairs, but the partition "
                            f"predicts {n_ind} indeterminate ones")
    ratio = mag[:, live]
    ratio /= np.hypot(ratio[0], ratio[1])
    by_alpha = np.argsort(ratio[0], kind="stable")
    by_beta = by_alpha[n_zero:][np.argsort(ratio[1, by_alpha[n_zero:]], kind="stable")]
    finite = np.sort(by_beta[n_inf:])
    # the largest ratio assigned on each side is the last one taken
    top = max(ratio[0, by_alpha[n_zero - 1]] if n_zero else 0,
              ratio[1, by_beta[n_inf - 1]] if n_inf else 0)
    gap = ratio[:, finite].min(initial=math.inf) / top if top else math.inf
    if gap < CLASS_GAP_FLOOR:
        raise GroupingError(f"class gap {gap:.3g} is below {CLASS_GAP_FLOOR}: the predicted "
                            f"{n_zero} zero and {n_inf} infinite values are not apart")
    # member indices point into sol.values, where the classes interleave
    finite = live[finite].tolist()
    # a pair with beta_e = 0 is infinite, which grouping rejects
    lams = [v.alpha_e / v.beta_e if v.beta_e else complex(math.inf)
            for v in map(vals.__getitem__, finite)]
    quads = [Quadruple(q.members, tuple(finite[i] for i in q.member_indices), q.sigma,
                       q.phase_residual) for q in group_quadruples(lams)]
    n = triplet_counts(formulation, partition)
    triplets = [_sigma_to_triplet(q.sigma, q.phase_residual) for q in quads]
    triplets += [SingularTriplet(1.0, 1.0, 0.0, math.inf, TRIPLET_110)] * n[TRIPLET_110]
    triplets += [SingularTriplet(1.0, 0.0, 1.0, math.inf, TRIPLET_101)] * n[TRIPLET_101]
    triplets += [SingularTriplet(1.0, 0.0, 0.0, math.inf, TRIPLET_100)] * n[TRIPLET_100]
    triplets += [SingularTriplet(0.0, 1.0, 1.0, 0.0, TRIPLET_011)] * n[TRIPLET_011]
    triplets += [SingularTriplet(0.0, 0.0, 0.0, math.nan, TRIPLET_TRIVIAL)] * n[TRIPLET_TRIVIAL]
    return SpectrumClassification(tuple(triplets), tuple(quads), gap)


def extract_vectors(sol: EigenSolution, quad: Quadruple, pencil: Pencil) -> RecoveredVectors:
    """Slice one quadruple's eigenvector into singular vector estimates.

    The eigenvector blocks of the cpf pencils are, up to a common scale,
    ``(u, gamma^-1 y, sqrt(sigma) u, sqrt(sigma) v)`` for quotient problems
    (with ``beta^-1 x`` in the first block for restricted ones).  ``u`` is
    normalized from the third block, ``v`` from the fourth, and the second
    block is rescaled by the least-squares factor minimizing
    ``|A z - sigma B u|^2 + |C z - v|^2``.  ``A``, ``B`` and ``C*`` are read
    from the pencil's blocks (1,2), (1,3) and (2,4), where ordinary and
    quotient pencils hold identities; a pencil of another family raises
    ``ValueError``.
    """
    form = FORMULATIONS.get(pencil.formulation)
    if form is None or form.family != "cpf":
        raise ValueError(f"extract_vectors needs a cpf pencil, got {pencil.formulation!r}")
    if sol.vectors is None:
        raise ValueError("values-only solution: solve with vectors=True to extract vectors")
    # the member nearest the positive real axis
    _, idx = min(zip(quad.members, quad.member_indices), key=lambda m: abs(np.angle(m[0])))
    w = sol.vectors[:, idx]
    off = pencil.row_offsets()
    s = [slice(off[i], off[i + 1]) for i in range(4)]
    a = np.ascontiguousarray(pencil.lhs[s[0], s[1]])
    bmat = np.ascontiguousarray(pencil.rhs[s[0], s[2]])
    cmat = np.ascontiguousarray(pencil.rhs[s[1], s[3]].conj().T)
    w1, w2, w3, w4 = (w[blk] for blk in s)
    floor = NORM_FLOOR * np.linalg.norm(w)
    needed = [w2, w3, w4] + ([w1] if form.kind == "rsvd" else [])
    if any(np.linalg.norm(blk) <= floor for blk in needed):
        raise ValueError("degenerate eigenvector: a block norm is below the floor")

    u = w3 / np.linalg.norm(w3)
    lead = np.flatnonzero(np.abs(u) > 1e-8 * np.abs(u).max())[0]
    phase = u[lead] / abs(u[lead])
    u = u * phase.conj()
    v = w4 * phase.conj()
    v = v / np.linalg.norm(v)

    sigma = quad.sigma
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
    if form.kind == "rsvd":
        bw1 = bmat.conj().T @ w1
        xi = np.vdot(bw1, u) / np.vdot(bw1, bw1).real
        x = xi * w1
    return RecoveredVectors(u, v, z, x, sigma, residual_a, residual_c)
