"""Dense generalized eigensolvers for the pencil formulations.

``solve_general`` wraps the QZ algorithm (LAPACK ``zggev`` via scipy) and
returns homogeneous eigenvalue pairs ``(alpha_e, beta_e)`` classified as
finite-nonzero, zero, infinite or indeterminate.  ``solve_hpd`` is the
specialized path for Hermitian pencils with positive definite right-hand
side (the classical augmented formulations when B has full row rank and C
full column rank).

The cross-product-free pencils are singular pencils whenever the inputs
share a null space (their canonical form contains a square zero block).
QZ output on such pencils is unreliable: rounding can scatter the
eigenvalues belonging to the singular part anywhere in the plane and
corrupt its neighbours.  Because the singular part of these pencil
families is always a *square* zero block, it equals the common left/right
null space of (lhs, rhs) and can be split off exactly: ``solve_general``
therefore deflates the common null space first (one rank decision, at
``dim * eps``, on the SVD of ``[lhs; rhs]``), solves the remaining regular
pencil with QZ, and reports one indeterminate ``(0, 0)`` pair per deflated
dimension.  Every pencil the builders make is exactly Hermitian on both
sides, so its left null space is its right one: that one SVD gives the
basis ``W``, and deflation is the congruence ``W* (lhs, rhs) W`` (Van
Dooren, LAA 27, 1979).  Only a pencil that is not Hermitian (a generic
one) also takes the SVD of ``[lhs*; rhs*]`` for its left null space.  It
returns values by default; ``vectors=True`` adds the eigenvectors (the
null basis for the deflated pairs) and the backward-error verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .matcore import EPS
from .pencils import Pencil

CLASS_FINITE = "finite-nonzero"
CLASS_ZERO = "zero"
CLASS_INFINITE = "infinite"
CLASS_INDETERMINATE = "indeterminate"

# per-eigenpair residual bound, relative to (||lhs|| + |lam| ||rhs||) ||x||,
# that defines the ``backward_stable`` flag of solve_general
RESIDUAL_TOL = 1e-12

# class threshold for spectra with Jordan blocks at zero or infinity, whose
# roundoff splits a size-k block into values of size eps**(1/k)
STRUCTURE_CLASS_TOL = 1e-4


class NotDefiniteError(np.linalg.LinAlgError):
    """Right-hand side is not positive definite; use solve_general instead."""


class SingularPencilError(np.linalg.LinAlgError):
    """Pencil is singular in a way the deflation step cannot handle."""


@dataclass(frozen=True)
class GeneralizedEigenvalue:
    """Eigenvalue ``lam = alpha_e / beta_e`` in homogeneous form."""

    alpha_e: complex
    beta_e: complex
    kind: str

    @property
    def value(self) -> complex:
        if self.kind == CLASS_INFINITE:
            return complex(np.inf, 0.0)
        if self.kind == CLASS_INDETERMINATE:
            return complex(np.nan, np.nan)
        return self.alpha_e / self.beta_e


@dataclass(frozen=True)
class EigenSolution:
    """Full spectrum of a pencil plus right eigenvectors (one per column).

    ``solve_general`` fills ``vectors`` and ``backward_stable`` only with
    ``vectors=True``; by default both are ``None``: not computed, and not
    checked.
    """

    values: tuple[GeneralizedEigenvalue, ...]
    vectors: np.ndarray | None
    backward_stable: bool | None

    def counts(self) -> dict[str, int]:
        seen = Counter(v.kind for v in self.values)
        return {k: seen[k] for k in
                (CLASS_FINITE, CLASS_ZERO, CLASS_INFINITE, CLASS_INDETERMINATE)}


def classify_pair(alpha_e: complex, beta_e: complex, tol_zero: float, tol_inf: float) -> str:
    """Classify a homogeneous pair against absolute thresholds."""
    small_a = abs(alpha_e) <= tol_zero
    small_b = abs(beta_e) <= tol_inf
    if small_a and small_b:
        return CLASS_INDETERMINATE
    if small_b:
        return CLASS_INFINITE
    if small_a:
        return CLASS_ZERO
    return CLASS_FINITE


def _null_split(lhs, rhs, tol_rel):
    """Common right null basis of (lhs, rhs) and its complement, from the
    SVD of ``[lhs; rhs]``; the left ones are those of ``(lhs*, rhs*)``."""
    k = lhs.shape[0]
    _, s, vh = np.linalg.svd(np.vstack([lhs, rhs]), full_matrices=False)
    nullity = int(np.count_nonzero(s <= tol_rel * s[0]))
    v = vh.conj().T
    return v[:, k - nullity:], v[:, : k - nullity]


def solve_general(pencil: Pencil, class_tol_rel: float | None = None,
                  vectors: bool = False) -> EigenSolution:
    """Solve ``lhs x = lam rhs x`` for the full spectrum via QZ.

    The common null space of (lhs, rhs) is split off first (see the module
    docstring); a regular pencil has none, so QZ sees it as given.

    Parameters
    ----------
    pencil : Pencil
        Pencil to solve.
    class_tol_rel : float, optional
        Relative threshold separating zero/infinite/indeterminate pairs from
        finite ones; scaled by ``max(||lhs||_F, ||rhs||_F)``.  Defaults to
        ``dim * eps``, which suits regular pencils.  Spectra containing
        Jordan blocks need a looser value: a size-k block at 0 or infinity
        splits under roundoff into eigenvalues of magnitude ``eps**(1/k)``,
        so count checks against predicted canonical structure use
        ``STRUCTURE_CLASS_TOL``.
    vectors : bool, optional
        By default the solve returns the eigenvalues alone, with ``vectors``
        and ``backward_stable`` left ``None``: QZ accumulates no ``Q``/``Z``
        and skips the back-substitution.  ``True`` adds unit-norm
        eigenvectors and the backward-error verdict (``RESIDUAL_TOL``).
        Both paths run the same deflation and classification, so they
        report the same pairs whenever QZ returns the same eigenvalues with
        and without eigenvectors.
    """
    lhs = np.ascontiguousarray(pencil.lhs, dtype=np.complex128)
    rhs = np.ascontiguousarray(pencil.rhs, dtype=np.complex128)
    k = lhs.shape[0]
    if class_tol_rel is None:
        class_tol_rel = k * EPS
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
    tol_abs = class_tol_rel * scale

    null_vecs = np.zeros((k, 0), dtype=complex)
    w_right = None
    if k > 0:
        null_vecs, right_keep = _null_split(lhs, rhs, k * EPS)
        left_keep = right_keep
        if not (np.array_equal(lhs, lhs.conj().T) and np.array_equal(rhs, rhs.conj().T)):
            _, left_keep = _null_split(lhs.conj().T, rhs.conj().T, k * EPS)
        nr, nl = k - right_keep.shape[1], k - left_keep.shape[1]
        if nr != nl:
            raise SingularPencilError(
                f"common null spaces have unequal dimensions ({nr} right, {nl} left); "
                "the singular part is not a square zero block")
        if nr:
            lhs = left_keep.conj().T @ lhs @ right_keep
            rhs = left_keep.conj().T @ rhs @ right_keep
            w_right = right_keep

    if not lhs.shape[0]:
        alphas = betas = np.zeros(0, dtype=complex)
        vr = np.zeros((0, 0), dtype=complex)
    elif vectors:
        (alphas, betas), vr = sla.eig(lhs, rhs, right=True, homogeneous_eigvals=True)
    else:
        # Pencil has already rejected NaN and Inf
        alphas, betas = sla.eig(lhs, rhs, right=False, homogeneous_eigvals=True,
                                check_finite=False)

    values = [GeneralizedEigenvalue(complex(a), complex(b),
                                    classify_pair(a, b, tol_abs, tol_abs))
              for a, b in zip(alphas, betas)]
    # deflated singular part: exact (0, 0) pairs, null basis as vectors
    s = null_vecs.shape[1]
    values += [GeneralizedEigenvalue(0j, 0j, CLASS_INDETERMINATE)] * s
    if not vectors:
        return EigenSolution(tuple(values), None, None)

    vecs = vr if w_right is None else w_right @ vr
    nrm = np.linalg.norm(vecs, axis=0)
    nrm[nrm == 0] = 1.0
    vecs = vecs / nrm
    if s:
        vecs = np.hstack([vecs, null_vecs])

    # backward error of every finite eigenpair at once, one column each
    fin = [i for i, val in enumerate(values) if val.kind == CLASS_FINITE]
    lam = np.array([values[i].value for i in fin], dtype=complex)
    w = vecs[:, fin]
    norm_a = np.linalg.norm(pencil.lhs, 2) if k else 0.0
    norm_b = np.linalg.norm(pencil.rhs, 2) if k else 0.0
    res = np.linalg.norm(pencil.lhs @ w - (pencil.rhs @ w) * lam, axis=0)
    bound = RESIDUAL_TOL * (norm_a + np.abs(lam) * norm_b) * np.linalg.norm(w, axis=0)
    return EigenSolution(tuple(values), vecs, not np.any(res > bound))


def solve_hpd(pencil: Pencil) -> EigenSolution:
    """Definite-pencil path: Hermitian lhs, Hermitian positive definite rhs.

    Reduces to a standard Hermitian problem through a Cholesky factorization
    of the right-hand side, so all eigenvalues are real.  Raises
    :class:`NotDefiniteError` when the factorization fails; callers should
    fall back to :func:`solve_general`.

    A definite pencil has neither infinite nor indeterminate eigenvalues, so
    each eigenvalue ``w`` is zero when ``|w| <= dim * eps * ||lhs||_F /
    ||rhs||_F`` and finite-nonzero otherwise.  Scaling either side on its own
    scales the eigenvalues and this threshold alike.
    """
    lhs, rhs = pencil.lhs, pencil.rhs
    k = lhs.shape[0]
    herm_tol = 64 * k * EPS
    if np.abs(lhs - lhs.conj().T).max(initial=0.0) > herm_tol * max(1.0, np.abs(lhs).max(initial=0.0)):
        raise ValueError("lhs is not Hermitian")
    if np.abs(rhs - rhs.conj().T).max(initial=0.0) > herm_tol * max(1.0, np.abs(rhs).max(initial=0.0)):
        raise ValueError("rhs is not Hermitian")
    try:
        w, v = sla.eigh(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotDefiniteError(
            "rhs is not positive definite; fall back to solve_general") from exc
    tol_zero = k * EPS * np.linalg.norm(lhs)
    rhs_norm = np.linalg.norm(rhs)
    values = tuple(GeneralizedEigenvalue(
        complex(x), 1.0 + 0j, CLASS_ZERO if abs(x) * rhs_norm <= tol_zero else CLASS_FINITE)
        for x in w)
    nrm = np.linalg.norm(v, axis=0)
    nrm[nrm == 0] = 1.0
    return EigenSolution(values, (v / nrm).astype(np.complex128), True)
