"""Dense generalized eigensolvers for the pencil formulations.

``solve_general`` wraps the QZ algorithm (LAPACK ``zggev`` via scipy) and
returns homogeneous eigenvalue pairs ``(alpha_e, beta_e)`` classified as
finite-nonzero, zero, infinite or indeterminate at one threshold; the
classes of a cpf spectrum are taken from the input ranks instead
(:func:`pencilsvd.recovery.classify_spectrum`).  ``solve_hpd`` is the
specialized path for Hermitian pencils with positive definite right-hand
side (the classical augmented formulations when B has full row rank and C
full column rank).

The cross-product-free pencils are singular whenever the inputs share a
null space (their canonical form holds a square zero block), and QZ on a
singular pencil can scatter the eigenvalues of that part anywhere and
corrupt their neighbours.  Every builder's pencil is exactly Hermitian, so
that block is its common right null space and also its left one:
``solve_general`` splits it off by the congruence ``W* (lhs, rhs) W``
(Van Dooren, LAA 27, 1979), solves the regular rest with QZ, and reports
one indeterminate ``(0, 0)`` pair per deflated dimension.  The builders'
block columns of ``[lhs; rhs]`` touch disjoint rows, so ``W`` is block
diagonal, one small SVD per block column: ``[A*; B*]``, ``[A; C]`` and two
of full rank for cpf, ``[A*; BB*]`` and ``[A; C*C]`` for aug, the whole
stack for sq.  Only Hermitian pencils deflate: one that is not (a generic
pencil) with a common null space on either side raises
``SingularPencilError``.  It returns values by default; ``vectors=True``
adds the eigenvectors (the null basis for the deflated pairs) and the
backward-error verdict.
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


class NotDefiniteError(np.linalg.LinAlgError):
    """Right-hand side is not positive definite; use solve_general instead."""


class SingularPencilError(np.linalg.LinAlgError):
    """Pencil is not Hermitian and has a common null space, so it cannot be
    deflated."""


@dataclass(frozen=True)
class GeneralizedEigenvalue:
    """Eigenvalue ``lam = alpha_e / beta_e`` in homogeneous form."""

    alpha_e: complex
    beta_e: complex
    kind: str

    @property
    def value(self) -> complex:
        if self.kind == CLASS_INDETERMINATE:
            return complex(np.nan, np.nan)
        if self.kind == CLASS_INFINITE or not self.beta_e:
            return complex(np.inf, 0.0)
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


def _null_split(lhs, rhs, blocks):
    """Common right null basis of (lhs, rhs) and its complement, block
    diagonal: one SVD per block column of ``[lhs; rhs]`` (widths ``blocks``),
    cut at ``dim * eps * ||[lhs; rhs]||_2``, which is the largest block norm
    when the block columns touch disjoint rows, as every builder's do; one
    SVD of the whole stack when they do not."""
    k = lhs.shape[0]
    off = np.cumsum((0, *blocks))
    cols = [np.vstack([lhs[:, i:j], rhs[:, i:j]]) for i, j in zip(off, off[1:])]
    if np.sum([c.any(axis=1) for c in cols], axis=0).max(initial=0) > 1:
        off, cols = off[[0, -1]], [np.vstack([lhs, rhs])]
    v, s = np.zeros((k, k), dtype=complex), np.zeros(k)
    for col, i, j in zip(cols, off, off[1:]):
        _, s[i:j], vh = np.linalg.svd(col, full_matrices=False)
        v[i:j, i:j] = vh.conj().T
    kept = s > k * EPS * s.max(initial=0.0)
    return v[:, ~kept], v[:, kept]


def solve_general(pencil: Pencil, class_tol_rel: float | None = None,
                  vectors: bool = False) -> EigenSolution:
    """Solve ``lhs x = lam rhs x`` for the full spectrum via QZ.

    A Hermitian pencil's common null space is split off first, one SVD per
    block column of ``[lhs; rhs]`` (see the module docstring); a regular
    pencil has none, so QZ sees it as given.  A pencil that is not Hermitian
    must be regular: a common null space on either side raises
    :class:`SingularPencilError`.

    Parameters
    ----------
    pencil : Pencil
        Pencil to solve.
    class_tol_rel : float, optional
        Relative threshold separating zero/infinite/indeterminate pairs from
        finite ones; scaled by ``max(||lhs||_F, ||rhs||_F)``.  Defaults to
        ``dim * eps``, which suits regular pencils: a size-k block at 0 or
        infinity splits under roundoff into values of size ``eps**(1/k)``,
        which it calls finite.
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
    if np.array_equal(lhs, lhs.conj().T) and np.array_equal(rhs, rhs.conj().T):
        null_vecs, keep = _null_split(lhs, rhs, pencil.row_blocks)
        if null_vecs.shape[1]:
            lhs, rhs = (keep.conj().T @ m @ keep for m in (lhs, rhs))
    else:
        nr, nl = (_null_split(x, y, (k,))[0].shape[1]
                  for x, y in ((lhs, rhs), (lhs.conj().T, rhs.conj().T)))
        if nr or nl:
            raise SingularPencilError(f"common null spaces ({nr} right, {nl} left) in a "
                                      "pencil that is not Hermitian; only a Hermitian "
                                      "pencil deflates")

    out = sla.eig(lhs, rhs, right=vectors, homogeneous_eigvals=True)
    (alphas, betas), vr = out if vectors else (out, None)

    values = [GeneralizedEigenvalue(complex(a), complex(b),
                                    classify_pair(a, b, tol_abs, tol_abs))
              for a, b in zip(alphas, betas)]
    # deflated singular part: exact (0, 0) pairs, null basis as vectors
    s = null_vecs.shape[1]
    values += [GeneralizedEigenvalue(0j, 0j, CLASS_INDETERMINATE)] * s
    if not vectors:
        return EigenSolution(tuple(values), None, None)

    vecs = keep @ vr if s else vr
    nrm = np.linalg.norm(vecs, axis=0)
    nrm[nrm == 0] = 1.0
    vecs = np.hstack([vecs / nrm, null_vecs])

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
