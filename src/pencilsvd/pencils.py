"""Builders for every pencil formulation of the singular value problems.

A pencil is the one-parameter matrix family ``lhs - lam * rhs``.  Three
families are built for each decomposition:

* ``sq-*``   -- squared formulations (eigenvalues ``sigma**2``),
* ``aug-*``  -- classical two-by-two augmented formulations (``+-sigma``),
* ``cpf-*``  -- four-by-four cross-product-free formulations
  (``+-sqrt(+-sigma)``), whose blocks contain only the input matrices,
  their conjugate transposes, identities and zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# plain pencils with no decomposition semantics (lemma targets, ad hoc input)
GENERIC = "generic"


@dataclass(frozen=True)
class Pencil:
    """A square dense pencil ``lhs - lam * rhs`` with block-layout metadata.

    ``row_blocks`` records the block partitioning used by the builder (the
    columns are partitioned the same way), so eigenvectors can later be
    sliced without recomputing offsets.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    formulation: str
    row_blocks: tuple[int, ...]

    def __post_init__(self):
        if self.lhs.shape != self.rhs.shape:
            raise ValueError("lhs and rhs must have identical shape")
        if self.lhs.ndim != 2 or self.lhs.shape[0] != self.lhs.shape[1]:
            raise ValueError(f"pencil must be square, got shape {self.lhs.shape}")
        if not (np.isfinite(self.lhs).all() and np.isfinite(self.rhs).all()):
            raise ValueError("pencil lhs and rhs must not hold non-finite (NaN or Inf) entries")
        if self.formulation not in FORMULATIONS and self.formulation != GENERIC:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if sum(self.row_blocks) != self.lhs.shape[0]:
            raise ValueError("row blocks do not sum to the matrix order")

    def row_offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.row_blocks)))


def problem_kind(b=None, c=None) -> str:
    """The decomposition that inputs with these B and C pose: ``"svd"``
    without C, ``"qsvd"`` with C alone, ``"rsvd"`` with B and C."""
    if c is None:
        if b is not None:
            raise ValueError("B needs C: a restricted problem takes A, B and C")
        return "svd"
    return "qsvd" if b is None else "rsvd"


def generic_pencil(lhs, rhs) -> Pencil:
    """Wrap a raw (lhs, rhs) pair as a single-block pencil."""
    lhs = np.atleast_2d(np.asarray(lhs, dtype=np.complex128))
    rhs = np.atleast_2d(np.asarray(rhs, dtype=np.complex128))
    return Pencil(lhs, rhs, GENERIC, (lhs.shape[0],))


def _as_matrix(m, name) -> np.ndarray:
    try:
        m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    except (TypeError, ValueError):  # ragged or non-numeric
        raise ValueError(f"{name} must be a matrix") from None
    _require(m.ndim == 2, f"{name} must be a matrix")
    _require(np.isfinite(m).all(), f"{name} must not hold non-finite (NaN or Inf) entries")
    return m


def _hermitize(m: np.ndarray) -> np.ndarray:
    # floating-point cross products are only Hermitian up to roundoff; the
    # definite solver and the Hermitian-only deflation need exact storage
    return (m + m.conj().T) / 2.0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _checked(a, b=None, c=None):
    """``(A, B, C)`` as finite complex matrices, checked for the problem
    kind their presence poses (:func:`problem_kind`); absent ones stay
    ``None``."""
    a = _as_matrix(a, "A")
    b = None if b is None else _as_matrix(b, "B")
    c = None if c is None else _as_matrix(c, "C")
    if c is None:
        _require(a.size > 0, "A must be nonempty")
    elif b is None:
        _require(a.shape[1] == c.shape[1], f"A and C must share columns, got {a.shape} and {c.shape}")
    else:
        _require(b.shape[0] == a.shape[0], f"B must have {a.shape[0]} rows, got {b.shape[0]}")
        _require(c.shape[1] == a.shape[1], f"C must have {a.shape[1]} columns, got {c.shape[1]}")
    return a, b, c


# one assembler per family; an absent B or C stands for the identity

def _sq(formulation, a, c=None) -> Pencil:
    a, _, c = _checked(a, c=c)
    q = a.shape[1]
    rhs = np.eye(q, dtype=np.complex128) if c is None else _hermitize(c.conj().T @ c)
    return Pencil(_hermitize(a.conj().T @ a), rhs, formulation, (q,))


def _aug(formulation, a, b=None, c=None) -> Pencil:
    a, b, c = _checked(a, b, c)
    p, q = a.shape
    lhs = np.zeros((p + q, p + q), dtype=np.complex128)
    lhs[:p, p:] = a
    lhs[p:, :p] = a.conj().T
    rhs = np.zeros_like(lhs)
    rhs[:p, :p] = np.eye(p) if b is None else _hermitize(b @ b.conj().T)
    rhs[p:, p:] = np.eye(q) if c is None else _hermitize(c.conj().T @ c)
    return Pencil(lhs, rhs, formulation, (p, q))


def _cpf(formulation, a, b=None, c=None) -> Pencil:
    """lhs = diag([0 A; A* 0], I, I); rhs has B in block (1,3), C* in (2,4)
    and their conjugate transposes mirrored below the diagonal."""
    a, b, c = _checked(a, b, c)
    p, q = a.shape
    b13 = np.eye(p, dtype=np.complex128) if b is None else b
    b24 = np.eye(q, dtype=np.complex128) if c is None else c.conj().T
    blocks = (p, q, b13.shape[1], b24.shape[1])
    off = np.concatenate(([0], np.cumsum(blocks)))
    lhs = np.zeros((off[-1], off[-1]), dtype=np.complex128)
    rhs = np.zeros_like(lhs)
    s = [slice(off[i], off[i + 1]) for i in range(4)]
    lhs[s[0], s[1]] = a
    lhs[s[1], s[0]] = a.conj().T
    lhs[s[2], s[2]] = np.eye(blocks[2])
    lhs[s[3], s[3]] = np.eye(blocks[3])
    rhs[s[0], s[2]] = b13
    rhs[s[1], s[3]] = b24
    rhs[s[2], s[0]] = b13.conj().T
    rhs[s[3], s[1]] = b24.conj().T
    return Pencil(lhs, rhs, formulation, blocks)


def build_sq_svd(a) -> Pencil:
    """``(A*A, I)`` of order q; eigenvalues are squared singular values."""
    return _sq("sq-svd", a)


def build_aug_svd(a) -> Pencil:
    """``([0 A; A* 0], I)`` of order p+q; eigenvalues come in +-sigma pairs."""
    return _aug("aug-svd", a)


def build_sq_qsvd(a, c) -> Pencil:
    """``(A*A, C*C)`` of order q."""
    return _sq("sq-qsvd", a, c)


def build_aug_qsvd(a, c) -> Pencil:
    """``([0 A; A* 0], [I 0; 0 C*C])`` of order p+q."""
    return _aug("aug-qsvd", a, c=c)


def build_aug_rsvd(a, b, c) -> Pencil:
    """``([0 A; A* 0], [BB* 0; 0 C*C])`` of order p+q."""
    return _aug("aug-rsvd", a, b, c)


def build_cpf_svd(a) -> Pencil:
    """Cross-product-free pencil of the ordinary SVD, order 2(p+q)."""
    return _cpf("cpf-svd", a)


def build_cpf_qsvd(a, c) -> Pencil:
    """Cross-product-free pencil of the QSVD, order p+q+p+n."""
    return _cpf("cpf-qsvd", a, c=c)


def build_cpf_rsvd(a, b, c) -> Pencil:
    """Cross-product-free pencil of the RSVD, order p+q+m+n."""
    return _cpf("cpf-rsvd", a, b, c)


@dataclass(frozen=True)
class Formulation:
    """One pencil formulation: what it decomposes and how it is built.

    ``kind`` is the decomposition (``svd``, ``qsvd``, ``rsvd``), ``family``
    the pencil family (``sq``, ``aug``, ``cpf``) and ``inputs`` the names of
    the matrices the builder takes, in order.
    """

    name: str
    kind: str
    family: str
    inputs: tuple[str, ...]
    build: Callable[..., Pencil]

    def build_from(self, mats) -> Pencil:
        """Build from a mapping of input names (``"a"``, ``"b"``, ...) to matrices."""
        return self.build(*(mats[k] for k in self.inputs))


# every formulation, keyed by name
FORMULATIONS = {f.name: f for f in (
    Formulation("sq-svd", "svd", "sq", ("a",), build_sq_svd),
    Formulation("aug-svd", "svd", "aug", ("a",), build_aug_svd),
    Formulation("sq-qsvd", "qsvd", "sq", ("a", "c"), build_sq_qsvd),
    Formulation("aug-qsvd", "qsvd", "aug", ("a", "c"), build_aug_qsvd),
    Formulation("aug-rsvd", "rsvd", "aug", ("a", "b", "c"), build_aug_rsvd),
    Formulation("cpf-svd", "svd", "cpf", ("a",), build_cpf_svd),
    Formulation("cpf-qsvd", "qsvd", "cpf", ("a", "c"), build_cpf_qsvd),
    Formulation("cpf-rsvd", "rsvd", "cpf", ("a", "b", "c"), build_cpf_rsvd),
)}
