"""Random test problems with prescribed condition numbers and exact values.

The quotient generator draws Haar unitaries ``U_Y, V_Y, U, V``, builds
``Y = U_Y diag(eta) V_Y*`` with the geometric grid
``eta_j = kappa_Y**(1/2 - (j-1)/(n-1))``, sets the singular value grid
``sigma_j = kappa_Sigma**(1/2 - (j-1)/(n-1))`` with
``alpha_j = sigma_j (1+sigma_j^2)**(-1/2)``, ``gamma_j = (1+sigma_j^2)**(-1/2)``,
and assembles ``A = U Sigma_alpha Y^-1``, ``C = V Sigma_gamma Y^-1``.

The restricted generator additionally draws ``X = U_X diag(eta_x) V_X*``
like ``Y`` (condition number ``kappa_X``; draw order ``U_Y, V_Y, U_X, V_X,
U, V``) and builds the inverses as products, with no solve:
``Z_Y = V_Y diag(1/eta_y) U_Y*`` (about ``Y^-1``) and
``Z_X = U_X diag(1/eta_x) V_X*`` (about ``X^-*``), then
``A = (Z_X Sigma_alpha) Z_Y``, ``B = Z_X U*`` (``Sigma_beta = I``) and
``C = (V Sigma_gamma) Z_Y``.  For any invertible ``Z_X``, ``Z_Y``,
``B^-1 A C^-1 = U^-* Sigma_alpha Sigma_gamma^-1 V^-1``, so the restricted
values are the grid up to the unitarity of ``U`` and ``V``, as for the
quotient generator.  ``x_dd`` and ``y_dd`` are ``X`` and ``Y``, which
``Z_X`` and ``Z_Y`` invert only to binary64 precision: ``X^-* Sigma_alpha
Y^-1 = A`` holds to about ``kappa * 1e-16``, enough for the binary64
reduction checks of :mod:`pencilsvd.kcf`.

Each generator draws its Haar factors in one stacked call
(``haar_unitary(n, rng, count)``), in the order above and with the bytes
of successive draws.  The restricted generator forms ``Y, X, Z_Y, Z_X`` in
one stacked double-double product and ``A, B, C`` in a second; each member
has the bits of its own product.  ``1/eta`` is the reversed grid, since
``eta_j eta_{n-1-j} = 1``: no division, and each value within ``2**-106``
relative of the exact reciprocal.

The grids (sigma, alpha, gamma, and eta of ``Y`` and ``X``) are evaluated
at 50 digits in ``decimal`` and rounded to double-double once
(:func:`_sigma_grid`, :func:`_grids`).  Random numbers are generated in
binary64 and promoted exactly; the products run in double-double, and
the quotient generator's solves factor ``Y*`` in binary64 and refine in
double-double (``cdd_solve``); the matrices are rounded to working
precision only at the very end.
The Haar factors are binary64 samples, unitary only to about 1e-16, so
the grid values match the singular values of the double-double problem to
5e-18..3e-16 relative (n = 4, kappa_Y = 1e7), not to 30 digits; rounding
the matrices to binary64 moves the stored problem's values further
(5e-13..1.3e-10 relative at kappa_Y = 1e7).
``truth.txt`` of the CLI prints the correctly rounded grid to 30 digits.
Problems are square (p = q = m = n) and full rank by construction.  The
grids depend only on ``(n, kappa)`` and are memoised.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext

import numpy as np

from .ddarith import CDD, DD, cdd_solve, dd_from_decimal
from .matcore import haar_unitary


@dataclass(frozen=True)
class GeneratorConfig:
    """Size, condition numbers and seed of a problem.  The quotient
    generator's ``kappa_y`` range ends where its solves' binary64 LU
    refinement stops converging, with a ValueError: safe while
    ``kappa_y * n * eps`` <~ 1e-2, at about 1e17 for n = 4..32."""

    n: int
    kappa_sigma: float
    kappa_y: float
    kappa_x: float = 1.0
    seed: object = None

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2 (the exponent grid needs n-1 > 0)")
        for name in ("kappa_sigma", "kappa_y", "kappa_x"):
            value = getattr(self, name)
            if not 1.0 <= value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be finite and >= 1, got {value!r}")


@dataclass(frozen=True)
class GeneratedProblem:
    """Working-precision matrices plus extended-precision ground truth.

    ``sigmas``, ``sigma_alpha`` and ``sigma_gamma`` are the memoised grids
    of ``(n, kappa_sigma)``, shared with every problem of that key and
    read-only.  ``y_dd`` is ``Y`` (and ``x_dd`` is ``X`` for rsvd) in
    double-double.  The quotient ``A`` and ``C`` are solved against ``Y``
    (binary64 LU, double-double refinement); the restricted ``A``, ``B``
    and ``C`` are built from products whose ``Z_Y`` and ``Z_X`` invert
    ``Y`` and ``X*`` only to binary64 precision (see the module docstring).
    """

    kind: str
    config: GeneratorConfig
    a: np.ndarray
    b: np.ndarray | None
    c: np.ndarray
    sigmas: DD
    sigma_alpha: DD
    sigma_gamma: DD
    u: np.ndarray
    v: np.ndarray
    x_dd: CDD | None
    y_dd: CDD

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def y(self) -> np.ndarray:
        return self.y_dd.to_complex()

    @property
    def x(self) -> np.ndarray | None:
        return None if self.x_dd is None else self.x_dd.to_complex()


def true_sigma_grid(n: int, kappa: float) -> DD:
    """Geometric grid ``kappa**(1/2 - (j-1)/(n-1))`` in double-double,
    each value within about ``2**-106`` relative of the exact one.

    The grid is nonincreasing with ``sigma_1 * sigma_n = 1`` and
    ``sigma_1 / sigma_n = kappa`` (all ones for ``kappa = 1``).  The
    returned arrays are shared and read-only (see :func:`_sigma_grid`).
    """
    if n < 2:
        raise ValueError("grid needs n >= 2")
    if not 1.0 <= kappa < math.inf:  # NaN fails both comparisons
        raise ValueError(f"kappa must be finite and >= 1, got {kappa!r}")
    return _sigma_grid(n, kappa)[1]


_GRID_CONTEXT = Context(prec=50, rounding=ROUND_HALF_EVEN)  # copied by localcontext


def _read_only(x: DD) -> DD:
    x.hi.setflags(write=False)
    x.lo.setflags(write=False)
    return x


@functools.lru_cache
def _sigma_grid(n: int, kappa: float) -> tuple[tuple[Decimal, ...], DD]:
    """The grid of one ``(n, kappa)`` at 50 digits and in double-double,
    computed once (the eta grids of ``Y`` and ``X`` read only this).  The
    values are evaluated in a fresh ``decimal`` context and rounded by
    :func:`dd_from_decimal`, so each ``hi + lo`` is within about ``2**-106``
    relative of the exact value (exactly ones for ``kappa = 1``).  Every
    problem of the same key shares the arrays, so they are read-only."""
    with localcontext(_GRID_CONTEXT):
        log_kappa = Decimal(kappa).ln()
        sigmas = tuple((log_kappa * (n - 1 - 2 * j) / (2 * (n - 1))).exp() for j in range(n))
        return sigmas, _read_only(dd_from_decimal(sigmas))


@functools.lru_cache
def _grids(n: int, kappa: float) -> tuple[DD, DD, DD]:
    """``(sigmas, alpha, gamma)`` of the grid of :func:`_sigma_grid`,
    alpha and gamma computed once per ``(n, kappa)`` in the same way."""
    sigmas, grid = _sigma_grid(n, kappa)
    with localcontext(_GRID_CONTEXT):
        roots = [(1 + s * s).sqrt() for s in sigmas]
        return (grid, _read_only(dd_from_decimal(s / r for s, r in zip(sigmas, roots))),
                _read_only(dd_from_decimal(1 / r for r in roots)))


def _sandwich(u: CDD, d: DD, v: CDD) -> CDD:
    """``u diag(d) v*`` in double-double (member by member for stacks,
    with ``d`` of shape ``(batch, 1, n)``)."""
    return u.scaled(d).matmul(v.conj_t())


def generate_qsvd(config: GeneratorConfig) -> GeneratedProblem:
    """Quotient pair (A, C) with quotient singular values on the sigma grid."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    uy, vy, u, v = haar_unitary(n, rng, 4)
    y_dd = _sandwich(CDD.from_complex(uy), true_sigma_grid(n, config.kappa_y),
                    CDD.from_complex(vy))
    sigmas, alpha, gamma = _grids(n, config.kappa_sigma)
    y_ct = y_dd.conj_t()
    try:
        a_dd = cdd_solve(y_ct, CDD.from_complex(u).conj_t().scaled(alpha[:, None])).conj_t()
        c_dd = cdd_solve(y_ct, CDD.from_complex(v).conj_t().scaled(gamma[:, None])).conj_t()
    except ZeroDivisionError:  # Y rounds to a singular binary64 matrix
        raise ValueError(f"kappa_y {config.kappa_y:g} is too large for binary64 LU") from None
    return GeneratedProblem(
        kind="qsvd", config=config,
        a=a_dd.to_complex(), b=None, c=c_dd.to_complex(),
        sigmas=sigmas, sigma_alpha=alpha, sigma_gamma=gamma,
        u=u, v=v, x_dd=None, y_dd=y_dd,
    )


def generate_rsvd(config: GeneratorConfig) -> GeneratedProblem:
    """Restricted triplet (A, B, C) with values on the sigma grid, built
    from products only (see the module docstring)."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    w = haar_unitary(n, rng, 6)  # U_Y, V_Y, U_X, V_X, U, V
    u, v = w[4], w[5]
    sigmas, alpha, gamma = _grids(n, config.kappa_sigma)
    # Y, X, Z_Y ~ Y^-1 and Z_X ~ X^-* as one stacked product; 1/eta is the
    # reversed grid (eta_j eta_{n-1-j} = 1)
    eta = [true_sigma_grid(n, kappa) for kappa in (config.kappa_y, config.kappa_x)]
    eta += [e[::-1] for e in eta]
    d = DD(np.stack([e.hi for e in eta])[:, None], np.stack([e.lo for e in eta])[:, None])
    first = _sandwich(CDD.from_complex(w[[0, 2, 1, 2]]), d, CDD.from_complex(w[[1, 3, 0, 3]]))
    y_dd, x_dd, z_y, z_x = (first[i] for i in range(4))
    # A = (Z_X Sigma_alpha) Z_Y, B = Z_X U*, C = (V Sigma_gamma) Z_Y as a second one
    left = CDD.stack([z_x.scaled(alpha), z_x, CDD.from_complex(v).scaled(gamma)])
    second = left.matmul(CDD.stack([z_y, CDD.from_complex(u).conj_t(), z_y]))
    a_dd, b_dd, c_dd = (second[i] for i in range(3))
    return GeneratedProblem(
        kind="rsvd", config=config,
        a=a_dd.to_complex(), b=b_dd.to_complex(), c=c_dd.to_complex(),
        sigmas=sigmas, sigma_alpha=alpha, sigma_gamma=gamma,
        u=u, v=v, x_dd=x_dd, y_dd=y_dd,
    )


def generate(kind: str, config: GeneratorConfig) -> GeneratedProblem:
    """A ``"qsvd"`` or ``"rsvd"`` problem; any other kind raises ValueError."""
    if kind == "qsvd":
        return generate_qsvd(config)
    if kind == "rsvd":
        return generate_rsvd(config)
    raise ValueError(f"unknown kind {kind!r}")
