"""Random test problems with prescribed condition numbers and exact values.

The quotient generator draws Haar unitaries ``U_Y, V_Y, U, V``, builds
``Y = U_Y diag(eta) V_Y*`` with the geometric grid
``eta_j = kappa_Y**(1/2 - (j-1)/(n-1))``, sets the singular value grid
``sigma_j = kappa_Sigma**(1/2 - (j-1)/(n-1))`` with
``alpha_j = sigma_j (1+sigma_j^2)**(-1/2)``, ``gamma_j = (1+sigma_j^2)**(-1/2)``,
and assembles ``A = U Sigma_alpha Y^-1``, ``C = V Sigma_gamma Y^-1``.

The restricted generator additionally draws ``X`` like ``Y`` (condition
number ``kappa_X``) and assembles ``A = X^-* Sigma_alpha Y^-1``,
``B = X^-* U*`` (``Sigma_beta = I``), ``C = V Sigma_gamma Y^-1``.

Random numbers are generated in binary64 and promoted exactly; everything
downstream (grids, products, solves) runs in double-double and is rounded
to working precision only at the very end.  The Haar factors are binary64
samples, unitary only to about 1e-16, so the grid values match the
singular values of the double-double problem to 5e-18..3e-16 relative
(n = 4, kappa_Y = 1e7), not to 30 digits; rounding the matrices to
binary64 moves the stored problem's values further (5e-13..1.3e-10
relative at kappa_Y = 1e7).
``truth.txt`` of the CLI prints 30 digits of the grid.  Problems are
square (p = q = m = n) and full rank by construction.

The grids depend only on ``(n, kappa)``, so each is computed once and
memoised; problems generated with the same ``(n, kappa)`` share the
memoised ``sigmas``, ``sigma_alpha`` and ``sigma_gamma``, whose arrays
are read-only.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ddarith import CDD, DD, cdd_diag, cdd_solve, dd_nth_root, dd_pow_int
from .matcore import haar_unitary


@dataclass(frozen=True)
class GeneratorConfig:
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
    read-only.
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

    def true_sigmas_float(self) -> np.ndarray:
        return self.sigmas.to_float()


def true_sigma_grid(n: int, kappa: float) -> DD:
    """Geometric grid ``kappa**(1/2 - (j-1)/(n-1))`` in double-double.

    The grid is nonincreasing with ``sigma_1 * sigma_n = 1`` and
    ``sigma_1 / sigma_n = kappa``.  The returned arrays are shared and
    read-only (see :func:`_grids`).
    """
    if n < 2:
        raise ValueError("grid needs n >= 2")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    return _grids(n, kappa)[0]


@functools.lru_cache
def _grids(n: int, kappa: float) -> tuple[DD, DD, DD]:
    """``(sigmas, alpha, gamma)`` for one ``(n, kappa)``, computed once.

    Every problem generated with the same ``(n, kappa)`` shares these
    arrays, so their ``hi`` and ``lo`` parts are read-only.
    """
    root = dd_nth_root(DD(np.array(float(kappa))), 2 * (n - 1))
    hi = np.empty(n)
    lo = np.empty(n)
    for j in range(n):
        val = dd_pow_int(root, n - 1 - 2 * j)
        hi[j] = val.hi
        lo[j] = val.lo
    sigmas = DD(hi, lo)
    denom = (sigmas * sigmas + 1.0).sqrt()
    grids = (sigmas, sigmas / denom, DD(np.ones(n)) / denom)
    for x in grids:
        x.hi.setflags(write=False)
        x.lo.setflags(write=False)
    return grids


def _conditioned_factor(n: int, kappa: float, rng) -> CDD:
    """Haar-by-Haar sandwich with exactly known singular value grid."""
    u = haar_unitary(n, rng)
    v = haar_unitary(n, rng)
    eta = _grids(n, kappa)[0] if kappa > 1.0 else DD(np.ones(n))
    return CDD.from_complex(u).scaled(eta).matmul(CDD.from_complex(v).conj_t())


def generate_qsvd(config: GeneratorConfig) -> GeneratedProblem:
    """Quotient pair (A, C) with quotient singular values on the sigma grid."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    y_dd = _conditioned_factor(n, config.kappa_y, rng)
    u = haar_unitary(n, rng)
    v = haar_unitary(n, rng)
    sigmas, alpha, gamma = _grids(n, config.kappa_sigma)
    y_ct = y_dd.conj_t()
    a_dd = cdd_solve(y_ct, CDD.from_complex(u).conj_t().scaled(alpha[:, None])).conj_t()
    c_dd = cdd_solve(y_ct, CDD.from_complex(v).conj_t().scaled(gamma[:, None])).conj_t()
    return GeneratedProblem(
        kind="qsvd", config=config,
        a=a_dd.to_complex(), b=None, c=c_dd.to_complex(),
        sigmas=sigmas, sigma_alpha=alpha, sigma_gamma=gamma,
        u=u, v=v, x_dd=None, y_dd=y_dd,
    )


def generate_rsvd(config: GeneratorConfig) -> GeneratedProblem:
    """Restricted triplet (A, B, C) with values on the sigma grid."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    y_dd = _conditioned_factor(n, config.kappa_y, rng)
    x_dd = _conditioned_factor(n, config.kappa_x, rng)
    u = haar_unitary(n, rng)
    v = haar_unitary(n, rng)
    sigmas, alpha, gamma = _grids(n, config.kappa_sigma)
    # one solve per factor: [W | B] = X^-* [Sigma_alpha | U*], then
    # [A* | C*] = Y^-* [W* | Sigma_gamma V*]
    wb = cdd_solve(x_dd.conj_t(), CDD.hstack(cdd_diag(alpha), CDD.from_complex(u).conj_t()))
    w, b_dd = wb[:, :n], wb[:, n:]
    ac_ct = cdd_solve(y_dd.conj_t(), CDD.hstack(
        w.conj_t(), CDD.from_complex(v).conj_t().scaled(gamma[:, None])))
    a_dd = ac_ct[:, :n].conj_t()
    c_dd = ac_ct[:, n:].conj_t()
    return GeneratedProblem(
        kind="rsvd", config=config,
        a=a_dd.to_complex(), b=b_dd.to_complex(), c=c_dd.to_complex(),
        sigmas=sigmas, sigma_alpha=alpha, sigma_gamma=gamma,
        u=u, v=v, x_dd=x_dd, y_dd=y_dd,
    )
