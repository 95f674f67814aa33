import decimal
import itertools
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import RefCDD, RefDD, cdd_diag, cdd_from_parts, ref_cdd_solve

from pencilsvd import genmat
from pencilsvd.ddarith import CDD, dd_to_decimal_string
from pencilsvd.genmat import (
    GeneratorConfig,
    _grids,
    generate_qsvd,
    generate_rsvd,
    true_sigma_grid,
)
from pencilsvd.matcore import haar_unitary, rank_with_tol

EPS_DD = 2.0 ** -104


def _clear_grids():
    genmat._sigma_grid.cache_clear()
    _grids.cache_clear()


def test_sigma_grid_n2():
    grid = true_sigma_grid(2, 100.0)
    assert np.allclose(grid.to_float(), [10.0, 0.1], rtol=1e-15)


def test_sigma_grid_n3_middle_one():
    grid = true_sigma_grid(3, 10.0)
    assert grid.to_float()[1] == 1.0
    assert np.allclose(grid.to_float(), [np.sqrt(10), 1.0, 1 / np.sqrt(10)], rtol=1e-15)


def test_sigma_grid_worked_example_digits():
    # 12-digit reference values for n = 4, kappa = 10
    grid = true_sigma_grid(4, 10.0)
    strs = [dd_to_decimal_string(grid[j], 13) for j in range(4)]
    assert strs[0].startswith("3.162277660168")
    assert strs[1].startswith("1.467799267622")
    assert strs[2].startswith("6.812920690580")  # 0.681292069058
    assert strs[3].startswith("3.162277660168")  # 0.316227766017


def test_sigma_grid_symmetry_product_one():
    # generate_rsvd takes 1/eta as the reversed grid: each value is within
    # 2**-106 of its exact one, so eta_j eta_{n-1-j} is 1 to 2**-105, in
    # exact rational arithmetic on hi + lo
    for n, kappa in itertools.product(range(2, 33), (1.0, 7.3, 10.0, 1e4, 1e13, 1e16)):
        grid = true_sigma_grid(n, kappa)
        exact = [Fraction(hi) + Fraction(lo) for hi, lo in zip(grid.hi, grid.lo)]
        for j in range(n):
            assert abs(exact[j] * exact[n - 1 - j] - 1) <= Fraction(2) ** -105, (n, kappa, j)
        assert abs(exact[0] / exact[-1] / Fraction(kappa) - 1) <= Fraction(2) ** -105, (n, kappa)


@pytest.mark.parametrize("n", [2, 3, 4, 10, 17, 32])
def test_grids_against_a_60_digit_oracle(n):
    # each grid value is rounded to dd from a correctly rounded 50-digit
    # evaluation, so hi + lo is within 2**-106 relative of the exact value
    with mpmath.workdps(60):
        for kappa in (1.0, 1.5, 7.3, 10.0, 1e3, 1e7, 1e13, 1e16):
            for j, got in enumerate(zip(*(zip(g.hi, g.lo) for g in _grids(n, kappa)))):
                s = mpmath.mpf(kappa) ** (mpmath.mpf(n - 1 - 2 * j) / (2 * (n - 1)))
                root = mpmath.sqrt(1 + s * s)
                for (hi, lo), want in zip(got, (s, s / root, 1 / root)):
                    err = abs(mpmath.mpf(hi) + mpmath.mpf(lo) - want) / want
                    assert err <= 2.0 ** -105, (n, kappa, j, float(err))


def test_grids_ignore_the_callers_decimal_context():
    keys = [(17, 10.0), (5, 1e3), (32, 1e16), (3, 1.0)]
    _clear_grids()
    want = [[(g.hi.tobytes(), g.lo.tobytes()) for g in _grids(*key)] for key in keys]
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 5, decimal.ROUND_DOWN
        _clear_grids()
        got = [[(g.hi.tobytes(), g.lo.tobytes()) for g in _grids(*key)] for key in keys]
        assert (ctx.prec, ctx.rounding) == (5, decimal.ROUND_DOWN)
    _clear_grids()
    assert got == want


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), 0.5])
def test_grid_rejects_kappa_that_is_not_finite_and_at_least_one(kappa):
    with pytest.raises(ValueError, match="kappa must be finite and >= 1"):
        true_sigma_grid(4, kappa)


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=1, kappa_sigma=10, kappa_y=10)
    with pytest.raises(ValueError):
        GeneratorConfig(n=4, kappa_sigma=0.5, kappa_y=10)


@pytest.mark.parametrize("field,value", [
    ("kappa_y", float("nan")), ("kappa_y", float("inf")), ("kappa_sigma", float("nan")),
    ("kappa_x", float("inf")), ("n", 4.5), ("n", 4.0), ("n", "4"),
])
def test_config_rejects_non_finite_kappa_and_non_integer_n(field, value):
    kwargs = dict(n=4, kappa_sigma=10.0, kappa_y=10.0, kappa_x=10.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} "):
        GeneratorConfig(**kwargs)


def test_generate_qsvd_reconstruction_extended():
    cfg = GeneratorConfig(n=5, kappa_sigma=100.0, kappa_y=1e3, seed=11)
    prob = generate_qsvd(cfg)
    # A_dd Y = U Sigma_alpha to double-double accuracy; the stored working A
    # is its rounding, so A @ Y - U Sigma_alpha is dominated by that rounding
    ay = CDD.from_complex(prob.a).matmul(prob.y_dd)
    target = CDD.from_complex(prob.u).matmul(cdd_diag(prob.sigma_alpha))
    resid = ay - target
    mag = np.hypot(resid.re.hi, resid.im.hi).max()
    # |dA| <= eps |A|, amplified by ||Y|| = sqrt(kappa_y)
    bound = 4 * np.finfo(float).eps * np.abs(prob.a).max() * np.sqrt(cfg.kappa_y) * cfg.n
    assert mag <= bound


def _max_abs(z: CDD) -> float:
    return np.hypot(z.re.hi, z.im.hi).max()


def test_generate_qsvd_extended_residual_tiny():
    # recompute the assembly residual entirely in extended precision
    from pencilsvd.ddarith import cdd_solve

    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=100.0, seed=3)
    prob = generate_qsvd(cfg)
    y_ct = prob.y_dd.conj_t()
    a_dd = cdd_solve(y_ct, cdd_diag(prob.sigma_alpha).matmul(
        CDD.from_complex(prob.u).conj_t())).conj_t()
    resid = a_dd.matmul(prob.y_dd) - CDD.from_complex(prob.u).matmul(
        cdd_diag(prob.sigma_alpha))
    mag = np.hypot(resid.re.hi, resid.im.hi).max()
    assert mag <= 1e-25
    # the stored binary64 A and C, promoted exactly: A Y = U Sigma_alpha and
    # C Y = V Sigma_gamma up to their rounding, amplified by ||Y|| ||Y^-1||
    bound = 10 * cfg.kappa_y * 1e-16
    assert _max_abs(CDD.from_complex(prob.a).matmul(prob.y_dd)
                    - CDD.from_complex(prob.u).matmul(cdd_diag(prob.sigma_alpha))) <= bound
    assert _max_abs(CDD.from_complex(prob.c).matmul(prob.y_dd)
                    - CDD.from_complex(prob.v).matmul(cdd_diag(prob.sigma_gamma))) <= bound


def test_generate_rsvd_extended_residuals_tiny():
    from pencilsvd.ddarith import cdd_solve

    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=100.0, kappa_x=50.0, seed=4)
    prob = generate_rsvd(cfg)
    x_ct = prob.x_dd.conj_t()
    # X* B = U* and (X* A) Y = Sigma_alpha, rebuilt fully in extended precision
    b_resid = x_ct.matmul(cdd_solve(x_ct, CDD.from_complex(prob.u).conj_t())) \
        - CDD.from_complex(prob.u).conj_t()
    assert np.hypot(b_resid.re.hi, b_resid.im.hi).max() <= 1e-25
    w = cdd_solve(x_ct, cdd_diag(prob.sigma_alpha))
    a_dd = cdd_solve(prob.y_dd.conj_t(), w.conj_t()).conj_t()
    a_resid = x_ct.matmul(a_dd.matmul(prob.y_dd)) - cdd_diag(prob.sigma_alpha)
    assert np.hypot(a_resid.re.hi, a_resid.im.hi).max() <= 1e-25
    # the stored binary64 A, B and C, promoted exactly: Z_X and Z_Y invert
    # X* and Y to binary64 precision, so each relation holds to a multiple
    # of kappa * 1e-16 with kappa the product of the factors' conditions
    kx, ky = cfg.kappa_x, cfg.kappa_y
    a, b, c = (CDD.from_complex(m) for m in (prob.a, prob.b, prob.c))
    assert _max_abs(x_ct.matmul(a).matmul(prob.y_dd)
                    - cdd_diag(prob.sigma_alpha)) <= 10 * kx * ky * 1e-16
    assert _max_abs(c.matmul(prob.y_dd) - CDD.from_complex(prob.v).matmul(
        cdd_diag(prob.sigma_gamma))) <= 10 * ky * 1e-16
    assert _max_abs(x_ct.matmul(b) - CDD.from_complex(prob.u).conj_t()) <= 10 * kx * 1e-16


def test_generate_qsvd_kappa_y_one_unitary():
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=1.0, seed=5)
    prob = generate_qsvd(cfg)
    assert abs(np.linalg.cond(prob.y) - 1.0) <= 1e-12


def test_generate_qsvd_condition_numbers():
    cfg = GeneratorConfig(n=6, kappa_sigma=10.0, kappa_y=1e5, seed=7)
    prob = generate_qsvd(cfg)
    assert abs(np.linalg.cond(prob.y) - 1e5) <= 0.01 * 1e5
    # kappa(Sigma_alpha) = kappa(Sigma_gamma) = sqrt(kappa_sigma)
    ka = prob.sigma_alpha.to_float()
    kg = prob.sigma_gamma.to_float()
    assert ka.max() / ka.min() == pytest.approx(np.sqrt(10), rel=1e-10)
    assert kg.max() / kg.min() == pytest.approx(np.sqrt(10), rel=1e-10)


def test_generate_qsvd_quotients_equal_grid():
    cfg = GeneratorConfig(n=5, kappa_sigma=1e3, kappa_y=10.0, seed=9)
    prob = generate_qsvd(cfg)
    quot = RefDD.of(prob.sigma_alpha) / prob.sigma_gamma
    diff = quot - prob.sigmas
    assert np.max(np.abs(diff.hi) / prob.sigmas.hi) <= 16 * EPS_DD


def test_generate_qsvd_normalization():
    cfg = GeneratorConfig(n=4, kappa_sigma=100.0, kappa_y=10.0, seed=13)
    prob = generate_qsvd(cfg)
    unit = (RefDD.of(prob.sigma_alpha) * prob.sigma_alpha
            + RefDD.of(prob.sigma_gamma) * prob.sigma_gamma)
    assert np.max(np.abs(unit.to_float() - 1.0)) <= 16 * EPS_DD


def test_generate_rsvd_unitary_factors_reduce_to_svd():
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=1.0, kappa_x=1.0, seed=17)
    prob = generate_rsvd(cfg)
    # with unitary X, Y the restricted values are the ordinary singular
    # values of B^-1 A C^-1 = U Sigma_alpha Sigma_gamma^-1 V*, i.e. the grid
    vals = np.linalg.svd(np.linalg.solve(prob.b, prob.a) @ np.linalg.inv(prob.c),
                         compute_uv=False)
    assert np.allclose(np.sort(vals)[::-1], prob.sigmas.to_float(), rtol=1e-10)


def test_generate_rsvd_full_ranks_and_definite_rhs():
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=100.0, kappa_x=100.0, seed=19)
    prob = generate_rsvd(cfg)
    assert rank_with_tol(prob.b).rank == 4
    assert rank_with_tol(prob.c).rank == 4
    from pencilsvd.pencils import build_aug_rsvd

    pencil = build_aug_rsvd(prob.a, prob.b, prob.c)
    np.linalg.cholesky(pencil.rhs)  # raises if not positive definite


def test_generate_rsvd_sigma_grid_matches_qsvd():
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=100.0, kappa_x=10.0, seed=23)
    pq = generate_qsvd(cfg)
    pr = generate_rsvd(cfg)
    assert np.array_equal(pq.sigmas.to_float(), pr.sigmas.to_float())


@pytest.mark.parametrize("n,seed", [(4, 2), (10, 0)])
def test_generate_qsvd_beyond_its_kappa_y_range_raises_value_error(n, seed):
    # at kappa_y = 1e18 binary64 LU of Y* either cannot start the refinement
    # or meets an exact zero pivot (n = 4, seed 2); both are a ValueError
    with pytest.raises(ValueError, match="refinement stopped converging|too large"):
        generate_qsvd(GeneratorConfig(n=n, kappa_sigma=10.0, kappa_y=1e18, seed=seed))


def test_generator_determinism():
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=100.0, seed=29)
    p1 = generate_qsvd(cfg)
    p2 = generate_qsvd(cfg)
    assert np.array_equal(p1.a, p2.a)
    assert np.array_equal(p1.c, p2.c)


def _diag(d):
    return RefCDD.of(cdd_diag(d))


def _assert_qsvd_matches_dd_lu(cfg):
    """``Y = U_Y diag(eta_y) V_Y*`` rebuilt from the same Haar draws, and
    ``A* = Y^-* Sigma_alpha U*``, ``C* = Y^-* Sigma_gamma V*`` solved by the
    operator-level dd LU of ``helpers.ref_cdd_solve``: the stored binary64
    matrices must be their roundings, byte for byte."""
    q = generate_qsvd(cfg)
    rng = np.random.default_rng(cfg.seed)
    uy, vy, u, v = (CDD.from_complex(haar_unitary(cfg.n, rng)) for _ in range(4))
    y = RefCDD.of(uy).matmul(_diag(true_sigma_grid(cfg.n, cfg.kappa_y))).matmul(RefCDD.of(vy.conj_t()))
    y_ct = RefCDD.of(cdd_from_parts(y.re, y.im).conj_t())
    for name, f, d in (("a", u, q.sigma_alpha), ("c", v, q.sigma_gamma)):
        x = ref_cdd_solve(y_ct, _diag(d).matmul(RefCDD.of(f.conj_t())))
        want = cdd_from_parts(x.re, x.im).conj_t().to_complex()
        assert getattr(q, name).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("kappa_y", [10.0 ** e for e in range(1, 11)])
def test_qsvd_matches_dd_lu_along_kappa_y(n, kappa_y):
    _assert_qsvd_matches_dd_lu(GeneratorConfig(n=n, kappa_sigma=1e3, kappa_y=kappa_y,
                                               seed=int(np.log10(kappa_y)) + 100 * n))


@pytest.mark.parametrize("n,kappa_sigma,kappa_y,kappa_x,seed", [
    (4, 10.0, 100.0, 50.0, 31),
    (7, 1e6, 1e7, 1e3, 37),
    (10, 1e13, 10.0, 1.0, 41),
])
def test_generators_match_reference_constructions(n, kappa_sigma, kappa_y, kappa_x, seed):
    # qsvd: the stored A and C against an operator-level dd LU
    cfg = GeneratorConfig(n=n, kappa_sigma=kappa_sigma, kappa_y=kappa_y,
                          kappa_x=kappa_x, seed=seed)
    _assert_qsvd_matches_dd_lu(cfg)

    # rsvd: the defining relation A = Z_X Sigma_alpha Z_Y, B = Z_X U*,
    # C = V Sigma_gamma Z_Y with Z_Y = V_Y diag(1/eta_y) U_Y* (~ Y^-1) and
    # Z_X = U_X diag(1/eta_x) V_X* (~ X^-*), rebuilt from the same Haar draws
    # one real dd operation at a time; it must round to the same bits
    r = generate_rsvd(cfg)
    rng = np.random.default_rng(seed)
    uy, vy, ux, vx, u, v = (CDD.from_complex(haar_unitary(n, rng)) for _ in range(6))
    eta_y, eta_x = true_sigma_grid(n, kappa_y), true_sigma_grid(n, kappa_x)
    ref, diag = RefCDD.of, _diag
    z_y = ref(vy).matmul(diag(RefDD(1.0) / eta_y)).matmul(ref(uy.conj_t()))
    z_x = ref(ux).matmul(diag(RefDD(1.0) / eta_x)).matmul(ref(vx.conj_t()))
    want = {
        "a": z_x.matmul(diag(r.sigma_alpha)).matmul(z_y),
        "b": z_x.matmul(ref(u.conj_t())),
        "c": ref(v).matmul(diag(r.sigma_gamma)).matmul(z_y),
        "x": ref(ux).matmul(diag(eta_x)).matmul(ref(vx.conj_t())),
        "y": ref(uy).matmul(diag(eta_y)).matmul(ref(vy.conj_t())),
    }
    for name, ref in want.items():
        ref = ref.re.to_float() + 1j * ref.im.to_float()
        assert getattr(r, name).tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("n", [2, 3, 10, 17])
@pytest.mark.parametrize("kappa_sigma,kappa_y,kappa_x",
                         [(1.0, 1.0, 1.0), (10.0, 1e3, 1.0), (1e6, 1e7, 50.0), (1e13, 1e12, 1e6)])
def test_rsvd_stacked_products_equal_the_sequential_ones(n, kappa_sigma, kappa_y, kappa_x):
    # the generator draws its six factors in one call and forms Y, X, Z_Y,
    # Z_X and then A, B, C as two stacked products; the seven 2-d products
    # from six successive draws must give the same bits
    cfg = GeneratorConfig(n=n, kappa_sigma=kappa_sigma, kappa_y=kappa_y,
                          kappa_x=kappa_x, seed=n + int(np.log10(kappa_y)))
    r = generate_rsvd(cfg)
    rng = np.random.default_rng(cfg.seed)
    uy, vy, ux, vx, u, v = (CDD.from_complex(haar_unitary(n, rng)) for _ in range(6))
    eta_y, eta_x = true_sigma_grid(n, kappa_y), true_sigma_grid(n, kappa_x)
    sandwich = genmat._sandwich
    z_y = sandwich(vy, RefDD(1.0) / eta_y, uy)
    z_x = sandwich(ux, RefDD(1.0) / eta_x, vx)
    want = {
        "a": z_x.scaled(r.sigma_alpha).matmul(z_y),
        "b": z_x.matmul(u.conj_t()),
        "c": v.scaled(r.sigma_gamma).matmul(z_y),
        "x_dd": sandwich(ux, eta_x, vx),
        "y_dd": sandwich(uy, eta_y, vy),
    }
    for name, z in want.items():
        got = getattr(r, name)
        if name in "abc":
            assert got.tobytes() == z.to_complex().tobytes(), name
        else:
            assert (got.hi.tobytes(), got.lo.tobytes()) == (z.hi.tobytes(), z.lo.tobytes()), name
    assert (r.u.tobytes(), r.v.tobytes()) == (u.to_complex().tobytes(), v.to_complex().tobytes())


def _restricted_values_mp(p):
    """Singular values, at 40 digits, of the stored binary64 problem's
    A C^-1 (qsvd) or B^-1 A C^-1 (rsvd), largest first."""
    with mpmath.workdps(40):
        m = mpmath.matrix(p.a.tolist()) * mpmath.inverse(mpmath.matrix(p.c.tolist()))
        if p.b is not None:
            m = mpmath.inverse(mpmath.matrix(p.b.tolist())) * m
        return sorted(mpmath.svd_c(m, compute_uv=False), reverse=True)


@pytest.mark.parametrize("kappa_y", [10.0, 1e3])
@pytest.mark.parametrize("generate", [generate_qsvd, generate_rsvd])
def test_stored_problem_values_match_the_grid_in_mpmath(generate, kappa_y):
    # an oracle independent of the dd layer: the values of the stored
    # matrices, at 40 digits, sit on the grid up to the input rounding
    # (measured at most 1.6e-14 relative on these problems)
    for seed in range(3):
        p = generate(GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=kappa_y,
                                     kappa_x=10.0, seed=seed))
        got = _restricted_values_mp(p)
        for value, sigma in zip(got, p.sigmas.to_float()):
            assert abs(float(value) / sigma - 1.0) <= 2e-13


_FIELDS = ("a", "b", "c", "u", "v", "sigmas", "sigma_alpha", "sigma_gamma", "x_dd", "y_dd")


def _field_bytes(problem):
    out = []
    for name in _FIELDS:
        value = getattr(problem, name)
        if isinstance(value, np.ndarray):
            value = value.tobytes()
        elif value is not None:
            value = (value.hi.tobytes(), value.lo.tobytes())
        out.append(value)
    return out


def test_generate_dispatches_on_kind():
    cfg = GeneratorConfig(n=3, kappa_sigma=10.0, kappa_y=10.0, kappa_x=10.0, seed=5)
    for kind, make in (("qsvd", generate_qsvd), ("rsvd", generate_rsvd)):
        assert _field_bytes(genmat.generate(kind, cfg)) == _field_bytes(make(cfg))
    with pytest.raises(ValueError, match="unknown kind 'svd'"):
        genmat.generate("svd", cfg)


@pytest.mark.parametrize("generate", [generate_qsvd, generate_rsvd])
def test_memoised_grids_give_the_same_bits_cold_and_warm(generate):
    cfg = GeneratorConfig(n=5, kappa_sigma=1e3, kappa_y=1e4, kappa_x=10.0, seed=43)
    _clear_grids()
    cold = _field_bytes(generate(cfg))
    assert genmat._sigma_grid.cache_info().currsize > 0
    assert _grids.cache_info().currsize > 0
    assert _field_bytes(generate(cfg)) == cold
    # an int kappa is the same key as the equal float, and the same bits
    same = GeneratorConfig(n=5, kappa_sigma=1000, kappa_y=10000, kappa_x=10, seed=43)
    assert _field_bytes(generate(same)) == cold


def test_eta_grids_leave_alpha_and_gamma_unevaluated():
    _clear_grids()
    generate_rsvd(GeneratorConfig(n=4, kappa_sigma=1e3, kappa_y=1e5, kappa_x=7.0, seed=3))
    generate_qsvd(GeneratorConfig(n=4, kappa_sigma=1e3, kappa_y=1e6, seed=3))
    # four grid keys, (4, 1e3), (4, 1e5), (4, 7) and (4, 1e6), each evaluated
    # once; alpha and gamma only for kappa_sigma, from its memoised grid
    sigma, alpha_gamma = genmat._sigma_grid.cache_info(), _grids.cache_info()
    assert (sigma.misses, sigma.currsize) == (4, 4)
    assert (alpha_gamma.misses, alpha_gamma.currsize) == (1, 1)
    _clear_grids()


def test_memoised_grids_are_read_only():
    prob = generate_qsvd(GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=10.0, seed=47))
    for grid in (prob.sigmas, prob.sigma_alpha, prob.sigma_gamma):
        for arr in (grid.hi, grid.lo):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
    assert true_sigma_grid(4, 10.0) is prob.sigmas


def test_memoised_grid_n2_and_kappa_one():
    _clear_grids()
    for _ in range(2):  # cold, then from the memo
        assert true_sigma_grid(2, 100.0).to_float().tolist() == pytest.approx([10.0, 0.1],
                                                                             rel=1e-15)
        grid = true_sigma_grid(5, 1.0)
        assert grid.hi.tolist() == [1.0] * 5 and not np.any(grid.lo)
        prob = generate_qsvd(GeneratorConfig(n=3, kappa_sigma=1.0, kappa_y=1.0, seed=53))
        half = np.sqrt(0.5)
        assert prob.sigma_alpha.to_float() == pytest.approx([half] * 3, rel=1e-15)
        assert prob.sigma_gamma.to_float() == pytest.approx([half] * 3, rel=1e-15)
        assert abs(np.linalg.cond(prob.y) - 1.0) <= 1e-12
