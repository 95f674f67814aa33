import numpy as np
import pytest
from decimal import ROUND_DOWN, Decimal, getcontext, localcontext
from fractions import Fraction
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RefCDD, RefDD, cdd_diag, cdd_from_parts, ref_cdd_solve

from pencilsvd import ddarith
from pencilsvd.ddarith import (
    _OUTER_PRODUCT_BUDGET,
    _REFINE_RESOLUTION,
    _REFINE_SHRINK,
    _REFINE_STALL_LIMIT,
    DD,
    CDD,
    _refinement_stops,
    cdd_solve,
    dd_from_decimal,
    dd_to_decimal_string,
)
from pencilsvd.genmat import true_sigma_grid
from pencilsvd.matcore import haar_unitary

EPS_DD = 2.0 ** -104


def exact(x: DD):
    """Exact rational value of a dd scalar."""
    return Fraction(float(x.hi)) + Fraction(float(x.lo))


def rel_err(x: DD, ref: Fraction) -> float:
    if ref == 0:
        return float(abs(exact(x)))
    return float(abs((exact(x) - ref) / ref))


def test_add_mul_div_against_exact_rationals():
    # the reference operators, on the library's sum and product formulas
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = RefDD(rng.standard_normal(), rng.standard_normal() * 1e-18)
        b = RefDD(rng.standard_normal(), rng.standard_normal() * 1e-18)
        fa, fb = exact(a), exact(b)
        assert rel_err(a + b, fa + fb) <= 4 * EPS_DD
        assert rel_err(a - b, fa - fb) <= 4 * EPS_DD
        assert rel_err(a * b, fa * fb) <= 4 * EPS_DD
        if fb != 0:
            assert rel_err(a / b, fa / fb) <= 4 * EPS_DD


def test_vectorized_ops_match_scalar():
    rng = np.random.default_rng(2)
    a = RefDD(rng.standard_normal(16), rng.standard_normal(16) * 1e-18)
    b = RefDD(rng.standard_normal(16), rng.standard_normal(16) * 1e-18)
    c = a * b + a / b
    for i in range(16):
        ci = a[i] * b[i] + a[i] / b[i]
        assert float(ci.hi) == float(c.hi[i])
        assert float(ci.lo) == float(c.lo[i])


def test_roundtrip_binary64_exact():
    x = np.array([1.0, -3.5, 1e-300, 7.1e200, 0.1])
    assert np.array_equal(DD(x).to_float(), x)


def test_to_float_rounds_correctly():
    a = DD(1.0, 2.0 ** -54)  # halfway case rounds to even
    assert a.to_float() == 1.0
    b = DD(1.0, 2.0 ** -53 + 2.0 ** -60)
    assert b.to_float() == 1.0 + 2.0 ** -52


def test_dd_requires_a_lo_of_the_shape_of_hi():
    assert np.array_equal(DD(np.ones(3)).lo, np.zeros(3))
    for lo in (0.0, np.zeros(1), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="does not match hi of shape"):
            DD(np.ones(3), lo)


def test_cdd_wraps_its_arrays_without_copying():
    hi, lo = np.ones((2, 3)), np.zeros((2, 3))
    z = CDD(hi, lo)
    assert z.hi is hi and z.lo is lo and z.shape == (3,)


def test_cdd_matmul_precision():
    # Hilbert-like product that loses digits in binary64
    n = 6
    h = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    hc = CDD.from_complex(h + 0j)
    prod = hc.matmul(hc)
    ref = np.zeros((n, n), dtype=object)
    hf = [[Fraction(h[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            ref[i, j] = sum(hf[i][k] * hf[k][j] for k in range(n))
    for i in range(n):
        for j in range(n):
            got = Fraction(float(prod.re.hi[i, j])) + Fraction(float(prod.re.lo[i, j]))
            assert abs(got - ref[i, j]) <= Fraction(1, 10 ** 30)


def test_cdd_matmul_complex_rectangular():
    # 3x5 @ 5x2 against exact rational arithmetic, real and imaginary parts
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    prod = CDD.from_complex(a).matmul(CDD.from_complex(b))
    assert prod.shape == (3, 2)
    fa = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in a]
    fb = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in b]
    for i in range(3):
        for j in range(2):
            re = sum(fa[i][k][0] * fb[k][j][0] - fa[i][k][1] * fb[k][j][1] for k in range(5))
            im = sum(fa[i][k][0] * fb[k][j][1] + fa[i][k][1] * fb[k][j][0] for k in range(5))
            assert abs(exact(prod.re[i, j]) - re) <= Fraction(1, 10 ** 29)
            assert abs(exact(prod.im[i, j]) - im) <= Fraction(1, 10 ** 29)


@pytest.mark.parametrize("rhs_shape", [(4,), (4, 2)])
def test_cdd_solve_row_swap_leaves_inputs_unchanged(rhs_shape):
    # a tiny (0, 0) entry forces a row swap at step 0
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a[0, 0] = 1e-3 + 1e-3j
    b = rng.standard_normal(rhs_shape) + 1j * rng.standard_normal(rhs_shape)
    ac, bc = CDD.from_complex(a), CDD.from_complex(b)
    a_before, b_before = CDD.from_complex(a), CDD.from_complex(b)
    x = cdd_solve(ac, bc)
    assert x.shape == rhs_shape
    x2 = x if len(rhs_shape) == 2 else x[:, None]
    b2 = bc if len(rhs_shape) == 2 else bc[:, None]
    resid = ac.matmul(x2) - b2
    assert (np.abs(resid.re.hi) + np.abs(resid.im.hi)).max() <= 1e-28
    for got, want in ((ac, a_before), (bc, b_before)):
        for part in ("re", "im"):
            g, w = getattr(got, part), getattr(want, part)
            assert np.array_equal(g.hi, w.hi) and np.array_equal(g.lo, w.lo)


def test_cdd_solve_residual_in_dd():
    rng = np.random.default_rng(5)
    n = 8
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    ac, bc = CDD.from_complex(a), CDD.from_complex(b)
    x = cdd_solve(ac, bc)
    resid = ac.matmul(x) - bc
    mag = np.abs(resid.re.hi) + np.abs(resid.im.hi)
    assert mag.max() <= 1e-28


def test_cdd_solve_vector_rhs_and_singular():
    a = CDD.from_complex(np.array([[2.0, 0.0], [0.0, 4.0]]) + 0j)
    b = CDD.from_complex(np.array([2.0, 4.0]) + 0j)
    x = cdd_solve(a, b)
    assert np.allclose(x.to_complex(), [1.0, 1.0])
    sing = CDD.from_complex(np.array([[1.0, 1.0], [1.0, 1.0]]) + 0j)
    with pytest.raises(ZeroDivisionError):
        cdd_solve(sing, b)


def _parts(x: CDD):
    return (x.re.hi, x.re.lo, x.im.hi, x.im.lo)


def _side_by_side(*blocks: CDD) -> CDD:
    """Right-hand sides concatenated column-wise, as one stacked solve takes them."""
    return CDD(np.concatenate([b.hi for b in blocks], axis=-1),
               np.concatenate([b.lo for b in blocks], axis=-1))


def _columns(x):
    """A CDD or RefCDD solution as a 2-d CDD, one column per right-hand side."""
    x = cdd_from_parts(x.re, x.im)
    return x if len(x.shape) == 2 else x[:, None]


def _max_rows(z: CDD) -> np.ndarray:
    return (np.abs(z.re.hi) + np.abs(z.im.hi)).max(axis=0)


def _assert_agrees(a: CDD, b: CDD, got, want, c=4.0):
    """``got`` and ``want`` solve ``a x = b`` alike: each column differs by
    at most ``c * n * cond(a) * 2**-104`` of its size, and each residual
    ``b - a x``, formed in dd, is at most ``c * n * 2**-104 * |a| |x|``."""
    n = a.shape[0]
    got, want, b = _columns(got), _columns(want), _columns(b)
    assert got.shape == want.shape
    bound = c * n * np.linalg.cond(a.to_complex()) * EPS_DD
    assert np.all(_max_rows(got - want) <= bound * _max_rows(want))
    a_norm = (np.abs(a.re.hi) + np.abs(a.im.hi)).sum(axis=1).max()
    assert np.all(_max_rows(a.matmul(got) - b) <= c * n * EPS_DD * a_norm * _max_rows(got))


def test_stacked_solve_agrees_with_separate_solves():
    # the columns share one stopping rule, so a stacked solve may take a
    # step that a separate one stops before; both stay at dd accuracy.  A
    # tiny (0, 0) entry forces a row swap; the diagonal block has exact zeros
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a[0, 0] = 1e-3 - 1e-3j
    ac = CDD.from_complex(a)
    b1 = cdd_diag(RefDD(rng.standard_normal(5)) / DD(np.array(3.0)))
    b2 = CDD.from_complex(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    x = cdd_solve(ac, _side_by_side(b1, b2))
    _assert_agrees(ac, b1, x[:, :5], cdd_solve(ac, b1))
    _assert_agrees(ac, b2, x[:, 5:], cdd_solve(ac, b2))


def test_refinement_stops_at_each_constant_edge():
    up = np.nextafter
    # a correction at the resolution has converged, whether it shrank or not
    assert _refinement_stops(_REFINE_RESOLUTION, 1.0)
    assert _refinement_stops(_REFINE_RESOLUTION, _REFINE_RESOLUTION)
    # a shrinking correction stops once the next one, shrunk by the same
    # ratio, would be at the resolution: size**2 / last at it stops (2**-50
    # after 1, 2**-60 after 2**-20), one ulp above goes on
    for last in (1.0, 2.0 ** -20):
        edge = (_REFINE_RESOLUTION * last) ** 0.5
        assert edge * edge / last == _REFINE_RESOLUTION
        assert _refinement_stops(edge, last)
        assert not _refinement_stops(up(edge, 1.0), last)
    # shrinking by _REFINE_SHRINK goes on; less has stalled, which is
    # accepted below the stall limit (2**-71) and raises above it (2**-41)
    low, high = 2.0 ** -70, 2.0 ** -40
    assert not _refinement_stops(_REFINE_SHRINK * low, low)
    assert not _refinement_stops(_REFINE_SHRINK * high, high)
    assert _refinement_stops(up(_REFINE_SHRINK * low, 1.0), low)
    with pytest.raises(ValueError, match="stopped converging"):
        _refinement_stops(up(_REFINE_SHRINK * high, 1.0), high)
    # a stalled correction at the stall limit is accepted, one above is not
    assert _refinement_stops(_REFINE_STALL_LIMIT, _REFINE_STALL_LIMIT)
    with pytest.raises(ValueError, match="stopped converging"):
        _refinement_stops(up(_REFINE_STALL_LIMIT, 1.0), _REFINE_STALL_LIMIT)
    with pytest.raises(ValueError, match="stopped converging"):
        _refinement_stops(float("nan"), 1.0)


def _haar_built(n, kappa, seed):
    """``U diag(eta) V*`` in dd with singular values on the kappa grid."""
    rng = np.random.default_rng(seed)
    u, v = (CDD.from_complex(haar_unitary(n, rng)) for _ in range(2))
    return u.scaled(true_sigma_grid(n, kappa)).matmul(v.conj_t()), rng


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cdd_solve_raises_when_refinement_diverges(seed):
    # cond(a) * n * eps ~ 2e3: binary64 LU cannot start the refinement
    a, rng = _haar_built(10, 1e18, seed)
    b = CDD.from_complex(rng.standard_normal((10, 2)) + 0j)
    with pytest.raises(ValueError, match="stopped converging"):
        cdd_solve(a, b)


def test_cdd_solve_stall_is_accepted_only_below_the_stall_limit(monkeypatch):
    # at cond(a) = 1e10 the corrections stall at the residual's rounding
    # noise, ~1e-23 relative, above the resolution and below the limit
    a, rng = _haar_built(10, 1e10, 4)
    b = CDD.from_complex(rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3)))
    _assert_agrees(a, b, cdd_solve(a, b), ref_cdd_solve(RefCDD.of(a), RefCDD.of(b)))
    monkeypatch.setattr(ddarith, "_REFINE_STALL_LIMIT", 1e-30)
    with pytest.raises(ValueError, match="stopped converging"):
        cdd_solve(a, b)


def test_cdd_diag_and_conj_t():
    d = cdd_diag(DD(np.array([1.0, 2.0])))
    assert np.array_equal(d.to_complex(), np.diag([1.0 + 0j, 2.0 + 0j]))
    z = CDD.from_complex(np.array([[1 + 2j, 3j], [0, 4.0]]))
    assert np.array_equal(z.conj_t().to_complex(), np.array([[1 + 2j, 3j], [0, 4.0]]).conj().T)


def test_scaled_equals_diagonal_product_bitwise():
    # a diagonal scaling must round exactly like the product with cdd_diag
    rng = np.random.default_rng(8)
    m = CDD.from_complex(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    d = RefDD(rng.standard_normal(4)) / DD(np.array(3.0))   # nonzero lo parts
    for got, want in ((m.scaled(d), m.matmul(cdd_diag(d))),
                      (m.scaled(d[:, None]), cdd_diag(d).matmul(m))):
        for part in ("re", "im"):
            g, w = getattr(got, part), getattr(want, part)
            assert np.array_equal(g.hi, w.hi) and np.array_equal(g.lo, w.lo)


def test_decimal_string_30_digits():
    x = RefDD(np.array(1.0)) / DD(np.array(3.0))
    s = dd_to_decimal_string(x, digits=30)
    assert s.startswith("0.333333333333333333333333333333") or s.startswith("3.33333333333333333333333333333")
    root10 = dd_from_decimal([Decimal("3.16227766016837933199889354443271853371955513932521")])[0]
    t = dd_to_decimal_string(root10, digits=30)
    assert t.startswith("3.16227766016837933199889354443")


def test_from_decimal_rounds_hi_and_the_remainder_to_nearest():
    third = Decimal(1) / Decimal(3)  # 28 digits in the default context
    above_tie = "1.0000000000000001110223024625156540423631668090820312500001"
    values = [third] + [Decimal(v) for v in (10, "-0.1", "1e-200", "2.5e300", 0, above_tie)]
    x = dd_from_decimal(values)
    assert x.shape == (len(values),)
    for j, v in enumerate(values):
        assert x.hi[j] == float(v)
        assert x.lo[j] == float(Fraction(v) - Fraction(float(v)))
        assert abs(exact(x[j]) - Fraction(v)) <= abs(Fraction(x.hi[j])) * 2.0 ** -106
    # just above the tie 1 + 2**-53: hi rounds up, lo is the negative rest
    assert x.hi[-1] == 1.0 + 2.0 ** -52 and x.lo[-1] < 0.0


@pytest.mark.parametrize("value, name", [(np.nan, "NaN"), (np.inf, "Infinity"),
                                         (-np.inf, "-Infinity")])
def test_decimal_string_rejects_a_non_finite_value(value, name):
    with pytest.raises(ValueError, match=f"cannot format the non-finite dd value {name}$"):
        dd_to_decimal_string(DD(np.array(value)), 10)


def test_decimal_string_leaves_the_callers_context_alone():
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 7, ROUND_DOWN
        assert dd_to_decimal_string(RefDD(np.array(2.0)) / 3.0, 5) == "6.6667e-01"
        assert (ctx.prec, ctx.rounding) == (7, ROUND_DOWN)
        assert getcontext() is ctx


@pytest.mark.parametrize("rhs_shape", [(3,), (5,), (3, 2), (5, 2)])
def test_cdd_solve_rejects_rhs_with_wrong_row_count(rhs_shape):
    a = CDD.from_complex(np.eye(4) + 0j)
    b = CDD.from_complex(np.ones(rhs_shape) + 0j)
    msg = re.escape(str(rhs_shape)) + ".*" + re.escape("(4, 4)")
    with pytest.raises(ValueError, match=msg):
        cdd_solve(a, b)


def _random_cdd(rng, shape, zero_mask=None):
    """Random complex dd array with nonzero lo parts; entries under
    ``zero_mask`` are exact zeros of random sign."""
    parts = []
    for _ in range(2):
        x = RefDD(rng.standard_normal(shape)) / DD(np.array(3.0))
        if zero_mask is not None:
            zero = np.copysign(0.0, rng.standard_normal(shape))
            x = DD(np.where(zero_mask, zero, x.hi), np.where(zero_mask, zero, x.lo))
        parts.append(x)
    return cdd_from_parts(*parts)


def _assert_same_bits(got: CDD, want: RefCDD):
    assert got.shape == want.shape
    assert [p.tobytes() for p in _parts(got)] == [p.tobytes() for p in want.parts()]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), r=st.integers(1, 24), vector=st.booleans(),
       swap=st.booleans(), diag=st.booleans(), zeros=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cdd_solve_agrees_with_operator_reference(n, r, vector, swap, diag, zeros, seed):
    rng = np.random.default_rng(seed)
    # exact zeros off the diagonal only: the matrix stays nonsingular
    off = (rng.random((n, n)) < 0.3) & ~np.eye(n, dtype=bool) if zeros else None
    a = _random_cdd(rng, (n, n), off)
    if swap and n > 1:
        # a tiny (0, 0) entry and a large (n-1, 0) entry force a swap at step 0
        for part in (a.re, a.im):
            part.hi[0, 0] *= 2.0 ** -30
            part.lo[0, 0] *= 2.0 ** -30
            part.hi[-1, 0], part.lo[-1, 0] = 4.0, 0.0
    b = _random_cdd(rng, (n, r), rng.random((n, r)) < 0.3 if zeros else None)
    if diag:
        # exact zeros off the diagonal and -0.0 imaginary parts
        block = cdd_diag(RefDD(rng.standard_normal(n)) / DD(np.array(7.0)))
        for arr in (block.im.hi, block.im.lo):
            np.negative(arr, out=arr)
        b = _side_by_side(block, b)[:, :r]
    if vector:
        b = b[:, 0]
    _assert_agrees(a, b, cdd_solve(a, b), ref_cdd_solve(RefCDD.of(a), RefCDD.of(b)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), k=st.integers(1, 12), m=st.integers(1, 12),
       zeros=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_cdd_matmul_matches_operator_reference_bitwise(n, k, m, zeros, seed):
    rng = np.random.default_rng(seed)
    a = _random_cdd(rng, (n, k), rng.random((n, k)) < 0.3 if zeros else None)
    b = _random_cdd(rng, (k, m), rng.random((k, m)) < 0.3 if zeros else None)
    _assert_same_bits(a.matmul(b), RefCDD.of(a).matmul(RefCDD.of(b)))


@pytest.mark.parametrize("n,k,m,block", [(40, 13, 30, 6), (32, 16, 32, 8), (100, 3, 90, 1)])
def test_cdd_matmul_blocks_match_operator_reference_bitwise(n, k, m, block):
    # the products above fit in one block; these cross block boundaries,
    # with a short last block (13 = 6 + 6 + 1) or one column per block
    assert max(1, _OUTER_PRODUCT_BUDGET // (n * m)) == block
    rng = np.random.default_rng(n + k + m)
    a = _random_cdd(rng, (n, k), rng.random((n, k)) < 0.3)
    b = _random_cdd(rng, (k, m), rng.random((k, m)) < 0.3)
    _assert_same_bits(a.matmul(b), RefCDD.of(a).matmul(RefCDD.of(b)))


@pytest.mark.parametrize("batch", [(1,), (2,), (3,), (4,), (2, 2)])
@pytest.mark.parametrize("n,k,m", [(3, 4, 2), (10, 10, 10), (24, 7, 24), (32, 32, 32)])
def test_stacked_matmul_equals_each_members_product_bitwise(batch, n, k, m):
    # (24, 7, 24) x 3 members takes blocks of 4 + 3 columns and (32, 32, 32)
    # x 4 blocks of 2: each crosses the budget's block boundaries
    rng = np.random.default_rng(n * k * m + len(batch) * batch[0])
    a = _random_cdd(rng, batch + (n, k), rng.random(batch + (n, k)) < 0.3)
    b = _random_cdd(rng, batch + (k, m), rng.random(batch + (k, m)) < 0.3)
    got = a.matmul(b)
    assert got.shape == batch + (n, m)
    for i in np.ndindex(*batch):
        member = got[i]
        assert [p.tobytes() for p in _parts(member)] == \
            [p.tobytes() for p in _parts(a[i].matmul(b[i]))]
        _assert_same_bits(member, RefCDD.of(a[i]).matmul(RefCDD.of(b[i])))


def test_stacked_matmul_rejects_unequal_batches():
    rng = np.random.default_rng(9)
    a = _random_cdd(rng, (2, 3, 3))
    with pytest.raises(ValueError, match="shape mismatch"):
        a.matmul(_random_cdd(rng, (3, 3, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        a.matmul(_random_cdd(rng, (3, 3)))


def test_stacked_conj_t_and_stack():
    rng = np.random.default_rng(10)
    members = [_random_cdd(rng, (3, 4)) for _ in range(3)]
    stacked = CDD.stack(members)
    assert stacked.shape == (3, 3, 4)
    for i, z in enumerate(members):
        assert [p.tobytes() for p in _parts(stacked[i])] == [p.tobytes() for p in _parts(z)]
        assert [p.tobytes() for p in _parts(stacked.conj_t()[i])] == \
            [p.tobytes() for p in _parts(z.conj_t())]
