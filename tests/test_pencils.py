import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilsvd.pencils import (
    FORMULATIONS,
    build_aug_qsvd,
    build_aug_rsvd,
    build_aug_svd,
    build_cpf_qsvd,
    build_cpf_rsvd,
    build_cpf_svd,
    build_sq_qsvd,
    build_sq_svd,
    generic_pencil,
)


def assert_spectrum(pencil, expected, tol=1e-12):
    got = list(sla.eigvals(pencil.lhs, pencil.rhs))
    for want in np.asarray(expected, dtype=complex):
        dist = [abs(g - want) for g in got]
        k = int(np.argmin(dist))
        assert dist[k] <= tol, f"no eigenvalue near {want}: {got}"
        got.pop(k)
    assert not got


def test_sq_and_aug_svd_scalar():
    sq = build_sq_svd(np.array([[2.0]]))
    assert sq.lhs == pytest.approx(np.array([[4.0]]))
    assert sq.rhs == pytest.approx(np.array([[1.0]]))
    aug = build_aug_svd(np.array([[2.0]]))
    assert np.array_equal(aug.lhs, np.array([[0, 2], [2, 0]], dtype=complex))
    assert np.array_equal(aug.rhs, np.eye(2))


def test_aug_svd_identity_spectrum():
    assert_spectrum(build_aug_svd(np.eye(2)), [1, 1, -1, -1])


def test_sq_svd_diag_spectrum():
    assert_spectrum(build_sq_svd(np.diag([3.0, 4.0])), [9, 16])


def test_svd_builders_return_the_qsvd_pencils_of_a_and_the_identity():
    # the ordinary SVD of A is the quotient SVD of (A, I): each svd builder
    # is its family's qsvd builder with C absent, which is I_q bit for bit
    # in the sq and aug families and up to the sign of zero imaginary
    # parts in cpf (see test_cpf_rsvd_identity_reduction)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    for svd, qsvd in ((build_sq_svd, build_sq_qsvd), (build_aug_svd, build_aug_qsvd),
                      (build_cpf_svd, build_cpf_qsvd)):
        got, want = svd(a), qsvd(a, np.eye(2))
        assert got.formulation == want.formulation == qsvd(a, None).formulation
        assert np.array_equal(got.lhs, want.lhs) and np.array_equal(got.rhs, want.rhs)
        assert got.row_blocks == want.row_blocks


def test_sq_qsvd_scalar():
    p = build_sq_qsvd(np.array([[1.0]]), np.array([[1.0]]))
    assert_spectrum(p, [1.0])


def test_aug_qsvd_2x2_oracle():
    # det([[-lam, 2], [2, -lam]]) = lam^2 - 4
    assert_spectrum(build_aug_qsvd(np.array([[2.0]]), np.array([[1.0]])), [2, -2])


def test_sq_qsvd_diagonal_quotients():
    p = build_sq_qsvd(np.eye(2), np.diag([1.0, 2.0]))
    assert_spectrum(p, [1.0, 0.25])


def test_aug_rsvd_scalar_and_identity_reduction():
    p = build_aug_rsvd(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert np.array_equal(p.lhs, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(p.rhs, np.eye(2))
    assert_spectrum(p, [1, -1])

    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    full = build_aug_rsvd(a, np.eye(3), np.eye(2))
    base = build_aug_svd(a)
    assert np.array_equal(full.lhs, base.lhs)
    assert np.array_equal(full.rhs, base.rhs)


def test_aug_rsvd_normalized_scalar():
    # sigma = alpha / (beta * gamma) = 2 / (1 * 2) = 1
    p = build_aug_rsvd(np.array([[2.0]]), np.array([[1.0]]), np.array([[2.0]]))
    assert_spectrum(p, [1, -1])


def test_cpf_svd_lemma_spectrum():
    assert_spectrum(build_cpf_svd(np.array([[4.0]])), [2, -2, 2j, -2j])


def test_cpf_qsvd_scalar_spectrum():
    assert_spectrum(build_cpf_qsvd(np.array([[1.0]]), np.array([[1.0]])), [1, -1, 1j, -1j])


def test_cpf_rsvd_identity_reduction():
    # an identity B or C gives the pencil of the problem without it: the
    # family assemblers read an absent B or C as the identity.  The sq and
    # aug pairs agree bit for bit; the cpf pair up to the sign of zero
    # imaginary parts, since its (2,4) block is the conjugated identity C*
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    c = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    i2, i3 = np.eye(2), np.eye(3)
    pairs = [
        (build_cpf_rsvd(a, i2, i3), build_cpf_svd(a)),
        (build_aug_rsvd(a, i2, c), build_aug_qsvd(a, c)),
        (build_aug_qsvd(a, i3), build_aug_svd(a)),
        (build_sq_qsvd(a, i3), build_sq_svd(a)),
    ]
    for full, base in pairs:
        assert np.array_equal(full.lhs, base.lhs), full.formulation
        assert np.array_equal(full.rhs, base.rhs), full.formulation
        assert full.row_blocks == base.row_blocks
        if full.formulation != "cpf-rsvd":
            assert full.lhs.tobytes() == base.lhs.tobytes(), full.formulation
            assert full.rhs.tobytes() == base.rhs.tobytes(), full.formulation


def test_cpf_shapes_and_blocks():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4))
    c = rng.standard_normal((2, 4))
    b = rng.standard_normal((3, 5))
    pq = build_cpf_qsvd(a, c)
    assert pq.lhs.shape[0] == 3 + 4 + 3 + 2 and pq.row_blocks == (3, 4, 3, 2)
    pr = build_cpf_rsvd(a, b, c)
    assert pr.lhs.shape[0] == 3 + 4 + 5 + 2 and pr.row_blocks == (3, 4, 5, 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 4), spread=st.integers(0, 100),
       seed=st.integers(0, 2**32 - 1))
def test_every_formulation_is_exactly_hermitian(dims, spread, seed):
    # eigensolve deflates only a pencil whose sides are both exactly
    # Hermitian, one SVD per block column of [lhs; rhs], which holds when
    # those block columns touch pairwise disjoint rows: every builder must
    # give both, for any shapes and for entries spread over
    # 10**-spread .. 10**spread
    p, q, m, n = dims
    rng = np.random.default_rng(seed)

    def draw(rows, cols):
        mag = 10.0 ** rng.uniform(-spread, spread, (rows, cols))
        return mag * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))

    mats = {"a": draw(p, q), "b": draw(p, m), "c": draw(n, q)}
    for name, f in FORMULATIONS.items():
        pencil = f.build_from(mats)
        assert np.array_equal(pencil.lhs, pencil.lhs.conj().T), name
        assert np.array_equal(pencil.rhs, pencil.rhs.conj().T), name
        stack = np.vstack([pencil.lhs, pencil.rhs])
        off = pencil.row_offsets()
        rows = [np.any(stack[:, i:j] != 0, axis=1) for i, j in zip(off, off[1:])]
        assert np.sum(rows, axis=0).max() <= 1, name


def test_cpf_entries_are_inputs_zeros_or_ones():
    rng = np.random.default_rng(4)
    a = (rng.integers(2, 9, (3, 2)) + 1j * rng.integers(2, 9, (3, 2))).astype(complex)
    b = (rng.integers(10, 17, (3, 3)) + 1j * rng.integers(10, 17, (3, 3))).astype(complex)
    c = (rng.integers(20, 27, (4, 2)) + 1j * rng.integers(20, 27, (4, 2))).astype(complex)
    allowed = {0, 1} | set(a.ravel()) | set(a.conj().ravel()) \
        | set(b.ravel()) | set(b.conj().ravel()) | set(c.ravel()) | set(c.conj().ravel())
    for p in (build_cpf_svd(a), build_cpf_qsvd(a, c), build_cpf_rsvd(a, b, c)):
        seen = set(p.lhs.ravel()) | set(p.rhs.ravel())
        assert seen <= allowed, p.formulation


def test_dimension_mismatch_errors():
    a = np.zeros((2, 3))
    with pytest.raises(ValueError):
        build_sq_qsvd(a, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        build_aug_rsvd(a, np.zeros((3, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("route", ["generic", "cpf-qsvd"])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_rejected(route, side, bad):
    # A lands in lhs of cpf-qsvd, C* in its rhs
    first, second = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    (first if side == "lhs" else second)[1, 0] = bad
    build = generic_pencil if route == "generic" else build_cpf_qsvd
    with pytest.raises(ValueError, match="non-finite"):
        build(first, second)
