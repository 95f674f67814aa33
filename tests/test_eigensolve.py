import numpy as np
import pytest
import scipy.linalg as sla

from pencilsvd import eigensolve
from pencilsvd.eigensolve import (
    CLASS_FINITE,
    CLASS_INDETERMINATE,
    CLASS_INFINITE,
    CLASS_ZERO,
    NotDefiniteError,
    classify_pair,
    solve_general,
    solve_hpd,
)
from pencilsvd.matcore import haar_unitary
from pencilsvd.pencils import (
    Pencil,
    build_aug_qsvd,
    build_cpf_qsvd,
    build_cpf_svd,
    generic_pencil,
)


def finite_pairs(sol):
    """(eigenvalue, vector) pairs of the finite-nonzero part."""
    return [(v, sol.vectors[:, i]) for i, v in enumerate(sol.values)
            if v.kind == CLASS_FINITE]


def assert_multiset_close(got, want, tol=1e-10):
    got = list(got)
    for w in want:
        dist = [abs(g - w) for g in got]
        k = int(np.argmin(dist))
        assert dist[k] <= tol, f"missing {w} in {got}"
        got.pop(k)
    assert not got


def test_solve_general_diagonal():
    sol = solve_general(generic_pencil(np.diag([1.0, 2.0]), np.eye(2)))
    assert sol.counts()[CLASS_FINITE] == 2
    assert_multiset_close([v.value for v in sol.values], [1.0, 2.0])


def test_solve_general_infinite():
    sol = solve_general(generic_pencil(np.eye(2), np.diag([1.0, 0.0])))
    kinds = sorted(v.kind for v in sol.values)
    assert kinds == [CLASS_FINITE, CLASS_INFINITE]
    (fin,) = [v for v in sol.values if v.kind == CLASS_FINITE]
    assert abs(fin.value - 1.0) <= 1e-13


def test_solve_general_lemma_pencil():
    sol = solve_general(build_cpf_svd(np.array([[4.0]])))
    assert_multiset_close([v.value for v in sol.values], [2, -2, 2j, -2j], tol=1e-13)


def test_eigenvector_residuals():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a /= np.linalg.norm(a, 2)
    b /= np.linalg.norm(b, 2)
    pencil = generic_pencil(a, b)
    sol = solve_general(pencil)
    assert sol.backward_stable
    for val, w in finite_pairs(sol):
        lam = val.value
        res = np.linalg.norm(a @ w - lam * (b @ w))
        assert res <= 1e-12 * (np.linalg.norm(a, 2) + abs(lam) * np.linalg.norm(b, 2)) * np.linalg.norm(w)


def test_residual_tol_edge(monkeypatch):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    pencil = generic_pencil(a, b)
    norm_a, norm_b = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
    worst = max(np.linalg.norm(a @ w - v.value * (b @ w))
                / ((norm_a + abs(v.value) * norm_b) * np.linalg.norm(w))
                for v, w in finite_pairs(solve_general(pencil)))
    assert worst > 0
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 2 * worst)
    assert solve_general(pencil).backward_stable
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 0.5 * worst)
    assert not solve_general(pencil).backward_stable


def test_unitary_equivalence_invariance():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q1 = haar_unitary(5, rng)
    q2 = haar_unitary(5, rng)
    sol1 = solve_general(generic_pencil(a, b))
    sol2 = solve_general(generic_pencil(q1.conj().T @ a @ q2, q1.conj().T @ b @ q2))
    assert_multiset_close([v.value for v in sol1.values],
                          [v.value for v in sol2.values], tol=1e-10)


def test_deflation_reports_indeterminate_and_preserves_regular_part():
    # A and C share a null vector: the pencil carries a 1x1 zero block
    a = np.array([[1.0, 0.0]])
    c = np.array([[2.0, 0.0]])
    pencil = build_cpf_qsvd(a, c)
    sol = solve_general(pencil)
    counts = sol.counts()
    assert counts[CLASS_INDETERMINATE] == 1
    assert counts[CLASS_FINITE] == 4
    sigma = 0.5
    root = np.sqrt(sigma)
    assert_multiset_close([v.value for v, _ in finite_pairs(sol)],
                          [root, -root, 1j * root, -1j * root], tol=1e-10)
    # null vectors annihilate both sides
    for i, v in enumerate(sol.values):
        if v.kind == CLASS_INDETERMINATE:
            w = sol.vectors[:, i]
            assert np.linalg.norm(pencil.lhs @ w) <= 1e-12
            assert np.linalg.norm(pencil.rhs @ w) <= 1e-12


def test_deflation_no_op_on_regular_pencil():
    # a regular pencil has no common null space: the spectrum is plain QZ's
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    sol = solve_general(generic_pencil(a, b))
    assert sol.counts()[CLASS_INDETERMINATE] == 0
    assert_multiset_close([v.value for v in sol.values], sla.eigvals(a, b), tol=1e-10)


def test_solve_hpd_scalar():
    sol = solve_hpd(generic_pencil(np.array([[2.0]]), np.array([[1.0]])))
    assert [v.value for v in sol.values] == [pytest.approx(2.0)]


def test_solve_hpd_aug_qsvd_oracle():
    sol = solve_hpd(build_aug_qsvd(np.array([[2.0]]), np.array([[1.0]])))
    assert_multiset_close([v.value for v in sol.values], [2.0, -2.0], tol=1e-13)


@pytest.mark.parametrize("s", [1.0, 1e6, 1e8])
def test_solve_hpd_classification_is_scale_invariant(s):
    # (I, s I) is well conditioned with exact values 1/s; scaling rhs by s^2
    # must not turn them into zero or indeterminate pairs
    sol = solve_hpd(build_aug_qsvd(np.eye(2), s * np.eye(2)))
    assert sol.counts()[CLASS_FINITE] == 4
    assert_multiset_close([v.value for v in sol.values], [1 / s, 1 / s, -1 / s, -1 / s],
                          tol=1e-15 / s)


def test_solve_hpd_agrees_with_general():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    lhs = (z + z.conj().T) / 2
    w = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rhs = w @ w.conj().T + 5 * np.eye(5)
    pencil = generic_pencil(lhs, rhs)
    hp = solve_hpd(pencil)
    gen = solve_general(pencil)
    hv = sorted(v.value.real for v in hp.values)
    gv = sorted(v.value.real for v in gen.values)
    assert np.allclose(hv, gv, rtol=1e-10, atol=1e-12)
    assert max(abs(v.value.imag) for v in gen.values) <= 1e-10


def test_solve_hpd_rejections():
    not_herm = generic_pencil(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError):
        solve_hpd(not_herm)
    indefinite = generic_pencil(np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(NotDefiniteError):
        solve_hpd(indefinite)


def test_classify_pair_thresholds():
    assert classify_pair(1.0, 1.0, 1e-10, 1e-10) == CLASS_FINITE
    assert classify_pair(1e-12, 1.0, 1e-10, 1e-10) == CLASS_ZERO
    assert classify_pair(1.0, 1e-12, 1e-10, 1e-10) == CLASS_INFINITE
    assert classify_pair(1e-12, 1e-12, 1e-10, 1e-10) == CLASS_INDETERMINATE


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        Pencil(np.zeros((2, 3)), np.zeros((2, 3)), "generic", (2,))
