import numpy as np
import pytest
import scipy.linalg as sla

from helpers import DEFLATING_COUNTS, structured_problem
from pencilsvd import bench, eigensolve
from pencilsvd.eigensolve import (
    CLASS_FINITE,
    CLASS_INDETERMINATE,
    CLASS_INFINITE,
    CLASS_ZERO,
    NotDefiniteError,
    SingularPencilError,
    classify_pair,
    solve_general,
    solve_hpd,
)
from pencilsvd.genmat import GeneratorConfig, generate_qsvd, generate_rsvd
from pencilsvd.kcf import predict_kcf
from pencilsvd.matcore import EPS, haar_unitary
from pencilsvd.pencils import (
    FORMULATIONS,
    Pencil,
    build_aug_qsvd,
    build_aug_rsvd,
    build_cpf_qsvd,
    build_cpf_svd,
    generic_pencil,
)
from pencilsvd.recovery import classify_spectrum


def finite_pairs(sol):
    """(eigenvalue, vector) pairs of the finite-nonzero part of a solve with
    ``vectors=True``."""
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
    sol = solve_general(pencil, vectors=True)
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
                for v, w in finite_pairs(solve_general(pencil, vectors=True)))
    assert worst > 0
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 2 * worst)
    assert solve_general(pencil, vectors=True).backward_stable
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 0.5 * worst)
    assert solve_general(pencil, vectors=True).backward_stable is False


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
    sol = solve_general(pencil, vectors=True)
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


def triples(sol):
    return [(v.alpha_e, v.beta_e, v.kind) for v in sol.values]


def assert_values_only_matches_full(pencil, **kwargs):
    # the default solve is the values-only one
    full = solve_general(pencil, vectors=True, **kwargs)
    fast = solve_general(pencil, **kwargs)
    assert triples(fast) == triples(full)
    assert fast.vectors is None and fast.backward_stable is None
    return full


def generated_cpf_pencil(kind, n, kappa_y, kappa_sigma, seed=0):
    generate = generate_qsvd if kind == "qsvd" else generate_rsvd
    prob = generate(GeneratorConfig(n=n, kappa_sigma=kappa_sigma, kappa_y=kappa_y,
                                    kappa_x=10.0, seed=seed))
    return FORMULATIONS[f"cpf-{kind}"].build_from(vars(prob))


@pytest.mark.parametrize("kappa_sigma", [1e1, 1e13])
@pytest.mark.parametrize("kappa_y", [1e1, 1e7, 1e10])
@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("kind", ["qsvd", "rsvd"])
def test_values_only_solve_matches_full_solve(kind, n, kappa_y, kappa_sigma):
    # the same QZ eigenvalues with and without eigenvectors, bit for bit
    assert_values_only_matches_full(generated_cpf_pencil(kind, n, kappa_y, kappa_sigma))


def test_values_only_solve_matches_full_solve_n32():
    assert_values_only_matches_full(generated_cpf_pencil("qsvd", 32, 1e7, 1e1, seed=1))


def structured_cpf_pencil(kind, counts, rng):
    _, _, inputs, _ = structured_problem(kind, counts, rng)
    return FORMULATIONS[f"cpf-{kind}"].build_from(inputs)


@pytest.mark.parametrize("class_tol_rel", [None, 1e-4])
def test_values_only_solve_matches_full_solve_with_deflation(class_tol_rel):
    # inputs sharing null directions: the default solve gives the pairs of
    # the full one, and the deflated (0, 0) pairs trail in both
    for kind, counts in DEFLATING_COUNTS:
        pencil = structured_cpf_pencil(kind, counts, np.random.default_rng(5))
        full = assert_values_only_matches_full(pencil, class_tol_rel=class_tol_rel)
        assert full.backward_stable
        deflated = full.counts()[CLASS_INDETERMINATE]
        assert deflated > 0, (kind, counts)
        assert triples(full)[-deflated:] == [(0j, 0j, CLASS_INDETERMINATE)] * deflated


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("transpose", [False, True])
def test_unequal_common_nullities_raise(vectors, transpose):
    # e2 is a common right null vector, but (lhs, rhs) has no common left
    # one; transposed, e2 is a common left null vector and no right one
    lhs, rhs = np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
    counts = "1 right, 0 left"
    if transpose:
        lhs, rhs, counts = lhs.T, rhs.T, "0 right, 1 left"
    with pytest.raises(SingularPencilError, match=counts):
        solve_general(generic_pencil(lhs, rhs), vectors=vectors)


def test_solve_pencil_takes_the_values_only_path():
    # both QZ calls of the sweep's solve policy: cpf, and the sq fallback
    # when C*C is not numerically positive definite (n = 10, kappa_y = 1e9)
    sol = bench.solve_pencil(generated_cpf_pencil("qsvd", 4, 1e1, 1e1))
    assert sol.vectors is None and sol.backward_stable is None
    prob = generate_qsvd(GeneratorConfig(n=10, kappa_sigma=10.0, kappa_y=1e9, seed=0))
    pencil = FORMULATIONS["sq-qsvd"].build_from(vars(prob))
    with pytest.raises(NotDefiniteError):
        solve_hpd(pencil)
    sol = bench.solve_pencil(pencil)
    assert sol.vectors is None and sol.backward_stable is None


# -- one SVD per block column for Hermitian pencils --------------------------------


def count_svds(monkeypatch):
    """Record the shape of every matrix passed to ``np.linalg.svd`` from
    here on."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def random_generic_pencil(k, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, k, k)) + 1j * rng.standard_normal((2, k, k))
    return generic_pencil(z[0], z[1])


def nudged(pencil):
    """``pencil`` with the real part of one off-diagonal lhs entry moved by
    one ulp: no longer exactly Hermitian, same null spaces to ~1e-16."""
    i, j = np.argwhere(np.abs(np.triu(pencil.lhs, 1)) > 0)[0]
    lhs = pencil.lhs.copy()
    lhs[i, j] = complex(np.nextafter(lhs[i, j].real, np.inf), lhs[i, j].imag)
    return Pencil(lhs, pencil.rhs, pencil.formulation, pencil.row_blocks)


@pytest.mark.parametrize("vectors", [False, True])
@pytest.mark.parametrize("case, sides", [
    ("regular cpf", 1), ("deflating cpf", 1), ("deflating aug", 1),
    ("regular generic", 2), ("nudged deflating cpf", 2)])
def test_hermitian_pencils_deflate_with_one_svd(monkeypatch, case, sides, vectors):
    # a Hermitian pencil's right null space is its left one: one SVD per
    # block column of [lhs; rhs] and none of [lhs*; rhs*]; a pencil that is
    # not Hermitian takes the SVD of both stacks and must be regular
    kind, counts = DEFLATING_COUNTS[0]
    _, _, inputs, _ = structured_problem(kind, counts, np.random.default_rng(6))
    cpf = FORMULATIONS["cpf-qsvd"].build_from(inputs)
    pencil = {
        "regular cpf": generated_cpf_pencil("qsvd", 4, 1e1, 1e1),
        "deflating cpf": cpf,
        "deflating aug": FORMULATIONS["aug-qsvd"].build_from(inputs),
        "regular generic": random_generic_pencil(6, 7),
        "nudged deflating cpf": nudged(cpf),
    }[case]
    hermitian = (np.array_equal(pencil.lhs, pencil.lhs.conj().T)
                 and np.array_equal(pencil.rhs, pencil.rhs.conj().T))
    assert hermitian == (sides == 1)
    k = pencil.lhs.shape[0]
    calls = count_svds(monkeypatch)
    if case.startswith("nudged"):
        with pytest.raises(SingularPencilError, match="only a Hermitian pencil deflates"):
            solve_general(pencil, vectors=vectors)
    else:
        solve_general(pencil, vectors=vectors)
    if hermitian:
        # four block columns for cpf, two for aug
        assert calls == [(2 * k, width) for width in pencil.row_blocks]
        assert len(calls) == (4 if "cpf" in case else 2)
    else:
        assert calls == [(2 * k, k)] * 2


def test_block_columns_that_share_rows_deflate_as_one_block(monkeypatch):
    # a Hermitian pencil labelled with a builder's formulation but not laid
    # out like one: its block columns share rows, so the split takes the
    # whole stack and deflates the three common null directions
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    sides = [q @ np.diag(d) @ q.conj().T for d in ([1, 2, 3, 4, 5, 6, 7, 0, 0, 0.0],
                                                  [1, -1, 0.5, 2, 1, 1, 3, 0, 0, 0.0])]
    lhs, rhs = ((m + m.conj().T) / 2 for m in sides)
    calls = count_svds(monkeypatch)
    sol = solve_general(Pencil(lhs, rhs, "aug-qsvd", (5, 5)))
    assert calls == [(20, 10)]
    assert sol.counts()[CLASS_INDETERMINATE] == 3
    assert_multiset_close([abs(v.value) for v in sol.values if v.kind == CLASS_FINITE],
                          [1, 2, 2, 7 / 3, 5, 6, 6])


@pytest.mark.parametrize("kind, counts", DEFLATING_COUNTS)
def test_one_ulp_off_hermitian_takes_two_svds_and_same_counts(monkeypatch, kind, counts):
    # only Hermitian pencils deflate: one ulp off, the pencil takes the two
    # whole-stack SVDs, finds on each side the nullity that the Hermitian
    # pencil deflates, and raises
    part, sigmas, inputs, _ = structured_problem(kind, counts, np.random.default_rng(8))
    pencil = FORMULATIONS[f"cpf-{kind}"].build_from(inputs)
    off = nudged(pencil)
    assert not np.array_equal(off.lhs, off.lhs.conj().T)
    want = predict_kcf(f"cpf-{kind}", part, sigmas).counts
    assert solve_general(pencil, class_tol_rel=1e-4).counts() == want
    nullity = want[CLASS_INDETERMINATE]
    calls = count_svds(monkeypatch)
    with pytest.raises(SingularPencilError, match=f"{nullity} right, {nullity} left"):
        solve_general(off, class_tol_rel=1e-4)
    assert len(calls) == 2


def aug_sigmas(sol):
    """Magnitudes of the finite +-sigma pairs of an augmented spectrum."""
    mags = np.sort(np.abs([v.value for v in sol.values if v.kind == CLASS_FINITE]))
    return 0.5 * (mags[0::2] + mags[1::2])


@pytest.mark.parametrize("family", ["cpf", "aug"])
@pytest.mark.parametrize("kind, counts", DEFLATING_COUNTS)
def test_congruence_deflation_keeps_structure_and_values(kind, counts, family):
    # deflated by one basis on both sides: the predicted counts, the
    # constructed sigmas, and a backward-stable full solve
    part, sigmas, inputs, _ = structured_problem(kind, counts, np.random.default_rng(9))
    name = f"{family}-{kind}"
    pencil = FORMULATIONS[name].build_from(inputs)
    sol = solve_general(pencil, class_tol_rel=1e-4)
    assert sol.counts() == predict_kcf(name, part, sigmas).counts
    assert sol.counts()[CLASS_INDETERMINATE] > 0
    if family == "cpf":
        dims = tuple(pencil.row_blocks[i] for i in ((0, 1, 3) if kind == "qsvd" else (0, 1, 2, 3)))
        got = sorted(q.sigma for q in classify_spectrum(sol, kind, dims, partition=part).quadruples)
    else:
        got = aug_sigmas(sol)
    assert max(bench.chordal(s, g) for s, g in zip(sorted(sigmas), got)) <= 1e-12
    assert solve_general(pencil, class_tol_rel=1e-4, vectors=True).backward_stable is True


@pytest.mark.parametrize("factor, deflated", [(0.5, 1), (2.0, 0)])
@pytest.mark.parametrize("family", ["cpf", "aug"])
def test_deflation_cutoff_at_its_edge(family, factor, deflated):
    # one input block column, [A; C] of a cpf-qsvd pencil or [A*; BB*] of an
    # aug-rsvd one, with its smallest singular value at factor times the
    # cutoff dim * eps * ||[lhs; rhs]||_2: below it, that dimension deflates.
    # The block's norm is ~1e-3 of the stack's, so a cutoff relative to the
    # block alone would keep both cases
    rng = np.random.default_rng(11)
    if family == "cpf":
        u = haar_unitary(5, rng)[:, :2]

        def build(t):
            ac = u * [1e-3, t]
            return build_cpf_qsvd(ac[:3], ac[3:]), ac
    else:
        w = haar_unitary(3, rng)[:, :1]

        def build(t):
            # A* = [1e-3 w, 0] and BB* = diag(1e-3, t): orthogonal columns
            a = np.vstack([1e-3 * w.conj().T, np.zeros((1, 3))])
            pencil = build_aug_rsvd(a, np.diag(np.sqrt([1e-3, t])), np.eye(3))
            return pencil, np.vstack([a.conj().T, pencil.rhs[:2, :2]])

    def cutoff(pencil):
        k = pencil.lhs.shape[0]
        return k * EPS * np.linalg.norm(np.vstack([pencil.lhs, pencil.rhs]), 2)

    pencil, block = build(factor * cutoff(build(0.0)[0]))
    smallest = np.linalg.svd(block, compute_uv=False)[-1]
    assert smallest / cutoff(pencil) == pytest.approx(factor, rel=1e-6)
    null, _ = eigensolve._null_split(pencil.lhs, pencil.rhs, pencil.row_blocks)
    assert null.shape[1] == deflated
