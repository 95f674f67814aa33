import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilsvd.eigensolve import solve_general
from pencilsvd.genmat import GeneratorConfig, generate_qsvd
from pencilsvd.pencils import build_cpf_qsvd, build_cpf_rsvd, build_cpf_svd
from pencilsvd.recovery import (
    TRIPLET_100,
    TRIPLET_011,
    TRIPLET_110,
    TRIPLET_REGULAR,
    TRIPLET_TRIVIAL,
    GroupingError,
    classify_spectrum,
    extract_vectors,
    geometric_mean_sigma,
    group_quadruples,
)


def test_group_exact_quadruple():
    quads = group_quadruples([2, -2, 2j, -2j])
    assert len(quads) == 1
    assert quads[0].sigma == pytest.approx(4.0)
    assert quads[0].phase_residual == 0.0


def test_group_two_quadruples():
    quads = group_quadruples([1, -1, 1j, -1j, 3, -3, 3j, -3j])
    assert sorted(q.sigma for q in quads) == pytest.approx([1.0, 9.0])


def test_group_perturbed_quadruple():
    vals = [2 + 1e-9, -2 + 1e-9j, 2j, -2j * (1 + 1e-9)]
    quads = group_quadruples(vals)
    assert len(quads) == 1
    assert abs(quads[0].sigma - 4.0) <= 1e-8


def test_group_duplicated_sigma():
    one = [5, -5, 5j, -5j]
    vals = one + [v * (1 + 1e-12) for v in one]
    quads = group_quadruples(vals)
    assert len(quads) == 2
    for q in quads:
        assert q.sigma == pytest.approx(25.0)
        classes = sorted(round(np.angle(m.value) / (np.pi / 2)) % 4 for m in q.members)
        assert classes == [0, 1, 2, 3]


def test_group_rotated_quadruple():
    # a common rotation of the whole quadruple is allowed
    rot = np.exp(0.3j)
    quads = group_quadruples([rot * v for v in (1.5, -1.5, 1.5j, -1.5j)])
    assert quads[0].sigma == pytest.approx(2.25)


def test_group_count_not_divisible():
    with pytest.raises(GroupingError):
        group_quadruples([1, -1, 1j])


def test_group_inconsistent_phases():
    # one member per quarter-turn class, so it groups; turned back onto
    # class 0 the members are 1, 1, 1, 1.5, and their spread is reported
    (quad,) = group_quadruples([1, -1, 1j, -1.5j])
    assert quad.sigma == math.sqrt(1.5)
    assert quad.phase_residual == 1 / 3


def test_group_rotation_counts_modulo_quarter_turn():
    # absolute quarter-turn classes: a common rotation acts modulo pi/2, so
    # 0.9 rad groups as the same set rotated by 0.9 - pi/2 = -0.67 rad
    for theta in (0.7, 0.9):
        rot = np.exp(1j * theta)
        quads = group_quadruples([rot * v for v in (1.5, -1.5, 1.5j, -1.5j)])
        assert quads[0].sigma == pytest.approx(2.25)


def test_group_diagonal_quadruple_raises():
    # members 1e-9 rad either side of the diagonals fall into classes 0 and 2
    # only; the phase residual alone (1e-9) would have passed
    offsets = (-1e-9, 1e-9, -1e-9, 1e-9)
    vals = [1.5 * np.exp(1j * (np.pi / 4 + k * np.pi / 2 + d))
            for k, d in enumerate(offsets)]
    with pytest.raises(GroupingError, match="quarter-turn classes"):
        group_quadruples(vals)


def test_group_phase_residual_edge():
    vals = [2 * (1 + 3e-5), -2, 2j * (1 - 1e-5j), -2j]
    (quad,) = group_quadruples(vals)
    # members turned back onto class 0, and their relative spread
    rotated = np.array([2 * (1 + 3e-5), 2, 2 - 2e-5j, 2])
    center = rotated.mean()
    assert quad.phase_residual == pytest.approx(
        np.abs(rotated - center).max() / abs(center), rel=1e-12)
    assert quad.sigma == geometric_mean_sigma(vals)


def test_geometric_mean_independent_of_member_order():
    quad = [1.1, -1.3j, -0.97 * np.exp(1e-3j), 1.07j]
    got = {geometric_mean_sigma(list(perm)) for perm in itertools.permutations(quad)}
    assert len(got) == 1


def _member_values(quads):
    return sorted(tuple(sorted((m.value.real, m.value.imag) for m in q.members))
                  for q in quads)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_group_property_order_rotation_perturbation(data):
    base = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5), label="base")
    picks = st.integers(0, len(base) - 1)
    dups = data.draw(st.lists(picks, max_size=2), label="duplicates")
    near = data.draw(st.lists(st.tuples(picks, st.floats(1e-12, 1e-3)), max_size=2),
                     label="clustered")
    sigmas = base + [base[i] for i in dups] + [base[i] * (1 + d) for i, d in near]
    theta = data.draw(st.floats(-0.6, 0.6), label="rotation")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="noise seed"))
    lams = []
    for s in sigmas:
        r = math.sqrt(s)
        lams += [r, -r, 1j * r, -1j * r]
    noise = rng.uniform(-1e-9, 1e-9, len(lams)) + 1j * rng.uniform(-1e-9, 1e-9, len(lams))
    lams = np.exp(1j * theta) * np.array(lams) * (1 + noise / np.sqrt(2))
    want = None
    for _ in range(3):
        perm = data.draw(st.permutations(range(len(lams))), label="input order")
        quads = group_quadruples(lams[list(perm)])
        if want is None:
            want = _member_values(quads)
            got = sorted(q.sigma for q in quads)
            assert np.allclose(got, sorted(sigmas), rtol=1e-8, atol=0)
        assert _member_values(quads) == want


def test_geometric_mean_constant():
    s = np.sqrt(2.0)
    assert geometric_mean_sigma([s, -s, s * 1j, -s * 1j]) == pytest.approx(2.0)


def test_geometric_mean_worked_example_digits():
    squared = [3.162277324135, 3.162277661974, 3.162277661974, 3.162278000456]
    lams = [math.sqrt(m) for m in squared]
    assert abs(geometric_mean_sigma(lams) - 3.162277662135) <= 1e-12


def test_geometric_mean_direct_arithmetic():
    assert geometric_mean_sigma([1.9, 2.0, 2.0, 2.1]) == pytest.approx(math.sqrt(15.96))


def test_classify_identity_pair():
    pencil = build_cpf_qsvd(np.array([[1.0]]), np.array([[1.0]]))
    sol = solve_general(pencil)
    cls = classify_spectrum(sol, "qsvd", (1, 1, 1))
    assert [t.kind for t in cls.triplets] == [TRIPLET_REGULAR]
    t = cls.triplets[0]
    assert t.sigma == pytest.approx(1.0)
    assert t.alpha == pytest.approx(1 / math.sqrt(2))
    assert t.gamma == pytest.approx(1 / math.sqrt(2))
    assert t.alpha**2 + t.beta**2 * t.gamma**2 == pytest.approx(1.0, abs=1e-12)


def test_classify_empty_c_gives_infinite_class():
    pencil = build_cpf_qsvd(np.array([[1.0]]), np.zeros((0, 1)))
    sol = solve_general(pencil)
    cls = classify_spectrum(sol, "qsvd", (1, 1, 0))
    assert [t.kind for t in cls.triplets] == [TRIPLET_110]
    assert cls.triplets[0].sigma == math.inf


def test_classify_zero_and_trivial_classes():
    # A e1 = 1, C e1 = 0 -> (1,0) pair; A e2 = 0, C e2 = e1 -> (0,1) pair;
    # e3 is a common null direction (trivial); the zero row of C adds a
    # one-dimensional filler block at infinity.
    a = np.array([[1.0, 0.0, 0.0]])
    c = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    pencil = build_cpf_qsvd(a, c)
    sol = solve_general(pencil, class_tol_rel=1e-8)
    cls = classify_spectrum(sol, "qsvd", (1, 3, 2))
    kinds = sorted(t.kind for t in cls.triplets)
    assert kinds == sorted([TRIPLET_110, TRIPLET_100, TRIPLET_011, TRIPLET_TRIVIAL])


def test_classify_ill_conditioned_quotient_keeps_every_triplet():
    # kappa_Y = 1e10 spreads the quadruple phases by up to ~1e-3 while the
    # values stay accurate to ~1e-7; each triplet carries its spread
    # as evidence
    problem = generate_qsvd(GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=1e10, seed=0))
    sol = solve_general(build_cpf_qsvd(problem.a, problem.c))
    cls = classify_spectrum(sol, "qsvd", (4, 4, 4))
    assert [t.kind for t in cls.triplets] == [TRIPLET_REGULAR] * 4
    residuals = [t.phase_residual for t in cls.triplets]
    assert residuals == [q.phase_residual for q in cls.quadruples]
    assert max(residuals) > 1e-3
    sigmas = sorted(t.sigma for t in cls.triplets)
    assert np.allclose(sigmas, sorted(problem.true_sigmas_float()), rtol=1e-6, atol=0)


def test_classify_rejects_bad_counts():
    pencil = build_cpf_svd(np.array([[2.0]]))
    sol = solve_general(pencil)
    with pytest.raises(GroupingError):
        # wrong kind: svd spectrum declared as qsvd with impossible dims
        classify_spectrum(sol, "qsvd", (1, 1, 5))


def test_extract_vectors_scalar_qsvd():
    a = np.array([[2.0]])
    c = np.array([[1.0]])
    pencil = build_cpf_qsvd(a, c)
    sol = solve_general(pencil)
    cls = classify_spectrum(sol, "qsvd", (1, 1, 1))
    rec = extract_vectors(sol, cls.quadruples[0], "qsvd", pencil, a, c=c)
    assert rec.u == pytest.approx(np.array([1.0 + 0j]))
    assert abs(abs(rec.v[0]) - 1.0) <= 1e-13
    assert rec.z[0] == pytest.approx(1.0 + 0j, abs=1e-10)
    assert rec.residual_a <= 1e-13
    assert rec.residual_c <= 1e-13


def test_extract_vectors_cpf_svd_diag():
    a = np.diag([3.0])
    pencil = build_cpf_svd(a)
    sol = solve_general(pencil)
    cls = classify_spectrum(sol, "svd", (1, 1))
    rec = extract_vectors(sol, cls.quadruples[0], "svd", pencil, a)
    assert rec.u == pytest.approx(np.array([1.0 + 0j]))
    assert rec.z == pytest.approx(np.array([1.0 + 0j]), abs=1e-10)
    assert rec.residual_a <= 1e-12
    assert rec.residual_c <= 1e-12


def test_extract_vectors_rsvd_identity_reduction():
    rng = np.random.default_rng(0)
    a = np.diag([2.0, 0.5]).astype(complex)
    pencil_r = build_cpf_rsvd(a, np.eye(2), np.eye(2))
    pencil_s = build_cpf_svd(a)
    sol_r = solve_general(pencil_r)
    sol_s = solve_general(pencil_s)
    cls_r = classify_spectrum(sol_r, "rsvd", (2, 2, 2, 2))
    cls_s = classify_spectrum(sol_s, "svd", (2, 2))
    for qr, qs in zip(cls_r.quadruples, cls_s.quadruples):
        rr = extract_vectors(sol_r, qr, "rsvd", pencil_r, a, b=np.eye(2), c=np.eye(2))
        rs = extract_vectors(sol_s, qs, "svd", pencil_s, a)
        assert rr.sigma == pytest.approx(rs.sigma, rel=1e-12)
        assert np.allclose(np.abs(rr.u), np.abs(rs.u), atol=1e-10)
        assert rr.residual_a <= 1e-10 and rr.residual_c <= 1e-10
        assert rr.x is not None
        assert np.allclose(np.abs(rr.x / np.linalg.norm(rr.x)), np.abs(rs.u), atol=1e-8)


def test_extract_vectors_unit_norms():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pencil = build_cpf_qsvd(a, c)
    sol = solve_general(pencil)
    cls = classify_spectrum(sol, "qsvd", (3, 3, 3))
    for quad in cls.quadruples:
        rec = extract_vectors(sol, quad, "qsvd", pencil, a, c=c)
        assert abs(np.linalg.norm(rec.u) - 1) <= 1e-13
        assert abs(np.linalg.norm(rec.v) - 1) <= 1e-13
        lead = np.flatnonzero(np.abs(rec.u) > 1e-8)[0]
        assert abs(rec.u[lead].imag) <= 1e-12 and rec.u[lead].real > 0
