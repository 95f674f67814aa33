import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DEFLATING_COUNTS,
    random_qsvd_counts,
    random_rsvd_counts,
    random_svd_counts,
    structured_problem,
)
import pencilsvd
from pencilsvd import kcf, recovery
from pencilsvd.bench import chordal
from pencilsvd.eigensolve import (
    CLASS_FINITE,
    EigenSolution,
    GeneralizedEigenvalue,
    solve_general,
)
from pencilsvd.genmat import GeneratorConfig, generate_qsvd
from pencilsvd.kcf import input_dims, partition_for, triplet_counts
from pencilsvd.pencils import (
    FORMULATIONS,
    build_aug_rsvd,
    build_cpf_qsvd,
    build_cpf_rsvd,
    build_cpf_svd,
    generic_pencil,
)
from pencilsvd.recovery import (
    CLASS_GAP_FLOOR,
    TRIPLET_100,
    TRIPLET_011,
    TRIPLET_101,
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
        classes = sorted(round(np.angle(m) / (np.pi / 2)) % 4 for m in q.members)
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
    return sorted(tuple(sorted((m.real, m.imag) for m in q.members))
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
    a = c = np.array([[1.0]])
    sol = solve_general(build_cpf_qsvd(a, c))
    cls = classify_spectrum(sol, "qsvd", (1, 1, 1), partition=partition_for(a, c=c))
    assert [t.kind for t in cls.triplets] == [TRIPLET_REGULAR]
    t = cls.triplets[0]
    assert t.sigma == pytest.approx(1.0)
    assert t.alpha == pytest.approx(1 / math.sqrt(2))
    assert t.gamma == pytest.approx(1 / math.sqrt(2))
    assert t.alpha**2 + t.beta**2 * t.gamma**2 == pytest.approx(1.0, abs=1e-12)


def test_classify_empty_c_gives_infinite_class():
    a, c = np.array([[1.0]]), np.zeros((0, 1))
    sol = solve_general(build_cpf_qsvd(a, c))
    cls = classify_spectrum(sol, "qsvd", (1, 1, 0), partition=partition_for(a, c=c))
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
    cls = classify_spectrum(sol, "qsvd", (1, 3, 2), partition=partition_for(a, c=c))
    kinds = sorted(t.kind for t in cls.triplets)
    assert kinds == sorted([TRIPLET_110, TRIPLET_100, TRIPLET_011, TRIPLET_TRIVIAL])


def test_classify_ill_conditioned_quotient_keeps_every_triplet():
    # kappa_Y = 1e10 spreads the quadruple phases by up to ~1e-3 while the
    # values stay accurate to ~1e-7; each triplet carries its spread
    # as evidence
    problem = generate_qsvd(GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=1e10, seed=0))
    sol = solve_general(build_cpf_qsvd(problem.a, problem.c))
    cls = classify_spectrum(sol, "qsvd", (4, 4, 4),
                            partition=partition_for(problem.a, c=problem.c))
    assert [t.kind for t in cls.triplets] == [TRIPLET_REGULAR] * 4
    residuals = [t.phase_residual for t in cls.triplets]
    assert residuals == [q.phase_residual for q in cls.quadruples]
    assert max(residuals) > 1e-3
    sigmas = sorted(t.sigma for t in cls.triplets)
    assert np.allclose(sigmas, sorted(problem.sigmas.to_float()), rtol=1e-6, atol=0)


def test_classify_rejects_bad_counts():
    a = c = np.array([[2.0]])
    sol = solve_general(build_cpf_qsvd(a, c))
    # dims that are not the partition's input sizes (1, 1, 1)
    for dims in ((1, 1, 5), (1, 1)):
        with pytest.raises(ValueError, match=r"not the partition's input sizes \(1, 1, 1\)") as exc:
            classify_spectrum(sol, "qsvd", dims, partition=partition_for(a, c=c))
        assert not isinstance(exc.value, GroupingError)


def _rsvd_with_infinite_values():
    # the zero row of C gives four infinite eigenvalues: an N_3 block of a
    # (1, 1, 0) triplet and a simple one of a (1, 0, 0) triplet
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.eye(2)
    c = np.array([[1.0, 0.0], [0.0, 0.0]])
    return (a, b, c), solve_general(build_cpf_rsvd(a, b, c), class_tol_rel=1e-8)


def test_classify_rsvd_rejects_a_partition_with_other_counts():
    (a, b, c), sol = _rsvd_with_infinite_values()
    cls = classify_spectrum(sol, "rsvd", (2, 2, 2, 2), partition=partition_for(a, b, c))
    assert sorted(t.kind for t in cls.triplets) == \
        sorted([TRIPLET_REGULAR, TRIPLET_110, TRIPLET_100])
    # the partition of (A, B, I) predicts two finite quadruples and no
    # infinite value, so the four values at infinity do not group
    with pytest.raises(GroupingError, match="grouping expects finite nonzero eigenvalues"):
        classify_spectrum(sol, "rsvd", (2, 2, 2, 2), partition=partition_for(a, b, np.eye(2)))


@pytest.mark.parametrize("kind", ["svd", "qsvd"])
def test_classify_holds_every_kind_to_the_partition(kind):
    # A has full column rank, and its quadruple at sqrt(1e-9) lies far
    # inside a 1e-4 class threshold, but the zero rows of A fix the zero
    # and deflated counts, so the small sigma keeps its quadruple whatever
    # threshold the solve classified at
    a = np.array([[1.0, 0.0], [0.0, 1e-9], [0.0, 0.0]])
    mats = {"a": a} if kind == "svd" else {"a": a, "c": np.eye(2)}
    dims = (3, 2) if kind == "svd" else (3, 2, 2)
    for class_tol_rel in (None, 1e-4):
        sol = solve_general(FORMULATIONS[f"cpf-{kind}"].build_from(mats), class_tol_rel)
        cls = classify_spectrum(sol, kind, dims, partition=partition_for(**mats))
        assert [t.kind for t in cls.triplets] == [TRIPLET_REGULAR] * 2 + [TRIPLET_011]
        assert [t.sigma for t in cls.triplets[:2]] == pytest.approx([1.0, 1e-9], rel=1e-6)
        # the members are the values of their pairs, whatever their solver class
        assert all(m == sol.values[i].alpha_e / sol.values[i].beta_e for q in cls.quadruples
                   for m, i in zip(q.members, q.member_indices))


def test_classify_rejects_a_spectrum_of_another_order():
    # three values cannot be the order-4 cpf-qsvd pencil of 1 x 1 inputs
    sol = solve_general(generic_pencil(np.diag([1.0, 2.0, 3.0]), np.eye(3)))
    with pytest.raises(ValueError, match="spectrum of order 3 is not the order 4 "
                                         "of the partition's cpf-qsvd pencil") as exc:
        classify_spectrum(sol, "qsvd", (1, 1, 1), partition=partition_for(np.eye(1), c=np.eye(1)))
    assert not isinstance(exc.value, GroupingError)


def _gap_spectrum(gap):
    """A hand-made cpf-svd spectrum of ``A = [[1, 0]]``: the quadruple of
    sigma = 1, whose side ratios are 1/sqrt(2), and two zero values whose
    ratio is ``1 / (sqrt(2) gap)``, so the class gap is ``gap``."""
    r = 1 / (math.sqrt(2) * gap)
    t = r / math.sqrt(1 - r * r)
    values = [GeneralizedEigenvalue(lam, 1.0 + 0j, CLASS_FINITE)
              for lam in (1, -1, 1j, -1j, t, -t)]
    return EigenSolution(tuple(values), None, None)


def test_classify_class_gap_floor_edge():
    assert CLASS_GAP_FLOOR == 2.0
    partition = partition_for(np.array([[1.0, 0.0]]))
    with pytest.raises(GroupingError, match="class gap 1.9 is below 2.0"):
        classify_spectrum(_gap_spectrum(1.9), "svd", (1, 2), partition=partition)
    cls = classify_spectrum(_gap_spectrum(2.1), "svd", (1, 2), partition=partition)
    assert cls.class_gap == pytest.approx(2.1, rel=1e-12)
    assert [t.sigma for t in cls.triplets] == [pytest.approx(1.0), 0.0]
    # a spectrum with no value predicted at zero or infinity has no gap
    a = c = np.eye(1)
    cls = classify_spectrum(solve_general(build_cpf_qsvd(a, c)), "qsvd", (1, 1, 1),
                            partition=partition_for(a, c=c))
    assert cls.class_gap == math.inf


def test_classify_holds_the_deflated_pairs_to_the_partition():
    # the common null direction of A = [[1, 0]] and C = [[0, 0]] deflates
    # one (0, 0) pair; the partition of A and C = [[0, 1]] predicts none
    a = np.array([[1.0, 0.0]])
    sol = solve_general(build_cpf_qsvd(a, np.zeros((1, 2))))
    with pytest.raises(GroupingError, match="1 deflated pairs, but the partition "
                                            "predicts 0 indeterminate ones"):
        classify_spectrum(sol, "qsvd", (1, 2, 1), partition=partition_for(a, c=np.eye(2)[1:]))


def _triplet_oracle(kind, part):
    """Triplets of each class without a finite value (De Moor & Golub,
    SIMAX 12(3), 1991), written out from the partition fields."""
    if kind == "svd":
        return {TRIPLET_011: part.p2 + part.q2}
    if kind == "qsvd":
        return {TRIPLET_110: part.p2, TRIPLET_100: part.n3,
                TRIPLET_011: part.p3 + part.q2, TRIPLET_TRIVIAL: part.q1}
    return {TRIPLET_110: part.p2, TRIPLET_101: part.p3,
            TRIPLET_100: part.p4 + part.q6 + part.m3 + part.n4,
            TRIPLET_011: part.p5 + part.q2, TRIPLET_TRIVIAL: part.p6 + part.q1}


def test_classify_counts_every_class_as_the_oracle():
    # every class's count, in the output order, over structured problems
    # solved at the regular default threshold
    rng = np.random.default_rng(20)
    draw = {"svd": random_svd_counts, "qsvd": random_qsvd_counts, "rsvd": random_rsvd_counts}
    cases = list(DEFLATING_COUNTS) + [(kind, draw[kind](rng)) for kind in draw for _ in range(20)]
    order = (TRIPLET_110, TRIPLET_101, TRIPLET_100, TRIPLET_011, TRIPLET_TRIVIAL)
    for kind, counts in cases:
        part, _, inputs, _ = structured_problem(kind, counts, rng)
        sol = solve_general(FORMULATIONS[f"cpf-{kind}"].build_from(inputs))
        cls = classify_spectrum(sol, kind, input_dims(part), partition=part)
        oracle = _triplet_oracle(kind, part)
        want = [TRIPLET_REGULAR] * part.p1 + [t for t in order for _ in range(oracle.get(t, 0))]
        assert [t.kind for t in cls.triplets] == want, (kind, counts)
        # the augmented pencils, of order p+q, have no blocks for n3, m3, n4
        if kind != "svd":
            oracle[TRIPLET_100] -= part.n3 if kind == "qsvd" else part.m3 + part.n4
        aug = triplet_counts(f"aug-{kind}", part)
        assert {t: aug[t] for t in order} == {t: oracle.get(t, 0) for t in order}


def test_classify_builds_no_block_multiset(monkeypatch):
    # the counts come from the layouts: with predict_kcf raising wherever
    # it can be reached, every DEFLATING_COUNTS spectrum classifies as before
    cases = []
    for kind, counts in DEFLATING_COUNTS:
        part, _, inputs, _ = structured_problem(kind, counts, np.random.default_rng(6))
        sol = solve_general(FORMULATIONS[f"cpf-{kind}"].build_from(inputs))
        cases.append((sol, kind, part, classify_spectrum(sol, kind, input_dims(part), part)))

    def refuse(*args, **kwargs):
        raise AssertionError("classify_spectrum built a block multiset")

    for owner in (kcf, recovery, pencilsvd):
        monkeypatch.setattr(owner, "predict_kcf", refuse, raising=False)
    for sol, kind, part, want in cases:
        assert classify_spectrum(sol, kind, input_dims(part), part) == want


def test_extract_vectors_scalar_qsvd():
    a = np.array([[2.0]])
    c = np.array([[1.0]])
    pencil = build_cpf_qsvd(a, c)
    sol = solve_general(pencil, vectors=True)
    cls = classify_spectrum(sol, "qsvd", (1, 1, 1), partition=partition_for(a, c=c))
    rec = extract_vectors(sol, cls.quadruples[0], pencil)
    assert rec.u == pytest.approx(np.array([1.0 + 0j]))
    assert abs(abs(rec.v[0]) - 1.0) <= 1e-13
    assert rec.z[0] == pytest.approx(1.0 + 0j, abs=1e-10)
    assert rec.residual_a <= 1e-13
    assert rec.residual_c <= 1e-13


def test_extract_vectors_rejects_a_values_only_solution():
    a = np.array([[2.0]])
    c = np.array([[1.0]])
    pencil = build_cpf_qsvd(a, c)
    sol = solve_general(pencil)
    # the default solve is values-only: classifying needs only the values,
    # and the vectors were never computed
    cls = classify_spectrum(sol, "qsvd", (1, 1, 1), partition=partition_for(a, c=c))
    with pytest.raises(ValueError, match="values-only"):
        extract_vectors(sol, cls.quadruples[0], pencil)


def test_extract_vectors_cpf_svd_diag():
    a = np.diag([3.0])
    pencil = build_cpf_svd(a)
    sol = solve_general(pencil, vectors=True)
    cls = classify_spectrum(sol, "svd", (1, 1), partition=partition_for(a))
    rec = extract_vectors(sol, cls.quadruples[0], pencil)
    assert rec.u == pytest.approx(np.array([1.0 + 0j]))
    assert rec.z == pytest.approx(np.array([1.0 + 0j]), abs=1e-10)
    assert rec.residual_a <= 1e-12
    assert rec.residual_c <= 1e-12


def test_extract_vectors_rsvd_identity_reduction():
    rng = np.random.default_rng(0)
    a = np.diag([2.0, 0.5]).astype(complex)
    pencil_r = build_cpf_rsvd(a, np.eye(2), np.eye(2))
    pencil_s = build_cpf_svd(a)
    sol_r = solve_general(pencil_r, vectors=True)
    sol_s = solve_general(pencil_s, vectors=True)
    cls_r = classify_spectrum(sol_r, "rsvd", (2, 2, 2, 2),
                              partition=partition_for(a, np.eye(2), np.eye(2)))
    cls_s = classify_spectrum(sol_s, "svd", (2, 2), partition=partition_for(a))
    for qr, qs in zip(cls_r.quadruples, cls_s.quadruples):
        rr = extract_vectors(sol_r, qr, pencil_r)
        rs = extract_vectors(sol_s, qs, pencil_s)
        assert rr.sigma == pytest.approx(rs.sigma, rel=1e-12)
        assert np.allclose(np.abs(rr.u), np.abs(rs.u), atol=1e-10)
        assert rr.residual_a <= 1e-10 and rr.residual_c <= 1e-10
        assert rr.x is not None
        assert np.allclose(np.abs(rr.x / np.linalg.norm(rr.x)), np.abs(rs.u), atol=1e-8)


def test_extract_vectors_rsvd_general_b_and_c():
    # B is p x m with m != p and C is n x q with n != q; extract_vectors
    # reads both from the pencil's blocks (1,3) and (2,4)
    rng = np.random.default_rng(3)

    def draw(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    a, b, c = draw(3, 2), draw(3, 4), draw(3, 2)
    pencil = build_cpf_rsvd(a, b, c)
    # B's null direction gives Jordan blocks at infinity: classify at the
    # structure tolerance, with the partition from the ranks
    sol = solve_general(pencil, class_tol_rel=1e-4, vectors=True)
    cls = classify_spectrum(sol, "rsvd", (3, 2, 4, 3), partition=partition_for(a, b, c))
    assert len(cls.quadruples) == 2
    for quad in cls.quadruples:
        rec = extract_vectors(sol, quad, pencil)
        assert (rec.u.shape, rec.v.shape, rec.z.shape, rec.x.shape) == ((4,), (3,), (2,), (3,))
        assert abs(np.linalg.norm(rec.u) - 1) <= 1e-13
        assert abs(np.linalg.norm(rec.v) - 1) <= 1e-13
        scale = np.linalg.norm(rec.z)
        assert np.linalg.norm(a @ rec.z - rec.sigma * (b @ rec.u)) <= 1e-12 * scale
        assert np.linalg.norm(c @ rec.z - rec.v) <= 1e-12 * scale
        assert rec.residual_a <= 1e-12 * scale and rec.residual_c <= 1e-12 * scale
        # x comes from the first block: B* x = u
        assert np.linalg.norm(b.conj().T @ rec.x - rec.u) <= 1e-12

    # a pencil of another family carries no cpf blocks to read
    for other in (build_aug_rsvd(a, b, c), generic_pencil(pencil.lhs, pencil.rhs)):
        with pytest.raises(ValueError, match="needs a cpf pencil"):
            extract_vectors(sol, cls.quadruples[0], other)


def test_extract_vectors_after_non_finite_values():
    # QZ interleaves the classes, so finite values can follow zero or
    # infinite ones; classify_spectrum's member indices point into
    # sol.values, and every quadruple's vectors satisfy their relations
    interleaved = False
    for kind, counts in DEFLATING_COUNTS:
        part, _, inputs, _ = structured_problem(kind, counts, np.random.default_rng(4))
        pencil = FORMULATIONS[f"cpf-{kind}"].build_from(inputs)
        sol = solve_general(pencil, class_tol_rel=1e-4, vectors=True)
        kinds = [v.kind for v in sol.values]
        interleaved |= kinds.index(CLASS_FINITE) > 0
        dims = tuple(pencil.row_blocks[i] for i in ((0, 1, 3) if kind == "qsvd" else (0, 1, 2, 3)))
        for quad in classify_spectrum(sol, kind, dims, partition=part).quadruples:
            assert all(kinds[i] == CLASS_FINITE for i in quad.member_indices)
            rec = extract_vectors(sol, quad, pencil)
            assert rec.residual_a <= 1e-12 and rec.residual_c <= 1e-12, (kind, counts)
    assert interleaved


def test_extract_vectors_unit_norms():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pencil = build_cpf_qsvd(a, c)
    sol = solve_general(pencil, vectors=True)
    cls = classify_spectrum(sol, "qsvd", (3, 3, 3), partition=partition_for(a, c=c))
    for quad in cls.quadruples:
        rec = extract_vectors(sol, quad, pencil)
        assert abs(np.linalg.norm(rec.u) - 1) <= 1e-13
        assert abs(np.linalg.norm(rec.v) - 1) <= 1e-13
        lead = np.flatnonzero(np.abs(rec.u) > 1e-8)[0]
        assert abs(rec.u[lead].imag) <= 1e-12 and rec.u[lead].real > 0


@pytest.mark.parametrize("kind", ["rsvd", "svd"])
def test_classify_rejects_a_partition_of_another_kind(kind):
    # the cpf-qsvd spectrum of A = C = I_2 with its quotient partition,
    # read as another kind: a typed error, not an AttributeError (rsvd) or
    # two regular triplets (svd)
    a = c = np.eye(2, dtype=complex)
    partition = partition_for(a, c=c)
    sol = solve_general(build_cpf_qsvd(a, c))
    assert len(classify_spectrum(sol, "qsvd", input_dims(partition), partition).triplets) == 2
    with pytest.raises(ValueError, match="needs a"):
        classify_spectrum(sol, kind, input_dims(partition), partition)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the cpf pencil puts identities beside the input blocks, so a "
                          "common input scale moves its values (ROADMAP item 5)")
def test_cpf_values_ignore_a_common_input_scale():
    # (s A0, s C0) has the quotient values of (A0, C0); the cpf values move
    # by 3e-12 at s = 1e-6, 1.5e-3 at 1e-8 and 5e-2 at 1e-10, where the aug
    # ones stay within 4e-16
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    def sigmas(s):
        a, c = s * a0, s * c0
        part = partition_for(a, c=c)
        cls = classify_spectrum(solve_general(build_cpf_qsvd(a, c)), "qsvd",
                                input_dims(part), part)
        return np.sort([q.sigma for q in cls.quadruples])

    want, got = sigmas(1.0), sigmas(1e-8)
    assert max(chordal(w, g) for w, g in zip(want, got)) <= 1e-12
