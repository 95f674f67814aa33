from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from helpers import (
    DEFLATING_COUNTS,
    assembled_qsvd_pair,
    assembled_rsvd_triplet,
    canonical_qsvd_matrices,
    canonical_rsvd_matrices,
    qsvd_partition_from_counts,
    random_qsvd_counts,
    random_rsvd_counts,
    random_svd_counts,
    ref_eigenvalue_counts,
    ref_verify_reduction,
    rsvd_partition_from_counts,
    structured_problem,
    svd_partition_from_counts,
)
from pencilsvd import kcf
from pencilsvd.eigensolve import solve_general
from pencilsvd.kcf import (
    _LAYOUTS,
    _PARTITIONS,
    _canonical_pair,
    _chain_sizes,
    _kron_eye,
    KIND_J,
    KIND_N,
    KIND_ZERO_BLOCK,
    KcfBlock,
    PartitionError,
    QsvdPartition,
    RsvdPartition,
    eigenvalue_counts,
    input_dims,
    lemma_reduce,
    partition_for,
    partition_from_ranks,
    predict_kcf,
    qsvd_partition_from_ranks,
    spectrum_counts_check,
    triplet_counts,
    verify_reduction,
)
from pencilsvd.pencils import FORMULATIONS, build_cpf_qsvd, build_cpf_rsvd, build_cpf_svd

EPS = np.finfo(float).eps


# -- partitions ---------------------------------------------------------------


def test_partition_identity_triplet():
    n = 3
    part = partition_from_ranks(n, n, n, n, n, n, n, n, n, 2 * n)
    assert part.p1 == n
    assert (part.p2, part.p3, part.p4, part.p5, part.p6) == (0, 0, 0, 0, 0)
    assert (part.q1, part.q2, part.m3, part.n4) == (0, 0, 0, 0)


def test_partition_zero_a():
    # A = 0 (1x1), B = C = [1]: one (0,1,1) unit
    part = partition_from_ranks(1, 1, 1, 1, 0, 1, 1, 1, 1, 2)
    assert part.p5 == 1 and part.q2 == 1
    assert part.p1 == 0


def test_partition_full_rank_square():
    rng = np.random.default_rng(0)
    n = 4
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n))
    from pencilsvd.matcore import rank_with_tol

    r_a = rank_with_tol(a).rank
    r_b = rank_with_tol(b).rank
    r_c = rank_with_tol(c).rank
    r_ab = rank_with_tol(np.hstack([a, b])).rank
    r_ac = rank_with_tol(np.vstack([a, c])).rank
    r_abc = rank_with_tol(np.block([[a, b], [c, np.zeros((n, n))]])).rank
    part = partition_from_ranks(n, n, n, n, r_a, r_b, r_c, r_ab, r_ac, r_abc)
    assert part.p1 == n


def test_partition_negative_count_raises():
    with pytest.raises(PartitionError):
        # r_abc < r_b + r_c is impossible when A block is full
        partition_from_ranks(2, 2, 2, 2, 2, 2, 2, 2, 2, 3)


def test_partition_roundtrip_integer_bookkeeping():
    rng = np.random.default_rng(42)
    for _ in range(100):
        counts = random_rsvd_counts(rng)
        part = rsvd_partition_from_counts(*counts)
        got = (part.p1, part.p2, part.p3, part.p4, part.p5, part.p6,
               part.q1, part.q2, part.m3, part.n4)
        assert got == counts


def test_partition_for_rejects_b_without_c():
    with pytest.raises(ValueError, match="B needs C"):
        partition_for(np.eye(2), np.eye(2), None)


@pytest.mark.parametrize("args,message", [
    (([[np.inf, 1.0]],), "A must not hold non-finite"),
    (([[1.0, np.nan]],), "A must not hold non-finite"),
    ((np.eye(2), None, [[np.nan, 0.0]]), "C must not hold non-finite"),
    ((np.eye(2), [[1.0], [np.inf]], np.eye(2)), "B must not hold non-finite"),
    ((np.eye(2), None, np.ones((2, 3))), r"A and C must share columns, got \(2, 2\) and \(2, 3\)"),
    (([[[1.0, 0.0], [0.0, 1.0]]],), "A must be a matrix"),
    (([[1.0, 2.0], [3.0]],), "A must be a matrix"),
])
def test_partition_for_rejects_bad_input_naming_the_matrix(args, message):
    with pytest.raises(ValueError, match=message):
        partition_for(*args)


def test_partition_for_takes_nested_lists_like_arrays():
    a, c = [[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0]]
    assert partition_for(a) == partition_for(np.array(a))
    assert partition_for(a, c=c) == partition_for(np.array(a), c=np.array(c))


def test_partition_for_fills_the_ranks_of_the_identity_exactly(monkeypatch):
    # A alone is (A, I_q), where rank(C) = rank([A; I_q]) = q hold exactly,
    # so only A is ranked.  Ranking [A; I_2] at A = diag(1e17, 0) would
    # drop the identity's rows below the cutoff relative to 1e17
    a = np.diag([1e17, 0.0])
    ranked, rank_with_tol = [], kcf.rank_with_tol
    monkeypatch.setattr(kcf, "rank_with_tol", lambda m: ranked.append(m.shape) or rank_with_tol(m))
    assert partition_for(a) == QsvdPartition.of(p1=1, p2=0, p3=1, q1=0, q2=1, n3=0)
    assert ranked == [(2, 2)]
    with pytest.raises(PartitionError, match=r"^derived count p2 is negative \(-1\)"):
        partition_for(a, c=np.eye(2))


def test_qsvd_partition_from_ranks():
    part = qsvd_partition_from_ranks(p=1, q=3, n=2, r_a=1, r_c=1, r_ac=2)
    assert (part.p1, part.p2, part.p3) == (0, 1, 0)
    assert (part.q1, part.q2, part.n3) == (1, 1, 1)


# -- coupling tables ----------------------------------------------------------

_COUPLINGS = [(cls, coupled, free) for cls in _PARTITIONS.values()
              for coupled, free in cls.COUPLED]


@pytest.mark.parametrize("cls, coupled, free", _COUPLINGS,
                         ids=[f"{c.__name__}-{a}={b}" for c, a, b in _COUPLINGS])
def test_each_coupling_is_checked_naming_the_coupled_count(cls, coupled, free):
    counts = {f.name: 1 for f in fields(cls)}  # all ones meet every coupling
    counts[coupled] = 2
    with pytest.raises(PartitionError, match=rf"^coupling {coupled} = 2 != {free} = 1$"):
        cls(**counts)


def test_coupling_tables_fit_their_classes():
    assert len(_COUPLINGS) == 14
    for cls in _PARTITIONS.values():
        names = [f.name for f in fields(cls)]
        coupled = [c for c, _ in cls.COUPLED]
        assert len(set(coupled)) == len(coupled), cls
        assert set(coupled) <= set(names), cls
        # each count a coupled one copies is free, so `of` fills them all
        assert {f for _, f in cls.COUPLED} <= set(names) - set(coupled), cls
    # the field order is the keyword constructor the benchmark calls
    assert [f.name for f in fields(QsvdPartition)] == \
        "p1 p2 p3 q1 q2 q3 q4 n1 n2 n3".split()


@pytest.mark.parametrize("cls", _PARTITIONS.values(), ids=lambda c: c.__name__)
def test_a_negative_free_count_is_named(cls):
    coupled = {c for c, _ in cls.COUPLED}
    free = [f.name for f in fields(cls) if f.name not in coupled]
    for name in free:
        counts = dict.fromkeys(free, 1) | {name: -1}
        with pytest.raises(PartitionError, match=rf"^derived count {name} is negative \(-1\)"):
            cls.of(**counts)


def _partition_cases():
    rng = np.random.default_rng(28)
    cases = list(DEFLATING_COUNTS)
    for _ in range(80):
        cases += [("svd", random_svd_counts(rng)), ("qsvd", random_qsvd_counts(rng)),
                  ("rsvd", random_rsvd_counts(rng))]
    return cases


def test_of_fills_the_coupled_counts_and_the_sizes():
    cases = _partition_cases()
    assert len(cases) >= 150
    for kind, counts in cases:
        if kind == "svd":
            # A alone (rank p1, deficiencies p2, q2): the partition of (A, I)
            p1, p2, q2 = counts
            p, q = p1 + p2, p1 + q2
            part = QsvdPartition.of(p1=p1, p2=0, p3=p2, q1=0, q2=q2, n3=0)
            assert part == qsvd_partition_from_ranks(p, q, q, p1, q, q)
            want = {"p": p, "q": q, "n": q}
        elif kind == "qsvd":
            p1, p2, p3, q1, q2, n3 = counts
            part = QsvdPartition.of(p1=p1, p2=p2, p3=p3, q1=q1, q2=q2, n3=n3)
            assert part == qsvd_partition_from_counts(*counts)
            assert part == QsvdPartition(p1=p1, p2=p2, p3=p3, q1=q1, q2=q2, q3=p1, q4=p2,
                                         n1=q2, n2=p1, n3=n3)
            want = {"p": p1 + p2 + p3, "q": q1 + q2 + p1 + p2, "n": q2 + p1 + n3}
        else:
            p1, p2, p3, p4, p5, p6, q1, q2, m3, n4 = counts
            part = RsvdPartition.of(p1=p1, p2=p2, p3=p3, p4=p4, p5=p5, p6=p6,
                                    q1=q1, q2=q2, m3=m3, n4=n4)
            assert part == rsvd_partition_from_counts(*counts)
            assert part == RsvdPartition(
                p1=p1, p2=p2, p3=p3, p4=p4, p5=p5, p6=p6,
                q1=q1, q2=q2, q3=p1, q4=p2, q5=p3, q6=p4,
                m1=p1, m2=p2, m3=m3, m4=p5, n1=q2, n2=p1, n3=p3, n4=n4)
            want = {"p": p1 + p2 + p3 + p4 + p5 + p6, "q": q1 + q2 + p1 + p2 + p3 + p4,
                    "m": p1 + p2 + m3 + p5, "n": q2 + p1 + p3 + n4}
        assert {d: getattr(part, d) for d in "pqmn" if hasattr(part, d)} == want, counts
        assert input_dims(part) == tuple(want.values())


def test_sizes_stay_out_of_eq_hash_and_repr():
    part = rsvd_partition_from_counts(2, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    twin = RsvdPartition(**{f.name: getattr(part, f.name) for f in fields(part)})
    object.__setattr__(twin, "p", 0)
    assert (part.p, twin.p) == (7, 0)
    assert twin == part and hash(twin) == hash(part) and repr(twin) == repr(part)
    assert repr(part) == "RsvdPartition(" + ", ".join(
        f"{f.name}={getattr(part, f.name)}" for f in fields(part)) + ")"
    with pytest.raises(FrozenInstanceError):
        part.q = 3


# -- block prediction -----------------------------------------------------------


def test_predict_cpf_svd_full_rank():
    # A alone: the cpf-qsvd pencil of (A, I)
    st = predict_kcf("cpf-qsvd", partition_for(np.diag([3.0, 4.0])), sigmas=(3.0, 4.0))
    assert all(b.kind == KIND_J and b.size == 1 for b in st.blocks)
    assert len(st.blocks) == 8
    vals = sorted((b.eigenvalue for b in st.blocks), key=lambda z: (z.real, z.imag))
    r3, r4 = np.sqrt(3), 2.0
    want = sorted([r3, -r3, 1j * r3, -1j * r3, r4, -r4, 2j, -2j],
                  key=lambda z: (z.real, z.imag))
    assert np.allclose(vals, want)


def test_predict_cpf_qsvd_infinite_block():
    part = qsvd_partition_from_counts(p1=0, p2=1, p3=0, q1=0, q2=0, n3=0)
    st = predict_kcf("cpf-qsvd", part)
    assert [b.kind for b in st.blocks] == [KIND_N]
    assert st.blocks[0].size == 3
    assert st.counts["infinite"] == 3


def test_predict_cpf_rsvd_full_rank():
    part = rsvd_partition_from_counts(4, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    st = predict_kcf("cpf-rsvd", part, sigmas=np.linspace(0.5, 2, 4))
    assert len(st.blocks) == 16
    assert all(b.kind == KIND_J for b in st.blocks)


def test_predict_dimensions_match_pencils():
    rng = np.random.default_rng(5)
    for _ in range(20):
        counts = random_rsvd_counts(rng)
        part = rsvd_partition_from_counts(*counts)
        sig = rng.uniform(0.5, 2.0, part.p1)
        st = predict_kcf("cpf-rsvd", part, sigmas=sig)
        assert st.order == part.p + part.q + part.m + part.n
        st_aug = predict_kcf("aug-rsvd", part, sigmas=sig)
        assert st_aug.order == part.p + part.q


def test_predict_aug_rsvd_block_list():
    part = rsvd_partition_from_counts(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    st = predict_kcf("aug-rsvd", part, sigmas=(1.5,))
    kinds = sorted((b.kind, b.size) for b in st.blocks)
    # zero block 2, N1 x2 (p4+q6), N2 x2 (p2, p3), J1(0) x2 (p5+q2), J1(+-1.5)
    assert kinds.count((KIND_N, 1)) == 2
    assert kinds.count((KIND_N, 2)) == 2
    assert kinds.count((KIND_ZERO_BLOCK, 2)) == 1
    zeros = [b for b in st.blocks if b.kind == KIND_J and b.eigenvalue == 0]
    assert len(zeros) == 2
    fins = sorted(b.eigenvalue.real for b in st.blocks
                  if b.kind == KIND_J and b.eigenvalue != 0)
    assert fins == [-1.5, 1.5]


def test_predict_unknown_tag():
    with pytest.raises(ValueError, match="no structure prediction"):
        predict_kcf("sq-qsvd", None)
    with pytest.raises(ValueError, match="no structure prediction"):
        eigenvalue_counts("sq-qsvd", None)


def _helper_partitions(kind, rng, count):
    """The DEFLATING_COUNTS partitions of a kind, then ``count`` random ones."""
    draw, build = {
        "svd": (random_svd_counts, svd_partition_from_counts),
        "qsvd": (random_qsvd_counts, qsvd_partition_from_counts),
        "rsvd": (random_rsvd_counts, rsvd_partition_from_counts)}[kind]
    counts = [c for k, c in DEFLATING_COUNTS if k == kind]
    counts += [draw(rng, max_count=3) for _ in range(count)]
    return [build(*c) for c in counts]


@pytest.mark.parametrize("kind", ["svd", "qsvd", "rsvd"])
def test_eigenvalue_counts_equal_the_block_walk(kind):
    # the counts read from the layout are those walked from the predicted
    # blocks, in the same class order, on every formulation of the kind
    rng = np.random.default_rng(27)
    pencil_kind = "rsvd" if kind == "rsvd" else "qsvd"  # A alone is (A, I)
    names = [name for name in sorted(_LAYOUTS) if FORMULATIONS[name].kind == pencil_kind]
    assert len(names) == 2
    for part in _helper_partitions(kind, rng, 60):
        for name in names:
            sigmas = rng.uniform(0.5, 2.0, part.p1)
            st = predict_kcf(name, part, sigmas)
            want = ref_eigenvalue_counts(st)
            assert list(eigenvalue_counts(name, part).items()) == list(want.items())
            assert list(st.counts.items()) == list(want.items())
            assert sum(want.values()) == st.order
            assert hash(st) == hash(predict_kcf(name, part, sigmas))


@pytest.mark.parametrize("formulation, names", [
    ("cpf-qsvd", "p1 p2 p3 q1 q2 q3 q4 p1 p2 p3 n1 n2 n3"),
    ("cpf-rsvd", "p1 p2 p3 p4 p5 p6 q1 q2 q3 q4 q5 q6 m1 m2 m3 m4 n1 n2 n3 n4"),
])
def test_chain_sizes_expand_the_block_rows(formulation, names):
    # each block row letter expands to the partition's fields of that
    # letter, in field order: the sizes the layouts once spelled out
    layout = _LAYOUTS[formulation]
    for part in _helper_partitions(FORMULATIONS[formulation].kind,
                                   np.random.default_rng(31), 20):
        assert _chain_sizes(layout, part) == [getattr(part, n) for n in names.split()]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("formulation", ["cpf-svd", "aug-svd"])
def test_predict_rejects_sigmas_that_are_not_finite_and_positive(formulation, bad):
    # the pencils of A alone: those of the quotient pair (A, I)
    family = formulation.removesuffix("-svd")
    with pytest.raises(ValueError, match="finite and positive"):
        predict_kcf(f"{family}-qsvd", partition_for(np.eye(2)), sigmas=(1.0, bad))


@pytest.mark.parametrize("formulation", sorted(_LAYOUTS))
def test_predict_rejects_a_partition_of_another_kind(formulation):
    eye = np.eye(2, dtype=complex)
    partitions = {"qsvd": partition_for(eye, c=eye), "rsvd": partition_for(eye, eye, eye)}
    assert partition_for(eye) == partitions["qsvd"]  # A alone is (A, I)
    kind = FORMULATIONS[formulation].kind
    for other, partition in partitions.items():
        for call in (lambda: predict_kcf(formulation, partition, np.ones(partition.p1)),
                     lambda: eigenvalue_counts(formulation, partition),
                     lambda: triplet_counts(formulation, partition)):
            if other == kind:
                call()
                continue
            with pytest.raises(ValueError, match=f"needs a {type(partitions[kind]).__name__}"):
                call()


def test_kcf_block_shape_validation():
    with pytest.raises(ValueError):
        KcfBlock("l-right", 2)


def test_layouts_match_formulation_table():
    # every aug and cpf formulation has a canonical layout, and no layout
    # belongs to a formulation the table does not define
    structured = {name for name, f in FORMULATIONS.items() if f.family in ("aug", "cpf")}
    assert structured == set(_LAYOUTS)


# -- lemma reductions ------------------------------------------------------------


def test_lemma_osvd_sigma_one_is_unitary():
    red = lemma_reduce(1.0)
    assert np.allclose(red.x.conj().T @ red.x, np.eye(4), atol=1e-15)
    assert np.allclose(red.target.lhs, np.diag([1, -1, 1j, -1j]))
    assert red.residual_const <= 8 * EPS and red.residual_lambda <= 8 * EPS


def test_lemma_qsvd_normalized():
    red = lemma_reduce(alpha=1 / np.sqrt(2), gamma=1 / np.sqrt(2))
    assert red.sigma == pytest.approx(1.0)
    assert np.allclose(red.target.lhs, np.diag([1, -1, 1j, -1j]), atol=1e-15)


def test_lemma_rsvd_arithmetic():
    red = lemma_reduce(alpha=0.6, beta=2.0, gamma=0.3)
    assert red.sigma == pytest.approx(1.0)
    assert red.residual_const <= 8 * EPS
    assert red.residual_lambda <= 8 * EPS


def test_lemma_identities_random():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        alpha, beta, gamma = rng.uniform(1e-3, 1.0, 3)
        red = lemma_reduce(alpha, beta, gamma)
        assert red.residual_const <= 1e-14
        assert red.residual_lambda <= 1e-14


def test_lemma_rejects_nonpositive():
    for params in (dict(alpha=0.0, gamma=1.0), dict(alpha=np.nan), dict(alpha=1.0, beta=np.inf),
                   dict(alpha=1.0, gamma=-np.inf)):
        with pytest.raises(ValueError, match="lemma parameters must be positive and finite"):
            lemma_reduce(**params)


def test_lemma_pencil_spectrum():
    import scipy.linalg as sla

    pen = build_cpf_rsvd([[0.8]], [[0.5]], [[0.4]])
    sigma = 0.8 / (0.5 * 0.4)
    root = np.sqrt(sigma)
    got = sorted(sla.eigvals(pen.lhs, pen.rhs), key=lambda z: (round(z.real, 9), z.imag))
    want = sorted([root, -root, 1j * root, -1j * root],
                  key=lambda z: (round(z.real, 9), z.imag))
    assert np.allclose(got, want, atol=1e-12)


# -- transformation chain verification ---------------------------------------------


def test_verify_reduction_cpf_svd_diag():
    # the quotient chain of (A, I), whose factor Y is V
    a = np.diag([3.0, 4.0]).astype(complex)
    pencil = build_cpf_svd(a)
    assert pencil.formulation == "cpf-qsvd"
    eye = np.eye(2, dtype=complex)
    report = verify_reduction(pencil, "cpf-qsvd", partition_for(a), u=eye, v=eye, y=eye)
    assert report.off_structure <= 1e-14


def test_verify_reduction_canonical_qsvd_all_blocks():
    part = qsvd_partition_from_counts(p1=2, p2=1, p3=1, q1=1, q2=1, n3=1)
    a0, c0 = canonical_qsvd_matrices(part, [0.5, 2.0])
    pencil = build_cpf_qsvd(a0, c0)
    eye = lambda k: np.eye(k, dtype=complex)
    report = verify_reduction(pencil, "cpf-qsvd", part,
                              u=eye(part.p), v=eye(part.n), y=eye(part.q))
    assert report.off_structure <= 1e-14


def test_verify_reduction_canonical_rsvd_all_blocks():
    part = rsvd_partition_from_counts(2, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    sa, sb, sg = canonical_rsvd_matrices(part, [0.5, 2.0])
    pencil = build_cpf_rsvd(sa, sb, sg)
    eye = lambda k: np.eye(k, dtype=complex)
    report = verify_reduction(pencil, "cpf-rsvd", part,
                              u=eye(part.m), v=eye(part.n),
                              x=eye(part.p), y=eye(part.q))
    assert report.off_structure <= 1e-14


def test_verify_reduction_haar_qsvd():
    rng = np.random.default_rng(31)
    part = qsvd_partition_from_counts(p1=3, p2=1, p3=0, q1=1, q2=1, n3=0)
    a, c, u, v, yq = assembled_qsvd_pair(part, [0.5, 1.0, 2.0], rng)
    pencil = build_cpf_qsvd(a, c)
    report = verify_reduction(pencil, "cpf-qsvd", part, u=u, v=v, y=yq)
    assert report.relative <= 1e-12


def test_verify_reduction_haar_rsvd():
    rng = np.random.default_rng(32)
    part = rsvd_partition_from_counts(2, 1, 0, 1, 0, 1, 1, 1, 0, 1)
    a, b, c, u, v, x, yq = assembled_rsvd_triplet(part, [0.7, 1.3], rng)
    pencil = build_cpf_rsvd(a, b, c)
    report = verify_reduction(pencil, "cpf-rsvd", part, u=u, v=v, x=x, y=yq)
    assert report.relative <= 1e-12


def test_verify_reduction_rsvd_identity_reduces_to_svd():
    a = np.diag([2.0, 3.0]).astype(complex)
    part = rsvd_partition_from_counts(2, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    pencil = build_cpf_rsvd(a, np.eye(2), np.eye(2))
    eye = lambda k: np.eye(k, dtype=complex)
    report = verify_reduction(pencil, "cpf-rsvd", part,
                              u=eye(2), v=eye(2), x=eye(2), y=eye(2))
    assert report.off_structure <= 1e-14


def test_verify_reduction_factor_mismatch():
    a = np.diag([3.0]).astype(complex)
    pencil = build_cpf_svd(a)
    # list factors are taken as matrices; non-finite ones are named
    for u, v, match in (
            (np.eye(3, dtype=complex), np.eye(1, dtype=complex),
             r"factor shape \(3, 3\) does not match block size 1"),
            ([[1.0, 0.0], [0.0, 1.0]], [[1.0]],
             r"factor shape \(2, 2\) does not match block size 1"),
            (np.array([[np.nan]]), np.eye(1), "factor u must not hold non-finite"),
            ([[1.0]], [[np.inf]], "factor v must not hold non-finite")):
        with pytest.raises(ValueError, match=match):
            verify_reduction(pencil, "cpf-qsvd", partition_for(a), u=u, v=v, y=np.eye(1))


@pytest.mark.parametrize("other", ["svd", "rsvd"])
def test_verify_reduction_rejects_a_partition_of_another_kind(other):
    # A alone (svd) has the quotient partition of (A, I), which the
    # restricted chain refuses; the quotient chain refuses a restricted one
    eye = np.eye(2, dtype=complex)
    if other == "svd":
        partition, formulation, want = partition_for(eye), "cpf-rsvd", "RsvdPartition"
    else:
        partition, formulation, want = partition_for(eye, eye, eye), "cpf-qsvd", "QsvdPartition"
    pencil = FORMULATIONS[formulation].build_from({"a": eye, "b": eye, "c": eye})
    with pytest.raises(ValueError, match=f"needs a {want}"):
        verify_reduction(pencil, formulation, partition, u=eye, v=eye, x=eye, y=eye)


def test_verify_reduction_rejects_a_pencil_of_another_order():
    eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    partition = partition_for(eye2, c=eye2)
    with pytest.raises(ValueError, match=r"order 12 does not fit .*p q p n = \[2, 2, 2, 2\]"):
        verify_reduction(build_cpf_qsvd(eye3, eye3), "cpf-qsvd", partition,
                         u=eye2, v=eye2, y=eye2)


@pytest.mark.parametrize("kind", ["qsvd", "rsvd"])
def test_verify_reduction_rejects_a_negated_factor(kind):
    # -Y negates alpha (and gamma) on the sigma diagonal: the per-sigma
    # reduction needs positive parameters and must say so
    counts = next(c for k, c in DEFLATING_COUNTS if k == kind)
    part, _, inputs, factors = structured_problem(kind, counts, np.random.default_rng(34))
    pencil = FORMULATIONS[f"cpf-{kind}"].build_from(inputs)
    factors["y"] = -factors["y"]
    with pytest.raises(ValueError, match="lemma parameters must be positive"):
        verify_reduction(pencil, f"cpf-{kind}", part, **factors)


def test_verify_reduction_matches_the_lemma_replay():
    # stage 2 takes x, y and D without building the order-4 pencils; the
    # report is the one the replay through lemma_reduce gives, bit for bit
    rng = np.random.default_rng(35)
    cases = list(DEFLATING_COUNTS)
    cases += [("qsvd", random_qsvd_counts(rng)) for _ in range(4)]
    cases += [("rsvd", random_rsvd_counts(rng)) for _ in range(4)]
    for kind, counts in cases:
        part, _, inputs, factors = structured_problem(kind, counts, rng)
        pencil = FORMULATIONS[f"cpf-{kind}"].build_from(inputs)
        got = verify_reduction(pencil, f"cpf-{kind}", part, **factors)
        assert got == ref_verify_reduction(pencil, f"cpf-{kind}", part, **factors), counts
        assert got.stage2_off > 0


# -- spectrum counts ---------------------------------------------------------------


def test_spectrum_counts_qsvd_infinite_template():
    part = qsvd_partition_from_counts(p1=0, p2=1, p3=0, q1=0, q2=0, n3=0)
    a0, c0 = canonical_qsvd_matrices(part, [])
    rng = np.random.default_rng(8)
    a, c, *_ = assembled_qsvd_pair(part, [], rng)
    sol = solve_general(build_cpf_qsvd(a, c), class_tol_rel=1e-4)
    check = spectrum_counts_check(sol, predict_kcf("cpf-qsvd", part))
    assert check.ok, check.mismatches()
    assert check.expected["infinite"] == 3


def test_spectrum_counts_rsvd_full_rank():
    rng = np.random.default_rng(9)
    part = rsvd_partition_from_counts(4, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    sig = rng.uniform(0.5, 2.0, 4)
    a, b, c, *_ = assembled_rsvd_triplet(part, sig, rng)
    sol = solve_general(build_cpf_rsvd(a, b, c), class_tol_rel=1e-4)
    check = spectrum_counts_check(sol, predict_kcf("cpf-rsvd", part, sigmas=sig))
    assert check.ok, check.mismatches()
    assert check.expected["finite-nonzero"] == 16


def test_spectrum_counts_aug_qsvd_symmetric():
    rng = np.random.default_rng(10)
    part = qsvd_partition_from_counts(p1=4, p2=0, p3=0, q1=0, q2=0, n3=0)
    sig = rng.uniform(0.5, 2.0, 4)
    a, c, *_ = assembled_qsvd_pair(part, sig, rng)
    from pencilsvd.pencils import build_aug_qsvd

    sol = solve_general(build_aug_qsvd(a, c), class_tol_rel=1e-6)
    check = spectrum_counts_check(sol, predict_kcf("aug-qsvd", part, sigmas=sig))
    assert check.ok, check.mismatches()
    assert check.expected["finite-nonzero"] == 8


@pytest.mark.parametrize("kind", [KIND_N, KIND_J, KIND_ZERO_BLOCK])
def test_kron_eye_matches_numpy_kron_bitwise(kind):
    for size in (1, 2, 4):
        for count in (0, 1, 3):
            for block in _canonical_pair(kind, size):
                want = np.kron(block, np.eye(count))
                got = _kron_eye(block, count)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
