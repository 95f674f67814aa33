import dataclasses
import math

import numpy as np
import pytest

from helpers import chordal_reciprocal
from pencilsvd.bench import (
    NONREAL_TOL,
    ExperimentRecord,
    SampleFailure,
    _estimates_cpf,
    _estimates_sq,
    chordal,
    evaluate_sample,
    matched_decimal_digits,
    run_sweep,
    worked_example,
    write_sweep_csv,
)
from pencilsvd.eigensolve import (
    CLASS_FINITE,
    CLASS_INDETERMINATE,
    CLASS_INFINITE,
    CLASS_ZERO,
    EigenSolution,
    GeneralizedEigenvalue,
)
from pencilsvd.genmat import GeneratorConfig, generate, generate_qsvd


def test_chordal_identity_and_known_values():
    for s in (0.0, 1.0, 3.7, 1e8, math.inf):
        assert chordal(s, s) == 0.0
    assert chordal(0.0, 1.0) == pytest.approx(1 / math.sqrt(2))
    assert chordal(3.0, 4.0) == pytest.approx(1 / (math.sqrt(10) * math.sqrt(17)))


def test_chordal_infinity_handling():
    assert chordal(math.inf, math.inf) == 0.0
    assert chordal(3.0, math.inf) == pytest.approx(1 / math.sqrt(10))
    assert chordal(math.inf, 0.0) == 1.0


def test_chordal_axioms_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b = np.exp(rng.uniform(-18, 18, 2))
        assert chordal(a, b) == chordal(b, a)
        assert 0.0 <= chordal(a, b) <= 1.0
        assert (chordal(a, b) == 0.0) == (a == b)


def test_chordal_reciprocal_agreement():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1)
    for _ in range(500):
        a, b = np.exp(rng.uniform(np.log(1e-8), np.log(1e8), 2))
        direct = chordal(a, b)
        recip = chordal_reciprocal(a, b)
        # 4 eps on the metric's [0,1] scale; ~ulp-level relative as well
        assert abs(direct - recip) <= 4 * eps
        assert abs(direct - recip) <= 16 * eps * max(direct, 1e-300)


def test_matched_decimal_digits():
    assert matched_decimal_digits(1.0, 1.0) == 15
    assert matched_decimal_digits(3.162277660168, 3.186032382196) == 1
    assert matched_decimal_digits(3.162277660168, 3.162277662135) == 8
    assert matched_decimal_digits(1.0, 2.0) == 0


def test_run_sample_well_conditioned_control():
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=1.0, seed=2)
    for form in ("sq-qsvd", "aug-qsvd", "cpf-qsvd"):
        rec = evaluate_sample(generate("qsvd", cfg), form)
        assert not rec.failed
        assert rec.max_error <= 1e-13, form


def test_run_sample_worked_example_orders():
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=1e7, seed=3)
    problem = generate("qsvd", cfg)
    cpf = evaluate_sample(problem, "cpf-qsvd")
    sq = evaluate_sample(problem, "sq-qsvd")
    assert cpf.max_error <= 1e-8
    assert sq.max_error >= 1e-6
    assert cpf.max_error <= 1e-2 * sq.max_error


def test_run_sample_rejects_mismatched_formulation():
    cfg = GeneratorConfig(n=3, kappa_sigma=10.0, kappa_y=10.0, seed=1)
    with pytest.raises(ValueError):
        evaluate_sample(generate("qsvd", cfg), "aug-rsvd")


def test_run_sample_rsvd():
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=100.0, kappa_x=10.0, seed=5)
    for form in ("aug-rsvd", "cpf-rsvd"):
        rec = evaluate_sample(generate("rsvd", cfg), form)
        assert not rec.failed
        assert rec.max_error <= 1e-10


def test_single_cell_sweep_equals_run_sample():
    seed = 11
    sweep = run_sweep("qsvd", "kappa_y", [100.0], samples=1, seed=seed, n=4)
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=100.0, kappa_x=10.0,
                          seed=np.random.SeedSequence((seed, 0, 0)))
    for form in ("sq-qsvd", "aug-qsvd", "cpf-qsvd"):
        rec = evaluate_sample(generate("qsvd", cfg), form)
        assert sweep.cell(100.0, form).median_max_error == rec.max_error


def test_sweep_determinism_bit_identical_csv(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for p in (p1, p2):
        summary = run_sweep("qsvd", "kappa_y", [10.0, 1e3], samples=3, seed=4, n=3)
        write_sweep_csv(summary, p)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ("kind,formulation,axis,axis_value,n,kappa_x,kappa_y,"
                      "kappa_sigma,samples,failures,median_max_chordal_error")
    assert b"\r" not in p1.read_bytes()


def test_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep("qsvd", "kappa_z", [10.0], samples=1)
    with pytest.raises(ValueError):
        run_sweep("qsvd", "kappa_y", [], samples=1)
    with pytest.raises(ValueError):
        run_sweep("qsvd", "kappa_y", [10.0], samples=0)


def test_aug_spectrum_symmetry():
    from pencilsvd.eigensolve import solve_hpd
    from pencilsvd.pencils import build_aug_qsvd

    cfg = GeneratorConfig(n=5, kappa_sigma=100.0, kappa_y=100.0, seed=6)
    prob = generate_qsvd(cfg)
    sol = solve_hpd(build_aug_qsvd(prob.a, prob.c))
    lams = np.sort([v.value.real for v in sol.values])
    assert np.allclose(lams, -lams[::-1], rtol=1e-10, atol=1e-12)


def test_worked_example_report():
    ex = worked_example(seed=7)
    assert np.allclose(ex.exact,
                       [3.162277660168, 1.467799267622, 0.681292069058,
                        0.316227766017], atol=5e-13)
    assert min(ex.cpf_digits) >= 8
    assert ex.sq_digits[0] <= 3
    # each printed aug pair must agree with itself
    assert np.allclose(ex.aug_magnitudes[0], ex.aug_magnitudes[1], rtol=1e-12)
    text = "\n".join(ex.lines())
    assert "exact quotient singular values" in text


def test_failed_sample_record():
    # force a failure by handing the evaluator a corrupted problem
    cfg = GeneratorConfig(n=3, kappa_sigma=10.0, kappa_y=10.0, seed=8)
    prob = generate_qsvd(cfg)
    bad = dataclasses.replace(prob, a=np.zeros_like(prob.a))
    rec = evaluate_sample(bad, "cpf-qsvd")
    assert rec.failed and rec.failure_reason
    assert math.isnan(rec.max_error)


def test_sq_falls_back_to_qz_when_not_definite():
    # C*C is numerically indefinite at kappa_y = 1e9: the definite path
    # refuses and the sample is solved by QZ instead of aborting; QZ returns
    # a non-real spectrum here, so the sample is a counted failure
    prob = generate_qsvd(GeneratorConfig(n=10, kappa_sigma=10.0, kappa_y=1e9, seed=0))
    rec = evaluate_sample(prob, "sq-qsvd")
    assert rec.failed and "non-real spectrum" in rec.failure_reason
    summary = run_sweep("qsvd", "kappa_y", [1e9], samples=2, n=6)
    assert [c.samples for c in summary.cells] == [2, 2, 2]


def test_sq_estimates_nonreal_tolerance_edge():
    # |Im lambda| just under / over NONREAL_TOL * max |lambda| (here 4)
    def solution(lams):
        vals = tuple(GeneralizedEigenvalue(complex(x), 1 + 0j, CLASS_FINITE) for x in lams)
        return EigenSolution(vals, np.eye(len(lams), dtype=complex), False)
    below = 0.5 * NONREAL_TOL * 4.0
    est = _estimates_sq(solution([1.0, 4.0 + below * 1j]))
    assert np.allclose(est, [2.0, 1.0])
    with pytest.raises(SampleFailure, match="non-real spectrum"):
        _estimates_sq(solution([1.0, 4.0 + 4 * below * 1j]))


def test_non_finite_estimate_is_a_failure():
    prob = generate_qsvd(GeneratorConfig(n=10, kappa_sigma=10.0, kappa_y=1e10, seed=0))
    rec = evaluate_sample(prob, "aug-qsvd")
    assert rec.failed and "not finite" in rec.failure_reason
    assert math.isnan(rec.max_error)
    # a failed sample is counted, and the cell median is over the others
    cell = run_sweep("qsvd", "kappa_y", [1e10], samples=4, n=4).cell(1e10, "aug-qsvd")
    assert cell.failures >= 1
    assert math.isfinite(cell.median_max_error)


def test_ill_conditioned_cpf_samples_are_measured():
    # at kappa_y = 1e10 the cpf quadruple phases spread by up to ~1e-3 while
    # the values stay accurate: every sample is grouped and measured
    cell = run_sweep("qsvd", "kappa_y", [1e10], samples=4, n=4).cell(1e10, "cpf-qsvd")
    assert cell.failures == 0
    assert cell.median_max_error <= 1e-6
    # a quadruple split across the diagonals unbalances the quarter-turn
    # classes: still a counted failure
    lams = [1.5 * np.exp(1j * (np.pi / 4 + k * np.pi / 2 + d))
            for k, d in enumerate((-1e-9, 1e-9, -1e-9, 1e-9))]
    with pytest.raises(SampleFailure, match="quarter-turn classes"):
        _estimates_cpf(_cpf_solution(lams, [CLASS_FINITE] * 4))


def _cpf_solution(lams, kinds):
    vals = tuple(GeneralizedEigenvalue(complex(x), 1 + 0j, k) for x, k in zip(lams, kinds))
    return EigenSolution(vals, None, None)


def test_cpf_estimates_ignore_the_solver_classes():
    # a generated problem's cpf spectrum is 4n finite values: the harness
    # groups them all, whatever class the solver's threshold gave them
    lams = [1.5 * 1j ** k for k in range(4)]
    finite = _estimates_cpf(_cpf_solution(lams, [CLASS_FINITE] * 4))
    assert finite.tolist() == pytest.approx([2.25])
    zero = _estimates_cpf(_cpf_solution(lams, [CLASS_ZERO] * 4))
    assert zero.tolist() == finite.tolist()


@pytest.mark.parametrize("member, kind", [(1.5, CLASS_INFINITE), (1.5, CLASS_INDETERMINATE),
                                          (0.0, CLASS_FINITE)])
def test_cpf_estimates_reject_a_value_that_is_not_finite_and_nonzero(member, kind):
    lams = [member, -1.5, 1.5j, -1.5j]
    kinds = [kind, CLASS_FINITE, CLASS_FINITE, CLASS_FINITE]
    with pytest.raises(SampleFailure, match="grouping expects finite nonzero eigenvalues"):
        _estimates_cpf(_cpf_solution(lams, kinds))
