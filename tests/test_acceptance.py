"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The sweeps here are scaled-down (100 samples per cell)
versions of the full experiments.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    RefDD,
    assembled_qsvd_pair,
    assembled_rsvd_triplet,
    chordal_reciprocal,
    qsvd_partition_from_counts,
    random_qsvd_counts,
    random_rsvd_counts,
    rsvd_partition_from_counts,
)
from pencilsvd.bench import chordal, run_sweep
from pencilsvd.eigensolve import solve_general
from pencilsvd.genmat import GeneratorConfig, generate_qsvd, generate_rsvd, true_sigma_grid
from pencilsvd.kcf import (
    lemma_reduce,
    partition_from_ranks,
    predict_kcf,
    qsvd_partition_from_ranks,
    spectrum_counts_check,
    svd_partition,
    verify_reduction,
)
from pencilsvd.matcore import EPS, haar_unitary
from pencilsvd.pencils import (
    build_cpf_qsvd,
    build_cpf_rsvd,
    build_cpf_svd,
)
from pencilsvd.recovery import classify_spectrum, extract_vectors, group_quadruples


def _report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} [{name}]: {status} in {elapsed:.1f}s "
          f"(budget {budget:.0f}s){extra}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_1_lemma_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        alpha, beta, gamma = rng.uniform(1e-3, 1.0, 3)
        # ordinary (beta = gamma = 1), quotient (beta = 1), restricted
        for args in ((alpha, 1.0, 1.0), (alpha, 1.0, gamma), (alpha, beta, gamma)):
            red = lemma_reduce(*args)
            worst = max(worst, red.residual_const, red.residual_lambda)
    ok = worst <= 1e-14
    _report(1, "lemma identities", ok, time.perf_counter() - start, 1.0,
            f"max relative entry error {worst:.3e}")


def test_criterion_2_kcf_spectrum_counts():
    start = time.perf_counter()
    rng = np.random.default_rng(20240808)
    mismatches = []
    coverage = set()

    for i in range(20):
        p1 = int(rng.integers(1, 4))
        p2 = int(rng.integers(0, 3))
        q2 = int(rng.integers(0, 3))
        p, q = p1 + p2, p1 + q2
        sig = rng.uniform(0.5, 2.0, p1)
        u, v = haar_unitary(p, rng), haar_unitary(q, rng)
        a0 = np.zeros((p, q), dtype=complex)
        a0[:p1, :p1] = np.diag(sig)
        a = u @ a0 @ v.conj().T
        sol = solve_general(build_cpf_svd(a), class_tol_rel=1e-4)
        chk = spectrum_counts_check(
            sol, predict_kcf("cpf-svd", svd_partition(p, q, p1), sigmas=sig))
        if not chk.ok:
            mismatches.append(("cpf-svd", i, chk.mismatches()))

    for i in range(20):
        counts = random_qsvd_counts(rng)
        part = qsvd_partition_from_counts(*counts)
        for name, val in zip(("p2", "p3", "q1", "q2", "n3"), counts[1:]):
            if val:
                coverage.add(name)
        sig = rng.uniform(0.5, 2.0, part.p1)
        a, c, *_ = assembled_qsvd_pair(part, sig, rng)
        sol = solve_general(build_cpf_qsvd(a, c), class_tol_rel=1e-4)
        chk = spectrum_counts_check(sol, predict_kcf("cpf-qsvd", part, sigmas=sig))
        if not chk.ok:
            mismatches.append(("cpf-qsvd", i, counts, chk.mismatches()))

    for i in range(20):
        counts = random_rsvd_counts(rng)
        part = rsvd_partition_from_counts(*counts)
        for name, val in zip(("p2", "p3", "p4", "p5", "p6", "q1", "q2", "m3", "n4"),
                             counts[1:]):
            if val:
                coverage.add(name)
        sig = rng.uniform(0.5, 2.0, part.p1)
        a, b, c, *_ = assembled_rsvd_triplet(part, sig, rng)
        sol = solve_general(build_cpf_rsvd(a, b, c), class_tol_rel=1e-4)
        chk = spectrum_counts_check(sol, predict_kcf("cpf-rsvd", part, sigmas=sig))
        if not chk.ok:
            mismatches.append(("cpf-rsvd", i, counts, chk.mismatches()))

    required = {"p2", "p3", "p5", "q2", "q1", "p6", "m3", "n4"}
    ok = not mismatches and required <= coverage
    _report(2, "kcf spectrum counts", ok, time.perf_counter() - start, 30.0,
            f"mismatches={mismatches or 'none'}, coverage={sorted(coverage)}")


def test_criterion_3_reduction_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(2, 9))
        kappa_y = float(10.0 ** rng.uniform(0, 3))
        kappa_x = float(10.0 ** rng.uniform(0, 3))
        kappa_s = float(10.0 ** rng.uniform(0.5, 3))
        kind = "qsvd" if i % 2 == 0 else "rsvd"
        cfg = GeneratorConfig(n=n, kappa_sigma=kappa_s, kappa_y=kappa_y,
                              kappa_x=kappa_x, seed=int(rng.integers(1 << 30)))
        if kind == "qsvd":
            prob = generate_qsvd(cfg)
            part = qsvd_partition_from_ranks(n, n, n, n, n, n)
            pencil = build_cpf_qsvd(prob.a, prob.c)
            rep = verify_reduction(pencil, "cpf-qsvd", part,
                                   u=prob.u, v=prob.v, y=prob.y)
        else:
            prob = generate_rsvd(cfg)
            part = partition_from_ranks(n, n, n, n, n, n, n, n, n, 2 * n)
            pencil = build_cpf_rsvd(prob.a, prob.b, prob.c)
            rep = verify_reduction(pencil, "cpf-rsvd", part,
                                   u=prob.u, v=prob.v, x=prob.x, y=prob.y)
        worst = max(worst, rep.relative)
    ok = worst <= 1e-10
    _report(3, "reduction verification", ok, time.perf_counter() - start, 10.0,
            f"max off-structure / pencil scale = {worst:.3e}")


def test_criterion_4_worked_example_seeds():
    start = time.perf_counter()
    results = {f: [] for f in ("sq-qsvd", "aug-qsvd", "cpf-qsvd")}
    for seed in range(50):
        cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=1e7, seed=seed)
        prob = generate_qsvd(cfg)
        from pencilsvd.bench import evaluate_sample

        for f in results:
            rec = evaluate_sample(prob, f)
            assert not rec.failed, (f, seed, rec.failure_reason)
            results[f].append(rec.max_error)
    med = {f: float(np.median(v)) for f, v in results.items()}
    ok = (med["cpf-qsvd"] <= 1e-8 and med["sq-qsvd"] >= 1e-6
          and med["aug-qsvd"] >= 1e-6
          and med["cpf-qsvd"] <= 1e-2 * med["aug-qsvd"])
    _report(4, "worked example medians", ok, time.perf_counter() - start, 10.0,
            ", ".join(f"{f}={med[f]:.3e}" for f in med))


def _slope(grid, medians):
    return float(np.polyfit(np.log10(grid), np.log10(medians), 1)[0])


def test_criterion_5_qsvd_kappa_y_sweep():
    start = time.perf_counter()
    grid = [1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7]
    summary = run_sweep("qsvd", "kappa_y", grid, samples=100, seed=55, n=10)
    aug = summary.medians("aug-qsvd")
    cpf = summary.medians("cpf-qsvd")
    dominated = all(c.median_max_error <= summary.cell(g, "aug-qsvd").median_max_error
                    for g in grid if g >= 1e4
                    for c in [summary.cell(g, "cpf-qsvd")])
    slope_gap = _slope(grid, aug) - _slope(grid, cpf)
    ok = dominated and slope_gap >= 0.5
    _report(5, "qsvd kappa_y sweep", ok, time.perf_counter() - start, 300.0,
            f"slope gap {slope_gap:.2f}; aug={aug[-1]:.2e} cpf={cpf[-1]:.2e} at 1e7")


def test_criterion_6_qsvd_kappa_sigma_sweep():
    start = time.perf_counter()
    grid = [1e1, 1e3, 1e5, 1e7, 1e9, 1e11, 1e13]
    summary = run_sweep("qsvd", "kappa_sigma", grid, samples=100, seed=66, n=10)
    cpf = summary.medians("cpf-qsvd")
    sq_first = summary.cell(1e1, "sq-qsvd").median_max_error
    sq_last = summary.cell(1e13, "sq-qsvd").median_max_error
    ok = np.all(cpf <= 1e-11) and sq_last >= 1e3 * sq_first
    _report(6, "qsvd kappa_sigma sweep", ok, time.perf_counter() - start, 300.0,
            f"max cpf {cpf.max():.2e}; sq growth {sq_last / sq_first:.2e}x")


def test_criterion_7_rsvd_sweeps():
    start = time.perf_counter()
    grid_y = [1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7]
    left = run_sweep("rsvd", "kappa_y", grid_y, samples=100, seed=77, n=10)
    dominated = all(left.cell(g, "cpf-rsvd").median_max_error
                    <= left.cell(g, "aug-rsvd").median_max_error
                    for g in grid_y if g >= 1e4)
    grid_s = [1e1, 1e3, 1e5, 1e7, 1e9, 1e11, 1e13]
    right = run_sweep("rsvd", "kappa_sigma", grid_s, samples=100, seed=78, n=10)
    cpf_right = right.medians("cpf-rsvd")
    ok = dominated and np.all(cpf_right <= 1e-10)
    _report(7, "rsvd sweeps", ok, time.perf_counter() - start, 600.0,
            f"left dominated={dominated}; right max cpf {cpf_right.max():.2e}")


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    ok = True
    detail = []

    # chordal axioms and reciprocal agreement
    for _ in range(300):
        a, b = np.exp(rng.uniform(np.log(1e-8), np.log(1e8), 2))
        ok &= chordal(a, b) == chordal(b, a)
        ok &= 0.0 <= chordal(a, b) <= 1.0
        ok &= (chordal(a, b) == 0.0) == (a == b)
        ok &= abs(chordal(a, b) - chordal_reciprocal(a, b)) <= 4 * EPS
    detail.append(f"chordal ok={ok}")

    # quadruple grouping exactness, duplicated sigmas included
    for _ in range(100):
        sigmas = np.exp(rng.uniform(np.log(0.1), np.log(10.0), rng.integers(1, 5)))
        if rng.random() < 0.5 and sigmas.size:
            sigmas = np.append(sigmas, sigmas[0])  # duplicate
        lams = []
        for s in sigmas:
            r = np.sqrt(s)
            lams += [r, -r, 1j * r, -1j * r]
        perm = rng.permutation(len(lams))
        quads = group_quadruples([lams[i] for i in perm])
        got = sorted(q.sigma for q in quads)
        want = sorted(sigmas)
        ok &= np.allclose(got, want, rtol=1e-12)
        ok &= all(q.phase_residual <= 1e-12 for q in quads)
    detail.append("grouping ok")

    # haar unitarity bound
    for n in (1, 2, 8, 24):
        for _ in range(5):
            q = haar_unitary(n, rng)
            ok &= np.abs(q.conj().T @ q - np.eye(n)).max() <= 64 * n * EPS
    detail.append("haar ok")

    # partition identities on 100 rank-randomized triplets
    for _ in range(100):
        counts = random_rsvd_counts(rng)
        part = rsvd_partition_from_counts(*counts)
        got = (part.p1, part.p2, part.p3, part.p4, part.p5, part.p6,
               part.q1, part.q2, part.m3, part.n4)
        ok &= got == counts
        ok &= part.p + part.q + part.m + part.n == (
            4 * part.p1 + 3 * (part.p2 + part.p3) + 2 * (part.p4 + part.p5)
            + part.p6 + part.q1 + 2 * part.q2 + part.m3 + part.n4)
    detail.append("partitions ok")

    # sigma grid symmetry
    for n, kappa in ((2, 10.0), (7, 1e6), (10, 1e13)):
        grid = true_sigma_grid(n, kappa)
        for j in range(n):
            prod = RefDD.of(grid[j]) * grid[n - 1 - j]
            ok &= abs(prod.to_float() - 1.0) <= 1e-28 * n
    detail.append("sigma grid ok")

    _report(8, "property suites", bool(ok), time.perf_counter() - start, 30.0,
            "; ".join(detail))


def test_criterion_9_eigenvector_extraction():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_a = worst_c = 0.0
    for i in range(20):
        n = int(rng.integers(2, 7))
        cfg = GeneratorConfig(n=n, kappa_sigma=float(10.0 ** rng.uniform(0.5, 2)),
                              kappa_y=float(10.0 ** rng.uniform(0, 3)),
                              seed=int(rng.integers(1 << 30)))
        prob = generate_qsvd(cfg)
        pencil = build_cpf_qsvd(prob.a, prob.c)
        sol = solve_general(pencil, vectors=True)
        # generated problems are full rank by construction
        cls = classify_spectrum(sol, "qsvd", (n, n, n),
                                partition=qsvd_partition_from_ranks(n, n, n, n, n, n))
        assert len(cls.quadruples) == n
        norm_a = np.linalg.norm(prob.a, 2)
        norm_c = np.linalg.norm(prob.c, 2)
        for quad in cls.quadruples:
            rec = extract_vectors(sol, quad, pencil)
            nz = np.linalg.norm(rec.z)
            worst_a = max(worst_a, rec.residual_a / (norm_a * nz))
            worst_c = max(worst_c, rec.residual_c / (norm_c * nz))
    ok = worst_a <= 1e-8 and worst_c <= 1e-8
    _report(9, "eigenvector extraction", ok, time.perf_counter() - start, 10.0,
            f"max residual_a {worst_a:.3e}, residual_c {worst_c:.3e} "
            "(relative to ||A|| ||z||, ||C|| ||z||)")
