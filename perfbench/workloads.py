"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one client: ``op(i)`` runs operation
``i`` to completion and returns an :class:`OpResult`; the next operation
starts only after that.  Inputs come from the workload seed alone, so the
same seed gives the same inputs, and the program sees only those inputs.

The library is called through module attributes (``genmat.generate_qsvd``,
``bench.evaluate_sample``, ...) so the tracer can swap in timed wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pencilsvd import bench, eigensolve, genmat, kcf, matcore, pencils, recovery

# Largest chordal error one formulation may show on one op before the op
# counts as failed.  Each is at least 10x the largest error seen over
# 25 samples per cell of the sweep-n10 grid (sq-qsvd reaches 5e-2 at
# kappa_sigma = 1e13, aug 7e-4 at kappa_y = 1e7, cpf 3e-10 at kappa_y = 1e7).
# They live here, not in BENCHMARK.json, because that file has a fixed
# set of keys.
CEILINGS = {
    "sq-qsvd": 0.5,
    "aug-qsvd": 1e-2,
    "aug-rsvd": 1e-2,
    "cpf-qsvd": 1e-8,
    "cpf-rsvd": 1e-8,
}

# verify_reduction(...).relative bound of acceptance criterion 3
VERIFY_BOUND = 1e-10

# eigenvalue class threshold for spectra with Jordan blocks at 0 and infinity
STRUCTURE_TOL = 1e-4


@dataclass
class OpResult:
    """Outcome of one op: accuracy figures and why it failed, if it did.

    ``worst`` maps a formulation family ("sq", "aug", "cpf") to the op's
    largest chordal error in it; ``errors`` lists every error the op
    produced, in order, for the digest.
    """

    worst: dict = field(default_factory=dict)
    errors: tuple = ()
    failure: str | None = None

    def note(self, formulation: str, errs) -> None:
        """Record one formulation's errors, failing the op above its ceiling."""
        errs = [float(e) for e in errs]
        self.errors += tuple(errs)
        worst = max(errs)
        family = formulation.split("-")[0]
        self.worst[family] = max(worst, self.worst.get(family, 0.0))
        if not worst <= CEILINGS[formulation]:
            self.failure = (f"{formulation}: max chordal error {worst:.3e} "
                            f"above ceiling {CEILINGS[formulation]:.0e}")


def _formulations(kind):
    return bench.QSVD_FORMULATIONS if kind == "qsvd" else bench.RSVD_FORMULATIONS


def _generate(kind, cfg):
    if kind == "qsvd":
        return genmat.generate_qsvd(cfg)
    return genmat.generate_rsvd(cfg)


def evaluate_problems(problems) -> OpResult:
    """Run every formulation of each problem's kind and check the records.

    Each formulation must give ``n`` finite errors, each at most its
    ceiling; the first violation fails the op.
    """
    out = OpResult()
    for problem in problems:
        for f in _formulations(problem.kind):
            rec = bench.evaluate_sample(problem, f)
            if rec.failed:
                out.failure = f"{f}: {rec.failure_reason}"
            elif len(rec.errors) != problem.n or not np.all(np.isfinite(rec.errors)):
                out.failure = (f"{f}: expected {problem.n} finite errors, "
                               f"got {rec.errors}")
            else:
                out.note(f, rec.errors)
            if out.failure:
                return out
    return out


class SweepN10:
    """The ``pencilsvd sweep`` path: generate, then evaluate, per op.

    One op is one sample of one sweep cell, for both kinds: it generates a
    qsvd problem and an rsvd problem at the cell's kappas and runs every
    formulation of each.  Taking both kinds in one op keeps the op time
    distribution unimodal (a qsvd sample costs ~55 ms, an rsvd one ~85 ms;
    with single samples alternating, the median would fall in the gap
    between the two modes and jump between runs).  Ops go round-robin
    over the cells of acceptance criteria 5-7.
    """

    name = "sweep-n10"
    # (kappa_y, kappa_sigma): the kappa_y axis at kappa_sigma = 10, then
    # the kappa_sigma axis at kappa_y = 10 (its first cell is shared)
    CELLS = tuple((10.0 ** e, 10.0) for e in range(1, 8)) + \
        tuple((10.0, 10.0 ** e) for e in range(3, 14, 2))
    KAPPA_X = 10.0

    def __init__(self, seed: int, n: int = 10, accuracy_ops: int = 130):
        self.seed = seed
        self.n = n
        self.cycle = len(self.CELLS)
        self.accuracy_ops = accuracy_ops

    def setup(self):
        """Nothing to precompute: every op generates its own inputs."""

    def problems(self, i):
        ky, ks = self.CELLS[i % self.cycle]
        return [_generate(kind, genmat.GeneratorConfig(
                    n=self.n, kappa_sigma=ks, kappa_y=ky, kappa_x=self.KAPPA_X,
                    seed=np.random.SeedSequence((self.seed, i, k))))
                for k, kind in enumerate(("qsvd", "rsvd"))]

    def op(self, i) -> OpResult:
        return evaluate_problems(self.problems(i))


class SolveN32:
    """The "solve my matrices" path on a pool generated during setup.

    One op runs every formulation of one stored n=32 problem (cpf pencils
    of order 128).  The pool alternates qsvd and rsvd and walks kappa_y
    over 1e1..1e7; generation cost goes to ``setup_s`` only.
    """

    name = "solve-n32"

    def __init__(self, seed: int, n: int = 32, pool_size: int = 8,
                 accuracy_ops: int = 104):
        self.seed = seed
        self.n = n
        self.cycle = pool_size
        self.accuracy_ops = accuracy_ops
        self.pool = []

    def setup(self):
        self.pool = []
        for i in range(self.cycle):
            kind = ("qsvd", "rsvd")[i % 2]
            ky = 10.0 ** (1 + 2 * ((i // 2) % 4))
            cfg = genmat.GeneratorConfig(
                n=self.n, kappa_sigma=1e3, kappa_y=ky, kappa_x=10.0,
                seed=np.random.SeedSequence((self.seed, i)))
            self.pool.append(_generate(kind, cfg))

    def problems(self, i):
        return [self.pool[i % self.cycle]]

    def op(self, i) -> OpResult:
        return evaluate_problems(self.problems(i))


@dataclass(frozen=True)
class StructuredInput:
    """Rank-structured input with the partition and factors it was built from."""

    kind: str
    partition: object
    sigmas: np.ndarray
    a: np.ndarray
    b: np.ndarray | None
    c: np.ndarray
    factors: dict          # keyword arguments of kcf.verify_reduction


def _canonical(part, sigmas):
    """Canonical matrices realizing a partition: (A0, C0) or (Sa, Sb, Sg).

    Same construction as ``tests/helpers.py``, kept here so that a change
    to the test helpers cannot change the benchmark's inputs.
    """
    alpha = sigmas / np.sqrt(1 + sigmas ** 2)
    gamma = 1 / np.sqrt(1 + sigmas ** 2)
    if isinstance(part, kcf.QsvdPartition):
        a0 = np.zeros((part.p, part.q), dtype=complex)
        c0 = np.zeros((part.n, part.q), dtype=complex)
        co = np.cumsum([0, part.q1, part.q2, part.q3])
        a0[:part.p1, co[2]:co[2] + part.q3] = np.diag(alpha)
        a0[part.p1:part.p1 + part.p2, co[3]:co[3] + part.q4] = np.eye(part.p2)
        c0[:part.n1, co[1]:co[1] + part.q2] = np.eye(part.n1)
        c0[part.n1:part.n1 + part.n2, co[2]:co[2] + part.q3] = np.diag(gamma)
        return a0, c0
    sa = np.zeros((part.p, part.q), dtype=complex)
    sb = np.zeros((part.p, part.m), dtype=complex)
    sg = np.zeros((part.n, part.q), dtype=complex)
    ro = np.cumsum([0, part.p1, part.p2, part.p3, part.p4, part.p5])
    co = np.cumsum([0, part.q1, part.q2, part.q3, part.q4, part.q5])
    cm = np.cumsum([0, part.m1, part.m2, part.m3])
    rn = np.cumsum([0, part.n1, part.n2, part.n3])
    sa[ro[0]:ro[0] + part.p1, co[2]:co[2] + part.q3] = np.diag(alpha)
    sa[ro[1]:ro[1] + part.p2, co[3]:co[3] + part.q4] = np.eye(part.p2)
    sa[ro[2]:ro[2] + part.p3, co[4]:co[4] + part.q5] = np.eye(part.p3)
    sa[ro[3]:ro[3] + part.p4, co[5]:co[5] + part.q6] = np.eye(part.p4)
    sb[ro[0]:ro[0] + part.p1, cm[0]:cm[0] + part.m1] = np.eye(part.p1)
    sb[ro[1]:ro[1] + part.p2, cm[1]:cm[1] + part.m2] = np.eye(part.p2)
    sb[ro[4]:ro[4] + part.p5, cm[3]:cm[3] + part.m4] = np.eye(part.p5)
    sg[rn[0]:rn[0] + part.n1, co[1]:co[1] + part.q2] = np.eye(part.n1)
    sg[rn[1]:rn[1] + part.n2, co[2]:co[2] + part.q3] = np.diag(gamma)
    sg[rn[2]:rn[2] + part.n3, co[4]:co[4] + part.q5] = np.eye(part.n3)
    return sa, sb, sg


def structured_input(kind, counts, rng) -> StructuredInput:
    """Assemble ``A = U A0 Y*`` (and B, C) from Haar factors and free counts.

    ``counts`` are (p1, p2, p3, q1, q2, n3) for qsvd and
    (p1, ..., p6, q1, q2, m3, n4) for rsvd; the dependent sizes follow the
    partition couplings.
    """
    if kind == "qsvd":
        p1, p2, p3, q1, q2, n3 = counts
        part = kcf.QsvdPartition(p1=p1, p2=p2, p3=p3, q1=q1, q2=q2, q3=p1,
                                 q4=p2, n1=q2, n2=p1, n3=n3)
    else:
        p1, p2, p3, p4, p5, p6, q1, q2, m3, n4 = counts
        r_a = p1 + p2 + p3 + p4
        r_b = p1 + p2 + p5
        r_c = p1 + q2 + p3
        part = kcf.partition_from_ranks(
            r_a + p5 + p6, q1 + q2 + r_a, p1 + p2 + m3 + p5, q2 + p1 + p3 + n4,
            r_a, r_b, r_c, r_a + p5, r_a + q2, p4 + r_b + r_c)
    sigmas = np.sort(rng.uniform(0.5, 2.0, part.p1))[::-1]
    if kind == "qsvd":
        a0, c0 = _canonical(part, sigmas)
        u = matcore.haar_unitary(part.p, rng)
        v = matcore.haar_unitary(part.n, rng)
        y = matcore.haar_unitary(part.q, rng)
        return StructuredInput(kind, part, sigmas, u @ a0 @ y.conj().T, None,
                               v @ c0 @ y.conj().T, dict(u=u, v=v, y=y))
    sa, sb, sg = _canonical(part, sigmas)
    x = matcore.haar_unitary(part.p, rng)
    y = matcore.haar_unitary(part.q, rng)
    u = matcore.haar_unitary(part.m, rng)
    v = matcore.haar_unitary(part.n, rng)
    return StructuredInput(kind, part, sigmas, x @ sa @ y.conj().T,
                           x @ sb @ u.conj().T, v @ sg @ y.conj().T,
                           dict(u=u, v=v, x=x, y=y))


def six_rank_partition(inp: StructuredInput):
    """Partition from the numerical ranks of the input, as the CLI derives it."""
    a, b, c = inp.a, inp.b, inp.c
    p, q = a.shape
    n = c.shape[0]
    rank = lambda m: matcore.rank_with_tol(m).rank  # noqa: E731
    if inp.kind == "qsvd":
        return kcf.qsvd_partition_from_ranks(p, q, n, rank(a), rank(c),
                                             rank(np.vstack([a, c])))
    m = b.shape[1]
    return kcf.partition_from_ranks(
        p, q, m, n, rank(a), rank(b), rank(c), rank(np.hstack([a, b])),
        rank(np.vstack([a, c])),
        rank(np.block([[a, b], [c, np.zeros((n, m), dtype=complex)]])))


def _aug_sigmas(sol):
    """Magnitudes of the finite +-sigma pairs of an augmented spectrum."""
    mags = np.sort(np.abs([v.value for v in sol.values
                           if v.kind == eigensolve.CLASS_FINITE]))[::-1]
    return 0.5 * (mags[0::2] + mags[1::2])


class SingularKcf:
    """Canonical-structure path on inputs that share null directions.

    Per input: six-rank partition, KCF prediction, cpf build, QZ with
    deflation at the structure tolerance, counts check, triplet
    classification and transformation-chain verification.  The augmented
    pencil of the same input is also solved, so the workload yields an aug
    error as well as a cpf one.  Every free count is at least 1, so the
    pencils carry zero blocks (deflation), Jordan blocks at zero and blocks
    at infinity.

    One op checks ``batch`` consecutive inputs of the pool.  A single input
    costs 3-15 ms depending on its partition; summing 16 of them gives ops
    of nearly equal cost, so the op time percentiles follow the machine's
    speed rather than which inputs happened to land in the tail.
    """

    name = "singular-kcf"
    MAX_COUNT = 3

    def __init__(self, seed: int, pool_size: int = 256, batch: int = 16,
                 accuracy_ops: int = 32):
        if pool_size % batch:
            raise ValueError("pool_size must be a multiple of batch")
        self.seed = seed
        self.pool_size = pool_size
        self.batch = batch
        self.cycle = pool_size // batch
        self.accuracy_ops = accuracy_ops
        self.pool = []

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed,)))
        self.pool = []
        for i in range(self.pool_size):
            kind = ("qsvd", "rsvd")[i % 2]
            counts = rng.integers(1, self.MAX_COUNT + 1, 6 if kind == "qsvd" else 10)
            counts = tuple(int(x) for x in counts)
            self.pool.append(structured_input(kind, counts, rng))

    def op(self, i) -> OpResult:
        out = OpResult()
        start = (i % self.cycle) * self.batch
        for inp in self.pool[start:start + self.batch]:
            self.check(inp, out)
            if out.failure:
                break
        return out

    def check(self, inp: StructuredInput, out: OpResult) -> OpResult:
        """Run the structure chain on one input, recording into ``out``."""
        part = six_rank_partition(inp)
        if part != inp.partition:
            out.failure = "rank partition differs from the constructed one"
            return out
        cpf, aug = "cpf-" + inp.kind, "aug-" + inp.kind
        if inp.kind == "qsvd":
            pencil = pencils.build_cpf_qsvd(inp.a, inp.c)
            aug_pencil = pencils.build_aug_qsvd(inp.a, inp.c)
            dims = (inp.a.shape[0], inp.a.shape[1], inp.c.shape[0])
        else:
            pencil = pencils.build_cpf_rsvd(inp.a, inp.b, inp.c)
            aug_pencil = pencils.build_aug_rsvd(inp.a, inp.b, inp.c)
            dims = (inp.a.shape[0], inp.a.shape[1], inp.b.shape[1], inp.c.shape[0])
        predicted = kcf.predict_kcf(cpf, part, inp.sigmas)
        sol = eigensolve.solve_general(pencil, class_tol_rel=STRUCTURE_TOL)
        counts = kcf.spectrum_counts_check(sol, predicted)
        if not counts.ok:
            out.failure = f"{cpf} counts mismatch {counts.mismatches()}"
            return out
        try:
            cls = recovery.classify_spectrum(sol, inp.kind, dims, partition=part)
        except (recovery.GroupingError, ValueError) as exc:
            out.failure = f"classify_spectrum raised {type(exc).__name__}: {exc}"
            return out
        rep = kcf.verify_reduction(pencil, cpf, part, **inp.factors)
        if not rep.relative <= VERIFY_BOUND:
            out.failure = f"verify_reduction relative {rep.relative:.3e} > {VERIFY_BOUND:.0e}"
            return out

        aug_sol = eigensolve.solve_general(aug_pencil, class_tol_rel=STRUCTURE_TOL)
        aug_counts = kcf.spectrum_counts_check(
            aug_sol, kcf.predict_kcf(aug, part, inp.sigmas))
        if not aug_counts.ok:
            out.failure = f"{aug} counts mismatch {aug_counts.mismatches()}"
            return out

        cpf_sig = sorted((q.sigma for q in cls.quadruples), reverse=True)
        out.note(cpf, [bench.chordal(float(t), e) for t, e in zip(inp.sigmas, cpf_sig)])
        out.note(aug, [bench.chordal(float(t), float(e))
                       for t, e in zip(inp.sigmas, _aug_sigmas(aug_sol))])
        out.errors += (rep.relative,)
        return out

WORKLOADS = {w.name: w for w in (SweepN10, SolveN32, SingularKcf)}

