"""Accuracy experiments: chordal errors, sweeps, and the n=4 showcase.

For each generated problem the singular values are recomputed from one of
the pencil formulations and compared against the generator's extended
precision grid in the chordal metric
``chi(s, t) = |s - t| / (sqrt(1+s^2) sqrt(1+t^2))``.  Per problem the
maximum error over the n values is kept; per parameter cell the median of
those maxima is reported (failed samples are excluded and counted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import EigenSolution, NotDefiniteError, solve_general, solve_hpd
from .genmat import GeneratedProblem, GeneratorConfig, generate, generate_qsvd
from .pencils import FORMULATIONS, Pencil
# the builders stay module attributes so a profiler can wrap them here;
# evaluate_sample builds through the FORMULATIONS table
from .pencils import (  # noqa: F401
    build_aug_qsvd,
    build_aug_rsvd,
    build_cpf_qsvd,
    build_cpf_rsvd,
    build_sq_qsvd,
)
from .recovery import GroupingError, group_quadruples


def formulations_of(kind: str) -> tuple[str, ...]:
    """Names of the formulations of one decomposition, in table order."""
    return tuple(name for name, f in FORMULATIONS.items() if f.kind == kind)


QSVD_FORMULATIONS = formulations_of("qsvd")
RSVD_FORMULATIONS = formulations_of("rsvd")

# an sq spectrum is real when every |Im lambda| <= NONREAL_TOL * max |lambda|
NONREAL_TOL = math.sqrt(np.finfo(np.float64).eps)

SWEEP_AXES = ("kappa_y", "kappa_sigma", "kappa_xy")

CSV_COLUMNS = ("kind", "formulation", "axis", "axis_value", "n", "kappa_x",
               "kappa_y", "kappa_sigma", "samples", "failures",
               "median_max_chordal_error")


def chordal(sigma: float, approx: float) -> float:
    """Chordal distance between two nonnegative values (inf allowed)."""
    if sigma < 0 or approx < 0:
        raise ValueError("chordal metric expects nonnegative values")
    s_inf = math.isinf(sigma)
    t_inf = math.isinf(approx)
    if s_inf and t_inf:
        return 0.0
    if s_inf:
        return 1.0 / math.hypot(1.0, approx)
    if t_inf:
        return 1.0 / math.hypot(1.0, sigma)
    return abs(sigma - approx) / (math.hypot(1.0, sigma) * math.hypot(1.0, approx))


@dataclass(frozen=True)
class ExperimentRecord:
    kind: str
    formulation: str
    n: int
    kappa_x: float
    kappa_y: float
    kappa_sigma: float
    seed: object
    errors: tuple[float, ...]
    max_error: float
    failed: bool = False
    failure_reason: str = ""


class SampleFailure(RuntimeError):
    pass


def solve_pencil(pencil: Pencil) -> EigenSolution:
    """The solve policy of each pencil family.

    sq and aug pencils are Hermitian: they take the definite path and fall
    back to QZ when the right-hand side is not numerically positive
    definite.  cpf pencils always go through QZ.  Every caller reads only
    the eigenvalues, which is what ``solve_general`` returns by default:
    its solutions carry ``vectors=None`` and ``backward_stable=None``.
    """
    if FORMULATIONS[pencil.formulation].family == "cpf":
        return solve_general(pencil)
    try:
        return solve_hpd(pencil)
    except NotDefiniteError:
        return solve_general(pencil)


def _estimates_sq(sol: EigenSolution) -> np.ndarray:
    lams = np.array([v.ratio for v in sol.values])
    # the QZ fallback of an indefinite pencil can return a non-real spectrum
    imag = np.abs(lams.imag).max(initial=0.0)
    if imag > NONREAL_TOL * np.abs(lams).max(initial=0.0):
        raise SampleFailure(f"non-real spectrum: largest |Im lambda| is {imag:.2e}")
    return np.sqrt(np.clip(lams.real, 0.0, None))[::-1]


def _pm_pairs(sol: EigenSolution) -> np.ndarray:
    """The magnitudes of a symmetric spectrum, descending, as a (2, n) array:
    column j holds both members of the j-th +-sigma pair."""
    return np.sort(np.abs([v.ratio for v in sol.values]))[::-1].reshape(-1, 2).T


def _estimates_aug(sol: EigenSolution) -> np.ndarray:
    return 0.5 * _pm_pairs(sol).sum(axis=0)


def _quadruples(sol: EigenSolution):
    """The sigma quadruples of a generated problem's cpf spectrum: all of
    its values, as full rank leaves no zero, infinite or indeterminate one
    (``ratio`` makes those 0, inf and NaN, and grouping rejects them)."""
    try:
        return group_quadruples([v.ratio for v in sol.values])
    except GroupingError as exc:
        raise SampleFailure(str(exc)) from exc


def _estimates_cpf(sol: EigenSolution) -> np.ndarray:
    return np.array([q.sigma for q in _quadruples(sol)])


# singular value estimates from the spectrum of each family's pencil
_ESTIMATORS = {"sq": _estimates_sq, "aug": _estimates_aug, "cpf": _estimates_cpf}


def _build(problem: GeneratedProblem, formulation: str) -> Pencil:
    return FORMULATIONS[formulation].build_from(vars(problem))


def evaluate_sample(problem: GeneratedProblem, formulation: str) -> ExperimentRecord:
    """Compute one formulation's chordal errors on an existing problem.

    A sample fails (and is counted, not measured) when the spectrum does
    not have the expected shape or any estimate is not finite.
    """
    if formulation not in formulations_of(problem.kind):
        raise ValueError(f"formulation {formulation!r} invalid for kind {problem.kind!r}")
    cfg = problem.config
    base = dict(kind=problem.kind, formulation=formulation, n=cfg.n,
                kappa_x=cfg.kappa_x, kappa_y=cfg.kappa_y,
                kappa_sigma=cfg.kappa_sigma, seed=cfg.seed)
    try:
        sol = solve_pencil(_build(problem, formulation))
        estimate = _ESTIMATORS[FORMULATIONS[formulation].family]
        estimates = estimate(sol)
        if not np.all(np.isfinite(estimates)):
            bad = int(np.count_nonzero(~np.isfinite(estimates)))
            raise SampleFailure(f"{bad} of {estimates.size} estimates are not finite")
    except SampleFailure as exc:
        return ExperimentRecord(errors=(), max_error=math.nan, failed=True,
                                failure_reason=str(exc), **base)
    truth = problem.sigmas.to_float()
    estimates = np.sort(estimates)[::-1]
    errors = tuple(chordal(t, e) for t, e in zip(truth, estimates))
    return ExperimentRecord(errors=errors, max_error=max(errors), **base)


@dataclass(frozen=True)
class SweepCell:
    axis_value: float
    formulation: str
    kappa_x: float
    kappa_y: float
    kappa_sigma: float
    samples: int
    failures: int
    median_max_error: float


@dataclass(frozen=True)
class SweepSummary:
    kind: str
    axis: str
    n: int
    seed: int
    cells: tuple[SweepCell, ...]

    def cell(self, axis_value: float, formulation: str) -> SweepCell:
        for c in self.cells:
            if c.axis_value == axis_value and c.formulation == formulation:
                return c
        raise KeyError((axis_value, formulation))

    def medians(self, formulation: str) -> np.ndarray:
        return np.array([c.median_max_error for c in self.cells
                         if c.formulation == formulation])


def _cell_kappas(axis: str, value: float, kappa_sigma: float, kappa_y: float,
                 kappa_x: float):
    if axis == "kappa_y":
        return kappa_x, value, kappa_sigma
    if axis == "kappa_sigma":
        return kappa_x, kappa_y, value
    if axis == "kappa_xy":
        return value, value, kappa_sigma
    raise ValueError(f"unknown axis {axis!r}; expected one of {SWEEP_AXES}")


def run_sweep(kind: str, axis: str, grid, samples: int, seed: int = 0,
              n: int = 10, kappa_sigma: float = 10.0, kappa_y: float = 10.0,
              kappa_x: float = 10.0) -> SweepSummary:
    """Median-max chordal errors over a condition-number grid.

    Each (cell, sample) pair derives its own seed from ``seed``, and the
    same generated problem is reused by every formulation in the cell so
    the comparison across formulations sees identical inputs.
    """
    if not len(grid):
        raise ValueError("grid must be nonempty")
    if samples < 1:
        raise ValueError("need at least one sample per cell")
    formulations = formulations_of(kind)
    cells = []
    for ci, value in enumerate(grid):
        kx, ky, ks = _cell_kappas(axis, float(value), kappa_sigma, kappa_y, kappa_x)
        records = {f: [] for f in formulations}
        for s in range(samples):
            cfg = GeneratorConfig(n=n, kappa_sigma=ks, kappa_y=ky, kappa_x=kx,
                                  seed=np.random.SeedSequence((seed, ci, s)))
            problem = generate(kind, cfg)
            for f in formulations:
                records[f].append(evaluate_sample(problem, f))
        for f in formulations:
            good = [r.max_error for r in records[f] if not r.failed]
            failures = sum(1 for r in records[f] if r.failed)
            median = float(np.median(good)) if good else math.nan
            cells.append(SweepCell(float(value), f, kx, ky, ks,
                                   samples, failures, median))
    return SweepSummary(kind, axis, n, seed, tuple(cells))


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def write_sweep_csv(summary: SweepSummary, path) -> None:
    """Fixed-schema CSV, one row per (axis value, formulation)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for c in summary.cells:
            row = (summary.kind, c.formulation, summary.axis, _fmt(c.axis_value),
                   str(summary.n), _fmt(c.kappa_x), _fmt(c.kappa_y),
                   _fmt(c.kappa_sigma), str(c.samples), str(c.failures),
                   _fmt(c.median_max_error))
            fh.write(",".join(row) + "\n")


def matched_decimal_digits(reference: float, approx: float) -> int:
    """Largest d with |reference - approx| < 5e-(d+1), clipped to [0, 15]."""
    err = abs(reference - approx)
    if err == 0:
        return 15
    if err >= 0.5:
        return 0
    d = 0
    while d < 15 and err < 5.0 * 10.0 ** (-(d + 2)):
        d += 1
    return d


@dataclass(frozen=True)
class WorkedExample:
    exact: np.ndarray
    sq_roots: np.ndarray
    aug_magnitudes: np.ndarray
    cpf_squared_magnitudes: np.ndarray     # shape (4, n): quadruple members
    geometric_means: np.ndarray
    sq_digits: tuple
    aug_digits: tuple
    cpf_digits: tuple

    def lines(self):
        def row(vals):
            return "  ".join(f"{v:.12f}" for v in vals)

        out = ["exact quotient singular values (12 digits):", "  " + row(self.exact)]
        out.append("square roots of squared-pencil eigenvalues "
                   f"(matched digits {self.sq_digits}):")
        out.append("  " + row(self.sq_roots))
        out.append("augmented-pencil eigenvalue magnitudes, positive half "
                   f"(matched digits {self.aug_digits}):")
        for i in range(self.aug_magnitudes.shape[0]):
            out.append("  " + row(self.aug_magnitudes[i]))
        out.append("cross-product-free pencil squared magnitudes (all members):")
        for i in range(4):
            out.append("  " + row(self.cpf_squared_magnitudes[i]))
        out.append(f"squared geometric means (matched digits {self.cpf_digits}):")
        out.append("  " + row(self.geometric_means))
        return out


def worked_example(seed: int = 7) -> WorkedExample:
    """Replay the small illustration: n=4, kappa_Y=1e7, kappa_Sigma=10."""
    cfg = GeneratorConfig(n=4, kappa_sigma=10.0, kappa_y=1e7, seed=seed)
    problem = generate_qsvd(cfg)
    truth = problem.sigmas.to_float()

    sq = _estimates_sq(solve_pencil(_build(problem, "sq-qsvd")))
    aug_pairs = _pm_pairs(solve_pencil(_build(problem, "aug-qsvd")))
    quads = _quadruples(solve_pencil(_build(problem, "cpf-qsvd")))
    sq_mags = np.sort(np.abs([q.members for q in quads]) ** 2, axis=1).T
    means = np.array([q.sigma for q in quads])

    return WorkedExample(
        exact=truth,
        sq_roots=sq,
        aug_magnitudes=aug_pairs,
        cpf_squared_magnitudes=sq_mags,
        geometric_means=means,
        sq_digits=tuple(matched_decimal_digits(t, e) for t, e in zip(truth, sq)),
        aug_digits=tuple(matched_decimal_digits(t, e)
                         for t, e in zip(truth, aug_pairs[0])),
        cpf_digits=tuple(matched_decimal_digits(t, e) for t, e in zip(truth, means)),
    )
