"""Command line interface: generate, solve, kcf, sweep, example."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    SWEEP_AXES,
    run_sweep,
    solve_pencil,
    worked_example,
    write_sweep_csv,
)
from .ddarith import dd_to_decimal_string
from .eigensolve import CLASS_FINITE, solve_general
from .genmat import GeneratorConfig, generate_qsvd, generate_rsvd
from .kcf import (
    partition_for,
    partition_from_ranks,
    predict_kcf,
    qsvd_partition_from_ranks,
    spectrum_counts_check,
    verify_reduction,
)
from .matcore import rank_with_tol, read_matrix_text, write_matrix_text
from .pencils import FORMULATIONS
from .recovery import classify_spectrum, group_quadruples


def _add_matrix_args(parser, names):
    for name in names:
        parser.add_argument(f"--{name}", type=Path, metavar="FILE",
                            help=f"matrix {name.upper()} in the text format")


def _load_inputs(args):
    mats = {}
    for name in ("a", "b", "c", "d", "e"):
        path = getattr(args, name, None)
        if path is not None:
            mats[name] = read_matrix_text(path)
    if "a" not in mats:
        raise SystemExit("matrix A is required (--a FILE)")
    return mats


def _problem_kind(mats) -> str:
    if "b" in mats and "c" in mats:
        return "rsvd"
    if "c" in mats:
        return "qsvd"
    return "svd"


def _build_pencil(form: str, mats):
    kind = _problem_kind(mats)
    name = form if form in FORMULATIONS else f"{form}-{kind}"
    if name not in FORMULATIONS:
        raise SystemExit(f"formulation {form!r} is not defined for a {kind} problem")
    f = FORMULATIONS[name]
    if not set(f.inputs) <= set(mats):
        raise SystemExit(f"{name} needs " + " ".join(f"--{k}" for k in f.inputs))
    return f.build_from(mats), kind


def cmd_generate(args):
    cfg = GeneratorConfig(n=args.n, kappa_sigma=args.kappa_sigma,
                          kappa_y=args.kappa_y, kappa_x=args.kappa_x,
                          seed=args.seed)
    problem = generate_qsvd(cfg) if args.kind == "qsvd" else generate_rsvd(cfg)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_text(out / "A.txt", problem.a)
    if problem.b is not None:
        write_matrix_text(out / "B.txt", problem.b)
    write_matrix_text(out / "C.txt", problem.c)
    with open(out / "truth.txt", "w", newline="\n") as fh:
        for j in range(problem.n):
            fh.write(dd_to_decimal_string(problem.sigmas[j], 30) + "\n")
    print(f"wrote {args.kind} problem (n={args.n}) to {out}")


def cmd_solve(args):
    mats = _load_inputs(args)
    pencil, kind = _build_pencil(args.formulation, mats)
    sol = solve_pencil(pencil)
    for v in sol.values:
        lam = v.value
        print(f"{lam.real:.16e} {lam.imag:.16e} {v.kind}")
    if args.recover:
        if args.formulation != "cpf":
            raise SystemExit("--recover needs the cpf formulation")
        dims = {"svd": (pencil.row_blocks[0], pencil.row_blocks[1]),
                "qsvd": (pencil.row_blocks[0], pencil.row_blocks[1], pencil.row_blocks[3]),
                "rsvd": (pencil.row_blocks[0], pencil.row_blocks[1],
                         pencil.row_blocks[2], pencil.row_blocks[3])}[kind]
        partition = None
        if kind == "rsvd":
            partition = partition_for(mats["a"], mats["b"], mats["c"])
        cls = classify_spectrum(sol, kind, dims, partition=partition)
        for t in cls.triplets:
            print(f"{t.kind} {t.alpha:.16e} {t.beta:.16e} {t.gamma:.16e} "
                  f"{t.sigma:.16e} {t.phase_residual:.3e}")


def cmd_kcf(args):
    if args.generated:
        cfg = GeneratorConfig(n=args.n, kappa_sigma=args.kappa_sigma,
                              kappa_y=args.kappa_y, kappa_x=args.kappa_x,
                              seed=args.seed)
        kind = args.kind
        problem = generate_qsvd(cfg) if kind == "qsvd" else generate_rsvd(cfg)
        n = problem.n
        # generated problems are full rank by construction
        if kind == "qsvd":
            partition = qsvd_partition_from_ranks(n, n, n, n, n, n)
        else:
            partition = partition_from_ranks(n, n, n, n, n, n, n, n, n, 2 * n)
        formulation = f"cpf-{kind}"
        pencil = FORMULATIONS[formulation].build_from(vars(problem))
        structure = predict_kcf(formulation, partition, problem.true_sigmas_float())
        _print_structure(structure)
        report = verify_reduction(pencil, formulation, partition, u=problem.u,
                                  v=problem.v, x=problem.x, y=problem.y)
        print(f"verification: stage1 off-structure {report.stage1_off:.3e}, "
              f"stage2 {report.stage2_off:.3e}, relative {report.relative:.3e}")
        sol = solve_general(pencil, class_tol_rel=args.class_tol)
        check = spectrum_counts_check(sol, structure)
        status = "ok" if check.ok else f"MISMATCH {check.mismatches()}"
        print(f"spectrum counts vs prediction: {status}")
        return

    mats = _load_inputs(args)
    kind = _problem_kind(mats)
    partition = partition_for(mats["a"], mats.get("b"), mats.get("c"))
    sigmas = ()
    if kind == "svd":
        sigmas = rank_with_tol(mats["a"]).values[: partition.p1]
    elif partition.p1:
        sigmas = _cpf_sigmas(mats, kind, partition.p1, args.class_tol)
    structure = predict_kcf(f"{args.formulation}-{kind}", partition, sigmas)
    _print_structure(structure)


def _cpf_sigmas(mats, kind, p1, class_tol):
    """Finite nonzero quotient or restricted values via the cpf pencil itself."""
    pencil, _ = _build_pencil("cpf", mats)
    sol = solve_general(pencil, class_tol_rel=class_tol)
    finite = [v for v in sol.values if v.kind == CLASS_FINITE]
    quads = group_quadruples(finite)
    if len(quads) != p1:
        raise SystemExit(f"recovered {len(quads)} {kind} values, expected {p1}")
    return [q.sigma for q in quads]


def _print_structure(structure):
    print(f"predicted canonical structure ({structure.rows} x {structure.cols}):")
    for b in sorted(structure.blocks, key=lambda b: (b.kind, b.rows)):
        if b.kind == "zero-block":
            print(f"  zero block {b.rows} x {b.cols}")
        elif b.kind == "n-infinite":
            print(f"  N_{b.rows} (infinite eigenvalue)")
        else:
            z = b.eigenvalue
            print(f"  J_{b.rows}({z.real:+.6e}{z.imag:+.6e}i)")
    counts = structure.eigenvalue_counts()
    print("expected eigenvalue counts: " +
          ", ".join(f"{k}={v}" for k, v in counts.items()))


def cmd_sweep(args):
    grid = [float(g) for g in args.grid.split(",")]
    summary = run_sweep(args.kind, args.axis, grid, samples=args.samples,
                        seed=args.seed, n=args.n, kappa_sigma=args.kappa_sigma,
                        kappa_y=args.kappa_y, kappa_x=args.kappa_x)
    write_sweep_csv(summary, args.out)
    print(f"wrote {len(summary.cells)} rows to {args.out}")


def cmd_example(args):
    ex = worked_example(seed=args.seed)
    print("\n".join(ex.lines()))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pencilsvd",
        description="Quotient and restricted singular values via "
                    "cross-product-free pencils")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a conditioned test problem")
    g.add_argument("--kind", choices=("qsvd", "rsvd"), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--kappa-y", dest="kappa_y", type=float, default=10.0)
    g.add_argument("--kappa-x", dest="kappa_x", type=float, default=1.0)
    g.add_argument("--kappa-sigma", dest="kappa_sigma", type=float, default=10.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=Path, required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve a pencil formulation for matrices")
    # a pencil family, completed by the problem kind, or a full name (qqqq)
    s.add_argument("--formulation", required=True,
                   choices=tuple(dict.fromkeys(n.split("-")[0] for n in FORMULATIONS)))
    s.add_argument("--recover", action="store_true",
                   help="also print singular triplets (cpf only)")
    _add_matrix_args(s, ("a", "b", "c", "d", "e"))
    s.set_defaults(func=cmd_solve)

    k = sub.add_parser("kcf", help="predict (and optionally verify) structure")
    k.add_argument("--formulation", choices=("aug", "cpf"), default="cpf")
    _add_matrix_args(k, ("a", "b", "c"))
    k.add_argument("--generated", action="store_true",
                   help="generate a problem internally and verify the "
                        "transformation chain against its exact factors")
    k.add_argument("--kind", choices=("qsvd", "rsvd"), default="qsvd")
    k.add_argument("--n", type=int, default=4)
    k.add_argument("--kappa-y", dest="kappa_y", type=float, default=10.0)
    k.add_argument("--kappa-x", dest="kappa_x", type=float, default=10.0)
    k.add_argument("--kappa-sigma", dest="kappa_sigma", type=float, default=10.0)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--class-tol", dest="class_tol", type=float, default=1e-4)
    k.set_defaults(func=cmd_kcf)

    w = sub.add_parser("sweep", help="median-max chordal error sweep, CSV out")
    w.add_argument("--kind", choices=("qsvd", "rsvd"), required=True)
    w.add_argument("--axis", choices=SWEEP_AXES, required=True)
    w.add_argument("--grid", required=True,
                   help="comma-separated condition numbers, e.g. 1e1,1e2,1e3")
    w.add_argument("--samples", type=int, default=100)
    w.add_argument("--n", type=int, default=10)
    w.add_argument("--kappa-y", dest="kappa_y", type=float, default=10.0)
    w.add_argument("--kappa-x", dest="kappa_x", type=float, default=10.0)
    w.add_argument("--kappa-sigma", dest="kappa_sigma", type=float, default=10.0)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", type=Path, required=True)
    w.set_defaults(func=cmd_sweep)

    e = sub.add_parser("example", help="replay the n=4 accuracy illustration")
    e.add_argument("--seed", type=int, default=7)
    e.set_defaults(func=cmd_example)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
