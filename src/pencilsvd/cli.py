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
from .genmat import GeneratorConfig, generate
from .kcf import (
    KIND_N,
    KIND_ZERO_BLOCK,
    PartitionError,
    input_dims,
    partition_for,
    partition_from_ranks,
    predict_kcf,
    qsvd_partition_from_ranks,
    verify_reduction,
)
from .matcore import rank_with_tol, read_matrix_text, write_matrix_text
from .pencils import FORMULATIONS, problem_kind
from .recovery import GroupingError, classify_spectrum, recover


def _add_problem_args(parser, n, kappa_x):
    """The generator options, with this subcommand's defaults (``n=None``:
    ``--n`` is required)."""
    parser.add_argument("--n", type=int, default=n, required=n is None)
    parser.add_argument("--kappa-y", type=float, default=10.0)
    parser.add_argument("--kappa-x", type=float, default=kappa_x)
    parser.add_argument("--kappa-sigma", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)


def _generated(args):
    cfg = GeneratorConfig(n=args.n, kappa_sigma=args.kappa_sigma,
                          kappa_y=args.kappa_y, kappa_x=args.kappa_x,
                          seed=args.seed)
    return generate(args.kind, cfg)


def _add_matrix_args(parser, names):
    for name in names:
        parser.add_argument(f"--{name}", type=Path, metavar="FILE",
                            help=f"matrix {name.upper()} in the text format")


def _load_inputs(args):
    mats = {}
    for name in ("a", "b", "c"):
        path = getattr(args, name, None)
        if path is not None:
            mats[name] = read_matrix_text(path)
    if "a" not in mats:
        raise ValueError("matrix A is required (--a FILE)")
    return mats


def cmd_generate(args):
    problem = _generated(args)
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
    if args.recover and args.formulation != "cpf":
        raise ValueError("--recover needs the cpf formulation")
    mats = _load_inputs(args)
    if args.recover:
        # the partition of the input ranks, not a class threshold, decides
        # which values are zero, infinite or indeterminate
        cls = recover(**mats)
        sol, triplets = cls.solution, cls.triplets
    else:
        kind = problem_kind(mats.get("b"), mats.get("c"))
        form = FORMULATIONS.get(f"{args.formulation}-{kind}")
        if form is None:
            raise ValueError(f"formulation {args.formulation!r} is not defined for a {kind} problem")
        sol, triplets = solve_pencil(form.build_from(mats)), ()
    for v in sol.values:
        lam = v.value
        print(f"{lam.real:.16e} {lam.imag:.16e} {v.kind}")
    for t in triplets:
        print(f"{t.kind} {t.alpha:.16e} {t.beta:.16e} {t.gamma:.16e} "
              f"{t.sigma:.16e} {t.phase_residual:.3e}")


def cmd_kcf(args):
    if args.generated:
        if args.formulation != "cpf" or any(getattr(args, x) for x in "abc"):
            raise ValueError("--generated verifies the cpf pencil of a generated "
                             "problem: it takes no --a, --b, --c or --formulation aug")
        kind = args.kind
        problem = _generated(args)
        n = problem.n
        # generated problems are full rank by construction; numerical ranks
        # misjudge that on ill-conditioned ones
        partition = (qsvd_partition_from_ranks(n, n, n, n, n, n) if kind == "qsvd"
                     else partition_from_ranks(n, n, n, n, n, n, n, n, n, 2 * n))
        formulation = f"cpf-{kind}"
        pencil = FORMULATIONS[formulation].build_from(vars(problem))
        _print_structure(predict_kcf(formulation, partition, problem.sigmas.to_float()))
        report = verify_reduction(pencil, formulation, partition, u=problem.u,
                                  v=problem.v, x=problem.x, y=problem.y)
        print(f"verification: stage1 off-structure {report.stage1_off:.3e}, "
              f"stage2 {report.stage2_off:.3e}, relative {report.relative:.3e}")
        # the partition's counts, not the solver's threshold, decide the classes
        classify_spectrum(solve_pencil(pencil), kind, input_dims(partition), partition)
        print("spectrum counts vs prediction: ok")
        return

    mats = _load_inputs(args)
    kind = problem_kind(mats.get("b"), mats.get("c"))
    if "c" not in mats:
        # A alone: the singular values of A themselves
        partition = partition_for(mats["a"])
        sigmas = rank_with_tol(mats["a"]).values[: partition.p1]
    else:
        cls = recover(**mats)
        partition, sigmas = cls.partition, [q.sigma for q in cls.quadruples]
    _print_structure(predict_kcf(f"{args.formulation}-{kind}", partition, sigmas))


def _print_structure(structure):
    print(f"predicted canonical structure ({structure.order} x {structure.order}):")
    for b in sorted(structure.blocks, key=lambda b: (b.kind, b.size)):
        if b.kind == KIND_ZERO_BLOCK:
            print(f"  zero block {b.size} x {b.size}")
        elif b.kind == KIND_N:
            print(f"  N_{b.size} (infinite eigenvalue)")
        else:
            z = b.eigenvalue
            print(f"  J_{b.size}({z.real:+.6e}{z.imag:+.6e}i)")
    print("expected eigenvalue counts: " +
          ", ".join(f"{k}={v}" for k, v in structure.counts.items()))


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
    _add_problem_args(g, n=None, kappa_x=1.0)
    g.add_argument("--out", type=Path, required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve a pencil formulation for matrices")
    # a pencil family, completed by the problem kind the inputs give
    s.add_argument("--formulation", required=True,
                   choices=tuple(dict.fromkeys(f.family for f in FORMULATIONS.values())))
    s.add_argument("--recover", action="store_true",
                   help="also print singular triplets (cpf only)")
    _add_matrix_args(s, ("a", "b", "c"))
    s.set_defaults(func=cmd_solve)

    k = sub.add_parser("kcf", help="predict (and optionally verify) structure")
    k.add_argument("--formulation", choices=("aug", "cpf"), default="cpf")
    _add_matrix_args(k, ("a", "b", "c"))
    k.add_argument("--generated", action="store_true",
                   help="generate a problem internally and verify the "
                        "transformation chain against its exact factors")
    k.add_argument("--kind", choices=("qsvd", "rsvd"), default="qsvd")
    _add_problem_args(k, n=4, kappa_x=10.0)
    k.set_defaults(func=cmd_kcf)

    w = sub.add_parser("sweep", help="median-max chordal error sweep, CSV out")
    w.add_argument("--kind", choices=("qsvd", "rsvd"), required=True)
    w.add_argument("--axis", choices=SWEEP_AXES, required=True)
    w.add_argument("--grid", required=True,
                   help="comma-separated condition numbers, e.g. 1e1,1e2,1e3")
    w.add_argument("--samples", type=int, default=100)
    _add_problem_args(w, n=10, kappa_x=10.0)
    w.add_argument("--out", type=Path, required=True)
    w.set_defaults(func=cmd_sweep)

    e = sub.add_parser("example", help="replay the n=4 accuracy illustration")
    e.add_argument("--seed", type=int, default=7)
    e.set_defaults(func=cmd_example)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupingError, PartitionError) as exc:
        # ranks that fit no partition, or an ungroupable spectrum: a result, not misuse
        raise SystemExit(str(exc)) from exc
    except (ValueError, OSError) as exc:
        # invalid values the library rejects (a kappa, a matrix file) and
        # files it cannot open are usage errors: exit 2 with the message
        # (which names the file), not a traceback
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
