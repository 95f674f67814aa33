import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    DEFLATING_COUNTS,
    assembled_qsvd_pair,
    assembled_rsvd_triplet,
    qsvd_partition_from_counts,
    random_qsvd_counts,
    random_rsvd_counts,
    rsvd_partition_from_counts,
    structured_problem,
)
from pencilsvd import cli
from pencilsvd.cli import main
from pencilsvd.matcore import read_matrix_text, write_matrix_text


def run_cli(capsys, *argv):
    main(list(argv))
    return capsys.readouterr().out


def test_generate_writes_problem(tmp_path, capsys):
    out = tmp_path / "prob"
    run_cli(capsys, "generate", "--kind", "qsvd", "--n", "4",
            "--kappa-y", "100", "--kappa-sigma", "10", "--seed", "3",
            "--out", str(out))
    a = read_matrix_text(out / "A.txt")
    c = read_matrix_text(out / "C.txt")
    assert a.shape == (4, 4) and c.shape == (4, 4)
    truth = (out / "truth.txt").read_text().splitlines()
    assert len(truth) == 4
    assert truth[0].startswith("3.16227766016837933199889354443")
    assert not (out / "B.txt").exists()


def test_generate_prints_the_correctly_rounded_grid(tmp_path, capsys):
    # sigma_16 of n = 17, kappa_sigma = 10 is 0.36517412725483770582499525660451...
    out = tmp_path / "prob"
    run_cli(capsys, "generate", "--kind", "qsvd", "--n", "17", "--kappa-sigma", "10",
            "--out", str(out))
    truth = (out / "truth.txt").read_text().splitlines()
    assert len(truth) == 17
    assert truth[15] == "3.65174127254837705824995256605e-01"


def test_generate_rsvd_writes_b(tmp_path, capsys):
    out = tmp_path / "prob"
    run_cli(capsys, "generate", "--kind", "rsvd", "--n", "3",
            "--kappa-y", "10", "--kappa-x", "10", "--out", str(out))
    assert (out / "B.txt").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_generate_rejects_non_finite_kappa(tmp_path, capsys, value):
    out = tmp_path / "prob"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "qsvd", "--n", "4", "--kappa-y", value,
              "--out", str(out)])
    assert exc.value.code == 2
    assert "error: kappa_y must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_generate_beyond_the_refinement_range_is_a_usage_error(tmp_path, capsys):
    # kappa_y * n * eps ~ 2e3: the quotient solves' refinement cannot converge
    out = tmp_path / "prob"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "qsvd", "--n", "10", "--kappa-y", "1e18",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "error: cdd_solve: refinement stopped converging" in capsys.readouterr().err
    assert not out.exists()


def test_solve_reports_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text("2 1 real\n1.0\n")  # the file ends one entry early
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--formulation", "cpf", "--a", str(path)])
    assert exc.value.code == 2
    assert f"error: {path}: real entry (1, 0)" in capsys.readouterr().err


def test_solve_reports_header_with_bad_sizes(tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text("2 x real\n1.0\n2.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--formulation", "cpf", "--a", str(path)])
    assert exc.value.code == 2
    assert f"error: malformed matrix header in {path}: '2 x real'" in capsys.readouterr().err


def test_solve_reports_entries_beyond_the_header(tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text("1 2 real\n1.0\n2.0\n3.0\n4.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--formulation", "cpf", "--a", str(path)])
    assert exc.value.code == 2
    assert f"error: {path}: content after the 1x2 entries" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--formulation", "cpf"], ["kcf"]],
                         ids=["solve", "kcf"])
def test_missing_matrix_file_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "missing.txt"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--a", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "kcf"])
def test_b_without_c_is_a_usage_error(tmp_path, capsys, command):
    ap, bp = tmp_path / "a.txt", tmp_path / "b.txt"
    write_matrix_text(ap, np.diag([2.0, 0.5]))
    write_matrix_text(bp, np.eye(2))
    with pytest.raises(SystemExit) as exc:
        main([command, "--formulation", "aug", "--a", str(ap), "--b", str(bp)])
    assert exc.value.code == 2
    assert "error: B needs C" in capsys.readouterr().err


def test_solve_prints_classified_eigenvalues(tmp_path, capsys):
    path = tmp_path / "a.txt"
    write_matrix_text(path, np.array([[4.0]]))
    out = run_cli(capsys, "solve", "--formulation", "cpf", "--a", str(path))
    lines = [ln.split() for ln in out.strip().splitlines()]
    assert len(lines) == 4
    assert all(ln[2] == "finite-nonzero" for ln in lines)
    mags = sorted(abs(complex(float(ln[0]), float(ln[1]))) for ln in lines)
    assert np.allclose(mags, [2.0] * 4, atol=1e-12)


def test_solve_recover_prints_triplets(tmp_path, capsys):
    ap = tmp_path / "a.txt"
    cp = tmp_path / "c.txt"
    write_matrix_text(ap, np.array([[2.0]]))
    write_matrix_text(cp, np.array([[1.0]]))
    out = run_cli(capsys, "solve", "--formulation", "cpf", "--recover",
                  "--a", str(ap), "--c", str(cp))
    triplet_lines = [ln for ln in out.strip().splitlines() if ln.startswith("regular")]
    assert len(triplet_lines) == 1
    fields = triplet_lines[0].split()
    assert float(fields[4]) == pytest.approx(2.0, rel=1e-10)


def test_solve_recover_requires_cpf(tmp_path, capsys):
    ap = tmp_path / "a.txt"
    write_matrix_text(ap, np.array([[2.0]]))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--formulation", "aug", "--recover", "--a", str(ap)])
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert "error: --recover needs the cpf formulation" in err.err
    assert err.out == ""


def test_solve_requires_a(tmp_path, capsys):
    cp = tmp_path / "c.txt"
    write_matrix_text(cp, np.eye(2))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--formulation", "cpf", "--c", str(cp)])
    assert exc.value.code == 2
    assert "error: matrix A is required (--a FILE)" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--formulation", "cpf", "--recover"],
                                     ["kcf"]])
def test_ungroupable_spectrum_is_a_result_not_a_usage_error(tmp_path, command):
    # A = [[1e-20]], B = C = [[1]]: the ranks count all four cpf eigenvalues
    # finite, but two of them are exact zeros, so they cannot form a quadruple
    mats = {"a": 1e-20, "b": 1.0, "c": 1.0}
    for name, value in mats.items():
        write_matrix_text(tmp_path / f"{name}.txt", np.array([[value]]))
    args = [f"--{x}={tmp_path / f'{x}.txt'}" for x in mats]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "pencilsvd.cli", *command, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr == "grouping expects finite nonzero eigenvalues\n"
    assert "usage:" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("command", [["solve", "--formulation", "cpf", "--recover"],
                                     ["kcf"]])
def test_ranks_without_a_partition_are_a_result_not_a_usage_error(tmp_path, command):
    # A = 1e-20 I_3 has rank 3 at its own cutoff, but [A; C] has rank 1 for
    # C = [[1, 0, 0]], so the ranks give q2 = r_ac - r_a = -2
    mats = {"a": 1e-20 * np.eye(3), "c": np.array([[1.0, 0.0, 0.0]])}
    for name, m in mats.items():
        write_matrix_text(tmp_path / f"{name}.txt", m)
    args = [f"--{x}={tmp_path / f'{x}.txt'}" for x in mats]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "pencilsvd.cli", *command, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr == "derived count q2 is negative (-2); ranks inconsistent\n"
    assert "usage:" not in proc.stdout + proc.stderr


def test_solve_prints_an_ungroupable_spectrum(tmp_path, capsys):
    # the spectrum above, printed without --recover: nothing is grouped
    mats = {"a": 1e-20, "b": 1.0, "c": 1.0}
    for name, value in mats.items():
        write_matrix_text(tmp_path / f"{name}.txt", np.array([[value]]))
    out = run_cli(capsys, "solve", "--formulation", "cpf",
                  *(f"--{x}={tmp_path / f'{x}.txt'}" for x in mats))
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("command", [["solve", "--formulation", "cpf", "--recover"], ["kcf"]],
                         ids=["solve-recover", "kcf"])
@pytest.mark.parametrize("kind, counts", DEFLATING_COUNTS)
def test_rank_structured_files(tmp_path, capsys, kind, counts, command):
    # Jordan blocks at zero or infinity: the ranks fix the classes, and the
    # values group
    _, sigmas, inputs, _ = structured_problem(kind, counts, np.random.default_rng(3))
    args = []
    for name, m in inputs.items():
        write_matrix_text(tmp_path / f"{name}.txt", m)
        args.append(f"--{name}={tmp_path / f'{name}.txt'}")
    out = run_cli(capsys, *command, *args)
    if command[0] == "kcf":
        assert f"finite-nonzero={4 * len(sigmas)}," in out
    else:
        got = sorted(float(ln.split()[4]) for ln in out.splitlines()
                     if ln.startswith("regular"))
        assert got == pytest.approx(sigmas, rel=1e-10)


def test_kcf_predict_from_files(tmp_path, capsys):
    ap = tmp_path / "a.txt"
    cp = tmp_path / "c.txt"
    write_matrix_text(ap, np.diag([2.0, 0.5]))
    write_matrix_text(cp, np.eye(2))
    out = run_cli(capsys, "kcf", "--formulation", "cpf",
                  "--a", str(ap), "--c", str(cp))
    assert "predicted canonical structure (8 x 8)" in out
    assert out.count("J_1(") == 8
    assert "finite-nonzero=8" in out


def test_kcf_prints_every_block_kind(tmp_path, capsys):
    # a rank-structured qsvd input with sigmas 2 and 0.5 and blocks of every
    # kind, printed whole: -root carries a negative zero imaginary part
    _, _, inputs, _ = structured_problem("qsvd", (2, 1, 1, 1, 1, 1), np.random.default_rng(3))
    for name, m in inputs.items():
        write_matrix_text(tmp_path / f"{name}.txt", m)
    out = run_cli(capsys, "kcf", *(f"--{x}={tmp_path / f'{x}.txt'}" for x in inputs))
    assert out.splitlines() == [
        "predicted canonical structure (17 x 17):",
        "  J_1(+1.414214e+00+0.000000e+00i)",
        "  J_1(-1.414214e+00-0.000000e+00i)",
        "  J_1(+0.000000e+00+1.414214e+00i)",
        "  J_1(+0.000000e+00-1.414214e+00i)",
        "  J_1(+7.071068e-01+0.000000e+00i)",
        "  J_1(-7.071068e-01-0.000000e+00i)",
        "  J_1(+0.000000e+00+7.071068e-01i)",
        "  J_1(+0.000000e+00-7.071068e-01i)",
        "  J_2(+0.000000e+00+0.000000e+00i)",
        "  J_2(+0.000000e+00+0.000000e+00i)",
        "  N_1 (infinite eigenvalue)",
        "  N_3 (infinite eigenvalue)",
        "  zero block 1 x 1",
        "expected eigenvalue counts: finite-nonzero=8, zero=4, infinite=4, indeterminate=1",
    ]


def _write_tiny_sigma_files(tmp_path):
    # A has full column rank, and its quadruple at sqrt(1e-9) lies far
    # inside a 1e-4 class threshold; the ranks still count it finite
    ap, cp = tmp_path / "a.txt", tmp_path / "c.txt"
    write_matrix_text(ap, np.array([[1.0, 0.0], [0.0, 1e-9], [0.0, 0.0]]))
    write_matrix_text(cp, np.eye(2))
    return ["--a", str(ap), "--c", str(cp)]


def test_kcf_reports_the_values_the_ranks_predict(tmp_path, capsys):
    out = run_cli(capsys, "kcf", *_write_tiny_sigma_files(tmp_path))
    assert "finite-nonzero=8," in out
    assert "J_1(+3.162278e-05+0.000000e+00i)" in out


def test_solve_recovers_a_sigma_of_1e_minus_9(tmp_path, capsys):
    out = run_cli(capsys, "solve", "--formulation", "cpf", "--recover",
                  *_write_tiny_sigma_files(tmp_path))
    got = [float(ln.split()[4]) for ln in out.splitlines() if ln.startswith("regular")]
    assert got == pytest.approx([1.0, 1e-9], rel=1e-6)


@pytest.mark.parametrize("lo, hi", [(-9, 0), (0, 9)], ids=["1e-9..1", "1..1e9"])
@pytest.mark.parametrize("kind", ["qsvd", "rsvd"])
def test_solve_recovers_sigmas_spread_over_nine_decades(tmp_path, capsys, kind, lo, hi):
    # random helper partitions with log-uniform sigmas, one at the far end
    # from 1: blocks at 0 and infinity split into values of size
    # eps**(1/k), which a fixed class threshold cannot tell from the
    # quadruples of sigmas near 1e-9 or 1e9; the ranks can
    rng = np.random.default_rng((24, hi, kind == "rsvd"))
    draw = random_qsvd_counts if kind == "qsvd" else random_rsvd_counts
    build = qsvd_partition_from_counts if kind == "qsvd" else rsvd_partition_from_counts
    for _ in range(50):
        counts = draw(rng, max_count=3)
        part = build(*counts)
        exps = rng.uniform(lo, hi, part.p1)
        exps[0] = hi if lo == 0 else lo
        sigmas = np.sort(10.0 ** exps)
        if kind == "qsvd":
            mats = dict(zip("ac", assembled_qsvd_pair(part, sigmas, rng)))
        else:
            mats = dict(zip("abc", assembled_rsvd_triplet(part, sigmas, rng)))
        args = []
        for name, m in mats.items():
            write_matrix_text(tmp_path / f"{name}.txt", m)
            args.append(f"--{name}={tmp_path / f'{name}.txt'}")
        out = run_cli(capsys, "solve", "--formulation", "cpf", "--recover", *args)
        got = sorted(float(ln.split()[4]) for ln in out.splitlines() if ln.startswith("regular"))
        assert got == pytest.approx(sigmas, rel=1e-6), (counts, sigmas)


def test_readme_kcf_example(tmp_path, capsys):
    # the README's Command line example, as printed there
    out = tmp_path / "prob"
    run_cli(capsys, "generate", "--kind", "qsvd", "--n", "4", "--kappa-y", "1e7",
            "--kappa-sigma", "10", "--seed", "7", "--out", str(out))
    text = run_cli(capsys, "kcf", "--formulation", "cpf",
                   "--a", str(out / "A.txt"), "--c", str(out / "C.txt"))
    assert "finite-nonzero=16" in text


@pytest.mark.parametrize("kappa_y", ["1e7", "1e10"])
@pytest.mark.parametrize("kind", ["qsvd", "rsvd"])
def test_kcf_on_generated_files(tmp_path, capsys, kind, kappa_y):
    # full-rank inputs are classified at the regular default
    out = tmp_path / "prob"
    run_cli(capsys, "generate", "--kind", kind, "--n", "4", "--kappa-y", kappa_y,
            "--out", str(out))
    text = run_cli(capsys, "kcf", *(f"--{x}={out / f'{x.upper()}.txt'}"
                                    for x in ("abc" if kind == "rsvd" else "ac")))
    assert "finite-nonzero=16," in text


@pytest.mark.parametrize("kind, n, kappa_y", [
    ("rsvd", "3", "100"), ("qsvd", "4", "1e7"), ("qsvd", "10", "1e10"), ("rsvd", "10", "1e10")])
def test_kcf_generated_verification(capsys, kind, n, kappa_y):
    out = run_cli(capsys, "kcf", "--generated", "--kind", kind, "--n", n,
                  "--kappa-y", kappa_y, "--kappa-x", "10", "--seed", "2")
    assert "verification: " in out
    assert "spectrum counts vs prediction: ok" in out


@pytest.mark.parametrize("extra", [("--a",), ("--b",), ("--c",), ("--formulation", "aug")])
def test_kcf_generated_rejects_inputs(tmp_path, capsys, extra):
    if len(extra) == 1:
        path = tmp_path / "m.txt"
        write_matrix_text(path, np.eye(2))
        extra += (str(path),)
    with pytest.raises(SystemExit) as exc:
        main(["kcf", "--generated", *extra])
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert "error: --generated verifies the cpf pencil of a generated problem" in err.err
    assert err.out == ""


_PROBLEM_DEFAULTS = dict(kappa_y=10.0, kappa_sigma=10.0, seed=0)


@pytest.mark.parametrize("argv, want", [
    (["generate", "--kind", "rsvd", "--n", "5", "--out", "p"],
     dict(kind="rsvd", n=5, kappa_x=1.0)),
    (["kcf"], dict(kind="qsvd", n=4, kappa_x=10.0, formulation="cpf")),
    (["sweep", "--kind", "qsvd", "--axis", "kappa_y", "--grid", "1e1", "--out", "s.csv"],
     dict(kind="qsvd", n=10, kappa_x=10.0, samples=100)),
])
def test_problem_option_defaults(monkeypatch, argv, want):
    seen = {}
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.update(vars(args)))
    main(argv)
    want = {**_PROBLEM_DEFAULTS, **want}
    assert {k: (seen[k], type(seen[k])) for k in want} == \
        {k: (v, type(v)) for k, v in want.items()}


def test_generate_requires_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "qsvd", "--out", "p"])
    assert exc.value.code == 2
    assert "the following arguments are required: --n" in capsys.readouterr().err


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--kind", "qsvd", "--axis", "kappa_y",
            "--grid", "1e1,1e2", "--samples", "2", "--n", "3",
            "--seed", "1", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind,formulation,axis,")
    assert len(lines) == 1 + 2 * 3  # grid x formulations


def test_example_command(capsys):
    out = run_cli(capsys, "example", "--seed", "7")
    assert "3.162277660168" in out
    assert "squared geometric means" in out


def _write_rsvd(tmp_path, capsys):
    out = tmp_path / "prob"
    run_cli(capsys, "generate", "--kind", "rsvd", "--n", "3", "--kappa-y", "10",
            "--kappa-x", "10", "--seed", "4", "--out", str(out))
    return [str(out / f"{name}.txt") for name in "ABC"]


def test_solve_cpf_recover_rsvd(tmp_path, capsys):
    a, b, c = _write_rsvd(tmp_path, capsys)
    truth = [float(x) for x in (tmp_path / "prob" / "truth.txt").read_text().split()]
    out = run_cli(capsys, "solve", "--formulation", "cpf", "--recover",
                  "--a", a, "--b", b, "--c", c)
    sigmas = sorted(float(ln.split()[4]) for ln in out.splitlines()
                    if ln.startswith("regular"))
    assert sigmas == pytest.approx(sorted(truth), rel=1e-10)


def test_kcf_aug_from_rsvd_files(tmp_path, capsys):
    a, b, c = _write_rsvd(tmp_path, capsys)
    out = run_cli(capsys, "kcf", "--formulation", "aug", "--a", a, "--b", b, "--c", c)
    assert "predicted canonical structure (6 x 6)" in out
    assert out.count("J_1(") == 6
    assert "finite-nonzero=6" in out


def test_solve_sq_rejects_rsvd_inputs(tmp_path, capsys):
    a, b, c = _write_rsvd(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--formulation", "sq", "--a", a, "--b", b, "--c", c])
    assert exc.value.code == 2
    assert ("error: formulation 'sq' is not defined for a rsvd problem"
            in capsys.readouterr().err)
