import numpy as np
import pytest

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


def test_generate_rsvd_writes_b(tmp_path, capsys):
    out = tmp_path / "prob"
    run_cli(capsys, "generate", "--kind", "rsvd", "--n", "3",
            "--kappa-y", "10", "--kappa-x", "10", "--out", str(out))
    assert (out / "B.txt").exists()


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
    with pytest.raises(SystemExit):
        main(["solve", "--formulation", "aug", "--recover", "--a", str(ap)])


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


def test_kcf_class_tol_reaches_file_inputs(tmp_path):
    ap = tmp_path / "a.txt"
    cp = tmp_path / "c.txt"
    write_matrix_text(ap, np.diag([2.0, 0.5]))
    write_matrix_text(cp, np.eye(2))
    # a class threshold above every |alpha|, |beta| leaves no finite value
    with pytest.raises(SystemExit, match="recovered 0 qsvd values, expected 2"):
        main(["kcf", "--a", str(ap), "--c", str(cp), "--class-tol", "1e3"])


def test_kcf_generated_verification(capsys):
    out = run_cli(capsys, "kcf", "--generated", "--kind", "rsvd", "--n", "3",
                  "--kappa-y", "100", "--kappa-x", "10", "--seed", "2")
    assert "verification: " in out
    assert "spectrum counts vs prediction: ok" in out


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


def test_solve_qqqq(tmp_path, capsys):
    paths = []
    for name in "abcde":
        paths += [f"--{name}", str(tmp_path / f"{name}.txt")]
        write_matrix_text(tmp_path / f"{name}.txt", np.array([[2.0 if name == "a" else 1.0]]))
    out = run_cli(capsys, "solve", "--formulation", "qqqq", *paths)
    mags = sorted(abs(complex(float(ln.split()[0]), float(ln.split()[1])))
                  for ln in out.strip().splitlines())
    # with B = C = D = E = 1 the pencil is the cpf pencil of the scalar 2
    assert np.allclose(mags, [np.sqrt(2.0)] * 4, atol=1e-12)


def test_solve_sq_rejects_rsvd_inputs(tmp_path, capsys):
    a, b, c = _write_rsvd(tmp_path, capsys)
    with pytest.raises(SystemExit, match="not defined for a rsvd problem"):
        main(["solve", "--formulation", "sq", "--a", a, "--b", b, "--c", c])
