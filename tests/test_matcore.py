import re

import numpy as np
import pytest

from pencilsvd.matcore import (
    EPS,
    RankReport,
    haar_unitary,
    rank_with_tol,
    read_matrix_text,
    write_matrix_text,
)


def unitarity_defect(q):
    n = q.shape[0]
    return np.abs(q.conj().T @ q - np.eye(n)).max()


def test_haar_unitary_1x1_phase():
    q = haar_unitary(1, 123)
    assert abs(abs(q[0, 0]) - 1.0) <= 4 * EPS


def test_haar_unitary_4x4_fixed_seed():
    q = haar_unitary(4, np.random.default_rng(7))
    assert unitarity_defect(q) <= 1e-13


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_haar_unitarity_bound(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        q = haar_unitary(n, rng)
        assert unitarity_defect(q) <= 64 * n * EPS


def test_haar_column_statistics_monte_carlo():
    # |Q_11|^2 of a Haar unitary has mean 1/n and variance (n-1)/(n^2 (n+1))
    n, samples = 16, 1000
    rng = np.random.default_rng(2024)
    vals = np.array([abs(haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(samples)])
    mean = vals.mean()
    se = np.sqrt((n - 1) / (n**2 * (n + 1.0)) / samples)
    assert abs(mean - 1.0 / n) <= 3 * se


def test_haar_rejects_bad_order():
    with pytest.raises(ValueError):
        haar_unitary(0, 1)
    with pytest.raises(ValueError, match="count"):
        haar_unitary(2, 1, 0)


def _one_draw(n, rng):
    """One sample by the unstacked formula: Ginibre, QR, phases of R."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (4, 6), (10, 4), (17, 2)])
def test_haar_count_equals_successive_draws(n, count):
    stacked, single, formula = (np.random.default_rng(n) for _ in range(3))
    stack = haar_unitary(n, stacked, count)
    assert stack.shape == (count, n, n)
    for member in stack:
        assert member.tobytes() == haar_unitary(n, single).tobytes()
        assert member.tobytes() == _one_draw(n, formula).tobytes()
    # the three generators are left in the same state
    nxt = [g.standard_normal(3).tobytes() for g in (stacked, single, formula)]
    assert nxt[0] == nxt[1] == nxt[2]


def test_rank_zero_matrix():
    assert rank_with_tol(np.zeros((3, 2))).rank == 0


def test_rank_identity():
    assert rank_with_tol(np.eye(5)).rank == 5


def test_rank_tiny_singular_value_default_tol():
    m = np.diag([1.0, 1e-20])
    report = rank_with_tol(m)
    assert report.rank == 1
    # oracle: SVD of a diagonal matrix is the sorted absolute diagonal
    assert np.allclose(np.sort(report.values), [1e-20, 1.0])


@pytest.mark.parametrize("factor,rank", [(0.5, 1), (2.0, 2)])
def test_rank_cutoff_at_its_edge(factor, rank):
    # the cutoff is max(rows, cols) * eps * s_max = 5 eps for this 5x2
    # matrix (the smaller side's 2 eps would keep the value at 0.5x); the
    # SVD of a diagonal matrix is exact
    m = np.zeros((5, 2))
    m[0, 0], m[1, 1] = 1.0, factor * 5 * EPS
    report = rank_with_tol(m)
    assert report.tolerance == 5 * EPS
    assert report.values[1] == factor * 5 * EPS
    assert report.rank == rank


def test_rank_empty_matrix():
    assert rank_with_tol(np.zeros((0, 3))).rank == 0


def test_rank_report_rejects_increasing_values():
    with pytest.raises(ValueError):
        RankReport(2, np.array([1.0, 2.0]), 0.0)


def test_matrix_text_roundtrip_complex(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    path = tmp_path / "m.txt"
    write_matrix_text(path, m)
    back = read_matrix_text(path)
    assert np.array_equal(back, m)
    header = path.read_text().splitlines()[0]
    assert header == "3 2 complex"


def test_matrix_text_roundtrip_real(tmp_path):
    m = np.array([[1.0, -2.5e-17], [3.0, 4.0]])
    path = tmp_path / "m.txt"
    write_matrix_text(path, m)
    back = read_matrix_text(path)
    assert np.array_equal(back.real, m)
    assert not np.any(back.imag)
    assert path.read_text().splitlines()[0] == "2 2 real"


@pytest.mark.parametrize("m", [np.array([[1.0, np.nan]]), np.array([[np.inf + 0j]]),
                               np.zeros((2, 2, 2))])
def test_matrix_text_writes_only_what_it_can_read_back(tmp_path, m):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_matrix_text(path, m)
    assert not path.exists()


def test_matrix_text_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2 quaternion\n")
    with pytest.raises(ValueError):
        read_matrix_text(path)


@pytest.mark.parametrize("header", ["2 x real", "-1 2 real", "2.5 2 real", "2 -0 complex"])
def test_matrix_text_rejects_header_sizes_that_are_not_counts(tmp_path, header):
    path = tmp_path / "sizes.txt"
    path.write_text(header + "\n1.0\n")
    msg = rf"malformed matrix header in .*sizes\.txt: {re.escape(repr(header))}"
    with pytest.raises(ValueError, match=msg):
        read_matrix_text(path)


@pytest.mark.parametrize("body, entry", [
    ("2 1 real\n1.0\n", "real entry (1, 0)"),                 # file ends early
    ("1 2 complex\n1.0 2.0\n3.0\n", "complex entry (0, 1)"),  # no imaginary part
    ("2 1 real\n1.0\nnan\n", "real entry (1, 0)"),            # not finite
])
def test_matrix_text_rejects_hostile_entries(tmp_path, body, entry):
    path = tmp_path / "hostile.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=rf"hostile\.txt: {re.escape(entry)}"):
        read_matrix_text(path)


@pytest.mark.parametrize("body", [
    "1 2 real\n1.0\n2.0\n3.0\n4.0\n",           # header understates the rows
    "1 1 complex\n1.0 2.0\n\n3.0 4.0\n",         # after a blank line
    "0 0 real\n1.0\n",
])
def test_matrix_text_rejects_entries_beyond_the_header(tmp_path, body):
    path = tmp_path / "long.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=r"long\.txt: content after the \d+x\d+ entries"):
        read_matrix_text(path)


def test_matrix_text_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("1 2 real\n1.0\n2.0\n\n  \n")
    assert read_matrix_text(path).tolist() == [[1.0, 2.0]]
