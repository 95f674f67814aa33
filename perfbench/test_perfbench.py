"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pencilsvd import bench, genmat, kcf  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, seed=3):
    """The named workload at a size that runs in well under a second per op."""
    if name == "sweep-n10":
        return workloads.SweepN10(seed, n=4, accuracy_ops=4)
    if name == "solve-n32":
        return workloads.SolveN32(seed, n=4, pool_size=2, accuracy_ops=4)
    return workloads.SingularKcf(seed, pool_size=8, batch=2, accuracy_ops=4)


def printed_metrics(lines, workload):
    """{name: unit} of the metric lines ``<workload>  <name>  <value>  <unit>``."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            float(parts[2])
            out[parts[1]] = parts[3]
    return out


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_unit(name, trace):
    result = run.run_workload(tiny(name), seconds=0.0, trace=trace)
    lines, metrics, printed = run.report(result, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    checks = {"ops_per_s": "1/s", "op_ms_p50": "ms", "failed_frac": "fraction",
              "cpf_err_p50": "chordal", "aug_err_p50": "chordal"}
    assert printed_metrics(lines, name) == {m["name"]: m["unit"] for m in spec} | checks
    assert set(metrics) == {m["name"] for m in spec}
    assert all(np.isfinite(m["value"]) for m in printed.values())
    assert result.failures == [] and printed["failed_frac"]["value"] == 0
    if not trace:
        assert all(metrics[m]["value"] > 0 for m in metrics)


def test_corrupted_truth_grid_counts_as_failure():
    wl = tiny("sweep-n10")
    clean = wl.problems

    def corrupted(i):
        probs = clean(i)
        sig = probs[0].sigmas
        probs[0] = dataclasses.replace(probs[0], sigmas=type(sig)(sig.hi * (1 + 1e-6), sig.lo))
        return probs

    wl.problems = corrupted
    result = run.run_workload(wl, seconds=0.0, trace=False)
    assert len(result.failures) == result.attempted == 4
    assert all("above ceiling" in reason for _, reason in result.failures)
    lines, *_ = run.report(result, False)
    assert sum(line.startswith("failure ") for line in lines) == 4


def test_wrong_expected_partition_counts_as_failure():
    wl = tiny("singular-kcf")
    wl.setup()
    inp = wl.pool[0]
    wrong = dataclasses.replace(inp.partition, p1=inp.partition.p1 + 1,
                                q3=inp.partition.q3 + 1, n2=inp.partition.n2 + 1)
    res = wl.check(dataclasses.replace(inp, partition=wrong), workloads.OpResult())
    assert res.failure == "rank partition differs from the constructed one"


def test_six_rank_partition_matches_construction():
    wl = workloads.SingularKcf(11, pool_size=16, batch=4)
    wl.setup()
    for inp in wl.pool:
        assert workloads.six_rank_partition(inp) == inp.partition
        assert inp.partition.p1 >= 1


def test_same_seed_same_digest_and_accuracy():
    a = run.run_workload(tiny("sweep-n10", seed=5), seconds=0.0, trace=False)
    b = run.run_workload(tiny("sweep-n10", seed=5), seconds=0.0, trace=True)
    c = run.run_workload(tiny("sweep-n10", seed=6), seconds=0.0, trace=False)
    digest = lambda r: run.error_digest(r.results[:r.accuracy_ops])  # noqa: E731
    assert digest(a) == digest(b) != digest(c)
    assert a.accuracy("cpf") == b.accuracy("cpf")
    assert a.accuracy("aug") == b.accuracy("aug")


def test_tracer_restores_library_functions():
    before = [getattr(owner, attr) for owner, attr, *_ in tracing.SITES]
    run.run_workload(tiny("singular-kcf"), seconds=0.0, trace=True)
    assert [getattr(owner, attr) for owner, attr, *_ in tracing.SITES] == before
    assert bench.solve_general.__module__ == "pencilsvd.eigensolve"


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    with tr.span("parent"):
        with tr.span("child"):
            time.sleep(0.02)
    secs, calls = tr.self_times()
    child = next(s for s in tr.spans if s[1] == "child")
    parent = next(s for s in tr.spans if s[1] == "parent")
    assert child[4] == parent[0]
    assert secs["child"] >= 0.02 > secs["parent"] >= 0.0
    assert calls == {"parent": 1, "child": 1}


def test_counters_follow_calls():
    tr = tracing.Tracer()
    cfg = genmat.GeneratorConfig(n=3, kappa_sigma=10.0, kappa_y=10.0, seed=1)
    with tr.installed():
        tr.run_op(0, lambda: genmat.generate_qsvd(cfg))
    # qsvd: two n x n solves with n right-hand sides
    assert tr.counts["ddarith.cdd_solve.work_n3"] == 2 * 3 * 3 * (3 + 3)
    assert tr.self_times()[1]["genmat.generate"] == 1


def test_missing_sources_stop_the_run(monkeypatch):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-dir")
    with pytest.raises(SystemExit) as exc:
        run._use_source_tree()
    assert exc.value.code != 0


def test_singular_inputs_need_deflation():
    wl = tiny("singular-kcf")
    wl.setup()
    assert all(isinstance(inp.partition, (kcf.QsvdPartition, kcf.RsvdPartition))
               for inp in wl.pool)
    tr = tracing.Tracer()
    with tr.installed():
        for i in range(wl.cycle):
            assert tr.run_op(i, lambda: wl.op(i)).failure is None
    assert tr.counts["eigensolve.deflated_dims"] > 0
