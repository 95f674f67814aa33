"""In-memory span tracing around calls into the pencilsvd modules.

Each layer boundary is a public function of one module.  The modules import
their dependencies by name (``from .eigensolve import solve_general``), so a
wrapper has to replace the name where the caller looks it up: for example
``pencilsvd.bench.solve_general`` as well as ``pencilsvd.eigensolve.solve_general``,
``pencilsvd.genmat.cdd_solve``, and ``CDD.matmul`` on the class.  Nothing in
the library changes; :meth:`Tracer.installed` swaps the wrappers in and puts
the originals back.

A span is (id, name, start, end, parent id, op id, self time).  Self time is
the span's duration minus the time its child spans cover.  Counters are
updated at the same boundaries from the arguments and results.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from pencilsvd import bench, ddarith, eigensolve, genmat, kcf, matcore, pencils, recovery

OP = "op"   # root span of one op; its self time is the benchmark's own code


def _cdd_solve_work(tracer, args, result):
    a, b = args[:2]
    n = a.shape[0]
    r = 1 if len(b.shape) == 1 else b.shape[1]
    tracer.counts["ddarith.cdd_solve.work_n3"] += n * n * (n + r)


def _deflated_dims(sol) -> int:
    """Pairs split off by deflation: the trailing exact (0, 0) pairs."""
    d = 0
    for v in reversed(sol.values):
        if v.alpha_e != 0 or v.beta_e != 0:
            break
        d += 1
    return d


def _general_solution(tracer, args, sol):
    d = _deflated_dims(sol)
    tracer.counts["eigensolve.deflated_dims"] += d
    tracer.counts["eigensolve.work_k3"] += (len(sol.values) - d) ** 3
    tracer.counts["eigensolve.unstable"] += not sol.backward_stable


def _hpd_solution(tracer, args, sol):
    tracer.counts["eigensolve.hpd_ok"] += 1
    tracer.counts["eigensolve.unstable"] += not sol.backward_stable


def _grouping_error(tracer, exc):
    # classify_spectrum re-raises the GroupingError of group_quadruples
    # inside it: count each exception object once
    if isinstance(exc, recovery.GroupingError) and id(exc) not in tracer.seen_errors:
        tracer.seen_errors.add(id(exc))
        tracer.counts["recovery.grouping_errors"] += 1


def _sample_record(tracer, args, rec):
    tracer.counts["bench.sample_failures"] += rec.failed


def _counts_check(tracer, args, chk):
    tracer.counts["kcf.count_mismatches"] += not chk.ok


# (owner, attribute, span name, result hook, error hook)
SITES = [
    (genmat, "generate_qsvd", "genmat.generate", None, None),
    (genmat, "generate_rsvd", "genmat.generate", None, None),
    (genmat, "cdd_solve", "ddarith.cdd_solve", _cdd_solve_work, None),
    (ddarith.CDD, "matmul", "ddarith.matmul", None, None),
    (genmat, "haar_unitary", "matcore.haar_unitary", None, None),
    (bench, "evaluate_sample", "bench.evaluate_sample", _sample_record, None),
    (bench, "solve_general", "eigensolve.solve_general", _general_solution, None),
    (eigensolve, "solve_general", "eigensolve.solve_general", _general_solution, None),
    (bench, "solve_hpd", "eigensolve.solve_hpd", _hpd_solution, None),
    (bench, "group_quadruples", "recovery.group_quadruples", None, _grouping_error),
    (recovery, "group_quadruples", "recovery.group_quadruples", None, _grouping_error),
    (recovery, "classify_spectrum", "recovery.classify_spectrum", None, _grouping_error),
    (kcf, "partition_from_ranks", "kcf.partition", None, None),
    (kcf, "qsvd_partition_from_ranks", "kcf.partition", None, None),
    (kcf, "predict_kcf", "kcf.predict_kcf", None, None),
    (kcf, "verify_reduction", "kcf.verify_reduction", None, None),
    (kcf, "spectrum_counts_check", "kcf.counts_check", _counts_check, None),
    (matcore, "rank_with_tol", "matcore.rank_with_tol", None, None),
] + [(mod, f, "pencils.build", None, None)
     for mod, names in ((bench, ("build_sq_qsvd", "build_aug_qsvd", "build_aug_rsvd",
                                 "build_cpf_qsvd", "build_cpf_rsvd")),
                        (pencils, ("build_aug_qsvd", "build_aug_rsvd",
                                   "build_cpf_qsvd", "build_cpf_rsvd")))
     for f in names]


class Tracer:
    """Collects spans and counters of the ops run while it is installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seen_errors = set()
        self.op_id = None
        self._stack = []        # child time accumulated by each open span
        self._next_id = 0

    @contextmanager
    def span(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((sid, name, start, end, parent, self.op_id, dur - frame[1]))

    def wrap(self, fn, name, on_result, on_error):
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error:
                        on_error(self, exc)
                    raise
            if on_result:
                on_result(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in SITES]
        try:
            for (owner, attr, name, on_result, on_error), (_, _, fn) in zip(SITES, originals):
                setattr(owner, attr, self.wrap(fn, name, on_result, on_error))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def run_op(self, op_id, fn):
        """Run one op under a root span tagged with its op id."""
        self.op_id = op_id
        try:
            with self.span(OP):
                return fn()
        finally:
            self.op_id = None

    def self_times(self):
        """Total self seconds and call count per span name."""
        secs, calls = defaultdict(float), Counter()
        for _, name, _, _, _, _, self_s in self.spans:
            secs[name] += self_s
            calls[name] += 1
        return secs, calls

    def layer_split(self):
        """Share of total op self time per module (``perfbench`` = op root)."""
        secs, _ = self.self_times()
        by_layer = defaultdict(float)
        for name, s in secs.items():
            by_layer["perfbench" if name == OP else name.split(".")[0]] += s
        total = sum(by_layer.values()) or 1.0
        return {k: v / total for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}

    def per_layer(self, ops: int, overhead_ms: float) -> dict:
        """Per-layer metrics, per traced op, as (value, unit) pairs."""
        secs, calls = self.self_times()
        c = self.counts
        per_op = lambda x: x / ops  # noqa: E731
        out = {}
        for name in ("genmat.generate", "ddarith.cdd_solve", "ddarith.matmul",
                     "eigensolve.solve_general", "eigensolve.solve_hpd",
                     "recovery.group_quadruples", "matcore.rank_with_tol"):
            out[name + ".ms"] = (per_op(secs[name] * 1e3), "ms")
            out[name + ".calls"] = (per_op(calls[name]), "count")
        for name in ("matcore.haar_unitary", "recovery.classify_spectrum",
                     "kcf.partition", "kcf.predict_kcf", "kcf.verify_reduction",
                     "kcf.counts_check", "pencils.build"):
            out[name + ".ms"] = (per_op(secs[name] * 1e3), "ms")
        out["bench.evaluate_sample.self_ms"] = (
            per_op(secs["bench.evaluate_sample"] * 1e3), "ms")
        out["ddarith.cdd_solve.work_n3"] = (per_op(c["ddarith.cdd_solve.work_n3"]),
                                            "computed-n3")
        out["eigensolve.work_k3"] = (per_op(c["eigensolve.work_k3"]), "computed-k3")
        hpd_calls = calls["eigensolve.solve_hpd"]
        out["eigensolve.hpd_ok_ratio"] = (
            c["eigensolve.hpd_ok"] / hpd_calls if hpd_calls else 0.0, "ratio")
        for name in ("eigensolve.deflated_dims", "eigensolve.unstable",
                     "recovery.grouping_errors", "kcf.count_mismatches",
                     "bench.sample_failures"):
            out[name] = (per_op(c[name]), "count")
        out["trace.overhead_ms_p50"] = (overhead_ms, "ms")
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "name", "start", "end", "parent", "op", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
