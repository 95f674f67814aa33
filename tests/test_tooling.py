"""Source hygiene checks that need only the standard library.

No linter is a dependency of the package or its tests, so the rules that
changes keep breaking are checked here with ``ast``: an import left
without a use (pyflakes F401), a private helper, constant or class that
no module of the package reads any more, a function parameter that its
body never reads, and an import of a package that is neither the
standard library nor a runtime dependency (the test-only ``mpmath``
oracle, say).  It also lists every library name that the
benchmark in ``perfbench/`` reaches and the library no longer has, where a
benchmark run stops at the first ``AttributeError``.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pencilsvd"
PERFBENCH = ROOT / "perfbench"


def unused_imports(text: str) -> list[str]:
    """Names a module imports and never reads, in import order.

    A name counts as used when it is loaded anywhere in the module or listed
    in ``__all__``; an import statement with ``# noqa: F401`` on any of its
    lines is exempt, as are ``__future__`` imports.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in lines[i] for i in range(node.lineno - 1, node.end_lineno)):
            continue
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for _, name in sorted(imported) if name not in used]


def test_unused_import_check_sees_residue_and_honours_noqa():
    text = ("from __future__ import annotations\n"
            "import os\n"
            "import numpy as np\n"
            "from math import (  # noqa: F401\n"
            "    hypot,\n"
            ")\n"
            "from dataclasses import dataclass, field\n"
            "__all__ = ['field']\n"
            "x = np.zeros(1)\n")
    assert unused_imports(text) == ["os", "dataclass"]


def test_src_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}


def private_definitions(tree: ast.Module) -> list[str]:
    """Private names (one leading underscore) a module binds at top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes, or imports by name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_private_names(texts) -> list[str]:
    """Private top-level names of the modules that no module reads."""
    trees = [ast.parse(text) for text in texts]
    read = set().union(*(read_names(tree) for tree in trees))
    return [name for tree in trees for name in private_definitions(tree) if name not in read]


def test_unread_private_name_check_sees_dead_helpers():
    first = ("_LIMIT = 3\n"
             "_a, (_b, __c) = 1, (2, 3)\n"
             "def _dead():\n"
             "    return _LIMIT\n"
             "def _shared():\n"
             "    _dead_local = 1\n"
             "class _Record:\n"
             "    pass\n")
    second = ("from first import _shared\n"
              "import first\n"
              "x = first._Record, _b\n")
    assert unread_private_names([first, second]) == ["_a", "_dead"]


def test_src_private_names_are_read_in_src():
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert len(texts) >= 10
    assert unread_private_names(texts) == []


def unused_parameters(text: str) -> list[str]:
    """``function.parameter`` for every parameter, positional, keyword-only
    or starred, that its function's body never reads (a read in a nested
    function or lambda counts), in source order."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(x for x in (a.vararg, a.kwarg) if x is not None)]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(p.lineno, p.col_offset, f"{node.name}.{p.arg}")
                  for p in params if p.arg not in read]
    return [name for *_, name in sorted(found)]


def test_unused_parameter_check_sees_a_parameter_never_read():
    text = ("def f(a, b, *args, c=1, **kw):\n"
            "    b = 2\n"
            "    return a + sum(args)\n"
            "class K:\n"
            "    def m(self, x):\n"
            "        return lambda: self.y + x\n"
            "    def n(self, y, z=None):\n"
            "        def g(w):\n"
            "            return y\n"
            "        return self.wrap(g)\n")
    assert unused_parameters(text) == ["f.b", "f.c", "f.kw", "n.z", "g.w"]


def test_src_reads_every_function_parameter():
    found = {path.name: unused_parameters(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}


def foreign_imports(text: str, allowed) -> list[str]:
    """Top-level packages a module imports absolutely (relative imports are
    the package's own) that are not in ``allowed``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return [name for name in found if name not in allowed]


def test_foreign_import_check_sees_a_test_only_package():
    text = ("from __future__ import annotations\n"
            "import decimal, os.path\n"
            "import numpy as np\n"
            "from mpmath import mp\n"
            "from . import ddarith\n"
            "from .genmat import _grids\n"
            "def f():\n"
            "    import hypothesis.strategies\n")
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert foreign_imports(text, allowed) == ["mpmath", "hypothesis"]


def test_src_imports_only_the_stdlib_and_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in tomllib.load(fh)["project"]["dependencies"]}
    assert deps == {"numpy", "scipy"}
    allowed = set(sys.stdlib_module_names) | deps
    found = {path.name: foreign_imports(path.read_text(), allowed)
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}


def test_every_library_name_the_benchmark_reaches_resolves():
    # the tracer's sites (owner object, attribute) and the workloads'
    # ``module.attr`` reads of the modules they import from pencilsvd, which
    # a rename in src/ breaks
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(site[0], site[1]) for site in tracing.SITES]
    assert len(sites) >= 20
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in sites
               if not hasattr(owner, attr)]

    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "pencilsvd"
               for alias in node.names}
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert len(reads) >= 20
    missing += [f"{module}.{attr}" for module, attr in sorted(reads)
                if not hasattr(importlib.import_module(f"pencilsvd.{module}"), attr)]
    assert missing == []
