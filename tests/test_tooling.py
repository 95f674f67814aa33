"""Source hygiene checks that need only the standard library.

No linter is a dependency of the package or its tests, so the rules that
changes keep breaking are checked here with ``ast``: an import left
without a use (pyflakes F401), a private helper, constant or class that
no module of the package reads any more, a function parameter that its
body never reads, a float constant (a tolerance, say) that no test
names, and an import of a package that is neither the standard library
nor a runtime dependency (the test-only ``mpmath`` oracle, say).  It also
lists every library name that the benchmark in ``perfbench/`` reaches and
the library no longer has, where a benchmark run stops at the first
``AttributeError``, and checks the README's list of root exports against
``pencilsvd.__all__``.
"""

import ast
import fnmatch
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import pencilsvd

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


def assigned_names(node: ast.stmt) -> list[str]:
    """Names a statement binds by assignment (none for other statements)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def private_definitions(tree: ast.Module) -> list[str]:
    """Private names (one leading underscore) a module binds at top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        names += assigned_names(node)
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


def float_constants(text: str, namespace) -> list[str]:
    """Upper-case names a module assigns at top level whose value in the
    module's ``namespace`` is a float (numpy's float64 counts), in order."""
    names = [name for node in ast.parse(text).body for name in assigned_names(node)]
    return [name for name in names if name.isupper() and isinstance(namespace[name], float)]


def test_float_constant_check_sees_tolerances_only():
    text = ("import math\n"
            "from math import pi as PI\n"
            "TOL = 1e-12\n"
            "_EDGE: float = 2.0 ** -53\n"
            "LIMIT, NAMES = 8, ('a',)\n"
            "ROOT = math.sqrt(2.0)\n"
            "lower = 0.5\n"
            "def f():\n"
            "    INNER = 1.0\n")
    namespace = {}
    exec(text, namespace)
    assert float_constants(text, namespace) == ["TOL", "_EDGE", "ROOT"]


# (module, name) of float constants that decide nothing: the Dekker split
# constant is arithmetic
_NOT_TOLERANCES = {("ddarith", "_SPLITTER")}


def test_every_float_constant_in_src_is_named_in_a_test():
    # read as code or spelled as a string (monkeypatch.setattr's target) in
    # a test module other than this one, which names constants to exempt them
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))
             if path.name != Path(__file__).name]
    named = set().union(*(read_names(tree) for tree in trees),
                        (n.value for tree in trees for n in ast.walk(tree)
                         if isinstance(n, ast.Constant) and isinstance(n.value, str)))
    found = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in float_constants(path.read_text(),
                                         vars(importlib.import_module(f"pencilsvd.{path.stem}")))]
    assert len(found) >= 8 and _NOT_TOLERANCES <= set(found)
    assert [c for c in found if c[1] not in named and c not in _NOT_TOLERANCES] == []


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


def readme_root_exports(text: str, exported) -> tuple[list[str], list[str]]:
    """``(missing, extra)``: the exported names the README's "The package
    root re-exports" list leaves out, and the backticked names in it that
    are not exported; a name with ``*`` is a glob over ``exported``."""
    listed = re.search(r"The package root re-exports(.*?)everything else is imported",
                       text, re.S).group(1)
    names = re.findall(r"`([^`]+)`", listed)
    covered = {e for n in names for e in fnmatch.filter(exported, n)}
    extra = [n for n in names if not fnmatch.filter(exported, n)]
    return sorted(set(exported) - covered), extra


def test_readme_export_check_sees_a_missing_and_an_extra_name():
    text = ("The package root re-exports `solve`, the `build_*` builders and\n"
            "`gone`; everything else is imported from its module: `other`.")
    exported = ["build_a", "build_b", "recover", "solve"]
    assert readme_root_exports(text, exported) == (["recover"], ["gone"])


def test_readme_names_every_root_export():
    text = (ROOT / "README.md").read_text()
    assert len(pencilsvd.__all__) >= 20
    assert readme_root_exports(text, pencilsvd.__all__) == ([], [])
