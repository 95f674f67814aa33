"""Source hygiene checks that need only the standard library.

No linter is a dependency of the package or its tests, so the one lint
rule that deletions keep breaking, an import left without a use (pyflakes
F401), is checked here with ``ast``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pencilsvd"


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
