"""No module of ``src/warpfield`` imports a name it never reads.

No linter ships with the project, so this scan stands in for pyflakes'
F401: every name an import binds must be read somewhere in its module,
unless the import line is marked ``# noqa: F401`` as a re-export."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "warpfield"


def unused_imports(source: str) -> list[str]:
    """``name:line`` of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in bound.items() if name not in read]


def test_no_unused_import_in_the_package():
    offenders = [f"{path.relative_to(SRC)}:{entry}"
                 for path in sorted(SRC.rglob("*.py"))
                 for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as p\n"
              "import numpy as np\nfrom a import (\n    b,\n    c,\n)\n"
              "from d import e  # noqa: F401\nnp.zeros(b)\n")
    assert unused_imports(source) == ["os:2", "p:3", "c:5"]
