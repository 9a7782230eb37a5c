"""The runtime is standard-library only, as the README promises."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "aa"


def imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_or_aa():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    foreign = {path.name: sorted(imported_packages(path) - sys.stdlib_module_names
                                 - {"aa"})
               for path in modules}
    assert {name: found for name, found in foreign.items() if found} == {}
