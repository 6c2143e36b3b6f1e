"""The runtime stays stdlib-only: every module of the package imports only
standard-library modules and the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dcsreconf"


def imported_roots(tree: ast.Module):
    """The top-level name of every absolute import; relative imports are the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"dcsreconf"}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        outside = sorted(set(imported_roots(tree)) - allowed)
        assert not outside, f"{path.name} imports {outside}"
