"""Guards on the package as a whole."""

import ast
import sys
from pathlib import Path

import ssdb


def test_runtime_imports_are_stdlib_only():
    """ssdb has zero runtime dependencies: it imports only the standard library."""
    root = Path(ssdb.__file__).parent
    sources = sorted(root.rglob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
