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


def test_readme_library_example_runs(capsys):
    """The README's "As a library" example runs as written and prints what it shows."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## As a library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "[['shares only']]\n"
