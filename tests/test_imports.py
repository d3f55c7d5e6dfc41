import ast
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "densityk"

# the package's runtime dependencies (pyproject.toml); scipy, hypothesis and
# pytest are for the tests alone
RUNTIME = {"numpy", "click"}


def absolute_imports() -> list[tuple[str, int, str]]:
    # every module an import statement names by absolute name: (file, line, top-level package)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.extend((path.name, node.lineno, alias.name.partition(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.lineno, node.module.partition(".")[0]))
    return found


def test_the_package_imports_only_the_standard_library_numpy_and_click():
    found = absolute_imports()
    assert [f for f in found if f[2] not in sys.stdlib_module_names and f[2] not in RUNTIME] == []
    assert {"numpy", "click"} <= {f[2] for f in found}  # the walk sees the imports it guards
