"""The package promises the pure standard library: no runtime dependencies."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "graphtda"


def test_imports_only_the_standard_library():
    modules = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module)
    assert modules, "no absolute imports found; is SRC right?"
    foreign = sorted(m for m in modules if m.split(".")[0] not in sys.stdlib_module_names | {"graphtda"})
    assert foreign == []
