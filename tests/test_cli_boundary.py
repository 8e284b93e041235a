"""The command line reaches the library through public names only: what it runs, a
library user can run too (`ExtendedPersistence.of_graph` behind `persist --extended`)."""

import ast
from pathlib import Path

CLI = Path(__file__).parent.parent / "src" / "graphtda" / "cli.py"


def test_cli_imports_no_private_name():
    tree = ast.parse(CLI.read_text(), str(CLI))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "graphtda"):
            for alias in node.names:
                where = "." * node.level + (node.module or "")
                if alias.name.startswith("_"):
                    private.append(f"{where} {alias.name}")
                elif node.module is None:  # from . import serialize
                    modules.add(alias.asname or alias.name)
    assert modules, "no library module imported; is CLI right?"
    # A private name read off an imported module is imported all the same.
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []
