"""The package exports only what the package itself uses.

A name in ``profix.__all__`` that no module of the package refers to is
API that only the tests use; this keeps such API from growing back.
"""

import ast
from pathlib import Path

import profix

SRC = Path(profix.__file__).resolve().parent

#: Exports the package looks up by a computed name rather than by a
#: reference: ``simulation.draw_model`` fetches ``gen_<family name>``.
LOOKED_UP_BY_NAME = {"gen_missing_cov", "gen_prop_odds"}


def referenced_names():
    """Every name the modules other than __init__ read, import or access
    as an attribute; definitions, strings and comments do not count."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
                if node.module:
                    names.add(node.module.rsplit(".", 1)[-1])
    return names


def test_every_export_is_used_by_the_package():
    assert LOOKED_UP_BY_NAME <= set(profix.__all__)
    unused = set(profix.__all__) - referenced_names() - LOOKED_UP_BY_NAME
    assert not unused, f"exported but used only outside the package: {sorted(unused)}"
