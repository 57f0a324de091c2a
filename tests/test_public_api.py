"""The package exports and defines only what the package itself uses.

A name in ``profix.__all__``, or a top-level function or class, that no
module of the package refers to is API that only the tests use; this keeps
such API from growing back.
"""

import ast
from pathlib import Path

import profix

SRC = Path(profix.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

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


def traced_names():
    """The string constants of bench/tracing.py, read without importing it:
    among them the name of every attribute its tracer wraps."""
    return {node.value for node in ast.walk(ast.parse(TRACING.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_definition_is_used_by_the_package():
    used = referenced_names() | traced_names()
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    )
    assert not unused, f"defined but used only outside the package: {unused}"
