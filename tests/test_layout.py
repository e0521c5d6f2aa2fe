"""Code layout: no function or class in src/qsink is there for the tests alone."""

import ast
import importlib
from pathlib import Path

import qsink

SRC = Path(qsink.__file__).resolve().parent


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _overrides(module: str, cls: str, name: str) -> bool:
    # an override is called through its base class, not by name in src
    found = getattr(importlib.import_module(f"qsink.{module}"), cls)
    return any(hasattr(base, name) for base in found.__mro__[1:])


def test_every_definition_is_referenced_in_src():
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {
            id(item): node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, node, classes.get(id(node))))
            elif isinstance(node, ast.Name):
                references.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((path.stem, node.attr, node.lineno))
    assert definitions and references
    unreferenced = [
        f"{module}.{node.name}"
        for module, node, cls in definitions
        if not _is_dunder(node.name)
        and not (cls is not None and _overrides(module, cls, node.name))
        and not any(
            name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, name, line in references
        )
    ]
    assert unreferenced == []
