"""Code layout: nothing in src/qsink is there for the tests alone, and nothing is taken unread.

No function, class or module constant lacks a caller in src/qsink (a
parameter or local of the same name calls nothing), no
module imports a name that it never reads, and no function takes a
parameter that its body never reads.  A check that refuses the first bad
entry of a stack does so through linalg._refuse_flagged, not through a
value it tests against None and raises on.
"""

import ast
import importlib
import re
from pathlib import Path
from types import SimpleNamespace

import qsink

SRC = Path(qsink.__file__).resolve().parent


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _overrides(module: str, cls: str, name: str) -> bool:
    # an override is called through its base class, not by name in src
    found = getattr(importlib.import_module(f"qsink.{module}"), cls)
    return any(hasattr(base, name) for base in found.__mro__[1:])


def _constants(tree: ast.Module) -> list[SimpleNamespace]:
    """The names bound by module-level assignments, each with its statement's lines.

    The target's own Name node lies on those lines, so it does not count as
    a reference to the name.
    """
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found += [
            SimpleNamespace(name=name.id, lineno=node.lineno, end_lineno=node.end_lineno)
            for target in targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name)
        ]
    return found


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(function: ast.AST) -> list[str]:
    args = function.args
    return [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                args.vararg, args.kwarg) if arg is not None]


def _locals(function: ast.AST) -> set[str]:
    """The names a function binds: its parameters and the names it stores, nested scopes aside."""
    bound = set(_parameters(function))
    stack = list(function.body) if isinstance(function.body, list) else [function.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _references(node: ast.AST, module: str, bound: frozenset = frozenset()) -> list[tuple]:
    """(module, name, line) of each Name and attribute, but a Name that an enclosing function binds.

    A parameter or a local of the same text is not a reference to a
    definition: neither is the parameter rho of a function to a property rho.
    """
    found = []
    if isinstance(node, _SCOPES):
        bound = bound | _locals(node)
    elif isinstance(node, ast.Name) and node.id not in bound:
        found.append((module, node.id, node.lineno))
    elif isinstance(node, ast.Attribute):
        found.append((module, node.attr, node.lineno))
    for child in ast.iter_child_nodes(node):
        found += _references(child, module, bound)
    return found


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
        definitions += [(path.stem, constant, None) for constant in _constants(tree)]
        definitions += [
            (path.stem, node, classes.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        references += _references(tree, path.stem)
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


def test_every_record_with_a_constructor_makes_copies_through_it():
    # NamedTuple's _make, which _replace calls, builds the tuple without
    # calling __new__, so a record that checks its fields in __new__ must
    # define _make to build through it
    unchecked = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"qsink.{path.stem}")
        for name, value in vars(module).items():
            record = isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
            if record and value.__module__ == module.__name__ and "__new__" in vars(value):
                if "_make" not in vars(value):
                    unchecked.append(f"{path.stem}.{name}")
    assert unchecked == []


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds a
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in reads:
                        unread.append(f"{path.stem}: {bound}")
    assert unread == []


def test_every_parameter_is_read_in_its_function():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, _SCOPES):
                continue
            params = _parameters(node)
            # a lambda's body is one expression; a nested function's reads count too
            body = node.body if isinstance(node.body, list) else [node.body]
            reads = {
                name.id
                for statement in body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            where = f"{path.stem}.{getattr(node, 'name', '<lambda>')}"
            unread += [f"{where}: {param}" for param in params if param not in reads]
    assert unread == []


def test_every_stack_refusal_raises_from_the_one_helper():
    # `if <name> is not None:` with a lone raise as its body
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If)
        and re.fullmatch(r"\w+ is not None", ast.unparse(node.test))
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Raise)
    ]
    assert found == []
