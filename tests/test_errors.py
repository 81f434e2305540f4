"""The package's exception classes: each one is caught somewhere in it."""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import restory

SOURCE = Path(restory.__file__).parent


def _names(node) -> set[str]:
    """The class names an `except` clause or `isinstance` argument lists."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_exception_class_is_caught_somewhere():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    bases = {node.name: set().union(*map(_names, node.bases))
             for node in nodes if isinstance(node, ast.ClassDef)}
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    defined: set[str] = set()
    while True:  # a class is an exception once one of its bases is
        more = {name for name, named in bases.items() if named & (exceptions | defined)}
        if more == defined:
            break
        defined = more
    caught: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught |= _names(node.type)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            caught |= _names(node.args[1])
    assert {"DataError", "GatewayError", "UsageError"} <= defined  # the walk sees the bases
    uncaught = sorted(defined - caught)
    assert not uncaught, "exception classes that no code catches: " + ", ".join(uncaught)
