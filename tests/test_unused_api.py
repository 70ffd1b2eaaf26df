"""Every function, class and method of ``proofloop`` is named by the program.

A definition that no code in ``src/``, ``perfbench/`` or ``tools/`` mentions, by
a name, an attribute or an import, is API that only tests call: delete it and
keep the test's intent through the public path.  Dunder methods are called by
the language, so they are left out.
"""

import ast

from helpers import REPO_ROOT

PROGRAM_DIRS = ("src", "perfbench", "tools")


def _mentions(tree: ast.AST) -> set[str]:
    """The identifiers ``tree`` reads: names, attributes and every part of an import."""
    mentioned: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            mentioned.add(node.id)
        elif isinstance(node, ast.Attribute):
            mentioned.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mentioned.update(part for alias in node.names for part in alias.name.split("."))
    return mentioned


def _definitions(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` of each function, class and method in ``tree``, dunders aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node.lineno) for node in ast.walk(tree) if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_definition_in_the_package_is_used_by_the_program():
    mentioned: set[str] = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            mentioned |= _mentions(ast.parse(path.read_text(encoding="utf-8")))
    unused = [f"{path.name}:{line} {name}"
              for path in sorted((REPO_ROOT / "src" / "proofloop").glob("*.py"))
              for name, line in _definitions(ast.parse(path.read_text(encoding="utf-8")))
              if name not in mentioned]
    assert unused == []


def test_the_guard_sees_a_definition_nothing_mentions():
    tree = ast.parse("class A:\n    def used(self): ...\n    def unused(self): ...\n"
                     "    def __eq__(self, other): ...\nA().used()\n")
    names = {name for name, _ in _definitions(tree)}
    assert names - _mentions(tree) == {"unused"}
