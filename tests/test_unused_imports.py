"""No package module imports a name it does not use.

An `ast` walk over each module's top-level imports: every name bound by
an `import` or `from ... import` must be read somewhere in the module, as a
name or as the base of an attribute. `__init__.py` imports to re-export and
is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nearris"


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_walk_finds_an_unused_import():
    assert _unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        (1, "os"), (2, "c")]
