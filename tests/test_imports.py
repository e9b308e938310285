"""Every name a module of the package imports is used in that module or
re-exported in its ``__all__``: the unused-import check of a linter, made
with the standard library's ``ast`` alone."""

import ast
import pkgutil
from pathlib import Path

import pytest

import minusord

SOURCES = Path(minusord.__file__).resolve().parent
MODULES = ["__init__"] + [info.name for info in pkgutil.iter_modules(minusord.__path__)]


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` imports, but for ``__future__`` features, that it
    neither reads nor lists in ``__all__``."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\nfrom .linalg import fro, adjoint\n"
                     "__all__ = ['adjoint']\nx = np.zeros(1)\n")
    assert _unused_imports(tree) == ["fro", "math"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports(ast.parse((SOURCES / f"{module}.py").read_text())) == []
