"""Checks on the package's source text itself."""

import ast
import pathlib

import pytest

import noncomm

SOURCE = pathlib.Path(noncomm.__file__).resolve().parent

# imports a module keeps without naming them again: measurement loads
# numpy.random with the package, so no run's memory counts numpy's lazy
# import of it, and states re-exports algebra's measure_matrix
KEPT = {("measurement", "numpy.random"), ("states", "measure_matrix")}


def unused_imports(tree: ast.Module) -> list:
    """The imported names of a module that nothing in it reads, each as the
    module or attribute it was imported as."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(full for name, full in bound.items() if name not in read)


# __init__ imports only to export: its imports are the package's public names
@pytest.mark.parametrize("path", sorted(p for p in SOURCE.glob("*.py") if p.stem != "__init__"),
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [name for name in unused_imports(tree) if (path.stem, name) not in KEPT]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_an_unused_import_is_found():
    tree = ast.parse("import numpy as np\nimport numpy.random\n"
                     "from .states import bayes, lueders\nbayes(np.ones(1), 1)\n")
    assert unused_imports(tree) == ["lueders", "numpy.random"]
