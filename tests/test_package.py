"""The package's public surface, and the independence of the test references."""

import ast
import inspect
import pathlib

import pytest

import fsvi
import fsvi.models

# What tests/references.py may import: a reference built on package code,
# or on a test module that imports it, would check that code against itself.
_REFERENCE_IMPORT_ROOTS = {"numpy", "scipy"}


def test_references_import_numpy_and_scipy_only():
    path = pathlib.Path(__file__).with_name("references.py")
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"line {node.lineno}: relative import"
            roots.add(node.module.split(".")[0])
    assert roots, "references.py imports nothing"
    assert roots <= _REFERENCE_IMPORT_ROOTS, (
        f"references.py imports {sorted(roots - _REFERENCE_IMPORT_ROOTS)}"
    )


@pytest.mark.parametrize("package", [fsvi, fsvi.models], ids=lambda p: p.__name__)
def test_star_import_binds_exactly_all(package):
    names = package.__all__
    assert len(names) == len(set(names)), "__all__ repeats a name"
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)
    # Every public name the package binds, other than a submodule, is listed.
    public = {
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= set(names), f"not in __all__: {sorted(public - set(names))}"
