"""Static checks over the package source: every ``__all__`` entry exists,
and no top-level import goes unused."""

import ast
from pathlib import Path

import pytest

import bcnn

SOURCES = sorted(Path(bcnn.__file__).parent.glob("*.py"))


def top_level_names(tree):
    """(names the module defines, names its top-level imports bind)."""
    defined, imported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    return defined, imported


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exports_exist_and_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined, imported = top_level_names(tree)
    exported = exported_names(tree)
    assert sorted(set(exported) - defined - imported) == []
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported)
    assert sorted(imported - used) == []


@pytest.mark.parametrize("name", ["data.py", "optim.py"])
def test_module_does_not_import_the_tensor_module(name):
    # Batches, gradients and optimizer state are plain ndarrays.
    path = Path(bcnn.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [f"{n.module or ''}.{a.name}" for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) for a in n.names]
    modules += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    assert [m for m in modules if "tensor" in m.split(".")] == []


def test_tensor_module_neither_wraps_nor_unwraps_outside_the_class():
    # The primitives take and return ndarrays; Tensors are built and opened
    # only where arrays enter or leave the model API.
    path = Path(bcnn.__file__).parent / "tensor.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [node for top in tree.body
               if not (isinstance(top, ast.ClassDef) and top.name == "Tensor")
               for node in ast.walk(top)]
    wraps = [n.lineno for n in outside if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "Tensor"]
    unwraps = [n.lineno for n in outside if isinstance(n, ast.Attribute) and n.attr == "data"]
    assert (wraps, unwraps) == ([], [])
