"""Every name a zbwsim module imports is used there or re-exported in __all__,
and every name that __all__ lists exists."""
import ast
import importlib
from pathlib import Path

import pytest

import zbwsim

MODULES = sorted(Path(zbwsim.__file__).parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in _imported_names(tree).items()
        if name not in used and name not in _exported_names(tree)
    }
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    name = "zbwsim" if path.stem == "__init__" else f"zbwsim.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def _private_sibling_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Underscore-prefixed names taken from a sibling zbwsim module, with their lines:
    imported by name, or read as an attribute of a sibling module imported whole."""
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("zbwsim")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((alias.name, node.lineno))
                if node.module in (None, "zbwsim"):  # from . import bz: a whole module
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append((f"{node.value.id}.{node.attr}", node.lineno))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    """A module reads no private name of a sibling, and only fitting, where every
    trajectory is thinned and read, names FIT_STEP."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _private_sibling_names(tree), f"{path.name}: {_private_sibling_names(tree)}"
    if path.stem != "fitting":
        assert "FIT_STEP" not in path.read_text(), f"{path.name} names FIT_STEP"
