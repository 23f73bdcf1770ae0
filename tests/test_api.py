"""The package's public API is exactly what its modules declare in __all__."""

import ast
import importlib
from pathlib import Path

import pytest

import dest3d

INIT = Path(dest3d.__file__)
MODULES = sorted(p.stem for p in INIT.parent.glob("*.py") if not p.stem.startswith("__"))


def package_imports():
    """(module, name) for every name dest3d/__init__.py imports from a submodule."""
    tree = ast.parse(INIT.read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_package_import_is_in_its_modules_all():
    imports = package_imports()
    assert imports
    stray = [f"{mod}.{name}" for mod, name in imports
             if name not in importlib.import_module(f"dest3d.{mod}").__all__]
    assert stray == []


@pytest.mark.parametrize("mod", MODULES)
def test_every_all_name_exists(mod):
    module = importlib.import_module(f"dest3d.{mod}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_gen_params_is_internal():
    issm = importlib.import_module("dest3d.issm")
    assert callable(issm.gen_params)
    assert "gen_params" not in issm.__all__
    assert ("issm", "gen_params") not in package_imports()
    with pytest.raises(AttributeError):
        dest3d.gen_params
