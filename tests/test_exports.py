"""The export lists name exactly what the package and its modules provide.

A deleted function must leave every ``__all__`` that named it, and a name
the package offers must be in the package's ``__all__``.
"""

import importlib
import pkgutil
import types

import pytest

import extremal_info

MODULES = sorted(info.name for info in pkgutil.iter_modules(extremal_info.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"extremal_info.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_package_export_resolves():
    exported = extremal_info.__all__
    assert [n for n in exported if not hasattr(extremal_info, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_public_attributes_are_its_exports():
    public = {
        name
        for name, value in vars(extremal_info).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(extremal_info.__all__)
