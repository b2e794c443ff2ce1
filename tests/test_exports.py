"""Every exported name resolves.

``limitper.__all__`` and the ``__all__`` of each submodule promise names to
``from limitper import *`` and to readers.  A deletion that leaves a name
listed would otherwise surface only when someone imports it.
"""

import importlib
import pkgutil

import pytest

import limitper

_SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(limitper.__path__))


def test_package_exports_resolve():
    assert [name for name in limitper.__all__ if not hasattr(limitper, name)] == []


def test_every_submodule_is_checked():
    assert {"cli", "dyadic", "render", "subst"} <= set(_SUBMODULES)


@pytest.mark.parametrize("name", _SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"limitper.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [item for item in exported if not hasattr(module, item)] == []
