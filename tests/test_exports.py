"""Every exported name resolves, and the scalar dyadic types stay small.

``limitper.__all__`` and the ``__all__`` of each submodule promise names to
``from limitper import *`` and to readers.  A deletion that leaves a name
listed would otherwise surface only when someone imports it.  ``Dyadic`` and
``DyadicPoint2`` carry only the members some caller uses; arithmetic on many
points belongs to ``dyadic.Module`` and ``dyadic.normal_form``.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import limitper
from limitper.dyadic import Dyadic, DyadicPoint2

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


class _Empty:
    pass


def _written_members(cls) -> set[str]:
    """What a class adds to a frozen slotted dataclass of the same fields: its written methods."""
    fields = [field.name for field in dataclasses.fields(cls)]
    bare = dataclasses.make_dataclass("Bare", fields, frozen=True, slots=True)
    return set(vars(cls)) - set(vars(bare)) - set(vars(_Empty))


@pytest.mark.parametrize(
    "cls, fields, members",
    [
        (Dyadic, ("m", "r"), {"__post_init__", "of", "value", "__neg__", "__str__"}),
        (
            DyadicPoint2,
            ("m", "n", "s"),
            {"__post_init__", "of", "value", "__neg__", "dot", "map_ints", "__str__"},
        ),
    ],
    ids=["Dyadic", "DyadicPoint2"],
)
def test_dyadic_types_keep_only_the_members_in_use(cls, fields, members):
    # Unary minus is used by the chair's layer amplitudes, __str__ by the
    # verify report and the demos; no operator comes back without a caller.
    assert tuple(field.name for field in dataclasses.fields(cls)) == fields
    assert _written_members(cls) == members
