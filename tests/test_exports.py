"""Every exported name resolves, and the scalar types stay small.

``limitper.__all__`` and the ``__all__`` of each submodule promise names to
``from limitper import *`` and to readers.  A deletion that leaves a name
listed would otherwise surface only when someone imports it.  The package
lists its submodules only: every other name is imported from the submodule
that defines it.  ``Dyadic``, ``DyadicPoint2``, ``PatternWindow``,
``SubstitutionSystem`` and the two ``Amplitudes`` records carry only the
fields and members some caller uses; arithmetic on many points belongs to
``dyadic.Module`` and ``dyadic.normal_form``, and cells of a window are read
by indexing its ``labels``.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import limitper
from limitper import chair, period_doubling
from limitper.dyadic import Dyadic, DyadicPoint2
from limitper.subst import PatternWindow, SubstitutionSystem

_SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(limitper.__path__))


def test_package_exports_resolve():
    # The star import loads every listed submodule, so this holds in any test order.
    exec("from limitper import *", {})
    assert [name for name in limitper.__all__ if not hasattr(limitper, name)] == []


def test_package_lists_its_submodules_only():
    assert limitper.__all__ == ["__version__", *(name for name in _SUBMODULES if name != "__main__")]


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
    """What a class adds to a dataclass of the same fields and options: its written methods.

    A written ``__eq__`` leaves ``__hash__ = None`` behind, which nobody wrote.
    """
    fields = [field.name for field in dataclasses.fields(cls)]
    params = cls.__dataclass_params__
    bare = dataclasses.make_dataclass(
        "Bare", fields, eq=params.eq, frozen=params.frozen, slots="__slots__" in vars(cls)
    )
    written = {name for name, value in vars(cls).items() if value is not None}
    return written - set(vars(bare)) - set(vars(_Empty))


@pytest.mark.parametrize(
    "cls, fields, members",
    [
        (Dyadic, ("m", "r"), {"__post_init__", "of", "value", "__neg__", "__str__"}),
        (
            DyadicPoint2,
            ("m", "n", "s"),
            {"__post_init__", "of", "value", "__neg__", "dot", "map_ints", "__str__"},
        ),
        (PatternWindow, ("origin", "labels"), {"__post_init__", "dim", "extent", "__eq__"}),
        (
            SubstitutionSystem,
            ("alphabet", "images"),
            {"__post_init__", "factor", "dim", "kind", "index", "__eq__", "power"}
            | {"count_matrix", "is_primitive"},
        ),
        (period_doubling.Amplitudes, ("a", "b"), set()),
        (chair.Amplitudes, ("values",), set()),
    ],
    ids=[
        "Dyadic",
        "DyadicPoint2",
        "PatternWindow",
        "SubstitutionSystem",
        "period_doubling.Amplitudes",
        "chair.Amplitudes",
    ],
)
def test_dyadic_types_keep_only_the_members_in_use(cls, fields, members):
    # Unary minus is used by the chair's layer amplitudes, __str__ by the
    # verify report and the demos, PatternWindow.__eq__ by the chair's
    # symmetry check; no operator or cell accessor comes back without a caller.
    # A substitution system stores its images only: factor, dim and kind are
    # read off their shape, and an amplitude record does not restate its k.
    assert tuple(field.name for field in dataclasses.fields(cls)) == fields
    assert _written_members(cls) == members
