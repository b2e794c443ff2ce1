"""Limit-periodic point sets and their pure-point diffraction.

The package generates one- and two-dimensional patterns from constant-length
substitution rules (the two-letter doubling chain and the four-colour block
colouring ship built in, user rules load from a small text format) and
computes their Bragg spectra two ways: exact closed-form amplitudes on the
dyadic wave-number module, and windowed estimates from the patterns
themselves.  ``verification.run_checks`` cross-validates every route; the
``limitper`` command line exposes generation, diffraction, module
enumeration and the check suite.

Importing the package loads no submodule and no numpy.  The submodules and
the names re-exported here load on first use (``limitper.Dyadic`` imports
``limitper.dyadic``), so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("chair", "dyadic", "numerics", "period_doubling", "render", "subst", "verification")

# Re-exported names by the submodule that defines them.
_EXPORTS = {
    "dyadic": ("Dyadic", "DyadicPoint2", "module_box", "module_interval", "phase"),
    "subst": (
        "PatternWindow",
        "RuleError",
        "RuleSemanticError",
        "RuleSyntaxError",
        "SubstitutionSystem",
        "block_seed",
        "bundled_names",
        "bundled_system",
        "check_seed_legal",
        "fixed_point_window",
        "load_rules",
        "natural_frequencies",
        "parse_rules",
        "render_rules",
        "substitute",
        "word_seed",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULES, *_ORIGIN]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
