"""Limit-periodic point sets and their pure-point diffraction.

The package generates one- and two-dimensional patterns from constant-length
substitution rules (the two-letter doubling chain and the four-colour block
colouring ship built in, user rules load from a small text format) and
computes their Bragg spectra two ways: exact closed-form amplitudes on the
dyadic wave-number module, and windowed estimates from the patterns
themselves.  ``verification.run_checks`` cross-validates every route; the
``limitper`` command line exposes generation, diffraction, module
enumeration and the check suite.
"""

from . import chair, dyadic, numerics, period_doubling, render, subst, verification
from .dyadic import Dyadic, DyadicPoint2, module_box, module_interval, phase
from .subst import (
    PatternWindow,
    RuleError,
    RuleSemanticError,
    RuleSyntaxError,
    SubstitutionSystem,
    block_seed,
    bundled_names,
    bundled_system,
    check_seed_legal,
    fixed_point_window,
    load_rules,
    natural_frequencies,
    parse_rules,
    render_rules,
    substitute,
    word_seed,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "chair",
    "dyadic",
    "numerics",
    "period_doubling",
    "render",
    "subst",
    "verification",
    "Dyadic",
    "DyadicPoint2",
    "module_box",
    "module_interval",
    "phase",
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
]
