"""Limit-periodic point sets and their pure-point diffraction.

The package generates one- and two-dimensional patterns from constant-length
substitution rules (the two-letter doubling chain and the four-colour block
colouring ship built in, user rules load from a small text format) and
computes their Bragg spectra two ways: exact closed-form amplitudes on the
dyadic wave-number module, and windowed estimates from the patterns
themselves.  ``verification.run_checks`` cross-validates every route; the
``limitper`` command line exposes generation, diffraction, module
enumeration and the check suite.

Importing the package loads no submodule and no numpy.  Every name is
imported from the submodule that defines it (``from limitper.dyadic import
Dyadic``), so a command loads only the modules it runs;
``from limitper import *`` binds the submodules.
"""

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "chair",
    "cli",
    "dyadic",
    "forked",
    "numerics",
    "period_doubling",
    "render",
    "subst",
    "verification",
]
