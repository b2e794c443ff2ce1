"""Closed-form diffraction analytics for the two-letter doubling chain.

The chain is the bi-infinite fixed point, under the squared rule, of
a -> ab, b -> aa grown from the seed a|a.  Every quantity here is exact:

* letter membership comes from the residue-class solution of the fixed
  point equations (b sits exactly on the classes 2*4^(i-1) - 1 mod 4^i,
  the n with v_2(n + 1) odd, which ``label_window`` tests bit-wise),
* the two-valued autocorrelation depends on the shift's 2-adic valuation
  alone: its recursion and closed form run in rational arithmetic once per
  valuation, and the arrays over many shifts gather exact int64 ratios,
* each dyadic wave number m / 2^r carries a closed-form amplitude pair,
  one amplitude per letter, and weighted peak intensities follow from
  those by sesquilinear combination; ``amplitude_arrays`` evaluates the
  same closed form over a whole ``dyadic.Module`` with the scalar bits, as
  one complex row per letter, and ``peak_mass`` sums the intensities over
  such a module; ``amplitude_bounds`` bounds each letter's amplitude by
  the level r alone, which falls as 2^-r.

The one aperiodic subtlety: position -1 never matches any residue class.
It is the 2-adic limit point of the hierarchy and is fixed to letter a,
matching the seed the window construction uses.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import render, subst
from .dyadic import Dyadic, Module, _trailing_zeros, module_points, phase, phase_arrays

__all__ = [
    "LETTER_A",
    "LETTER_B",
    "Amplitudes",
    "system",
    "doubled_system",
    "seed",
    "pattern_window",
    "label",
    "label_window",
    "autocorr_balanced",
    "autocorr_balanced_closed_form",
    "autocorr_balanced_arrays",
    "autocorr_balanced_closed_form_arrays",
    "autocorr",
    "amplitudes",
    "amplitude_arrays",
    "amplitude_bounds",
    "intensity",
    "peak_mass",
]

LETTER_A = 0
LETTER_B = 1

# The bits at odd positions 1, 3, ..., 63 of a 64-bit word.
_ODD_BITS = 0xAAAAAAAAAAAAAAAA

# The deepest 2-adic valuation the eta arrays take: 3 * 2^61 is the largest
# denominator 3 * 2^r below 2^63.
_ETA_MAX_VALUATION = 61


@lru_cache(maxsize=None)
def system() -> subst.SubstitutionSystem:
    """The bundled doubling rule a -> ab, b -> aa."""
    return subst.bundled_system("period_doubling")


@lru_cache(maxsize=None)
def doubled_system() -> subst.SubstitutionSystem:
    """The squared rule; the two-sided seed a|a is legal for it but not for the rule itself."""
    return system().power(2)


def seed() -> subst.PatternWindow:
    return subst.word_seed(doubled_system(), "a", "a")


def pattern_window(iterations: int) -> subst.PatternWindow:
    """The fixed-point window on [-4^n, 4^n) grown by the squared rule."""
    return subst.fixed_point_window(doubled_system(), seed(), iterations)


def label(n: int) -> int:
    """LETTER_B where the chain carries b, LETTER_A elsewhere (including n = -1).

    b occupies the arithmetic progressions 2*4^(i-1) - 1 mod 4^i, i >= 1; a
    occupies everything else.  A match needs 4^i <= 2(|n| + 1), so the scan
    is logarithmic in |n|.
    """
    bound = 2 * (abs(n) + 1)
    modulus = 4
    while modulus <= bound:
        if n % modulus == modulus // 2 - 1:
            return LETTER_B
        modulus *= 4
    return LETTER_A


def label_window(lo: int, hi: int) -> np.ndarray:
    """Labels for the positions lo..hi-1 as a uint8 array (vectorised `label`).

    The congruence scan of ``label`` as one window test per cell on its
    2-adic image x = n + 1.  The classes 2*4^(i-1) - 1 mod 4^i are the n
    with v_2(n + 1) = 2i - 1, so a cell carries b exactly when the lowest
    set bit x & -x sits at an odd position, that is, meets the mask
    0xAAAAAAAAAAAAAAAA.  The cell n = -1 gives x = 0, with no set bit, and
    carries a.  Valid for every int64 position: -2^63 <= lo <= hi <= 2^63,
    else ``ValueError``; bounds that are not integers raise ``TypeError``.
    x is taken mod 2^64 on the uint64 view of the positions, whose low bits
    are the same.
    """
    lo, hi = operator.index(lo), operator.index(hi)
    if hi < lo:
        raise ValueError(f"empty range: [{lo}, {hi})")
    if lo < -(1 << 63) or hi > 1 << 63:
        raise ValueError(f"positions [{lo}, {hi}) leave the int64 range")
    x = np.arange(lo, hi, dtype=np.int64).view(np.uint64)
    x += np.uint64(1)
    low_bit = -x
    low_bit &= x
    low_bit &= np.uint64(_ODD_BITS)
    # False and True read as LETTER_A and LETTER_B.
    return (low_bit != 0).view(np.uint8)


def autocorr_balanced(shift: int) -> Fraction:
    """Autocorrelation coefficient of the +-1 letter comb at an integer shift.

    Defined by the recursion eta(0) = 1, eta(odd) = -1/3 and
    eta(2m) = (1 + eta(m)) / 2, evaluated exactly.  eta depends only on the
    2-adic valuation of the shift, so the recursion runs once per valuation.
    """
    return _at_valuation(_eta_recursion, shift)


def autocorr_balanced_closed_form(shift: int) -> Fraction:
    """The same coefficient in closed form: 1 - 4 / (3 * 2^r) for shift = 2^r * odd."""
    return _at_valuation(_eta_closed_form, shift)


def _at_valuation(eta, shift: int) -> Fraction:
    """``eta`` at the 2-adic valuation of a nonzero shift; 1 at shift 0."""
    if shift == 0:
        return Fraction(1)
    return eta((shift & -shift).bit_length() - 1)


@lru_cache(maxsize=None)
def _eta_recursion(halvings: int) -> Fraction:
    value = Fraction(-1, 3)
    for _ in range(halvings):
        value = (1 + value) / 2
    return value


@lru_cache(maxsize=None)
def _eta_closed_form(halvings: int) -> Fraction:
    return 1 - Fraction(4, 3 * (1 << halvings))


def autocorr_balanced_arrays(shifts) -> tuple[np.ndarray, np.ndarray]:
    """``autocorr_balanced`` at every shift, as exact int64 (numerators, denominators).

    Each fraction is in lowest terms with a positive denominator, as its
    ``Fraction.as_integer_ratio()``.  Valid for shift 0 and the shifts of
    2-adic valuation at most 61, else ``ValueError``.  ``shifts`` is any int64
    array-like; the arrays have its shape, one element for a single shift.
    """
    return _ratio_arrays(_eta_recursion, shifts)


def autocorr_balanced_closed_form_arrays(shifts) -> tuple[np.ndarray, np.ndarray]:
    """``autocorr_balanced_closed_form`` at every shift, as ``autocorr_balanced_arrays`` gives it."""
    return _ratio_arrays(_eta_closed_form, shifts)


def _ratio_arrays(eta, shifts) -> tuple[np.ndarray, np.ndarray]:
    """``eta(v).as_integer_ratio()`` at each shift's 2-adic valuation v, (1, 1) at shift 0.

    The table reads ``eta`` at each call, up to the deepest valuation present only.
    """
    shifts = np.array(shifts, dtype=np.int64, ndmin=1)
    valuations = _trailing_zeros(shifts, _ETA_MAX_VALUATION + 1)
    nonzero = shifts != 0
    deep = nonzero & (valuations > _ETA_MAX_VALUATION)
    if deep.any():
        raise ValueError(
            f"shift {shifts[deep][0]} has 2-adic valuation above {_ETA_MAX_VALUATION}, "
            "past the int64 range of the eta arrays"
        )
    deepest = int(valuations.max(initial=-1, where=nonzero))
    # Column v holds eta(v); the column after the deepest holds shift 0's 1.
    ratios = [eta(v).as_integer_ratio() for v in range(deepest + 1)] + [(1, 1)]
    table = np.array(ratios, dtype=np.int64).T
    return tuple(table[:, np.where(nonzero, valuations, deepest + 1)])


def autocorr(shift: int, weights) -> complex:
    """Autocorrelation of the comb weighted by ``weights`` = (alpha, beta) at an integer shift.

    Writing the weight function as p + q * sign (sign = +1 on a, -1 on b),
    the mean of sign is 1/3 and the sign autocorrelation is the balanced
    coefficient, hence |p|^2 + (2/3) Re(p conj(q)) + |q|^2 eta(shift).
    """
    alpha, beta = weights
    p = (alpha + beta) / 2
    q = (alpha - beta) / 2
    base = abs(p) ** 2 + (2.0 / 3.0) * (p * q.conjugate()).real
    return complex(base + abs(q) ** 2 * float(autocorr_balanced(shift)))


@dataclass(frozen=True)
class Amplitudes:
    """Per-letter peak amplitudes at one dyadic wave number."""

    a: complex
    b: complex


def amplitudes(k: Dyadic) -> Amplitudes:
    """Closed-form amplitude pair at k = m / 2^r.

    The a amplitude is 2 / (3 (-2)^r) e^{2 pi i k}; the b amplitude is its
    complement against the full-lattice comb, which only contributes on
    integer wave numbers.
    """
    # ldexp scales exactly, so this is 2 / (3 (-2)^r) to the last bit
    # without forming 2^r as a float, which overflows past r = 1023.
    scale = math.ldexp(2.0 / 3.0, -k.r)
    amp_a = (-scale if k.r % 2 else scale) * phase(k)
    amp_b = (1.0 if k.r == 0 else 0.0) - amp_a
    return Amplitudes(a=amp_a, b=amp_b)


def amplitude_arrays(module: Module) -> np.ndarray:
    """``amplitudes`` at every point of a chain module, bit for bit.

    Returns one complex array of shape (2, N), one row per letter: row 0
    is the a amplitude, row 1 the b amplitude.  The phases come from
    ``dyadic.phase_arrays``, and the scaling and the complement repeat
    CPython's float-complex arithmetic on the ``.real`` and ``.imag`` views.
    A module of another dimension raises ``TypeError``.
    """
    if module.dim != 1:
        raise TypeError("the chain amplitudes live on a one-dimensional module")
    m, r = module.numerators[:, 0], module.exponents
    phases = phase_arrays(m, r)
    scale = np.ldexp(2.0 / 3.0, -r)
    scale = np.where(r % 2 == 1, -scale, scale)
    rows = np.empty((2, len(module)), dtype=complex)
    re, im = rows.real, rows.imag
    # x * complex(c, s) is (x*c - 0.0*s, x*s + 0.0*c) in CPython.
    re[0] = scale * phases.real - 0.0 * phases.imag
    im[0] = scale * phases.imag + 0.0 * phases.real
    re[1] = np.where(r == 0, 1.0, 0.0) - re[0]
    im[1] = 0.0 - im[0]
    return rows


def amplitude_bounds(top: int) -> np.ndarray:
    """Upper bounds on each letter's |amplitude| at the levels r = 0, ..., top.

    Returns a float array of shape (2, top + 1): entry [l, r] bounds
    |``amplitudes``| of letter l over every wave number m / 2^r in normal
    form.  Proof: |e^{2 pi i k}| = 1, so |A_a| = 2 / (3 * 2^r) at every
    level.  At r = 0 the wave number is an integer, so A_a = 2/3 and
    A_b = 1 - 2/3 = 1/3; at r >= 1, A_b = -A_a.  The bounds are these exact
    moduli.  The float amplitudes may exceed them by a few units in the last
    place (1 - fl(2/3) is above 1/3, and a float phase may have modulus
    above 1), so a caller that prunes by them adds a relative slack.  A
    negative ``top`` gives no levels, shape (2, 0).
    """
    bounds = np.ldexp(2.0 / 3.0, -np.arange(top + 1))
    rows = np.stack([bounds, bounds])
    rows[1, :1] = 1.0 / 3.0
    return rows


def intensity(k: Dyadic, weights) -> float:
    """Peak intensity |alpha A + beta B|^2 at a dyadic wave number, weights = (alpha, beta)."""
    alpha, beta = weights
    amp = amplitudes(k)
    return abs(alpha * amp.a + beta * amp.b) ** 2


def peak_mass(r_max: int, weights) -> float:
    """Total intensity of all peaks with denominator exponent <= r_max in [0, 1).

    For the balanced weights this converges to the autocorrelation at shift
    zero, i.e. to 1, as r_max grows; the tail decays geometrically.  The
    intensities are ``intensity``'s, over the ``amplitude_arrays`` of the
    ``module_points`` of [0, 1), weighed and squared by ``render``'s rules.
    """
    module = module_points(r_max, ((0, 1),), include_hi=False)
    amplitude = render.weigh(amplitude_arrays(module), weights)
    return float(render.PeakTable.of(module, amplitude).intensity.sum())
