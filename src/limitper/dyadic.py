"""Exact arithmetic on the dyadic hierarchy 2^-r Z and 2^-s Z^2.

Wave numbers of limit-periodic lattice structures are dyadic rationals:
m / 2^r on the line, (m, n) / 2^s in the plane.  This module keeps them as
integer tuples in a unique normal form so that hierarchy membership,
extinction tests and root-of-unity phases stay exact.  Floats appear only at
the final phase evaluation, and quarter-turn phases skip even that.

Module enumeration works on arrays: ``module_points`` returns a ``Module``
of int64 numerators, shape (N, d), and exponents, shape (N,), in ascending
order.  Every point with exponent at most L is j / 2^L for one integer
vector j, so the points come from the integer grid of the box scaled by 2^L
(already in order) reduced to normal form; no sort is needed.  The stated
range: at the finest level L present, every scaled numerator j must fit in
int64 and L must be at most 62, so that 2^L and every residue mod 2^L fit
too, and the box holds at most ``MAX_POINTS`` points; outside it
``module_points`` raises ``ValueError`` before allocating anything.
``Module.of`` and ``phase_arrays`` refuse points past that level or int64
with ``ValueError`` too.
``normal_form`` is the reduction on its own, for the images of a module
under integer maps (negation, the dihedral maps, lattice shifts).
``module_interval`` and ``module_box`` are the scalar list API on top of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

import numpy as np

__all__ = [
    "MAX_LEVEL",
    "MAX_POINTS",
    "MAX_CELLS",
    "MAX_COUNTS",
    "Dyadic",
    "DyadicPoint2",
    "Module",
    "phase",
    "phase_arrays",
    "normal_form",
    "module_points",
    "module_interval",
    "module_box",
]

# The finest denominator exponent the array routes accept: 2^62 and every
# residue modulo it fit in int64.
MAX_LEVEL = 62
# The most points ``module_points`` enumerates: 2^24, over a hundred times the
# largest box the CLI sweeps use, and under 0.5 GB of columns in the plane.
MAX_POINTS = 1 << 24
# The most cells of a pattern window the CLI grows (``generate`` and
# ``diffract --empirical``): 2^24, four times the 2049^2 window of a default
# chair run, 16 MB of uint8 labels.
MAX_CELLS = 1 << 24
# The most entries of the residue-count table of ``diffract --empirical``,
# letters x 2^(s d) at the finest level s present: 2^22, the default windows'
# deepest levels (chain r <= 21, chair s <= 10), about 100 MB with the
# table's complex transform.
MAX_COUNTS = 1 << 22
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

_TWO_PI = 2.0 * math.pi
# e^{2 pi i j / 4} for j = 0 .. 3, exact.
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


def _shared_twos(common: int, exp: int) -> int:
    """How many factors of two cancel from numerators with bitwise or ``common`` over 2^exp."""
    return min((common & -common).bit_length() - 1, exp) if common else exp


@total_ordering
@dataclass(frozen=True, slots=True)
class Dyadic:
    """m / 2^r in normal form: r == 0, or r >= 1 with m odd.

    Construct through :meth:`of` unless the pair is already normalised; the
    constructor rejects non-normal pairs rather than silently fixing them,
    so equality of values and equality of representations coincide.
    """

    m: int
    r: int = 0

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"negative denominator exponent: {self.r}")
        if self.r > 0 and self.m % 2 == 0:
            raise ValueError(f"{self.m}/2^{self.r} is not in normal form")

    @classmethod
    def of(cls, num: int, den_exp: int = 0) -> "Dyadic":
        """Normalise num / 2^den_exp."""
        if den_exp < 0:
            raise ValueError(f"negative denominator exponent: {den_exp}")
        shift = _shared_twos(num, den_exp)
        return cls(num >> shift, den_exp - shift)

    @property
    def value(self) -> Fraction:
        return Fraction(self.m, 1 << self.r)

    def __float__(self) -> float:
        return self.m / (1 << self.r)

    def __bool__(self) -> bool:
        return self.m != 0

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.m, self.r)

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        if isinstance(other, int):
            other = Dyadic(other, 0)
        if not isinstance(other, Dyadic):
            return NotImplemented
        r = max(self.r, other.r)
        num = (self.m << (r - self.r)) + (other.m << (r - other.r))
        return Dyadic.of(num, r)

    __radd__ = __add__

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        if isinstance(other, int):
            other = Dyadic(other, 0)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Dyadic":
        return (-self) + other

    def __mul__(self, factor: int) -> "Dyadic":
        if not isinstance(factor, int):
            return NotImplemented
        return Dyadic.of(self.m * factor, self.r)

    __rmul__ = __mul__

    def __lt__(self, other: "Dyadic") -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.m << other.r < other.m << self.r

    def __str__(self) -> str:
        return str(self.m) if self.r == 0 else f"{self.m}/{1 << self.r}"


@dataclass(frozen=True, slots=True)
class DyadicPoint2:
    """(m, n) / 2^s in normal form: s == 0, or s >= 1 with m, n not both even."""

    m: int
    n: int
    s: int = 0

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"negative denominator exponent: {self.s}")
        if self.s > 0 and self.m % 2 == 0 and self.n % 2 == 0:
            raise ValueError(f"({self.m},{self.n})/2^{self.s} is not in normal form")

    @classmethod
    def of(cls, mx: int, ny: int, den_exp: int = 0) -> "DyadicPoint2":
        """Normalise (mx, ny) / 2^den_exp."""
        if den_exp < 0:
            raise ValueError(f"negative denominator exponent: {den_exp}")
        shift = _shared_twos(mx | ny, den_exp)
        return cls(mx >> shift, ny >> shift, den_exp - shift)

    @property
    def x(self) -> Dyadic:
        return Dyadic.of(self.m, self.s)

    @property
    def y(self) -> Dyadic:
        return Dyadic.of(self.n, self.s)

    @property
    def value(self) -> tuple[Fraction, Fraction]:
        den = 1 << self.s
        return Fraction(self.m, den), Fraction(self.n, den)

    def __neg__(self) -> "DyadicPoint2":
        return DyadicPoint2(-self.m, -self.n, self.s)

    def __add__(self, other: "DyadicPoint2 | tuple[int, int]") -> "DyadicPoint2":
        if isinstance(other, tuple):
            other = DyadicPoint2(other[0], other[1], 0)
        if not isinstance(other, DyadicPoint2):
            return NotImplemented
        s = max(self.s, other.s)
        mx = (self.m << (s - self.s)) + (other.m << (s - other.s))
        ny = (self.n << (s - self.s)) + (other.n << (s - other.s))
        return DyadicPoint2.of(mx, ny, s)

    __radd__ = __add__

    def __sub__(self, other: "DyadicPoint2 | tuple[int, int]") -> "DyadicPoint2":
        if isinstance(other, tuple):
            other = DyadicPoint2(other[0], other[1], 0)
        if not isinstance(other, DyadicPoint2):
            return NotImplemented
        return self + (-other)

    def dot(self, step: tuple[int, int]) -> Dyadic:
        """Exact inner product with an integer vector."""
        return Dyadic.of(self.m * step[0] + self.n * step[1], self.s)

    def map_ints(self, a: int, b: int, c: int, d: int) -> "DyadicPoint2":
        """Apply the integer matrix [[a, b], [c, d]] to the point."""
        return DyadicPoint2.of(a * self.m + b * self.n, c * self.m + d * self.n, self.s)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def phase(t: Dyadic) -> complex:
    """e^{2 pi i t}, the 2^r-th root of unity indexed by m mod 2^r.

    Quarter-turn denominators (r <= 2) return exact unit values, so tests
    against 0, +-1 and +-i introduce no trigonometric rounding at all.
    """
    if t.r <= 2:
        return _QUARTER_TURNS[(t.m << (2 - t.r)) & 3]
    den = 1 << t.r
    angle = _TWO_PI * ((t.m % den) / den)
    return complex(math.cos(angle), math.sin(angle))


def phase_arrays(numerators: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``phase`` at every m / 2^r, as one complex array.

    The values are ``phase``'s own bits, set through ``.real`` and ``.imag``:
    quarter turns come from the same exact table, and deeper angles are
    formed with the same two roundings (m mod 2^r over 2^r, then times 2 pi)
    before the same libm cos and sin, called once per point.  Exponents
    above ``MAX_LEVEL`` raise ``ValueError``.
    """
    numerators = np.asarray(numerators, dtype=np.int64)
    exponents = np.asarray(exponents, dtype=np.int64)
    if exponents.size and exponents.max() > MAX_LEVEL:
        raise ValueError(
            f"phase at denominator 2^{exponents.max()}; the array routes stop at 2^{MAX_LEVEL}"
        )
    quarter = exponents <= 2
    # Shifts wrap modulo 2^64, which keeps the two low bits exact.
    turns = (numerators[quarter] << (2 - exponents[quarter])) & 3
    exact = np.array(_QUARTER_TURNS)
    out = np.empty(numerators.shape, dtype=complex)
    re, im = out.real, out.imag
    re[quarter] = exact.real[turns]
    im[quarter] = exact.imag[turns]
    deep = ~quarter
    r = exponents[deep]
    residues = numerators[deep] & ((np.int64(1) << r) - 1)
    # Scaling by 2^-r is exact, so this is the correctly rounded quotient
    # that int / int gives in ``phase``.
    angles = (_TWO_PI * np.ldexp(residues.astype(np.float64), -r)).tolist()
    re[deep] = list(map(math.cos, angles))
    im[deep] = list(map(math.sin, angles))
    return out


@dataclass(frozen=True, eq=False)
class Module:
    """Module points as columns, in ascending order.

    Row i is ``numerators[i] / 2^exponents[i]`` in normal form:
    ``numerators`` is int64 of shape (N, d), ``exponents`` int64 of shape
    (N,).  ``len()`` is the number of points.
    """

    numerators: np.ndarray
    exponents: np.ndarray

    def __len__(self) -> int:
        return self.exponents.shape[0]

    @property
    def dim(self) -> int:
        return self.numerators.shape[1]

    def select(self, mask: np.ndarray) -> "Module":
        """The rows where ``mask`` is true, in the same order."""
        return Module(self.numerators[mask], self.exponents[mask])

    def points(self) -> list:
        """The rows as ``Dyadic`` (d = 1) or ``DyadicPoint2`` (d = 2) objects."""
        columns = [column.tolist() for column in self.numerators.T]
        kind = Dyadic if self.dim == 1 else DyadicPoint2
        return list(map(kind, *columns, self.exponents.tolist()))

    @classmethod
    def of(cls, points, dim: int) -> "Module":
        """Columns of a list of ``Dyadic`` (dim 1) or ``DyadicPoint2`` (dim 2) points.

        A level above ``MAX_LEVEL`` or a numerator outside int64 raises ``ValueError``.
        """
        points = list(points)
        kind = Dyadic if dim == 1 else DyadicPoint2
        if not all(isinstance(k, kind) for k in points):
            raise TypeError(f"{dim}-dimensional wave numbers are {kind.__name__}")
        if dim == 1:
            rows = [(k.m,) for k in points]
            exponents = [k.r for k in points]
        else:
            rows = [(k.m, k.n) for k in points]
            exponents = [k.s for k in points]
        for k, row, level in zip(points, rows, exponents):
            if level > MAX_LEVEL or not all(_INT64_MIN <= j <= _INT64_MAX for j in row):
                raise ValueError(
                    f"{k!r} is outside the array range: level <= {MAX_LEVEL}, int64 numerators"
                )
        numerators = np.array(rows, dtype=np.int64).reshape(len(points), dim)
        return cls(numerators, np.array(exponents, dtype=np.int64))


def _axis_indices(lo: Fraction, hi: Fraction, den: int, include_hi: bool) -> range:
    first = math.ceil(lo * den)
    last = math.floor(hi * den)
    if not include_hi and Fraction(last, den) == hi:
        last -= 1
    return range(first, last + 1)


def module_points(cutoff: int, bounds, *, include_hi: bool = True) -> Module:
    """Normal-form points with denominator exponent <= cutoff in a box, ascending.

    ``bounds`` holds one (lo, hi) pair per axis, as ints, floats or
    Fractions, compared exactly; ``include_hi=False`` drops every upper
    endpoint.  Points are ordered lexicographically by value (x, then y).
    Raises ``ValueError``, before allocating, when the points leave the
    stated int64 range or number more than ``MAX_POINTS`` (see the module
    docstring).
    """
    if cutoff < 0:
        raise ValueError(f"negative denominator cutoff: {cutoff}")
    pairs = [(Fraction(lo), Fraction(hi)) for lo, hi in bounds]
    for flo, fhi in pairs:
        if flo > fhi:
            raise ValueError(f"empty range: [{flo}, {fhi}]")
    # From level `reach` on, an axis of nonzero width holds two or more
    # indices and a degenerate one its point or none, as at any finer cutoff;
    # so the axes are found at 2^reach, and 2^cutoff is never built.
    reach = min(cutoff, MAX_LEVEL + 2 + sum(f.denominator.bit_length() for pair in pairs for f in pair))
    axes = [_axis_indices(flo, fhi, 1 << reach, include_hi) for flo, fhi in pairs]
    dim = len(axes)
    # Counts from the ends: len() of a range overflows past 2^63 - 1.
    counts = [axis.stop - axis.start for axis in axes]
    if min(counts) <= 0:
        return Module(np.zeros((0, dim), dtype=np.int64), np.zeros(0, dtype=np.int64))
    # Two consecutive indices on any axis include an odd one, a point of
    # level exactly `cutoff`; otherwise the box holds one point, whose level
    # may be coarser.
    level = cutoff
    if max(counts) == 1:
        common = 0
        for axis in axes:
            common |= axis.start
        shift = _shared_twos(common, reach)
        level = reach - shift
        axes = [range(axis.start >> shift, (axis.start >> shift) + 1) for axis in axes]
    if level > MAX_LEVEL:
        raise ValueError(
            f"module points reach denominator 2^{level}; the array routes stop at 2^{MAX_LEVEL}"
        )
    for end in (end for axis in axes for end in (axis.start, axis.stop - 1)):
        if not _INT64_MIN <= end <= _INT64_MAX:
            raise ValueError(
                f"module numerator {end} at denominator 2^{level} is outside the int64 "
                "range [-2^63, 2^63 - 1]"
            )
    total = math.prod(counts)
    if total > MAX_POINTS:
        raise ValueError(
            f"the box holds {total} module points; the array routes stop at {MAX_POINTS}"
        )
    # Axis i of the grid runs along array axis i, so the row-major order
    # (x outer, y inner) is the value order.
    ticks = [
        (np.arange(count, dtype=np.int64) + axis.start).reshape(
            [count if j == i else 1 for j in range(dim)]
        )
        for i, (count, axis) in enumerate(zip(counts, axes))
    ]
    return normal_form(ticks, level)


def normal_form(columns, exponents) -> Module:
    """The points columns[0..d-1] / 2^exponents reduced to normal form.

    ``columns`` holds one int64 array per axis and ``exponents`` an int64
    array or a single level, all broadcast together; a point's level falls
    by the trailing zeros its numerators share.  Returns the points flattened
    in row-major order.  The levels and the residues of the reduced
    numerators mod 2^level depend only on the low bits, so they stay exact
    for columns that wrapped past int64; the reduced numerators themselves
    are exact when the true ones fit.
    """
    zeros = functools.reduce(np.minimum, [_trailing_zeros(c, exponents) for c in columns])
    numerators = np.empty((*zeros.shape, len(columns)), dtype=np.int64)
    for i, column in enumerate(columns):
        np.right_shift(column, zeros, out=numerators[..., i])
    return Module(numerators.reshape(-1, len(columns)), (exponents - zeros).reshape(-1))


def _trailing_zeros(values: np.ndarray, cap) -> np.ndarray:
    """Trailing zero bits of each int64, at most ``cap``; zero counts as ``cap``."""
    # The lowest set bit is a power of two, exact as a float; frexp reads
    # its exponent.
    lowest = (values & -values).astype(np.float64)
    zeros = np.minimum(np.frexp(lowest)[1] - 1, cap)
    return np.where(values == 0, cap, zeros).astype(np.int64)


def module_interval(r_max: int, lo, hi, *, include_hi: bool = True) -> list[Dyadic]:
    """Normal-form points m / 2^r with r <= r_max in [lo, hi], ascending.

    Pass ``include_hi=False`` for the half-open interval [lo, hi).  Bounds
    may be ints, floats or Fractions; they are compared exactly.  The list
    form of ``module_points``.
    """
    return module_points(r_max, ((lo, hi),), include_hi=include_hi).points()


def module_box(
    s_max: int,
    x_bounds: tuple,
    y_bounds: tuple | None = None,
    *,
    include_hi: bool = True,
) -> list[DyadicPoint2]:
    """Normal-form points (m, n) / 2^s with s <= s_max in a rectangle.

    Bounds are (lo, hi) per axis; ``y_bounds`` defaults to ``x_bounds``.
    Points come back sorted lexicographically by (x value, y value).  The
    list form of ``module_points``.
    """
    if y_bounds is None:
        y_bounds = x_bounds
    return module_points(s_max, (x_bounds, y_bounds), include_hi=include_hi).points()
