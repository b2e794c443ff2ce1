"""Deterministic text renderings: CSV peak lists, SVG figures, PGM grids.

Every function here returns a string built only from its arguments, with
floats formatted by ``repr`` (shortest round-trip form), so identical inputs
give byte-identical files on any platform or thread count, and in whichever
process renders them (``diffract`` may render its CSV and its SVG in two
forked processes at once).  The CSV writes wave numbers as exact integer
numerators plus a log2 denominator, and the figures place peaks by offsets
from the region's lower bound taken off those numerators exactly, so a
narrow region far from 0 keeps its peaks apart.

Every amplitude route (closed forms, layer sums, windowed sums) yields one
complex row per letter, shape (L, N), and two rules here turn rows into
peaks: ``weigh(rows, weights)`` is the weighted amplitude at every point,
and ``PeakTable.of(module, amplitude)`` is the one route from amplitudes to
a table, the intensity of a peak being CPython's ``abs(a) ** 2`` of its
amplitude a.  Peak lists and modules are rendered from columns: a
``PeakTable`` (or, for ``module_csv``, a ``dyadic.Module``), one row per
point, whose ``len()`` is the row count.  Every column, integer or float,
is written as ``repr`` of ``col + 0``, each distinct value formatted once:
adding 0 turns -0.0 into 0.0 and changes nothing else, and ``repr`` of an
int is its ``str``.  Each SVG mark is joined from its literal pieces and
its row's column texts.  Where the figures need ``abs`` of an amplitude or a
square root, they take ``np.hypot`` and ``np.float_power(x, 0.5)``, the
libm ``hypot`` and ``pow`` behind CPython's ``abs`` and ``x ** 0.5``, so
the bytes match the scalar forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from .dyadic import Module
from .subst import PatternWindow

__all__ = [
    "weigh",
    "weigh_pairs",
    "PeakTable",
    "peaks_csv",
    "module_csv",
    "stem_svg",
    "disc_svg",
    "window_text",
    "window_pgm",
]


def weigh(rows, weights) -> np.ndarray:
    """sum(w * a for w, a in zip(weights, column)) at every column of ``rows``.

    Row l of ``rows`` (complex, shape (L, N)) is letter l's amplitude at N
    points, and ``weights`` holds one weight per row.  The products and
    sums are CPython's complex arithmetic written out on the ``.real`` and
    ``.imag`` views, so each point gets the bits the scalar expression
    gives it (numpy's complex multiply may round differently).
    """
    rows = np.asarray(rows, dtype=complex)
    total = np.zeros(rows.shape[1:], dtype=complex)
    for weight, a_re, a_im in zip(weights, rows.real, rows.imag, strict=True):
        w = complex(weight)
        total.real += w.real * a_re - w.imag * a_im
        total.imag += w.real * a_im + w.imag * a_re
    return total


def weigh_pairs(tables, weights) -> np.ndarray:
    """sum(w_a conj(w_b) T[a, b]) per shift of letter-pair tables T (L, L, S): ``weigh`` on each axis."""
    return weigh(weigh(tables, weights), [complex(w).conjugate() for w in weights])


@dataclass(frozen=True, eq=False)
class PeakTable:
    """Bragg peaks as columns: wave numbers, amplitudes and intensities.

    ``amplitude`` (complex128) and ``intensity`` (float64) hold one entry
    per row of ``module``.
    """

    module: Module
    amplitude: np.ndarray
    intensity: np.ndarray

    def __len__(self) -> int:
        return len(self.module)

    @classmethod
    def of(cls, module: Module, amplitude) -> "PeakTable":
        """The peaks of ``module`` with the given amplitudes, one per row, and their intensities."""
        amplitude = np.asarray(amplitude, dtype=complex)
        # CPython's abs(a) ** 2 is libm hypot then libm pow; these two ufuncs
        # call the same functions, so every bit matches (np.abs and
        # np.power need not round the same way).
        intensity = np.float_power(np.hypot(amplitude.real, amplitude.imag), 2.0)
        return cls(module, amplitude, intensity)


def _reprs(column: np.ndarray) -> list[str]:
    """``repr`` of every entry of an int64 or float64 column, -0.0 as 0.0, each distinct value once.

    Adding 0 flushes -0.0 and keeps every other value, so equal entries
    have equal bits; an integer column stays as it is, and ``repr`` of an
    int is its ``str``.  Columns repeat a lot (numerators and exponents
    take few values, the closed forms are lattice-periodic, and figure
    coordinates take one value per grid line), and formatting is the
    costly step.
    """
    distinct, where = np.unique(column + 0, return_inverse=True)
    texts = np.array(list(map(repr, distinct.tolist())), dtype=object)
    return texts[where].tolist()


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _csv(header: str, columns) -> str:
    rows = map(",".join, zip(*columns))
    return "\n".join([header, *rows]) + "\n"


# The coordinate columns of a module's CSV, by dimension.
_COORDINATE_HEADERS = {1: "k_num,k_log2den", 2: "kx_num,ky_num,k_log2den"}


def _coordinate_columns(module: Module) -> tuple[str, list]:
    """The header and the exact numerator and exponent columns of a module."""
    if module.dim not in _COORDINATE_HEADERS:
        raise ValueError(f"unsupported dimension: {module.dim}")
    columns = [_reprs(column) for column in module.numerators.T]
    columns.append(_reprs(module.exponents))
    return _COORDINATE_HEADERS[module.dim], columns


def peaks_csv(table: PeakTable) -> str:
    """Peak table as CSV with exact dyadic coordinates."""
    header, columns = _coordinate_columns(table.module)
    amplitude = table.amplitude
    floats = [_reprs(amplitude.real), _reprs(amplitude.imag), _reprs(table.intensity)]
    return _csv(header + ",amp_re,amp_im,intensity", columns + floats)


def module_csv(module: Module) -> str:
    """Module point list as CSV (coordinates only)."""
    return _csv(*_coordinate_columns(module))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _positions(module: Module, axis: int, lo, hi, length: float) -> np.ndarray:
    """(k - lo) / (hi - lo) * length for every point k of ``module`` along ``axis``.

    The integer part of ``lo``, truncated toward zero, comes off the exact
    numerators in int64 when it and every shifted numerator fit, so a narrow
    region far from 0 keeps its peaks apart.  Scaling by 2^-s is exact.
    """
    lo = Fraction(lo)
    span = float(Fraction(hi) - lo)
    # A width that rounds to 0.0 would put nan coordinates in the figure.
    if not span > 0:
        raise ValueError("empty axis range")
    numerators, exponents = module.numerators[:, axis], module.exponents
    shift = int(lo)
    if shift and len(exponents):
        scaled = [shift << int(exponents.min()), shift << int(exponents.max())]
        ends = [int(numerators.min()) - max(scaled), int(numerators.max()) - min(scaled)]
        if all(-(1 << 63) <= value < 1 << 63 for value in scaled + ends):
            numerators = numerators - (np.int64(shift) << exponents)
        else:
            shift = 0
    offset = np.ldexp(numerators.astype(np.float64), -exponents) - float(lo - shift)
    return offset / span * length


def _svg(height: int, marks) -> str:
    """An SVG 800 wide and ``height`` high: a white background, then ``marks``, one a line."""
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="{height}" '
    head += f'viewBox="0 0 800 {height}">'
    rect = f'<rect width="800" height="{height}" fill="white"/>'
    return "\n".join([head, rect, *marks, "</svg>\n"])


def _marks(template: str, *columns: list[str]):
    """One mark per row: the pieces of ``template`` around its ``{}`` fields and the row's texts.

    Joining them costs less than ``str.format`` per row.
    """
    pieces = template.split("{}")
    parts = [repeat(pieces[0])]
    for column, piece in zip(columns, pieces[1:], strict=True):
        parts += [column, repeat(piece)]
    return map("".join, zip(*parts))


def stem_svg(table: PeakTable, lo, hi) -> str:
    """Stem plot: one vertical line per peak, height proportional to |amplitude|.

    ``lo`` and ``hi`` bound the wave-number axis.  The tallest stem spans the
    full plot height, so the figure is invariant under rescaling all weights.
    """
    # CPython's complex abs is libm hypot; np.abs need not round the same way.
    size = np.hypot(table.amplitude.real, table.amplitude.imag)
    shown = size != 0.0
    x = 40.0 + _positions(table.module.select(shown), 0, lo, hi, 720.0)
    y = 360.0 - size[shown] / size.max(initial=0.0) * 320.0
    stem = '<line x1="{}" y1="360.0" x2="{}" y2="{}" stroke="black" stroke-width="1.5"/>'
    xs = _reprs(x)
    return _svg(400, [
        '<line x1="40.0" y1="360.0" x2="760.0" y2="360.0" stroke="black" stroke-width="1"/>',
        *_marks(stem, xs, xs, _reprs(y)),
    ])


def disc_svg(table: PeakTable, x_bounds, y_bounds=None) -> str:
    """Disc plot: one filled circle per peak with area proportional to intensity.

    Radii scale as sqrt(intensity / max intensity), so areas are exactly
    proportional in the written coordinates; each circle also records its
    intensity in a ``data-intensity`` attribute.
    """
    if y_bounds is None:
        y_bounds = x_bounds
    intensity = table.intensity
    shown = ~(intensity <= 0.0)
    module = table.module.select(shown)
    x = 40.0 + _positions(module, 0, *x_bounds, 720.0)
    y = 760.0 - _positions(module, 1, *y_bounds, 720.0)
    # x ** 0.5 is libm pow, which need not round like np.sqrt.
    radius = 16.0 * np.float_power(intensity[shown] / intensity.max(initial=0.0), 0.5)
    disc = '<circle cx="{}" cy="{}" r="{}" fill="black" data-intensity="{}"/>'
    return _svg(800, _marks(disc, *map(_reprs, (x, y, radius, intensity[shown]))))


# ---------------------------------------------------------------------------
# Pattern windows
# ---------------------------------------------------------------------------

# Cells per band of a chain's text: 64k one-letter strings at a time.
_TEXT_BAND = 1 << 16


def _grid_lines(labels: np.ndarray, table: np.ndarray) -> list[str]:
    """One line per row of a plane window, top row first, its label strings space-separated.

    ``table`` is an object array holding one string per label.
    """
    return [" ".join(table[row].tolist()) for row in labels[::-1]]


def window_text(window: PatternWindow, letters) -> str:
    """Letters of a pattern window.

    One dimension: a single line with ``|`` marking the origin (drawn before
    position 0 when the window straddles it).  Two dimensions: one line per
    row, top row first, letters space-separated.  A chain is joined in bands
    of ``_TEXT_BAND`` cells, so the scratch stays near the size of the text.
    """
    table = np.array(tuple(letters), dtype=object)
    if window.dim != 1:
        return "\n".join(_grid_lines(window.labels, table)) + "\n"
    (lo,) = window.origin
    labels = window.labels
    halves = (labels[:-lo], labels[-lo:]) if lo < 0 < lo + len(labels) else (labels,)
    pieces = []
    for half in halves:
        if pieces:
            pieces.append("|")
        for start in range(0, len(half), _TEXT_BAND):
            pieces.append("".join(table[half[start : start + _TEXT_BAND]].tolist()))
    pieces.append("\n")
    return "".join(pieces)


def window_pgm(window: PatternWindow, n_letters: int) -> str:
    """Two-dimensional window as a plain-text PGM image, one grey per label."""
    if window.dim != 2:
        raise ValueError("PGM export needs a two-dimensional window")
    if n_letters < 1:
        raise ValueError("need at least one letter")
    spread = max(n_letters - 1, 1)
    greys = np.array([str(255 * index // spread) for index in range(n_letters)], dtype=object)
    ny, nx = window.labels.shape
    return "\n".join(["P2", f"{nx} {ny}", "255", *_grid_lines(window.labels, greys)]) + "\n"
