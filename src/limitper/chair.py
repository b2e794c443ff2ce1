"""Closed-form diffraction analytics for the four-colour block fixed point.

The pattern is the fixed point of the bundled 2 x 2 block rule grown from
the seed (3 0 / 2 1) on {-1, 0}^2.  Colours 0 and 2 partition the even
sublattice (coordinate sum even), colours 1 and 3 the odd one.  Three views
of the same object live here:

* ``label`` resolves one cell by halving chains.  Each colour class
  satisfies a decoupled fixed-point equation whose right-hand sides are
  half-scale copies shifted by the coordinate parities, so repeatedly
  subtracting the parity offset and halving either exits on a sublattice
  test or walks down the hierarchy.  The two diagonal rays per sublattice
  are 2-adic limit points where the walk would stall; they are matched
  first and carry the seed colours outward.  ``label_grid`` reads the round
  where that walk exits off the bits of x ^ y, one window test per cell on
  its 2-adic image.

* ``coset_amplitude`` is the exact Fourier coefficient of one hierarchy
  layer: the union of 2^(r+1)-scaled odd-sublattice cosets stepped along a
  diagonal direction.  Summing layers (see
  ``numerics.approximant_amplitude_chair``, and ``approximant_amplitudes_chair``
  for a whole ``dyadic.Module``) reconstructs each colour amplitude from
  scratch.

* ``amplitudes`` evaluates the summed series in closed form, split by the
  denominator exponent s of the wave number.  All roots of unity come from
  exact index arithmetic mod 2^s.  ``amplitude_arrays`` gives the same bits
  over a whole ``dyadic.Module``, one complex row per colour: the s = 0
  and s = 1 cases as masks, and each deeper level from tables of the
  scalar case formulas indexed by residues mod 2^s.  ``amplitude_bounds``
  bounds every colour's amplitude by the level s alone, which falls about
  as 2^-s / pi.

The colour symmetry of the square is the table ``d4_elements``: eight
signed permutation matrices, each paired with the colour permutation that
leaves the fixed point invariant as a coloured pattern.  Every action reads
the matrix: ``transform_wavevector`` applies it to wave numbers,
``apply_d4`` moves the cells of a centred window by it with one transpose
and axis reversals, and ``d4_compose`` looks the matrix product up in the
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import subst
from .dyadic import Dyadic, DyadicPoint2, Module, phase

__all__ = [
    "COLOR_STEPS",
    "COLOR_SHIFTS",
    "Amplitudes",
    "system",
    "seed",
    "pattern_window",
    "label",
    "label_grid",
    "coset_amplitude",
    "amplitudes",
    "amplitude_arrays",
    "amplitude_bounds",
    "intensity",
    "D4Element",
    "d4_elements",
    "d4_compose",
    "apply_d4",
    "transform_wavevector",
]

# Per colour: the diagonal step direction of its hierarchy layers, and the
# lattice translation taking the layered set onto the colour class.
COLOR_STEPS = ((1, 1), (1, -1), (-1, -1), (-1, 1))
COLOR_SHIFTS = ((0, 0), (0, -1), (-1, -1), (-1, 0))


@lru_cache(maxsize=None)
def system() -> subst.SubstitutionSystem:
    """The bundled four-colour block rule."""
    return subst.bundled_system("chair")


def seed() -> subst.PatternWindow:
    return subst.block_seed(system(), (("3", "0"), ("2", "1")))


def pattern_window(iterations: int) -> subst.PatternWindow:
    """The fixed-point window on [-2^n, 2^n)^2."""
    return subst.fixed_point_window(system(), seed(), iterations)


def label(point: tuple[int, int]) -> int:
    """Colour of one cell of the fixed point.

    The diagonal x1 == x2 carries 0 on t >= 0 and 2 on t < 0; the
    antidiagonal x1 + x2 == -1 carries 1 on x1 >= 0 and 3 on x1 < 0.  Off
    the diagonals, subtract the coordinate parities and halve: if the halved
    cell lands on the opposite sublattice the colour is decided by which
    parity offset was removed, otherwise the halved cell has the same
    colour and the walk continues (it strictly shrinks, so it terminates).
    """
    x, y = point
    while True:
        if x == y:
            return 0 if x >= 0 else 2
        if x + y == -1:
            return 1 if x >= 0 else 3
        hx, hy = x >> 1, y >> 1
        if (x + y) % 2 == 0:
            if (hx + hy) % 2 == 1:
                return 0 if x % 2 == 0 else 2
        else:
            if (hx + hy) % 2 == 0:
                return 1 if x % 2 == 0 else 3
        x, y = hx, hy


# Rows per band in ``label_grid``: the working set is a few arrays of one
# band, whatever the grid height.
_BAND_ROWS = 256


def _coordinate_dtype(lo: int, hi: int) -> type:
    """The smallest signed integer dtype holding every integer in [lo, hi]."""
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return dtype
    return np.int64


def label_grid(x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> np.ndarray:
    """Colours on [x_lo, x_hi) x [y_lo, y_hi) as a uint8 array [iy, ix].

    The halving walk of ``label`` as one window test per cell on the bits of
    the cell's 2-adic image, one band of rows at a time.  Let d = x ^ y and
    e = d ^ (d >> 1), with an arithmetic shift.  After j halvings the cell
    is (x >> j, y >> j): its sublattice parity is bit j of d, and that of
    its halved cell is bit j + 1 of d, so bit j of e is set exactly when the
    walk exits at round j.  It lies on a diagonal ray exactly when
    d >> j is 0 (x == y) or -1 (x + y == -1), that is, when e has no bit at
    j or above.  So the walk exits at the lowest set bit lb = e & -e, before
    any ray, with the colour [d & lb != 0] + 2 [x & lb != 0]: the
    sublattice parity, plus 2 for an odd x at the exit.  A cell with e = 0
    is on a ray from the start and has the colour (d & 1) + 2 [x < 0].  The
    sign bit of e is always clear (the shift copies it), so setting it there
    makes lb the sign bit on the rays, where the same rule then reads
    [d < 0] + 2 [x < 0], that colour, since d is 0 or -1.

    The cells work in the smallest signed dtype holding the grid's
    coordinates (int16, int32 or int64).  Valid for every int64 cell:
    -2^63 <= x_lo, y_lo and x_hi, y_hi <= 2^63, else ``ValueError``.
    """
    if x_hi <= x_lo or y_hi <= y_lo:
        raise ValueError("empty grid")
    if min(x_lo, y_lo) < -(1 << 63) or max(x_hi, y_hi) > 1 << 63:
        raise ValueError("grid cells leave the int64 range")
    dtype = _coordinate_dtype(min(x_lo, y_lo), max(x_hi, y_hi) - 1)
    sign_bit = np.iinfo(dtype).min
    out = np.empty((y_hi - y_lo, x_hi - x_lo), dtype=np.uint8)
    xs = np.arange(x_lo, x_hi, dtype=np.int64).astype(dtype)
    for row in range(0, out.shape[0], _BAND_ROWS):
        ys = np.arange(y_lo + row, min(y_lo + row + _BAND_ROWS, y_hi), dtype=np.int64)
        d = xs ^ ys.astype(dtype)[:, None]
        e = d >> 1
        e ^= d
        e |= sign_bit
        lb = -e
        lb &= e
        band = out[row : row + ys.size]
        np.left_shift((xs & lb) != 0, 1, out=band, dtype=np.uint8)
        d &= lb
        band |= d != 0
    return out


def coset_amplitude(level: int, step: tuple[int, int], k: DyadicPoint2) -> complex:
    """Fourier coefficient at k of one hierarchy layer.

    The layer at `level` r is the union of the odd sublattice scaled by
    2^(r+1) and stepped through 0, step, ..., (2^r - 1) step.  Its transform
    is supported on the even sublattice divided by 2^(r+2); there the
    coefficient is a finite geometric sum in e^{-2 pi i k . step} times the
    scaled-coset phase and density 2^(-2r-3).  The geometric sum is resolved
    exactly: full weight 2^r when k . step is an integer, zero when only
    2^level k . step is.  Weight and density are applied as one exact power
    of two (``math.ldexp``), so no float of 2^r is formed, and a layer past
    the float range is 0.
    """
    if level < 0:
        raise ValueError(f"negative layer index: {level}")
    scale = level + 2
    # Support test: 2^(level+2) k must land on the even sublattice.
    if k.s > scale or (k.s == scale and (k.m + k.n) % 2 != 0):
        return 0j
    theta = k.dot(step)
    if theta.r == 0:
        geometric, exponent = 1.0, -(level + 3)
    elif theta.r <= level or level > 1022:
        # Cancelled; or past level 1022, where 1 - e^{-2 pi i theta} can round
        # to 0 and the layer's modulus, at most 2^-(level+2), is subnormal.
        return 0j
    else:
        turns = Dyadic.of(-theta.m << level, theta.r)
        geometric, exponent = (1 - phase(turns)) / (1 - phase(-theta)), -(2 * level + 3)
    amplitude = geometric * phase(Dyadic.of(-k.m << (level + 1), k.s))
    return complex(math.ldexp(amplitude.real, exponent), math.ldexp(amplitude.imag, exponent))


@dataclass(frozen=True)
class Amplitudes:
    """Per-colour peak amplitudes at one dyadic wave number."""

    values: tuple[complex, complex, complex, complex]


def _eps_pow(exponent: int, s: int) -> complex:
    """(e^{-2 pi i / 2^s})^exponent via exact index arithmetic mod 2^s."""
    return phase(Dyadic.of(-exponent, s))


def _axis_sum_amplitude(c: int, s: int) -> complex:
    """The s >= 2 case split shared by the two amplitude pairs.

    `c` is the relevant numerator sum (m + n for colours 0/2, m - n for
    1/3).  Divisibility by 2^s kills the coefficient; otherwise exactly one
    hierarchy layer survives the geometric cancellation and contributes a
    single root-of-unity ratio.
    """
    if c % (1 << s) == 0:
        return 0j
    if c % 2 == 0:
        if (c // 2) % 2 == 0:
            return 0j
        scale = -math.ldexp(4.0, -2 * s)
    else:
        scale = math.ldexp(1.0, -2 * s)
    if scale == 0.0:
        # Underflowed: at such depths 1 - eps can round to 0 as well.
        return 0j
    return scale / (1 - _eps_pow(c, s))


def amplitudes(k: DyadicPoint2) -> Amplitudes:
    """Closed-form amplitudes of the four colour classes at k = (m, n) / 2^s."""
    m, n, s = k.m, k.n, k.s
    if s == 0:
        vals = (0.25 + 0j,) * 4
    elif s == 1:
        if m % 2 == 1 and n % 2 == 1:
            vals = (0.25 + 0j, -0.25 + 0j, 0.25 + 0j, -0.25 + 0j)
        else:
            # m + n odd: the two sublattices contribute with opposite signs.
            sn = 0.125 if n % 2 == 0 else -0.125
            sm = 0.125 if m % 2 == 0 else -0.125
            vals = (0.125 + 0j, sn + 0j, -0.125 + 0j, sm + 0j)
    else:
        a0 = _axis_sum_amplitude(m + n, s)
        a1 = _eps_pow(-n, s) * _axis_sum_amplitude(m - n, s)
        vals = (a0, a1, -a0, -a1)
    return Amplitudes(values=vals)


def _level_tables(fn, level: int, *residues: np.ndarray) -> list[np.ndarray]:
    """fn(j) at every residue j mod 2^level of each array, complex, one scalar call per table entry.

    One table serves every array: it holds all 2^level residues, or only
    the distinct ones when the arrays hold fewer points than that.
    """
    if 1 << level <= sum(part.size for part in residues):
        table = np.array([fn(j) for j in range(1 << level)], dtype=complex)
        return [table[part] for part in residues]
    distinct, where = np.unique(np.concatenate(residues), return_inverse=True)
    gathered = np.array([fn(j) for j in distinct.tolist()], dtype=complex)[where]
    return np.split(gathered, np.cumsum([part.size for part in residues[:-1]]))


def amplitude_arrays(module: Module) -> np.ndarray:
    """``amplitudes`` at every point of a plane module, bit for bit.

    Returns one complex array of shape (4, N), one row per colour.  Every
    s >= 2 value comes from ``_axis_sum_amplitude`` and ``_eps_pow``
    themselves, tabulated per level over the residues that occur (at most
    2^s each): one table of ``_axis_sum_amplitude`` serves both m + n and
    m - n, another of ``_eps_pow`` serves n.  The one product per point is
    taken component-wise, through the ``.real`` and ``.imag`` views, as
    CPython does, so every bit, signed zeros included, is the scalar one.
    A module of another dimension raises ``TypeError``.
    """
    if module.dim != 2:
        raise TypeError("the chair amplitudes live on a plane module")
    m, n = module.numerators[:, 0], module.numerators[:, 1]
    s = module.exponents
    rows = np.zeros((4, len(module)), dtype=complex)
    re, im = rows.real, rows.imag
    # At levels 0 and 1 the amplitudes depend only on the parities of m and n.
    parities = ((m & 1) << 1) | (n & 1)
    for level in (0, 1):
        at = s == level
        table = [amplitudes(DyadicPoint2.of(j >> 1, j & 1, level)).values for j in range(4)]
        rows[:, at] = np.array(table, dtype=complex).T[:, parities[at]]
    for level in (np.flatnonzero(np.bincount(s)[2:]) + 2).tolist():
        at = np.flatnonzero(s == level)
        # Residues mod 2^level, exact although m + n may wrap past int64.
        mask = (1 << level) - 1
        m_at, n_at = m[at], n[at]
        axis_sum = partial(_axis_sum_amplitude, s=level)
        a0, t = _level_tables(axis_sum, level, (m_at + n_at) & mask, (m_at - n_at) & mask)
        (e,) = _level_tables(lambda j: _eps_pow(-j, level), level, n_at & mask)
        rows[0, at], rows[2, at] = a0, -a0
        re[1, at] = e.real * t.real - e.imag * t.imag
        im[1, at] = e.real * t.imag + e.imag * t.real
        rows[3, at] = -rows[1, at]
    return rows


def amplitude_bounds(top: int) -> np.ndarray:
    """Upper bounds on each colour's |amplitude| at the levels s = 0, ..., top.

    Returns a float array of shape (4, top + 1): entry [c, s] bounds
    |``amplitudes``| of colour c over every wave number (m, n) / 2^s in
    normal form.  Proof: at s <= 1 every amplitude is +-1/4 or +-1/8, so
    the bound is 1/4.  At s >= 2 the amplitudes are +-a and +-e a', where
    |e| = 1 and a, a' are ``_axis_sum_amplitude``(c, s) at c = m + n and
    c = m - n.  That is 2^-2s / (1 - e^{-2 pi i c / 2^s}) for odd c,
    -4 * 2^-2s / (1 - ...) for c = 2 mod 4, and 0 otherwise, and
    |1 - e^{i theta}| = 2 |sin(theta / 2)| grows with theta's distance from
    0 mod 2 pi.  So the largest moduli sit at c = +-1 among the odd c and
    at c = +-2 among the c = 2 mod 4, and the bound is the largest of the
    four (checked on the float values for every residue up to s = 12, and
    next to 0 and 2^(s-1) up to ``MAX_LEVEL``).  In exact arithmetic c and
    -c give the same modulus; both signs are taken because the float phases
    are not mirror images: ``phase`` rounds the angle of (2^s - 1) / 2^s
    near a full turn, and from s = 54 on that angle is fl(2 pi), 2.4e-16
    short of one, so c = 1 and c = -1 part by up to a factor 180 at s = 62.
    The bounds are these moduli; the float amplitudes of colours 1 and 3
    may exceed them by a few units in the last place (|e| may be above 1),
    so a caller that prunes by them adds a relative slack.  A negative
    ``top`` gives no levels, shape (4, 0).
    """
    bounds = [0.25, 0.25][: max(top + 1, 0)]
    for level in range(2, top + 1):
        bounds.append(max(abs(_axis_sum_amplitude(c, level)) for c in (1, -1, 2, -2)))
    return np.tile(np.array(bounds), (4, 1))


def intensity(k: DyadicPoint2, weights) -> float:
    """Peak intensity |sum_i alpha_i A_i|^2 at a dyadic wave number, one weight per colour."""
    amp = amplitudes(k)
    return abs(sum(w * a for w, a in zip(weights, amp.values))) ** 2


@dataclass(frozen=True)
class D4Element:
    """One symmetry of the square paired with its colour permutation.

    ``matrix`` ((a, b), (c, d)) is the signed permutation matrix of the map:
    it sends a wave number k to (a k1 + b k2, c k1 + d k2), and the unit cell
    centred at u to the cell centred at ``matrix`` u.  ``color_perm[c]`` is
    the colour that must replace c after moving the cells for the pattern to
    be invariant.
    """

    name: str
    matrix: tuple[tuple[int, int], tuple[int, int]]
    color_perm: tuple[int, int, int, int]


# Rotations by 0, 90, 180 and 270 degrees anticlockwise, then each after the
# mirror in the horizontal axis.  A quarter turn shifts every colour down by
# one (0 -> 3 -> 2 -> 1 -> 0); the mirror swaps 0 with 1 and 2 with 3.
_D4 = (
    D4Element("r0", ((1, 0), (0, 1)), (0, 1, 2, 3)),
    D4Element("r90", ((0, -1), (1, 0)), (3, 0, 1, 2)),
    D4Element("r180", ((-1, 0), (0, -1)), (2, 3, 0, 1)),
    D4Element("r270", ((0, 1), (-1, 0)), (1, 2, 3, 0)),
    D4Element("r0m", ((1, 0), (0, -1)), (1, 0, 3, 2)),
    D4Element("r90m", ((0, 1), (1, 0)), (0, 3, 2, 1)),
    D4Element("r180m", ((-1, 0), (0, 1)), (3, 2, 1, 0)),
    D4Element("r270m", ((0, -1), (-1, 0)), (2, 1, 0, 3)),
)


def d4_elements() -> tuple[D4Element, ...]:
    """The eight symmetries, rotations first, in a stable order."""
    return _D4


def d4_compose(g: D4Element, h: D4Element) -> D4Element:
    """The element acting like h followed by g: its matrix is g's times h's."""
    (a, b), (c, d) = g.matrix
    (e, f), (p, q) = h.matrix
    product = ((a * e + b * p, a * f + b * q), (c * e + d * p, c * f + d * q))
    return next(element for element in _D4 if element.matrix == product)


def apply_d4(g: D4Element, window: subst.PatternWindow) -> subst.PatternWindow:
    """Move a centred square window by g and recolour it by g's permutation.

    The cell centred at u moves to g u: the labels, indexed [iy, ix], are
    transposed when g swaps the axes, then reversed along each axis g negates.
    The colours are read from one integer that packs the permutation two
    bits per colour, with shifts over the moved view: unlike a gather, they
    cost the same on the transposed views as on the others.  The shifts
    work in place on one new array, since every fresh window-sized
    temporary costs its page faults again.
    """
    if window.dim != 2:
        raise ValueError("dihedral symmetries act on plane windows")
    ny, nx = window.labels.shape
    if nx != ny or window.origin != (-(nx // 2), -(ny // 2)) or nx % 2 != 0:
        raise ValueError("window must be a centred square [-h, h)^2")
    if window.labels.min(initial=0) < 0 or window.labels.max(initial=0) > 3:
        raise ValueError("chair labels are the colours 0 to 3")
    (a, b), (c, d) = g.matrix
    labels = window.labels if b == 0 else window.labels.T
    packed = sum(colour << (2 * old) for old, colour in enumerate(g.color_perm))
    colours = labels[:: c + d, :: a + b] << 1
    np.right_shift(packed, colours, out=colours)
    colours &= 3
    return subst.PatternWindow(window.origin, colours)


def transform_wavevector(g: D4Element, k: DyadicPoint2) -> DyadicPoint2:
    """The (linear) action of g on wave numbers: k goes to g's matrix times k."""
    (a, b), (c, d) = g.matrix
    return k.map_ints(a, b, c, d)
