"""Windowed estimators and layer-sum approximants.

Everything here approaches the diffraction amplitudes from the pattern
itself rather than from the closed forms, so the two routes can be compared.
A window comes from substitution (``pd_comb``, ``chair_comb``, or
``subst.centred_window`` for any system and seed); a ``WeightedComb`` holds
its labels only.  The estimators read exact integer counts of the labels,
and weights enter only at the end:

* ``empirical_autocorrelation`` averages w(x) conj(w(x - z)) over a finite
  centred window for the weights it is given, normalised by the full window
  cardinality.  It counts the label pairs (a, b) at distance z once and
  weighs the L^2 counts.

* ``empirical_amplitudes`` evaluates the normalised per-letter sums
  (2N+1)^{-d} sum_{label(x) = l} e^{-2 pi i k.x} at every point of a
  ``dyadic.Module`` (or a list of dyadic k).  At
  k = m / 2^s the exponential only depends on x mod 2^s, so the sum is the
  length-2^s DFT of the residue-class label counts.  One count table at the
  list's finest level 2^s_max (a single ``bincount``) and one FFT over its
  residue axes serve every point: k = (m, n) / 2^s is the entry
  (n 2^(s_max - s), m 2^(s_max - s)) mod 2^s_max, one row per label, and
  ``render.weigh`` applies the weights, as to the closed forms' rows.
  ``empirical_amplitude`` is the same lookup for a single point.

* ``approximant_amplitude_chair`` rebuilds a colour amplitude of the block
  fixed point by summing exact layer coefficients (``chair.coset_amplitude``)
  up to a cut-off level, with the colour's translation phase applied last.
  The two diagonal rays in each colour class have density zero and drop out
  of amplitudes, so truncating the layer sum is the only approximation.
  ``approximant_amplitudes_chair`` is the same sum for all four colours over
  a whole ``dyadic.Module``, one complex row per colour as the closed
  forms give them: the layer cases become masks, and the one phase that
  is not a quarter turn is evaluated once per point and colour.
  The scalar form stays as the library API and as its test oracle.
"""

from __future__ import annotations

import operator

import numpy as np

from . import chair, period_doubling, subst
from .dyadic import DyadicPoint2, Module, normal_form, phase, phase_arrays
from .subst import PatternWindow

__all__ = [
    "WeightedComb",
    "pd_comb",
    "chair_comb",
    "empirical_autocorrelation",
    "empirical_amplitude",
    "empirical_amplitudes",
    "approximant_amplitude_chair",
    "approximant_amplitudes_chair",
]

# Cells per band of ``WeightedComb.residue_counts``: 2 MB of int64 keys.
_BAND_CELLS = 1 << 18


class WeightedComb:
    """The labels of a Dirac comb on the centred cube [-N, N]^d, ``letters`` of them.

    Weights are not held here: ``render.weigh`` applies them to the
    per-letter rows, so the label caches (residue counts, their transforms,
    per-label masks) serve every weight set.  The class keeps its name for
    the benchmark, whose tracing hooks ``residue_counts``.
    """

    def __init__(self, window: PatternWindow, letters: int) -> None:
        extent = window.extent
        if any(size != extent[0] for size in extent):
            raise ValueError("window must be a cube")
        if extent[0] % 2 != 1:
            raise ValueError("window side must be odd (2N+1)")
        half = extent[0] // 2
        if window.origin != (-half,) * window.dim:
            raise ValueError("window must be centred: [-N, N]^d")
        if int(window.labels.max()) >= letters:
            raise ValueError(f"window labels exceed {letters} letters")
        self.window = window
        self.letters = letters
        self.half = half
        self._label_data: dict = {}

    @property
    def dim(self) -> int:
        return self.window.dim

    @property
    def cells(self) -> int:
        return (2 * self.half + 1) ** self.dim

    def residue_counts(self, modulus: int) -> np.ndarray:
        """Occurrences of each (label, position mod modulus) pair, cached.

        Shape (letters, modulus) in one dimension and
        (letters, modulus, modulus) in two, the residues ordered
        (y mod modulus, x mod modulus).  The int64 keys
        (label, residues) are built one band of the window at a time, at
        least ``_BAND_CELLS`` cells and at least the table's size, and each
        band's ``bincount`` is added into the table, so the scratch stays a
        few bands' worth whatever the window.  A band is a slice of the
        leading array axis (cells in 1D, rows in 2D); the residues along
        that axis are taken per band, those along the others whole.
        """
        key = ("counts", modulus)
        counts = self._label_data.get(key)
        if counts is not None:
            return counts
        entries = self.letters * modulus**self.dim
        labels = self.window.labels
        size = 2 * self.half + 1
        step = max(1, max(_BAND_CELLS, entries) // size ** (self.dim - 1))
        counts = None
        for start in range(0, size, step):
            stop = min(start + step, size)
            keys = labels[start:stop].astype(np.int64)
            for axis in range(self.dim):
                lo, hi = (start, stop) if axis == 0 else (0, size)
                residues = np.arange(lo - self.half, hi - self.half, dtype=np.int64)
                residues %= modulus
                keys *= modulus
                keys += residues.reshape((-1,) + (1,) * (self.dim - 1 - axis))
            band_counts = np.bincount(keys.ravel(), minlength=entries)
            if counts is None:
                counts = band_counts
            else:
                counts += band_counts
        counts = counts.reshape((self.letters,) + (modulus,) * self.dim)
        self._label_data[key] = counts
        return counts

    def label_spectrum(self, level: int) -> np.ndarray:
        """Per-label normalised sums (2N+1)^{-d} sum_{label(x) = l} e^{-2 pi i j.x / 2^level}.

        The DFT of ``residue_counts(2^level)`` over its residue axes, divided
        by the window cardinality, cached.  Entry [l, j] in one dimension and
        [l, jy, jx] in two.
        """
        key = ("spectrum", level)
        spectrum = self._label_data.get(key)
        if spectrum is None:
            counts = self.residue_counts(1 << level)
            axes = tuple(range(1, self.dim + 1))
            spectrum = np.fft.fftn(counts, axes=axes) / float(self.cells)
            self._label_data[key] = spectrum
        return spectrum

    def _label_masks(self) -> tuple[np.ndarray, ...]:
        """One boolean array per label, True where the window carries it, cached."""
        masks = self._label_data.get("masks")
        if masks is None:
            labels = self.window.labels
            masks = tuple(labels == label for label in range(self.letters))
            self._label_data["masks"] = masks
        return masks

    def _label_totals(self) -> tuple[int, ...]:
        """How many window cells carry each label, cached."""
        totals = self._label_data.get("totals")
        if totals is None:
            totals = tuple(int(np.count_nonzero(mask)) for mask in self._label_masks())
            self._label_data["totals"] = totals
        return totals


def pd_comb(half: int) -> WeightedComb:
    """Comb over the chain fixed point on [-N, N], letters a and b."""
    window = subst.centred_window(period_doubling.doubled_system(), period_doubling.seed(), half)
    return WeightedComb(window, 2)


def chair_comb(half: int) -> WeightedComb:
    """Comb over the block fixed point on [-N, N]^2, four colours."""
    return WeightedComb(subst.centred_window(chair.system(), chair.seed(), half), 4)


def _overlap(size: int, shift: int) -> tuple[slice, slice]:
    """Index ranges of x and of x - shift for the cells where both are in [0, size)."""
    lo, hi = max(0, shift), size + min(0, shift)
    return slice(lo, hi), slice(lo - shift, hi - shift)


def _count_inside(mask: np.ndarray, total: int, region: tuple[slice, ...]) -> int:
    """True cells of ``mask`` inside the box ``region``, given all ``total`` of them.

    Subtracts the cells outside, slab by slab, so the work is the border
    the box cuts off rather than the box itself.
    """
    inside = total
    kept: tuple[slice, ...] = ()
    for cut, size in zip(region, mask.shape):
        for part in (slice(0, cut.start), slice(cut.stop, size)):
            inside -= int(np.count_nonzero(mask[kept + (part,)]))
        kept += (cut,)
    return inside


def empirical_autocorrelation(comb: WeightedComb, z, weights) -> complex:
    """Windowed autocorrelation coefficient at the integer shift z.

    Averages w(x) conj(w(x - z)), one weight in ``weights`` per letter
    (else ``ValueError``), over all window cells x whose shifted
    partner also lies in the window, still normalising by the full
    cardinality (2N+1)^d, so missing boundary terms count as zero.  The
    shift must satisfy |z| <= N/2 componentwise to keep the boundary
    deficit small against the estimate itself.  The sum is taken as exact
    counts of label pairs (label(x), label(x - z)), weighed once.  Only the
    pairs of the first L - 1 of L labels are counted cell by cell; the last
    row and column of the count table follow from how often each label
    occurs in the two overlaps.
    """
    weights = tuple(complex(w) for w in weights)
    if len(weights) != comb.letters:
        raise ValueError(f"{len(weights)} weights for {comb.letters} letters")
    half = comb.half
    if comb.dim == 1:
        try:
            shifts = (operator.index(z),)
        except TypeError:
            raise TypeError("one-dimensional shift must be an integer") from None
    else:
        shifts = tuple(z)
        if len(shifts) != 2:
            raise ValueError("two-dimensional shift must be a pair")
    if any(abs(c) > half // 2 for c in shifts):
        raise ValueError(f"shift {z} outside allowed range |z| <= {half // 2}")
    size = 2 * half + 1
    # Array axes run (y, x), shifts are given (x, y).
    here, there = zip(*(_overlap(size, c) for c in reversed(shifts)))
    masks = comb._label_masks()
    totals = comb._label_totals()
    last = comb.letters - 1
    overlap = masks[0][here].size
    # counts[a, b] = #{x in the overlap : label(x) = a, label(x - z) = b}.
    counts = np.zeros((last + 1, last + 1), dtype=np.int64)
    for a in range(last):
        for b in range(last):
            counts[a, b] = np.count_nonzero(masks[a][here] & masks[b][there])
    row_sums = [_count_inside(masks[a], totals[a], here) for a in range(last)]
    col_sums = [_count_inside(masks[b], totals[b], there) for b in range(last)]
    row_sums.append(overlap - sum(row_sums))
    for a in range(last):
        counts[a, last] = row_sums[a] - counts[a, :last].sum()
    for b in range(last):
        counts[last, b] = col_sums[b] - counts[:last, b].sum()
    counts[last, last] = row_sums[last] - counts[last, :last].sum()
    total = 0j
    for a, w_a in enumerate(weights):
        for b, w_b in enumerate(weights):
            total += w_a * w_b.conjugate() * int(counts[a, b])
    return total / float(comb.cells)


def empirical_amplitudes(comb: WeightedComb, points) -> np.ndarray:
    """Per-letter sums (2N+1)^{-d} sum_{label(x) = l} e^{-2 pi i k.x}, complex (L, N) rows.

    ``points`` is a ``dyadic.Module`` or a list of ``Dyadic`` (chains) or
    ``DyadicPoint2`` (planes).  As the window grows these converge to the
    per-letter peak amplitudes at module points and to zero elsewhere.
    Every k is read from the label spectrum at the finest level among the
    points, so one count table and one FFT serve the whole list.
    """
    module = points if isinstance(points, Module) else Module.of(points, comb.dim)
    if module.dim != comb.dim:
        raise TypeError(f"{module.dim}-dimensional wave numbers for a {comb.dim}-dimensional comb")
    level = int(module.exponents.max(initial=0))
    modulus = 1 << level
    keys = (module.numerators << (level - module.exponents)[:, None]) % modulus
    # Residue axes run (y, x).
    index = tuple(keys[:, axis] for axis in reversed(range(comb.dim)))
    return comb.label_spectrum(level)[(slice(None), *index)]


def empirical_amplitude(comb: WeightedComb, k) -> np.ndarray:
    """The (L,) column of ``empirical_amplitudes`` at one wave number, read at its own level."""
    return empirical_amplitudes(comb, (k,))[:, 0]


def approximant_amplitude_chair(levels: int, color: int, k: DyadicPoint2) -> complex:
    """Colour amplitude rebuilt from hierarchy layers 0 .. levels.

    Each colour class is a translate of a stack of layered coset unions
    along its diagonal direction, plus two rays of density zero that do not
    affect amplitudes.  The translation contributes only the phase
    e^{-2 pi i k . shift}; the layers contribute ``chair.coset_amplitude``.
    The discarded tail is geometric (ratio 1/2 in amplitude), so levels=20
    already sits within 1e-6 of the closed form.
    """
    if levels < 0:
        raise ValueError(f"negative layer cut-off: {levels}")
    if color not in (0, 1, 2, 3):
        raise ValueError(f"unknown colour: {color}")
    step = chair.COLOR_STEPS[color]
    shift = chair.COLOR_SHIFTS[color]
    total = 0j
    for level in range(levels + 1):
        total += chair.coset_amplitude(level, step, k)
    return phase(-(k.dot(shift))) * total


def approximant_amplitudes_chair(levels: int, module: Module) -> np.ndarray:
    """``approximant_amplitude_chair`` for every colour at every point of a plane module.

    Returns complex values of shape (4, N), row c for colour c.  The layer
    sum is ``chair.coset_amplitude``'s, level by level, with its case split
    taken as masks over the points: off the support, integer theta = k.step
    (full weight 2^level), cancelled (2^level theta an integer), or deep.
    The one phase that is not a quarter turn, e^{-2 pi i theta}, does not
    depend on the level, so it comes once per point and colour from
    ``dyadic.phase_arrays``; scaled by 2^level, the turn phase and the
    shift phase are quarter turns on every supported level.  Any int64
    numerators are valid: only residues of m, n and m +- n are read, and
    those survive wrapping.
    """
    if levels < 0:
        raise ValueError(f"negative layer cut-off: {levels}")
    if module.dim != 2:
        raise TypeError("the chair amplitudes live on a plane module")
    m, n = module.numerators[:, 0], module.numerators[:, 1]
    s = module.exponents
    odd_sum = ((m + n) & 1) == 1
    odd_m = (m & 1) == 1
    out = np.empty((4, len(module)), dtype=complex)
    for colour, (step, shift) in enumerate(zip(chair.COLOR_STEPS, chair.COLOR_SHIFTS)):
        theta = normal_form((step[0] * m + step[1] * n,), s)
        t, r = theta.numerators[:, 0], theta.exponents
        denominator = 1 - phase_arrays(-t, r)
        total = np.zeros(len(module), dtype=complex)
        for level in range(levels + 1):
            # 2^(level+2) k must land on the even sublattice.
            supported = (s < level + 2) | ((s == level + 2) & ~odd_sum)
            layer = np.zeros(len(module), dtype=complex)
            layer[supported & (r == 0)] = float(1 << level)
            deep = np.flatnonzero(supported & (r > level))
            # 2^level theta has denominator 2^(r - level), r - level in {1, 2}:
            # its phase is a quarter turn.
            layer[deep] = (1 - phase_arrays(-t[deep], r[deep] - level)) / denominator[deep]
            # The shift phase e^{-2 pi i 2^(level+1) m / 2^s} is -1 exactly
            # when s = level + 2 and m is odd, and 1 elsewhere on the support.
            layer[(s == level + 2) & odd_m] *= -1
            total += layer / float(1 << (2 * level + 3))
        u = normal_form((shift[0] * m + shift[1] * n,), s)
        out[colour] = phase_arrays(-u.numerators[:, 0], u.exponents) * total
    return out
