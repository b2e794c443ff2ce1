"""Windowed estimators and layer-sum approximants.

Everything here approaches the diffraction amplitudes from the pattern
itself rather than from the closed forms, so the two routes can be compared.
A window comes from substitution (``pd_comb``, ``chair_comb``, or
``subst.centred_window`` for any system and seed); a ``WeightedComb`` holds
its labels only.  The estimators read exact integer counts of the labels,
and weights enter only at the end.  The counts come from block kernels
that make a few array passes over the window, band by band, so their
scratch stays a few bands of ``_BAND_CELLS`` cells whatever the window:

* ``empirical_autocorrelation`` averages w(x) conj(w(x - z)) over a finite
  centred window for the weights it is given, normalised by the full window
  cardinality.  It counts the label pairs (a, b) at distance z once and
  weighs the L^2 counts.  The pairs are popcounts of ANDed rows of bits,
  each label but the last packed along x at all eight bit phases once per
  comb, so a shift is a row offset, a byte offset and a phase.

* ``empirical_amplitudes`` evaluates the normalised per-letter sums
  (2N+1)^{-d} sum_{label(x) = l} e^{-2 pi i k.x} at every point of a
  ``dyadic.Module``.  At k = m / 2^s the exponential only depends on
  x mod 2^s, so the sum is the length-2^s DFT of the residue-class label
  counts.  One count table at the module's finest level 2^s_max
  (``WeightedComb.residue_counts``: per letter, a uint8 mask summed over
  whole periods of the window) and one FFT over its residue axes serve
  every point: k = (m, n) / 2^s is the entry
  (n 2^(s_max - s), m 2^(s_max - s)) mod 2^s_max, one row per label, and
  ``render.weigh`` applies the weights, as to the closed forms' rows.
  ``empirical_amplitude`` is the same lookup for a one-point module.

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

import math
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

# Cells per band of the counting kernels: 256 KiB of labels and as much of masks.
_BAND_CELLS = 1 << 18


class WeightedComb:
    """The labels of a Dirac comb on the centred cube [-N, N]^d, ``letters`` of them.

    Weights are not held here: ``render.weigh`` applies them to the
    per-letter rows, so the label caches (residue counts, their transforms,
    per-label bit rows) serve every weight set.  The class keeps its name for
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
        (y mod modulus, x mod modulus), int64; any modulus >= 1, else
        ``ValueError``.  The window is copied band by band into a buffer
        padded with the last letter, so that the buffer's index 0 has
        residue 0 on every axis and each axis spans whole periods: the x
        axis of a plane window periods of the modulus, the leading axis
        rows of ``period`` cells, a multiple of the modulus long enough
        that a band of ``_BAND_CELLS`` cells has at most 255 rows.  Per band
        and per letter but the last, the letter's uint8 mask is summed over
        the rows in uint8, exact for 255 rows, and the one row left is
        folded onto the residues in int64.  The last letter is never
        masked: its row is what the others leave of each residue class of
        the window, so the padding counts nowhere.  The scratch is about two
        bands and a row, a band being one row where a row is longer.
        """
        modulus = operator.index(modulus)
        if modulus < 1:
            raise ValueError(f"modulus must be a positive integer, got {modulus}")
        key = ("counts", modulus)
        counts = self._label_data.get(key)
        if counts is not None:
            return counts
        dim, half, last = self.dim, self.half, self.letters - 1
        labels = self.window.labels
        size = 2 * half + 1
        # The x axis of a plane window: `skip` cells from residue 0 to the window.
        skip = -half % modulus
        width = -(-(skip + size) // modulus) * modulus
        inner = width ** (dim - 1)
        # The leading axis: rows long enough that _BAND_CELLS cells make at most 255.
        # Long rows summed in uint8 keep numpy's inner loops long; an int64 sum
        # over the block axes of a (-1, modulus) fold runs loops of `modulus`
        # cells: on the 2049^2 chair window at modulus 2 it takes 4.6 times as
        # long as one bincount of int64 keys.
        period = modulus * -(-_BAND_CELLS // (255 * modulus * inner))
        lead = -half % period
        rows = -(-(lead + size) // period)
        step = max(1, _BAND_CELLS // (period * inner))
        counts = np.zeros((last,) + (modulus,) * dim, dtype=np.int64)
        buffer = np.empty((min(step, rows) * period,) + (width,) * (dim - 1), dtype=np.uint8)
        across = (slice(skip, skip + size),) * (dim - 1)
        fold = (period // modulus, modulus) + (width // modulus, modulus) * (dim - 1)
        block_axes = tuple(range(0, 2 * dim, 2))
        for first in range(0, rows, step):
            band = buffer[: (min(first + step, rows) - first) * period]
            lo = first * period - lead  # the window row at band row 0
            band.fill(last)
            band[(slice(max(lo, 0) - lo, min(lo + len(band), size) - lo),) + across] = labels[
                max(lo, 0) : lo + len(band)
            ]
            for letter, table in enumerate(counts):
                mask = np.equal(band, letter).view(np.uint8).reshape(-1, period * inner)
                row = mask.sum(axis=0, dtype=np.uint8).reshape(fold)
                table += row.sum(axis=block_axes, dtype=np.int64)
        # Cells x in [-N, N] with x = r mod modulus, per axis and then per residue.
        residues = np.arange(modulus)
        per_axis = (half - residues) // modulus - (-half - 1 - residues) // modulus
        cells = 1
        for _ in range(dim):
            cells = np.multiply.outer(cells, per_axis)
        counts = np.concatenate((counts, (cells - counts.sum(axis=0))[None]))
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

    def _label_bits(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Every label but the last as bits along x at eight phases, and its cell count, cached.

        ``bits[l, p]`` has the window's shape with the last axis packed into
        bytes, a whole number of 64-bit words with at least 8 spare bits:
        bit i of byte j (little bit order) is set when the cell at
        x index 8 j + i - p carries l.  The cache holds about letters - 1
        bytes per window cell.  The bits are packed in bands of columns, a
        multiple of 8 wide and about ``_BAND_CELLS`` cells, so the scratch is
        one band's mask.
        """
        cached = self._label_data.get("bits")
        if cached is not None:
            return cached
        labels = self.window.labels
        width = -(-(labels.shape[-1] + 8) // 64) * 8
        bits = np.zeros((self.letters - 1, 8) + labels.shape[:-1] + (width,), dtype=np.uint8)
        cols = max(8, _BAND_CELLS // math.prod(labels.shape[:-1]) // 8 * 8)
        for start in range(0, 8 * width, cols):
            lo, hi = start // 8, min(start + cols, 8 * width) // 8
            carry = max(lo, 1)
            for letter, phases in enumerate(bits):
                packed = np.packbits(labels[..., start : start + cols] == letter, axis=-1, bitorder="little")
                phases[0, ..., lo : lo + packed.shape[-1]] = packed
                for offset in range(1, 8):
                    np.left_shift(phases[0, ..., lo:hi], offset, out=phases[offset, ..., lo:hi])
                    phases[offset, ..., carry:hi] |= phases[0, ..., carry - 1 : hi - 1] >> (8 - offset)
        totals = tuple(int(np.bitwise_count(phases[0].view(np.uint64)).sum()) for phases in bits)
        self._label_data["bits"] = bits, totals
        return bits, totals


def pd_comb(half: int) -> WeightedComb:
    """Comb over the chain fixed point on [-N, N], letters a and b."""
    system = period_doubling.doubled_system()
    return WeightedComb(subst.centred_window(system, period_doubling.seed(), half), len(system.alphabet))


def chair_comb(half: int) -> WeightedComb:
    """Comb over the block fixed point on [-N, N]^2, four colours."""
    system = chair.system()
    return WeightedComb(subst.centred_window(system, chair.seed(), half), len(system.alphabet))


def _overlap(size: int, shift: int) -> tuple[slice, slice]:
    """Index ranges of x and of x - shift for the cells where both are in [0, size)."""
    lo, hi = max(0, shift), size + min(0, shift)
    return slice(lo, hi), slice(lo - shift, hi - shift)


def _count_inside(labels: np.ndarray, letter: int, total: int, region: tuple[slice, ...]) -> int:
    """Cells carrying ``letter`` inside the box ``region``, given all ``total`` of them.

    Subtracts the cells outside, slab by slab, so the work is the border
    the box cuts off rather than the box itself.
    """
    inside = total
    kept: tuple[slice, ...] = ()
    for cut, size in zip(region, labels.shape):
        for part in (slice(0, cut.start), slice(cut.stop, size)):
            inside -= int(np.count_nonzero(labels[kept + (part,)] == letter))
        kept += (cut,)
    return inside


def _pair_counts(comb: WeightedComb, shifts: tuple[int, ...]) -> np.ndarray:
    """counts[a, b] = #{x in the overlap : label(x) = a, label(x - z) = b}, int64 (L, L).

    ``shifts`` are the integer components (x[, y]) of z, each |z_i| <= 2N.  The
    pairs of the first L - 1 labels are popcounts of ANDed bit rows from
    ``WeightedComb._label_bits``: z_x = 8 q + p puts bit i of byte j of
    phase 0 against byte j - q of phase p, so the x shift is a byte offset
    and the y shift a row offset.  The last row and column of the table
    follow from how often each label occurs in the two overlaps.  The
    scratch is one bit per window cell, the ANDed rows.
    """
    labels = comb.window.labels
    bits, totals = comb._label_bits()
    last = comb.letters - 1
    # Array axes run (y, x), shifts are given (x, y).
    here, there = zip(*(_overlap(n, c) for n, c in zip(labels.shape, reversed(shifts))))
    q, offset = divmod(shifts[0], 8)
    bytes_here, bytes_there = _overlap(bits.shape[-1], q)
    first = bits[(slice(None), 0) + here[:-1] + (bytes_here,)]
    second = bits[(slice(None), offset) + there[:-1] + (bytes_there,)]
    counts = np.zeros((last + 1, last + 1), dtype=np.int64)
    size = math.prod(first.shape[1:])
    # Whole 64-bit words, the spare tail zero, so popcounts run on words.
    buffer = np.zeros(-(-size // 8) * 8, dtype=np.uint8)
    anded, words = buffer[:size].reshape(first.shape[1:]), buffer.view(np.uint64)
    for a in range(last):
        for b in range(last):
            np.bitwise_and(first[a], second[b], out=anded)
            counts[a, b] = int(np.bitwise_count(words).sum())
    overlap = math.prod(cut.stop - cut.start for cut in here)
    row_sums = [_count_inside(labels, a, totals[a], here) for a in range(last)]
    col_sums = [_count_inside(labels, b, totals[b], there) for b in range(last)]
    row_sums.append(overlap - sum(row_sums))
    for a in range(last):
        counts[a, last] = row_sums[a] - counts[a, :last].sum()
    for b in range(last):
        counts[last, b] = col_sums[b] - counts[:last, b].sum()
    counts[last, last] = row_sums[last] - counts[last, :last].sum()
    return counts


def empirical_autocorrelation(comb: WeightedComb, z, weights) -> complex:
    """Windowed autocorrelation coefficient at the integer shift z.

    Averages w(x) conj(w(x - z)), one weight in ``weights`` per letter
    (else ``ValueError``), over all window cells x whose shifted
    partner also lies in the window, still normalising by the full
    cardinality (2N+1)^d, so missing boundary terms count as zero.  The
    shift must satisfy |z| <= N/2 componentwise to keep the boundary
    deficit small against the estimate itself, and each component must be
    an integer (else ``TypeError``).  The sum is the exact table of label
    pair counts from ``_pair_counts``, bit rows ANDed and popcounted,
    weighed once.
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
        try:
            shifts = tuple(map(operator.index, shifts))
        except TypeError:
            raise TypeError("each two-dimensional shift component must be an integer") from None
    if any(abs(c) > half // 2 for c in shifts):
        raise ValueError(f"shift {z} outside allowed range |z| <= {half // 2}")
    counts = _pair_counts(comb, shifts)
    total = 0j
    for a, w_a in enumerate(weights):
        for b, w_b in enumerate(weights):
            total += w_a * w_b.conjugate() * int(counts[a, b])
    return total / float(comb.cells)


def empirical_amplitudes(comb: WeightedComb, module: Module) -> np.ndarray:
    """Per-letter sums (2N+1)^{-d} sum_{label(x) = l} e^{-2 pi i k.x}, complex (L, N) rows.

    One row entry per point k of ``module``.  As the window grows these
    converge to the per-letter peak amplitudes at module points and to zero
    elsewhere.  Every k is read from the label spectrum at the module's
    finest level, so one count table and one FFT serve every point.
    """
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
    return empirical_amplitudes(comb, Module.of([k], comb.dim))[:, 0]


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
            # Weight 2^level over density 2^(2 level + 3), one exact power of two.
            layer[supported & (r == 0)] = math.ldexp(1.0, -(level + 3))
            deep = np.flatnonzero(supported & (r > level))
            # 2^level theta has denominator 2^(r - level), r - level in {1, 2}:
            # its phase is a quarter turn.  As r <= MAX_LEVEL, level <= 61 here.
            geometric = (1 - phase_arrays(-t[deep], r[deep] - level)) / denominator[deep]
            layer[deep] = geometric * math.ldexp(1.0, -(2 * level + 3))
            # The shift phase e^{-2 pi i 2^(level+1) m / 2^s} is -1 exactly
            # when s = level + 2 and m is odd, and 1 elsewhere on the support.
            layer[(s == level + 2) & odd_m] *= -1
            total += layer
        u = normal_form((shift[0] * m + shift[1] * n,), s)
        out[colour] = phase_arrays(-u.numerators[:, 0], u.exponents) * total
    return out
