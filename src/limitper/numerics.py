"""Windowed estimators and layer-sum approximants.

Everything here approaches the diffraction amplitudes from the pattern
itself rather than from the closed forms, so the two routes can be compared.
A window comes from substitution (``pd_comb``, ``chair_comb``, or
``subst.centred_window`` for any system and seed); the estimators then read
exact integer counts of its labels, and weights enter only at the end:

* ``empirical_autocorrelation`` averages w(x) conj(w(x - z)) over a finite
  centred window, normalised by the full window cardinality.  It counts the
  label pairs (a, b) at distance z once and weighs the L^2 counts.

* ``empirical_amplitudes`` evaluates the normalised exponential sum
  (2N+1)^{-d} sum_x w(x) e^{-2 pi i k.x} at every point of a
  ``dyadic.Module`` (or a list of dyadic k).  At
  k = m / 2^s the exponential only depends on x mod 2^s, so the sum is the
  length-2^s DFT of the residue-class label counts.  One count table at the
  list's finest level 2^s_max (a single ``bincount``) and one FFT over its
  residue axes serve every point: k = (m, n) / 2^s is the entry
  (n 2^(s_max - s), m 2^(s_max - s)) mod 2^s_max.  ``empirical_amplitude``
  is the same lookup for a single point.

* ``approximant_amplitude_chair`` rebuilds a colour amplitude of the block
  fixed point by summing exact layer coefficients (``chair.coset_amplitude``)
  up to a cut-off level, with the colour's translation phase applied last.
  The two diagonal rays in each colour class have density zero and drop out
  of amplitudes, so truncating the layer sum is the only approximation.
"""

from __future__ import annotations

import numpy as np

from . import chair, period_doubling, subst
from .dyadic import DyadicPoint2, Module, phase
from .subst import PatternWindow

__all__ = [
    "WeightedComb",
    "pd_comb",
    "chair_comb",
    "empirical_autocorrelation",
    "empirical_amplitude",
    "empirical_amplitudes",
    "approximant_amplitude_chair",
]


class WeightedComb:
    """A weighted Dirac comb restricted to the centred cube [-N, N]^d.

    ``weights[label]`` is the complex scattering weight carried by every
    cell of that label.  What depends on the labels alone (residue counts,
    their transforms, per-label masks) is cached and shared with every comb
    made by ``with_weights``, so many weight sets cost one count table.
    """

    def __init__(self, window: PatternWindow, weights) -> None:
        weights = tuple(complex(w) for w in weights)
        extent = window.extent
        if any(size != extent[0] for size in extent):
            raise ValueError("window must be a cube")
        if extent[0] % 2 != 1:
            raise ValueError("window side must be odd (2N+1)")
        half = extent[0] // 2
        if window.origin != (-half,) * window.dim:
            raise ValueError("window must be centred: [-N, N]^d")
        if int(window.labels.max()) >= len(weights):
            raise ValueError("every window label needs a weight")
        self.window = window
        self.weights = weights
        self.half = half
        self._weight_array: np.ndarray | None = None
        self._label_data: dict = {}

    @property
    def dim(self) -> int:
        return self.window.dim

    @property
    def cells(self) -> int:
        return (2 * self.half + 1) ** self.dim

    def with_weights(self, weights) -> "WeightedComb":
        """The comb on the same window with other weights, sharing its label caches."""
        comb = WeightedComb(self.window, weights)
        comb._label_data = self._label_data
        return comb

    def weight_array(self) -> np.ndarray:
        """w(x) over the window as a complex array, cached."""
        if self._weight_array is None:
            table = np.array(self.weights, dtype=complex)
            self._weight_array = table[self.window.labels]
        return self._weight_array

    def residue_counts(self, modulus: int) -> np.ndarray:
        """Occurrences of each (label, position mod modulus) pair, cached.

        Shape (len(weights), modulus) in one dimension and
        (len(weights), modulus, modulus) in two, the residues ordered
        (y mod modulus, x mod modulus).  One ``bincount`` over the window.
        """
        key = ("counts", modulus)
        counts = self._label_data.get(key)
        if counts is not None:
            return counts
        n_labels = len(self.weights)
        residues = np.arange(-self.half, self.half + 1, dtype=np.int64) % modulus
        keys = self.window.labels.astype(np.int64)
        keys *= modulus
        if self.dim == 1:
            keys += residues
        else:
            keys += residues[:, None]
            keys *= modulus
            keys += residues[None, :]
        counts = np.bincount(keys.ravel(), minlength=n_labels * modulus**self.dim)
        counts = counts.reshape((n_labels,) + (modulus,) * self.dim)
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
            masks = tuple(labels == label for label in range(len(self.weights)))
            self._label_data["masks"] = masks
        return masks


def pd_comb(half: int, weights) -> WeightedComb:
    """Comb over the chain fixed point on [-N, N], weights = (alpha, beta)."""
    window = subst.centred_window(period_doubling.doubled_system(), period_doubling.seed(), half)
    return WeightedComb(window, weights)


def chair_comb(half: int, weights) -> WeightedComb:
    """Comb over the block fixed point on [-N, N]^2, one weight per colour."""
    return WeightedComb(subst.centred_window(chair.system(), chair.seed(), half), weights)


def _overlap(size: int, shift: int) -> tuple[slice, slice]:
    """Index ranges of x and of x - shift for the cells where both are in [0, size)."""
    lo, hi = max(0, shift), size + min(0, shift)
    return slice(lo, hi), slice(lo - shift, hi - shift)


def empirical_autocorrelation(comb: WeightedComb, z) -> complex:
    """Windowed autocorrelation coefficient at the integer shift z.

    Averages w(x) conj(w(x - z)) over all window cells x whose shifted
    partner also lies in the window, still normalising by the full
    cardinality (2N+1)^d, so missing boundary terms count as zero.  The
    shift must satisfy |z| <= N/2 componentwise to keep the boundary
    deficit small against the estimate itself.  The sum is taken as exact
    counts of label pairs (label(x), label(x - z)), weighed once.
    """
    half = comb.half
    if comb.dim == 1:
        if not isinstance(z, int):
            raise TypeError("one-dimensional shift must be an integer")
        shifts = (z,)
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
    total = 0j
    for a, w_a in enumerate(comb.weights):
        for b, w_b in enumerate(comb.weights):
            count = np.count_nonzero(masks[a][here] & masks[b][there])
            total += w_a * w_b.conjugate() * int(count)
    return total / float(comb.cells)


def empirical_amplitudes(comb: WeightedComb, points) -> np.ndarray:
    """Normalised exponential sums (2N+1)^{-d} sum_x w(x) e^{-2 pi i k.x}, one per k.

    ``points`` is a ``dyadic.Module`` or a list of ``Dyadic`` (chains) or
    ``DyadicPoint2`` (planes).  As the window grows these converge to the
    peak amplitudes at module points and to zero elsewhere.  Every k is read
    from the label spectrum at the finest level among the points, so one
    count table and one FFT serve the whole list.
    """
    module = points if isinstance(points, Module) else Module.of(points, comb.dim)
    if module.dim != comb.dim:
        raise TypeError(f"{module.dim}-dimensional wave numbers for a {comb.dim}-dimensional comb")
    level = int(module.exponents.max(initial=0))
    modulus = 1 << level
    keys = (module.numerators << (level - module.exponents)[:, None]) % modulus
    # Residue axes run (y, x).
    index = tuple(keys[:, axis] for axis in reversed(range(comb.dim)))
    spectrum = comb.label_spectrum(level)
    total = np.zeros(len(module), dtype=complex)
    for label, weight in enumerate(comb.weights):
        total += weight * spectrum[(label, *index)]
    return total


def empirical_amplitude(comb: WeightedComb, k) -> complex:
    """``empirical_amplitudes`` at a single wave number, from the table at its own level."""
    return complex(empirical_amplitudes(comb, (k,))[0])


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
