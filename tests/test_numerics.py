"""Estimator tests: windowed sums against direct oracles and closed forms.

``empirical_amplitudes`` reads every wave number from one FFT of residue
counts.  Two oracles pin it: the ungrouped sum evaluated with floating
exponentials (to 1e-10), and the per-point residue sum with exact roots of
unity that the transform replaced (to 1e-12).  The pair-count
autocorrelation is pinned the same way to the complex product over the
window, and its integer table exactly to the byte-mask loop the packed bit
rows replaced; the residue counts are pinned exactly to one ``bincount``,
and the substitution-built combs to the halving and congruence labels.
Convergence, symmetry, and the layer-sum approximant round out the
estimator contracts; its array form is pinned to the scalar layer sum to
1e-15 across levels, signs, depths and the int64 edges.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from limitper import chair, numerics, period_doubling as pd, render
from limitper.dyadic import (
    MAX_LEVEL,
    Dyadic,
    DyadicPoint2,
    Module,
    module_box,
    module_interval,
    module_points,
    phase,
)
from limitper.subst import PatternWindow


def _weight_array(comb: numerics.WeightedComb, weights) -> np.ndarray:
    """w(x) over the window as a complex array, read cell by cell by the oracles."""
    return np.array(weights, dtype=complex)[comb.window.labels]


def _weighed_amplitude(comb: numerics.WeightedComb, weights, k) -> complex:
    """``empirical_amplitude``'s per-letter column at k, weighed by ``render.weigh``."""
    return complex(render.weigh(numerics.empirical_amplitude(comb, k)[:, None], weights)[0])


def _direct_amplitude(comb: numerics.WeightedComb, weights, k) -> complex:
    """Ungrouped exponential sum, the definition taken literally."""
    half = comb.half
    weights = _weight_array(comb, weights)
    positions = np.arange(-half, half + 1, dtype=np.float64)
    if comb.dim == 1:
        kernel = np.exp(-2j * math.pi * float(k.value) * positions)
        return complex(np.sum(weights * kernel)) / (2 * half + 1)
    kx, ky = (float(v) for v in k.value)
    kernel = np.exp(-2j * math.pi * (ky * positions[:, None] + kx * positions[None, :]))
    return complex(np.sum(weights * kernel)) / float((2 * half + 1) ** 2)


def _exact_phases(numerator: int, den_exp: int) -> np.ndarray:
    """e^{-2 pi i numerator t / 2^den_exp} for t = 0 .. 2^den_exp - 1."""
    return np.array(
        [phase(Dyadic.of(-numerator * t, den_exp)) for t in range(1 << den_exp)],
        dtype=complex,
    )


def _residue_sum_amplitude(comb: numerics.WeightedComb, weights, k) -> complex:
    """The per-point residue sum: exact counts times exact roots of unity, one k at a time."""
    if comb.dim == 1:
        counts = comb.residue_counts(1 << k.r)
        per_label = (counts * _exact_phases(k.m, k.r)[None, :]).sum(axis=1)
    else:
        counts = comb.residue_counts(1 << k.s)
        kernel = np.outer(_exact_phases(k.n, k.s), _exact_phases(k.m, k.s))
        per_label = (counts * kernel[None, :, :]).sum(axis=(1, 2))
    total = sum(w * t for w, t in zip(weights, per_label))
    return complex(total) / float(comb.cells)


def _overlaps(comb: numerics.WeightedComb, shifts) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Array index boxes of x and of x - z over the cells where both lie in the window."""
    size = 2 * comb.half + 1
    here, there = [], []
    for shift in reversed(shifts):
        lo, hi = max(0, shift), size + min(0, shift)
        here.append(slice(lo, hi))
        there.append(slice(lo - shift, hi - shift))
    return tuple(here), tuple(there)


def _product_autocorrelation(comb: numerics.WeightedComb, weights, z) -> complex:
    """w(x) conj(w(x - z)) summed as complex products over the overlap."""
    weights = _weight_array(comb, weights)
    here, there = _overlaps(comb, (z,) if comb.dim == 1 else tuple(z))
    prod = weights[here] * np.conj(weights[there])
    return complex(prod.sum()) / float(comb.cells)


def _mask_pair_counts(comb: numerics.WeightedComb, shifts) -> np.ndarray:
    """The pair-count oracle: one byte mask per label, ANDed over the whole overlap, every pair."""
    here, there = _overlaps(comb, shifts)
    masks = [comb.window.labels == label for label in range(comb.letters)]
    counts = np.zeros((comb.letters, comb.letters), dtype=np.int64)
    for a, first in enumerate(masks):
        for b, second in enumerate(masks):
            counts[a, b] = np.count_nonzero(first[here] & second[there])
    return counts


def _drawn_shifts(data, reach: int) -> list[int]:
    """Shifts in [-reach, reach]: all for reach < 8, else 0, +-reach and a drawn run of 8 and its negatives.

    The run covers every bit phase mod 8 of a shift in either direction.
    """
    if reach < 8:
        return list(range(-reach, reach + 1))
    start = data.draw(st.integers(min_value=-reach, max_value=reach - 7), label="run start")
    run = range(start, start + 8)
    return sorted({0, reach, -reach, *run, *(-z for z in run)})


class _SealedWindow:
    """Stands in for a comb's window once its tables are cached: reading the labels fails."""

    def __init__(self, window):
        self.dim, self.origin, self.extent = window.dim, window.origin, window.extent

    @property
    def labels(self):
        raise AssertionError("the labels were read again: a table was recounted")


def _single_bincount_counts(comb: numerics.WeightedComb, modulus: int) -> np.ndarray:
    """The residue-count table from one ``bincount`` over int64 keys of the whole window."""
    n_labels = comb.letters
    residues = np.arange(-comb.half, comb.half + 1, dtype=np.int64) % modulus
    keys = comb.window.labels.astype(np.int64)
    keys *= modulus
    if comb.dim == 1:
        keys += residues
    else:
        keys += residues[:, None]
        keys *= modulus
        keys += residues[None, :]
    counts = np.bincount(keys.ravel(), minlength=n_labels * modulus**comb.dim)
    return counts.reshape((n_labels,) + (modulus,) * comb.dim)


_weights = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


@st.composite
def _random_combs(draw, dim):
    """A comb on a random labelling of [-N, N]^dim and random complex weights for it.

    N reaches 300 on the line and 70 in the plane, so rows of packed bits
    span several 64-bit words; the letters' shares are drawn too, so some
    letters are rare or absent.
    """
    top = 300 if dim == 1 else 70
    half = draw(st.one_of(st.integers(0, 12), st.integers(0, top)))
    n_labels = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="labels seed"))
    shares = rng.dirichlet(np.ones(n_labels))
    labels = rng.choice(n_labels, size=(2 * half + 1,) * dim, p=shares).astype(np.uint8)
    weights = draw(st.lists(_weights, min_size=n_labels, max_size=n_labels))
    return numerics.WeightedComb(PatternWindow((-half,) * dim, labels), n_labels), weights


# ---------------------------------------------------------------------------
# Comb construction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_combs():
    """The combs of the full checks: the chain on [-2^20, 2^20], the chair on [-1024, 1024]^2."""
    return numerics.pd_comb(1 << 20), numerics.chair_comb(1024)


class TestWeightedComb:
    def test_validation(self):
        with pytest.raises(ValueError, match="cube"):
            numerics.WeightedComb(
                PatternWindow((-1, -1), np.zeros((3, 5), dtype=np.uint8)), 1
            )
        with pytest.raises(ValueError, match="odd"):
            numerics.WeightedComb(PatternWindow((-2,), np.zeros(4, dtype=np.uint8)), 1)
        with pytest.raises(ValueError, match="centred"):
            numerics.WeightedComb(PatternWindow((0,), np.zeros(5, dtype=np.uint8)), 1)
        with pytest.raises(ValueError, match="letters"):
            numerics.WeightedComb(PatternWindow((-1,), np.array([0, 1, 0], dtype=np.uint8)), 1)

    def test_weight_array_lookup(self):
        comb = numerics.WeightedComb(PatternWindow((-1,), np.array([0, 1, 0], dtype=np.uint8)), 2)
        assert comb.letters == 2
        assert _weight_array(comb, (2, -1j)).tolist() == [2 + 0j, -1j, 2 + 0j]

    def test_residue_counts_are_complete(self):
        comb = numerics.pd_comb(64)
        for modulus in (1, 2, 4, 8):
            counts = comb.residue_counts(modulus)
            assert counts.shape == (2, modulus)
            assert counts.sum() == 129
        grid = numerics.chair_comb(8)
        counts = grid.residue_counts(4)
        assert counts.shape == (4, 4, 4)
        assert counts.sum() == 17 * 17

    def test_banded_counts_match_one_bincount_on_the_check_windows(self, big_combs):
        for comb in big_combs:
            for modulus in (1, 2, 8, 64):
                counts = comb.residue_counts(modulus)
                expected = _single_bincount_counts(comb, modulus)
                assert counts.dtype == expected.dtype == np.int64
                assert np.array_equal(counts, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((1, 2)),
        st.integers(min_value=0, max_value=40),
        st.one_of(st.integers(min_value=1, max_value=60), st.just(numerics._BAND_CELLS)),
        st.sampled_from((1, 2, 3, 4, 8, 16)),
    )
    def test_banded_counts_match_one_bincount_across_band_edges(self, dim, half, band, modulus):
        # Windows narrower than one band, and bands cut short by the edge.
        # _BAND_CELLS sets both the band and the row length of the kernel, so
        # small values put band edges at every few rows.
        build = numerics.pd_comb if dim == 1 else numerics.chair_comb
        comb = build(half)
        with mock.patch.object(numerics, "_BAND_CELLS", band):
            counts = comb.residue_counts(modulus)
        assert np.array_equal(counts, _single_bincount_counts(comb, modulus))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((1, 2)).flatmap(_random_combs),
        st.one_of(st.integers(min_value=1, max_value=20), st.sampled_from((32, 64, 100, 257))),
        st.one_of(st.integers(min_value=1, max_value=600), st.just(numerics._BAND_CELLS)),
    )
    def test_counts_match_one_bincount_on_random_windows(self, comb_and_weights, modulus, band):
        # Any modulus, powers of two or not, narrower or wider than the window.
        comb, _ = comb_and_weights
        with mock.patch.object(numerics, "_BAND_CELLS", band):
            counts = comb.residue_counts(modulus)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _single_bincount_counts(comb, modulus))

    def test_the_band_size_bounds_the_count_scratch(self):
        # The kernel reads _BAND_CELLS: a window of 2^17 cells counted in
        # bands of 4096 cells needs a few bands of scratch, not the window.
        window = numerics.pd_comb(1 << 16).window
        peaks = {}
        for band in (1 << 12, 1 << 18):
            comb = numerics.WeightedComb(window, 2)
            with mock.patch.object(numerics, "_BAND_CELLS", band):
                tracemalloc.start()
                try:
                    comb.residue_counts(8)
                    peaks[band] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[1 << 12] < 48 << 10 < 256 << 10 < peaks[1 << 18], peaks

    @pytest.mark.parametrize("modulus", [1, 3, 64])
    def test_row_sums_stay_exact_where_every_cell_counts(self, modulus):
        # One letter everywhere: each column of a band sums to its row count,
        # which a uint8 sum holds only up to 255 rows.
        half = 1 << 18
        labels = np.zeros((2 * half + 1,), dtype=np.uint8)
        comb = numerics.WeightedComb(PatternWindow((-half,), labels), 2)
        counts = comb.residue_counts(modulus)
        assert counts[1].tolist() == [0] * modulus
        assert counts[0].tolist() == _single_bincount_counts(comb, modulus)[0].tolist()

    def test_a_modulus_below_one_is_refused(self):
        comb = numerics.pd_comb(8)
        for modulus in (0, -1, -8):
            with pytest.raises(ValueError, match=f"modulus must be a positive integer, got {modulus}"):
                comb.residue_counts(modulus)

    def test_count_table_scratch_stays_small(self, big_combs):
        # A fresh comb on the same window, so no count table is cached.
        comb = numerics.WeightedComb(big_combs[0].window, 2)
        tracemalloc.start()
        try:
            counts = comb.residue_counts(64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - counts.nbytes < 8 << 20

    def test_block_count_table_stays_within_its_budget(self, big_combs):
        # The parent's peak on the chair window at modulus 16 was 4 MiB.
        comb = numerics.WeightedComb(big_combs[1].window, 4)
        tracemalloc.start()
        try:
            counts = comb.residue_counts(16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - counts.nbytes <= 4 << 20

    def test_the_check_combs_grow_within_their_budgets(self):
        # The parent's peaks: 3.07 MiB for the chain, 6.07 MiB for the chair.
        for build, half, budget in ((numerics.pd_comb, 1 << 20, 3.1), (numerics.chair_comb, 1024, 6.1)):
            tracemalloc.start()
            try:
                build(half)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= budget * (1 << 20), (build.__name__, peak)

    def test_amplitude_calls_share_the_count_table(self):
        # Every weight set weighs the same rows; a second read counts nothing
        # again.  Any count reads the labels, so a sealed window catches a
        # recount whatever the kernel calls.
        comb = numerics.pd_comb(32)
        points = module_points(3, ((0, 1),))
        rows = numerics.empirical_amplitudes(comb, points)
        counts, spectrum = comb.residue_counts(8), comb.label_spectrum(3)
        with mock.patch.object(comb, "window", _SealedWindow(comb.window)):
            again = numerics.empirical_amplitudes(comb, points)
            assert comb.residue_counts(8) is counts
            assert comb.label_spectrum(3) is spectrum
            with pytest.raises(AssertionError, match="recounted"):
                comb.residue_counts(4)
        assert again.tolist() == rows.tolist()

    @pytest.mark.parametrize("half", [0, 1, 4, 63, 64, 1000])
    def test_pd_comb_matches_the_congruence_labels(self, half):
        comb = numerics.pd_comb(half)
        assert comb.window.origin == (-half,)
        assert np.array_equal(comb.window.labels, pd.label_window(-half, half + 1))

    @pytest.mark.parametrize("half", [0, 1, 3, 8, 31, 100])
    def test_chair_comb_matches_the_halving_labels(self, half):
        comb = numerics.chair_comb(half)
        assert comb.window.origin == (-half, -half)
        expected = chair.label_grid(-half, half + 1, -half, half + 1)
        assert np.array_equal(comb.window.labels, expected)

    def test_builders(self):
        comb = numerics.pd_comb(8)
        assert comb.dim == 1 and comb.half == 8 and comb.letters == 2
        grid = numerics.chair_comb(4)
        assert grid.dim == 2 and grid.half == 4 and grid.letters == 4
        # The window starts at (-4, -4), so the cell (0, 0) is entry [4, 4].
        assert grid.window.labels[4, 4] == 0


# ---------------------------------------------------------------------------
# Autocorrelation estimator
# ---------------------------------------------------------------------------


class TestEmpiricalAutocorrelation:
    def test_constant_comb_counts_overlap(self):
        comb = numerics.pd_comb(8)
        assert numerics.empirical_autocorrelation(comb, 0, (1, 1)) == pytest.approx(1.0)
        # 17-cell window, shift 3: 14 overlapping terms over 17.
        assert numerics.empirical_autocorrelation(comb, 3, (1, 1)) == pytest.approx(14 / 17)
        assert numerics.empirical_autocorrelation(comb, -3, (1, 1)) == pytest.approx(14 / 17)

    def test_constant_comb_in_the_plane(self):
        comb = numerics.chair_comb(8)
        got = numerics.empirical_autocorrelation(comb, (1, 0), (1, 1, 1, 1))
        assert got == pytest.approx(16 * 17 / 17**2)

    def test_balanced_chain_values(self):
        comb = numerics.pd_comb(1 << 18)
        assert numerics.empirical_autocorrelation(comb, 3, (1, -1)) == pytest.approx(
            -1 / 3, abs=0.01
        )
        assert numerics.empirical_autocorrelation(comb, 4, (1, -1)) == pytest.approx(
            2 / 3, abs=0.01
        )
        assert numerics.empirical_autocorrelation(comb, 0, (1, -1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_shift_validation(self):
        comb = numerics.pd_comb(16)
        with pytest.raises(ValueError, match="outside"):
            numerics.empirical_autocorrelation(comb, 9, (1, -1))
        with pytest.raises(TypeError):
            numerics.empirical_autocorrelation(comb, (1, 0), (1, -1))
        grid = numerics.chair_comb(8)
        with pytest.raises(ValueError):
            numerics.empirical_autocorrelation(grid, (1, 0, 0), (1, 1, 1, 1))
        with pytest.raises(ValueError, match="outside"):
            numerics.empirical_autocorrelation(grid, (0, 5), (1, 1, 1, 1))

    def test_weight_count_must_match_the_letters(self):
        with pytest.raises(ValueError, match="3 weights for 2 letters"):
            numerics.empirical_autocorrelation(numerics.pd_comb(16), 1, (1, -1, 0))
        with pytest.raises(ValueError, match="2 weights for 4 letters"):
            numerics.empirical_autocorrelation(numerics.chair_comb(8), (1, 0), (1, 1))

    def test_numpy_integer_shifts(self):
        comb = numerics.pd_comb(64)
        for z in (np.int64(3), np.int32(-5), np.uint8(0)):
            assert numerics.empirical_autocorrelation(comb, z, (1, -1)) == (
                numerics.empirical_autocorrelation(comb, int(z), (1, -1))
            )
        for z in (3.0, np.float64(3), "3"):
            with pytest.raises(TypeError, match="one-dimensional shift must be an integer"):
                numerics.empirical_autocorrelation(comb, z, (1, -1))
        grid = numerics.chair_comb(16)
        fourth = (1, 1j, -1, -1j)
        assert numerics.empirical_autocorrelation(grid, (np.int64(2), np.int32(-3)), fourth) == (
            numerics.empirical_autocorrelation(grid, (2, -3), fourth)
        )
        for z in ((1.5, 0), (0, 2.0), (np.float64(1), 1), ("1", 0)):
            with pytest.raises(TypeError, match="two-dimensional shift component must be an integer"):
                numerics.empirical_autocorrelation(grid, z, fourth)

    def test_hermitian_symmetry(self):
        comb, weights = numerics.pd_comb(256), (1 + 0.5j, -0.25 - 1j)
        for z in range(0, 65, 7):
            plus = numerics.empirical_autocorrelation(comb, z, weights)
            minus = numerics.empirical_autocorrelation(comb, -z, weights)
            assert minus == pytest.approx(plus.conjugate(), abs=1e-12)
        grid, fourth = numerics.chair_comb(32), (1, 1j, -1, -1j)
        for z in ((3, 1), (-2, 5), (0, 7)):
            plus = numerics.empirical_autocorrelation(grid, z, fourth)
            minus = numerics.empirical_autocorrelation(grid, (-z[0], -z[1]), fourth)
            assert minus == pytest.approx(plus.conjugate(), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(_random_combs(1))
    def test_pair_counts_match_the_complex_products_on_the_chain(self, comb_and_weights):
        comb, weights = comb_and_weights
        for z in range(-(comb.half // 2), comb.half // 2 + 1):
            got = numerics.empirical_autocorrelation(comb, z, weights)
            expected = _product_autocorrelation(comb, weights, z)
            assert got == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(_random_combs(2), st.data())
    def test_pair_counts_match_the_complex_products_in_the_plane(self, comb_and_weights, data):
        comb, weights = comb_and_weights
        reach = comb.half // 2
        for zx in _drawn_shifts(data, reach):
            for zy in _drawn_shifts(data, reach):
                got = numerics.empirical_autocorrelation(comb, (zx, zy), weights)
                expected = _product_autocorrelation(comb, weights, (zx, zy))
                assert got == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_random_combs(1), st.data())
    def test_pair_count_tables_match_the_mask_loop_on_the_chain(self, comb_and_weights, data):
        # Bit rows packed in bands of drawn width, every phase mod 8, both signs.
        comb, _ = comb_and_weights
        band = data.draw(st.one_of(st.integers(min_value=1, max_value=64), st.just(numerics._BAND_CELLS)))
        with mock.patch.object(numerics, "_BAND_CELLS", band):
            for z in _drawn_shifts(data, comb.half // 2):
                got = numerics._pair_counts(comb, (z,))
                assert got.dtype == np.int64
                assert got.tolist() == _mask_pair_counts(comb, (z,)).tolist(), z

    @settings(max_examples=40, deadline=None)
    @given(_random_combs(2), st.data())
    def test_pair_count_tables_match_the_mask_loop_in_the_plane(self, comb_and_weights, data):
        comb, _ = comb_and_weights
        band = data.draw(st.one_of(st.integers(min_value=1, max_value=600), st.just(numerics._BAND_CELLS)))
        reach = comb.half // 2
        with mock.patch.object(numerics, "_BAND_CELLS", band):
            for zx in _drawn_shifts(data, reach):
                zy = data.draw(st.sampled_from(sorted({0, reach, -reach, zx, -zx})), label="zy")
                got = numerics._pair_counts(comb, (zx, zy))
                assert got.tolist() == _mask_pair_counts(comb, (zx, zy)).tolist(), (zx, zy)

    def test_pair_count_tables_on_the_check_window(self, big_combs):
        comb = numerics.WeightedComb(big_combs[0].window, 2)
        for z in (-64, -57, -8, -1, 0, 1, 7, 8, 9, 63, 64):
            assert numerics._pair_counts(comb, (z,)).tolist() == _mask_pair_counts(comb, (z,)).tolist()

    def test_the_check_shifts_stay_within_their_budget(self, big_combs):
        # The parent's 129 shifts on the chain peaked at 2.0 MiB with its byte
        # masks already cached; the packed bit rows are built inside the budget.
        comb = numerics.WeightedComb(big_combs[0].window, 2)
        tracemalloc.start()
        try:
            for z in range(-64, 65):
                numerics.empirical_autocorrelation(comb, z, (1, -1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (1 << 20)

    def test_zero_shift_dominates(self):
        comb, weights = numerics.pd_comb(1 << 12), (1.5, -0.5 + 2j)
        peak = abs(numerics.empirical_autocorrelation(comb, 0, weights))
        for z in range(1, 33):
            assert abs(numerics.empirical_autocorrelation(comb, z, weights)) <= peak + 1e-12


# ---------------------------------------------------------------------------
# Amplitude estimator
# ---------------------------------------------------------------------------


class TestEmpiricalAmplitude:
    def test_matches_the_direct_sum_on_the_chain(self):
        comb, weights = numerics.pd_comb(64), (1 + 0.5j, -1)
        points = module_interval(3, 0, 1, include_hi=False) + [Dyadic(5, 3), Dyadic(-3, 2)]
        for k in points:
            grouped = _weighed_amplitude(comb, weights, k)
            direct = _direct_amplitude(comb, weights, k)
            assert grouped == pytest.approx(direct, abs=1e-10)

    def test_matches_the_direct_sum_on_the_grid(self):
        comb, weights = numerics.chair_comb(16), (1, 1j, -0.5, 2 - 1j)
        for k in module_box(2, (0, 1), include_hi=False):
            grouped = _weighed_amplitude(comb, weights, k)
            direct = _direct_amplitude(comb, weights, k)
            assert grouped == pytest.approx(direct, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(_random_combs(1), st.integers(min_value=0, max_value=6))
    def test_transform_matches_the_residue_sum_on_the_chain(self, comb_and_weights, level):
        comb, weights = comb_and_weights
        points = module_points(level, ((-1, 1),))
        got = render.weigh(numerics.empirical_amplitudes(comb, points), weights)
        for k, value in zip(points.points(), got):
            assert value == pytest.approx(_residue_sum_amplitude(comb, weights, k), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(_random_combs(2), st.integers(min_value=0, max_value=3))
    def test_transform_matches_the_residue_sum_on_the_grid(self, comb_and_weights, level):
        comb, weights = comb_and_weights
        points = module_points(level, ((-1, 1), (-1, 1)))
        got = render.weigh(numerics.empirical_amplitudes(comb, points), weights)
        for k, value in zip(points.points(), got):
            assert value == pytest.approx(_residue_sum_amplitude(comb, weights, k), abs=1e-12)

    def test_single_point_lookup_agrees_with_the_batch(self):
        comb = numerics.chair_comb(24)
        points = module_points(3, ((0, 1), (0, 1)), include_hi=False)
        batch = numerics.empirical_amplitudes(comb, points)
        assert batch.shape == (4, len(points)) and batch.dtype == complex
        for k, column in zip(points.points(), batch.T):
            assert numerics.empirical_amplitude(comb, k) == pytest.approx(column, abs=1e-15)
        assert numerics.empirical_amplitudes(comb, Module.of([], 2)).shape == (4, 0)

    def test_wave_number_type_checks(self):
        comb = numerics.pd_comb(8)
        grid = numerics.chair_comb(4)
        with pytest.raises(TypeError):
            numerics.empirical_amplitude(comb, DyadicPoint2(0, 0, 0))
        with pytest.raises(TypeError):
            numerics.empirical_amplitude(grid, Dyadic(0))
        with pytest.raises(TypeError):
            numerics.empirical_amplitude(comb, 0.5)
        with pytest.raises(TypeError):
            numerics.empirical_amplitudes(grid, Module.of([Dyadic(1, 2)], 1))

    def test_chain_estimates_approach_the_closed_forms(self):
        comb = numerics.pd_comb(1 << 16)
        assert _weighed_amplitude(comb, (1, 0), Dyadic(0)) == pytest.approx(
            2 / 3, abs=0.005
        )
        assert _weighed_amplitude(comb, (1, -1), Dyadic(1, 1)) == pytest.approx(
            2 / 3, abs=0.01
        )

    def test_grid_estimate_of_the_lattice_comb(self):
        comb, ones = numerics.chair_comb(256), (1, 1, 1, 1)
        assert _weighed_amplitude(comb, ones, DyadicPoint2(1, 1, 1)) == pytest.approx(
            0, abs=0.01
        )
        assert _weighed_amplitude(comb, ones, DyadicPoint2(1, 0, 0)) == pytest.approx(
            1, abs=0.01
        )

    def test_error_does_not_grow_under_window_doubling(self):
        k = Dyadic(1, 2)
        expected = pd.amplitudes(k).a - pd.amplitudes(k).b
        errors = []
        for half in (1 << 12, 1 << 13, 1 << 14, 1 << 15):
            comb = numerics.pd_comb(half)
            errors.append(abs(_weighed_amplitude(comb, (1, -1), k) - expected))
        for before, after in zip(errors, errors[1:]):
            assert after <= 1.1 * before + 1e-12

    def test_determinism_across_rebuilds(self):
        first = numerics.empirical_amplitude(numerics.pd_comb(1 << 12), Dyadic(3, 4))
        second = numerics.empirical_amplitude(numerics.pd_comb(1 << 12), Dyadic(3, 4))
        assert first.tolist() == second.tolist()


# ---------------------------------------------------------------------------
# Layer-sum approximant
# ---------------------------------------------------------------------------


class TestApproximant:
    def test_reference_values_at_twenty_levels(self):
        assert numerics.approximant_amplitude_chair(
            20, 0, DyadicPoint2(0, 0, 0)
        ) == pytest.approx(0.25, abs=1e-6)
        assert numerics.approximant_amplitude_chair(
            20, 2, DyadicPoint2(1, 0, 1)
        ) == pytest.approx(-0.125, abs=1e-6)
        assert numerics.approximant_amplitude_chair(
            20, 1, DyadicPoint2(1, 0, 2)
        ) == pytest.approx((1 - 1j) / 32, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            numerics.approximant_amplitude_chair(-1, 0, DyadicPoint2(0, 0, 0))
        with pytest.raises(ValueError):
            numerics.approximant_amplitude_chair(4, 7, DyadicPoint2(0, 0, 0))

    def test_geometric_truncation_error(self):
        # The discarded tail is bounded by 2^-(levels+2), uniformly in k.
        for k in (DyadicPoint2(0, 0, 0), DyadicPoint2(1, 1, 1), DyadicPoint2(3, 1, 3)):
            closed = chair.amplitudes(k).values
            for levels in (8, 12, 16, 20):
                for colour in range(4):
                    error = abs(
                        numerics.approximant_amplitude_chair(levels, colour, k)
                        - closed[colour]
                    )
                    assert error <= 2.0 ** (-levels - 2)

    def test_deep_truncation_reaches_1e9_on_coarse_points(self):
        for k in module_box(1, (-1, 1)):
            closed = chair.amplitudes(k).values
            for colour in range(4):
                got = numerics.approximant_amplitude_chair(28, colour, k)
                assert got == pytest.approx(closed[colour], abs=1e-9)

    @pytest.mark.parametrize("levels", [511, 1100])
    def test_layer_sums_past_the_float_range(self, levels):
        # Past level 510 the density 2^-(2 level + 3), and past 1023 the weight
        # 2^level, leave the float range; both routes scale each layer by an
        # exact power of two instead.  Every value at these points is a binary
        # fraction, so the sums meet the tail bound with no rounding term,
        # down to the float spacing at 0 where the bound underflows.
        bound = max(math.ldexp(1.0, -(levels + 2)), math.ulp(0.0))
        points = module_points(2, ((0, 1), (0, 1))).points() + [DyadicPoint2(3, 1, 3)]
        rows = numerics.approximant_amplitudes_chair(levels, Module.of(points, 2))
        for k, column in zip(points, rows.T.tolist()):
            closed = chair.amplitudes(k).values
            for colour in range(4):
                assert abs(column[colour] - closed[colour]) <= bound, (k, colour)
                scalar = numerics.approximant_amplitude_chair(levels, colour, k)
                assert abs(scalar - closed[colour]) <= bound, (k, colour)

    @pytest.mark.parametrize("s", [1030, 1080])
    def test_scalar_layer_sum_past_level_1022_stays_finite(self, s):
        # Past level 1022, 1 - e^{-2 pi i theta} at r = level + 1 or level + 2
        # can round to 0 (a nan at s = 1030, a ZeroDivisionError at s = 1080);
        # the layer there is below 2^-(level+2) and adds 0.
        for m, n in ((1, 0), (1, 2), (3, 1), (-1, 4)):
            for colour in range(4):
                value = numerics.approximant_amplitude_chair(1100, colour, DyadicPoint2.of(m, n, s))
                assert abs(value) <= math.ldexp(1.0, 2 - s)

    def test_full_sweep_within_1e6(self):
        worst = 0.0
        for k in module_box(3, (-1, 1)):
            closed = chair.amplitudes(k).values
            for colour in range(4):
                got = numerics.approximant_amplitude_chair(20, colour, k)
                worst = max(worst, abs(got - closed[colour]))
        assert worst <= 1e-6


_TOP, _BOTTOM = (1 << 63) - 1, -(1 << 63)

# Numerators small, anywhere in int64, or at its edges, where m + n and
# m - n wrap.
_numerators = st.one_of(
    st.integers(-70, 70),
    st.integers(_BOTTOM, _TOP),
    st.sampled_from([_BOTTOM, _BOTTOM + 1, _BOTTOM + 2, _TOP - 1, _TOP]),
)


class TestApproximantArrays:
    """``approximant_amplitudes_chair`` against the scalar layer sum, within 1e-15."""

    @staticmethod
    def _assert_close(levels, points):
        got = numerics.approximant_amplitudes_chair(levels, Module.of(points, 2))
        assert got.shape == (4, len(points)) and got.dtype == complex
        for colour in range(4):
            for k, value in zip(points, got[colour].tolist()):
                expected = numerics.approximant_amplitude_chair(levels, colour, k)
                assert abs(value - expected) <= 1e-15, (levels, colour, k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=28),
        st.lists(
            st.tuples(
                _numerators,
                _numerators,
                st.one_of(st.integers(0, 30), st.integers(0, MAX_LEVEL)),
            ),
            max_size=10,
        ),
    )
    @example(20, [(0, 0, 0), (1, 1, 1), (1, 0, 2), (-3, 5, 3), (7, -9, 6), (-1, -1, 22)])
    @example(28, [(_TOP, _TOP, 30), (_BOTTOM + 1, _TOP, 29), (_TOP, _BOTTOM + 1, 30)])
    @example(28, [(_BOTTOM + 1, _BOTTOM + 3, 30), (_TOP, 1, 5), (_BOTTOM + 1, -1, 2)])
    def test_matches_the_scalar_layer_sum(self, levels, triples):
        self._assert_close(levels, [DyadicPoint2.of(m, n, s) for m, n, s in triples])

    def test_whole_module(self):
        self._assert_close(12, module_points(3, ((-1, 1), (-1, 1))).points())

    def test_empty_module_and_validation(self):
        assert numerics.approximant_amplitudes_chair(5, Module.of([], 2)).shape == (4, 0)
        with pytest.raises(ValueError):
            numerics.approximant_amplitudes_chair(-1, Module.of([DyadicPoint2(0, 0)], 2))
        with pytest.raises(TypeError):
            numerics.approximant_amplitudes_chair(4, Module.of([Dyadic(1, 1)], 1))
