"""Estimator tests: windowed sums against direct oracles and closed forms.

``empirical_amplitudes`` reads every wave number from one FFT of residue
counts.  Two oracles pin it: the ungrouped sum evaluated with floating
exponentials (to 1e-10), and the per-point residue sum with exact roots of
unity that the transform replaced (to 1e-12).  The pair-count
autocorrelation is pinned the same way to the complex product over the
window, and the substitution-built combs to the halving and congruence
labels.  Convergence, symmetry, and the layer-sum approximant round out the
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


def _product_autocorrelation(comb: numerics.WeightedComb, weights, z) -> complex:
    """w(x) conj(w(x - z)) summed as complex products over the overlap."""
    weights = _weight_array(comb, weights)
    size = 2 * comb.half + 1
    shifts = (z,) if comb.dim == 1 else tuple(z)
    here, there = [], []
    for shift in reversed(shifts):
        lo, hi = max(0, shift), size + min(0, shift)
        here.append(slice(lo, hi))
        there.append(slice(lo - shift, hi - shift))
    prod = weights[tuple(here)] * np.conj(weights[tuple(there)])
    return complex(prod.sum()) / float(size**comb.dim)


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
    """A comb on a random labelling of [-N, N]^dim and random complex weights for it."""
    half = draw(st.integers(min_value=0, max_value=40 if dim == 1 else 9))
    n_labels = draw(st.integers(min_value=1, max_value=4))
    side = 2 * half + 1
    cells = draw(
        st.lists(st.integers(0, n_labels - 1), min_size=side**dim, max_size=side**dim)
    )
    labels = np.array(cells, dtype=np.uint8).reshape((side,) * dim)
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
        build = numerics.pd_comb if dim == 1 else numerics.chair_comb
        comb = build(half)
        with mock.patch.object(numerics, "_BAND_CELLS", band):
            counts = comb.residue_counts(modulus)
        assert np.array_equal(counts, _single_bincount_counts(comb, modulus))

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

    def test_amplitude_calls_share_the_count_table(self):
        # Every weight set weighs the same rows; a second read counts nothing again.
        comb = numerics.pd_comb(32)
        points = module_interval(3, 0, 1)
        rows = numerics.empirical_amplitudes(comb, points)
        counts, spectrum = comb.residue_counts(8), comb.label_spectrum(3)
        with mock.patch.object(np, "bincount", side_effect=AssertionError("recounted")):
            again = numerics.empirical_amplitudes(comb, points)
        assert comb.residue_counts(8) is counts
        assert comb.label_spectrum(3) is spectrum
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
        assert grid.window.label_at((0, 0)) == 0


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
            with pytest.raises(TypeError, match="must be an integer"):
                numerics.empirical_autocorrelation(comb, z, (1, -1))
        grid = numerics.chair_comb(16)
        fourth = (1, 1j, -1, -1j)
        assert numerics.empirical_autocorrelation(grid, (np.int64(2), np.int32(-3)), fourth) == (
            numerics.empirical_autocorrelation(grid, (2, -3), fourth)
        )

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
    @given(_random_combs(2))
    def test_pair_counts_match_the_complex_products_in_the_plane(self, comb_and_weights):
        comb, weights = comb_and_weights
        reach = comb.half // 2
        for zx in range(-reach, reach + 1):
            for zy in range(-reach, reach + 1):
                got = numerics.empirical_autocorrelation(comb, (zx, zy), weights)
                expected = _product_autocorrelation(comb, weights, (zx, zy))
                assert got == pytest.approx(expected, abs=1e-12)

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
        points = module_interval(level, -1, 1)
        got = render.weigh(numerics.empirical_amplitudes(comb, points), weights)
        for k, value in zip(points, got):
            assert value == pytest.approx(_residue_sum_amplitude(comb, weights, k), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(_random_combs(2), st.integers(min_value=0, max_value=3))
    def test_transform_matches_the_residue_sum_on_the_grid(self, comb_and_weights, level):
        comb, weights = comb_and_weights
        points = module_box(level, (-1, 1))
        got = render.weigh(numerics.empirical_amplitudes(comb, points), weights)
        for k, value in zip(points, got):
            assert value == pytest.approx(_residue_sum_amplitude(comb, weights, k), abs=1e-12)

    def test_single_point_lookup_agrees_with_the_batch(self):
        comb = numerics.chair_comb(24)
        points = module_box(3, (0, 1), include_hi=False)
        batch = numerics.empirical_amplitudes(comb, points)
        assert batch.shape == (4, len(points)) and batch.dtype == complex
        for k, column in zip(points, batch.T):
            assert numerics.empirical_amplitude(comb, k) == pytest.approx(column, abs=1e-15)
        assert numerics.empirical_amplitudes(comb, []).shape == (4, 0)

    def test_module_columns_read_like_point_lists(self):
        comb = numerics.chair_comb(24)
        module = module_points(3, ((-1, 1), (0, 1)), include_hi=False)
        by_columns = numerics.empirical_amplitudes(comb, module)
        by_points = numerics.empirical_amplitudes(comb, module.points())
        assert by_columns.tolist() == by_points.tolist()
        with pytest.raises(TypeError):
            numerics.empirical_amplitudes(comb, Module.of([Dyadic(1, 2)], 1))

    def test_wave_number_type_checks(self):
        comb = numerics.pd_comb(8)
        grid = numerics.chair_comb(4)
        with pytest.raises(TypeError):
            numerics.empirical_amplitude(comb, DyadicPoint2(0, 0, 0))
        with pytest.raises(TypeError):
            numerics.empirical_amplitude(grid, Dyadic(0))
        with pytest.raises(TypeError):
            numerics.empirical_amplitude(comb, 0.5)

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
