"""Doubling-chain tests: labels, autocorrelation, amplitudes, peak mass.

Every closed form here has an independent route: congruence labels against
the substitution fixed point, the autocorrelation recursion against its
closed form, amplitudes against exact identities and Parseval-style mass.
The windowed-sum cross-checks live in test_numerics and the acceptance run.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from limitper import period_doubling as pd
from limitper.dyadic import MAX_LEVEL, Dyadic, Module, module_interval, module_points

BALANCED = (1, -1)

_shifts = st.integers(min_value=1, max_value=1 << 40)

# Window starts near +-2^62 and near both ends of int64.
_TOP, _BOTTOM = (1 << 63) - 1, -(1 << 63)
_EDGE_STARTS = st.one_of(
    st.integers(min_value=(1 << 62) - 12, max_value=(1 << 62) + 12),
    st.integers(min_value=-(1 << 62) - 12, max_value=-(1 << 62) + 12),
    st.integers(min_value=_TOP - 12, max_value=_TOP),
    st.integers(min_value=_BOTTOM, max_value=_BOTTOM + 12),
)


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


class TestLabels:
    def test_positions_near_the_origin(self):
        # The fixed point reads ...abaa|abaa...: b first appears at 1.
        assert [pd.label(n) for n in range(-4, 4)] == [0, 1, 0, 0, 0, 1, 0, 0]
        assert pd.label(-1) == pd.LETTER_A

    def test_b_occupies_its_residue_classes(self):
        for i in range(1, 8):
            modulus = 4**i
            assert pd.label(2 * 4 ** (i - 1) - 1) == pd.LETTER_B
            assert pd.label(2 * 4 ** (i - 1) - 1 + modulus) == pd.LETTER_B

    @given(st.integers(min_value=-(1 << 30), max_value=1 << 30))
    def test_label_window_matches_label(self, n):
        assert pd.label_window(n, n + 1)[0] == pd.label(n)

    def test_window_agreement_with_the_fixed_point(self):
        iterations = 9
        half = 4**iterations
        window = pd.pattern_window(iterations)
        assert window.origin == (-half,)
        assert np.array_equal(window.labels, pd.label_window(-half, half))

    def test_label_window_rejects_empty_range(self):
        with pytest.raises(ValueError):
            pd.label_window(3, 2)

    @settings(max_examples=80, deadline=None)
    @given(_EDGE_STARTS, st.integers(min_value=0, max_value=9))
    @example(_TOP - 4, 9)
    @example(_BOTTOM, 9)
    @example(-_TOP, 6)
    def test_label_window_matches_label_at_the_int64_edges(self, lo, width):
        hi = min(lo + width, _TOP + 1)
        assert pd.label_window(lo, hi).tolist() == [pd.label(n) for n in range(lo, hi)]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=63),
        st.sampled_from((1, -1)),
        st.integers(min_value=-6, max_value=0),
        st.integers(min_value=1, max_value=12),
    )
    @example(0, 1, -6, 12)
    @example(62, 1, -3, 6)
    @example(62, -1, -3, 6)
    @example(63, -1, 0, 6)
    def test_label_window_matches_label_at_every_valuation(self, k, sign, offset, width):
        # Windows around n + 1 = +-2^k, so the lowest set bit of n + 1 runs
        # through all 64 positions; k = 0 with offset -6 covers n = -1.
        lo = max(sign * (1 << k) - 1 + offset, _BOTTOM)
        hi = min(lo + width, _TOP + 1)
        assert pd.label_window(lo, hi).tolist() == [pd.label(n) for n in range(lo, hi)]

    def test_minus_one_carries_a(self):
        assert pd.label_window(-1, 0).tolist() == [pd.LETTER_A]
        assert pd.label_window(-3, 2).tolist() == [pd.label(n) for n in range(-3, 2)]

    def test_label_window_rejects_positions_past_int64(self):
        with pytest.raises(ValueError, match="int64"):
            pd.label_window(_TOP - 2, _TOP + 2)
        with pytest.raises(ValueError, match="int64"):
            pd.label_window(_BOTTOM - 1, _BOTTOM + 2)

    def test_letter_frequencies(self):
        labels = pd.label_window(-(1 << 16), 1 << 16)
        assert abs(np.mean(labels == pd.LETTER_A) - 2 / 3) <= 0.005


# ---------------------------------------------------------------------------
# Autocorrelation
# ---------------------------------------------------------------------------


class TestBalancedAutocorrelation:
    def test_base_values(self):
        assert pd.autocorr_balanced(0) == 1
        assert pd.autocorr_balanced(1) == Fraction(-1, 3)
        assert pd.autocorr_balanced(2) == Fraction(1, 3)
        assert pd.autocorr_balanced(4) == Fraction(2, 3)
        assert pd.autocorr_balanced(6) == Fraction(1, 3)

    def test_recursion_equals_closed_form_exhaustively(self):
        for m in range(1, (1 << 12) + 1):
            assert pd.autocorr_balanced(m) == pd.autocorr_balanced_closed_form(m)

    @given(_shifts)
    def test_recursion_equals_closed_form(self, m):
        assert pd.autocorr_balanced(m) == pd.autocorr_balanced_closed_form(m)

    @given(_shifts)
    def test_halving_recursion(self, m):
        assert pd.autocorr_balanced(2 * m) == (1 + pd.autocorr_balanced(m)) / 2

    @given(_shifts)
    def test_odd_shifts_and_symmetry(self, m):
        assert pd.autocorr_balanced(2 * m - 1) == Fraction(-1, 3)
        assert pd.autocorr_balanced(-m) == pd.autocorr_balanced(m)

    @given(_shifts)
    def test_range(self, m):
        value = pd.autocorr_balanced(m)
        assert Fraction(-1, 3) <= value < 1

    def test_deep_valuations(self):
        # One recursion per valuation, however the shifts come.
        for halvings in (0, 1, 63, 64, 200, 3000):
            expected = 1 - Fraction(4, 3 * (1 << halvings))
            for odd in (1, -3, 12345):
                assert pd.autocorr_balanced(odd << halvings) == expected
                assert pd.autocorr_balanced_closed_form(odd << halvings) == expected


def _wrap_int64(value: int) -> int:
    """``value`` mod 2^64 as a signed 64-bit integer: the same low bits, so the same valuation."""
    return (value + (1 << 63)) % (1 << 64) - (1 << 63)


# Any int64 shift of valuation 0..61, either sign, and shift 0.
_int64_shifts = st.one_of(
    st.just(0),
    st.builds(
        lambda odd, valuation: _wrap_int64((2 * odd + 1) << valuation),
        st.integers(min_value=-(1 << 62), max_value=(1 << 62) - 1),
        st.integers(min_value=0, max_value=61),
    ),
)


class TestBalancedAutocorrelationArrays:
    """The array routes give the scalar routes' fractions, exactly."""

    @given(st.lists(_int64_shifts, max_size=16))
    @example([0, 1, -1, 2, -6, 4096, 1 << 61, -(1 << 61), 3 << 61, (1 << 63) - 1])
    def test_arrays_equal_the_scalar_routes(self, shifts):
        for arrays, scalar in (
            (pd.autocorr_balanced_arrays, pd.autocorr_balanced),
            (pd.autocorr_balanced_closed_form_arrays, pd.autocorr_balanced_closed_form),
        ):
            numerators, denominators = arrays(np.array(shifts, dtype=np.int64))
            assert numerators.dtype == denominators.dtype == np.int64
            pairs = list(zip(numerators.tolist(), denominators.tolist()))
            assert pairs == [scalar(m).as_integer_ratio() for m in shifts]

    def test_shape_follows_the_shifts(self):
        numerators, denominators = pd.autocorr_balanced_arrays([[1, 2], [4, 0]])
        assert numerators.tolist() == [[-1, 1], [2, 1]]
        assert denominators.tolist() == [[3, 3], [3, 1]]
        numerators, denominators = pd.autocorr_balanced_closed_form_arrays(8)
        assert (numerators.tolist(), denominators.tolist()) == ([5], [6])

    @pytest.mark.parametrize("shift", [1 << 62, -(1 << 62), 3 << 62, -(1 << 63)])
    def test_valuations_past_61_are_refused(self, shift):
        shifts = np.array([1, _wrap_int64(shift)], dtype=np.int64)
        for arrays in (pd.autocorr_balanced_arrays, pd.autocorr_balanced_closed_form_arrays):
            with pytest.raises(ValueError, match="above 61"):
                arrays(shifts)


_reals = st.floats(min_value=-4, max_value=4, allow_nan=False)


class TestWeightedAutocorrelation:
    def test_reference_values(self):
        assert pd.autocorr(0, (1, 0)) == pytest.approx(2 / 3, abs=1e-15)
        assert pd.autocorr(5, (1, 1)) == pytest.approx(1.0, abs=1e-15)
        assert pd.autocorr(3, BALANCED) == pytest.approx(-1 / 3, abs=1e-15)
        assert pd.autocorr(0, BALANCED) == pytest.approx(1.0, abs=1e-15)

    @given(_reals, _reals, st.integers(min_value=-(1 << 20), max_value=1 << 20))
    def test_real_weight_decomposition(self, alpha, beta, z):
        # Splitting w = p + q * sign gives a mean-field term plus the
        # balanced autocorrelation scaled by q^2.
        eta = float(pd.autocorr_balanced(z))
        expected = (
            0.25 * (alpha - beta) ** 2 * eta
            + (3 * (alpha + beta) ** 2 + 2 * (alpha**2 - beta**2)) / 12
        )
        assert pd.autocorr(z, (alpha, beta)) == pytest.approx(
            expected, abs=1e-9
        )

    @given(_reals, _reals)
    def test_zero_shift_is_the_mean_square(self, alpha, beta):
        expected = (2 * abs(alpha) ** 2 + abs(beta) ** 2) / 3
        assert pd.autocorr(0, (alpha, beta)) == pytest.approx(
            expected, abs=1e-9
        )


# ---------------------------------------------------------------------------
# Amplitudes and intensities
# ---------------------------------------------------------------------------


class TestAmplitudes:
    def test_pinned_pairs(self):
        pairs = {
            Dyadic(0): (2 / 3 + 0j, 1 / 3 + 0j),
            Dyadic(1, 1): (1 / 3 + 0j, -1 / 3 + 0j),
            Dyadic(1, 2): (1j / 6, -1j / 6),
            Dyadic(3, 2): (-1j / 6, 1j / 6),
        }
        for k, (amp_a, amp_b) in pairs.items():
            got = pd.amplitudes(k)
            assert got.a == pytest.approx(amp_a, abs=1e-15)
            assert got.b == pytest.approx(amp_b, abs=1e-15)

    def test_pair_sums_to_the_lattice_comb(self):
        # alpha = beta = 1 collapses the chain to the integer lattice, so
        # A + B is 1 on integers and 0 everywhere else, exactly.
        for k in module_interval(8, 0, 1):
            total = pd.amplitudes(k).a + pd.amplitudes(k).b
            assert total == (1 + 0j if k.r == 0 else 0j)

    def test_magnitude_is_lattice_periodic_exactly(self):
        for k in module_interval(8, 0, 1, include_hi=False):
            shifted = Dyadic(k.m + (1 << k.r), k.r)
            assert abs(pd.amplitudes(k).a) == abs(pd.amplitudes(shifted).a)
            assert abs(pd.amplitudes(k).b) == abs(pd.amplitudes(shifted).b)

    def test_deep_levels_do_not_overflow(self):
        # (-2)^r passes the float range at r = 1024; ldexp scales exactly
        # and underflows to zero instead.
        for r in (1100, 5000):
            got = pd.amplitudes(Dyadic(1, r))
            assert got.a == 0 and got.b == 0
        near = pd.amplitudes(Dyadic(1, 1000)).a
        assert abs(near) == pytest.approx(2 / 3 * 2.0**-1000, rel=1e-12)

    def test_magnitude_depends_only_on_the_level(self):
        for r in range(1, 7):
            for m in range(1, 1 << r, 2):
                size = abs(pd.amplitudes(Dyadic(m, r)).a)
                assert size == pytest.approx(2 / (3 * 2**r), abs=1e-15)

    def test_balanced_intensities(self):
        assert pd.intensity(Dyadic(0), BALANCED) == pytest.approx(1 / 9, abs=1e-12)
        assert pd.intensity(Dyadic(1, 1), BALANCED) == pytest.approx(4 / 9, abs=1e-12)
        assert pd.intensity(Dyadic(1, 2), BALANCED) == pytest.approx(1 / 9, abs=1e-12)

    def test_lattice_weights_extinguish_refinements(self):
        ones = (1, 1)
        assert pd.intensity(Dyadic(0), ones) == pytest.approx(1.0, abs=1e-15)
        assert pd.intensity(Dyadic(1, 1), ones) == 0.0
        assert pd.intensity(Dyadic(3, 3), ones) == 0.0


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# Numerators over the whole int64 range, with both edges drawn often.
_int64 = st.one_of(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([-(1 << 63), -(1 << 63) + 1, (1 << 63) - 2, (1 << 63) - 1]),
)


class TestAmplitudeArrays:
    """``amplitude_arrays`` against the scalar ``amplitudes``, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(_int64, st.one_of(st.integers(0, 3), st.integers(0, MAX_LEVEL))),
            max_size=40,
        )
    )
    @example([(0, 0), (-3, 0), (-1, 1), (1, 1), (-1, 2), (3, 2), (-5, 3), (7, 3)])
    def test_bits_match_the_scalar_closed_form(self, pairs):
        points = [Dyadic.of(m, r) for m, r in pairs]
        rows = pd.amplitude_arrays(Module.of(points, 1))
        assert rows.shape == (2, len(points)) and rows.dtype == complex
        re, im = rows.real, rows.imag
        scalar = [pd.amplitudes(k) for k in points]
        assert _bits(re[0]) == _bits([a.a.real for a in scalar])
        assert _bits(im[0]) == _bits([a.a.imag for a in scalar])
        assert _bits(re[1]) == _bits([a.b.real for a in scalar])
        assert _bits(im[1]) == _bits([a.b.imag for a in scalar])

    def test_whole_module(self):
        module = module_points(10, ((-2, 2),))
        rows = pd.amplitude_arrays(module)
        re, im = rows.real, rows.imag
        for i, k in enumerate(module.points()):
            pair = pd.amplitudes(k)
            assert _bits([re[0, i], im[0, i], re[1, i], im[1, i]]) == _bits(
                [pair.a.real, pair.a.imag, pair.b.real, pair.b.imag]
            )

    def test_plane_module_is_refused(self):
        with pytest.raises(TypeError, match="one-dimensional module"):
            pd.amplitude_arrays(module_points(1, ((0, 1), (0, 1))))


class TestPeakMass:
    def test_balanced_mass_converges_to_one(self):
        masses = [pd.peak_mass(r, BALANCED) for r in range(13)]
        for lower, higher in zip(masses, masses[1:]):
            assert higher >= lower
        assert masses[-1] <= 1 + 1e-9
        assert masses[-1] >= 0.99
        # The tail is geometric: mass(r) = 1 - (8/9) 2^-r for balanced weights.
        assert masses[-1] == pytest.approx(1 - (8 / 9) / 4096, abs=1e-9)

    def test_single_letter_mass_converges_to_the_density_mean(self):
        # Bessel: partial peak masses stay below eta(0) = 2/3 and approach it.
        masses = [pd.peak_mass(r, (1, 0)) for r in range(13)]
        assert all(m <= 2 / 3 + 1e-9 for m in masses)
        assert masses[-1] >= 2 / 3 - 0.01

    @pytest.mark.parametrize("weights", [BALANCED, (1, 0)], ids=["balanced", "letter-a"])
    def test_array_mass_matches_the_scalar_sum(self, weights):
        # The scalar route the array sum replaced: one intensity per point.
        for r in range(13):
            points = module_interval(r, 0, 1, include_hi=False)
            scalar = sum(pd.intensity(k, weights) for k in points)
            assert abs(pd.peak_mass(r, weights) - scalar) <= 1e-12
