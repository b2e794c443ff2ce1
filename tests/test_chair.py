"""Chair colouring tests: labels, layer transforms, amplitudes, symmetry.

The heavy cross-validation here is the full-period oracle for
``coset_amplitude``: each hierarchy layer and the phase kernel are both
periodic, so the exact Fourier coefficient is a finite lattice sum over one
period box.  The closed amplitude formulas are then checked against summed
layers, against pinned values, and against every identity they must satisfy.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from limitper import chair
from limitper.dyadic import (
    MAX_LEVEL,
    Dyadic,
    DyadicPoint2,
    Module,
    module_box,
    module_points,
    phase,
)
from limitper.subst import PatternWindow

GOLDEN_8X8 = (
    "3 2 1 2 1 2 1 0",
    "0 3 2 3 0 1 0 3",
    "1 0 3 2 1 0 3 2",
    "0 3 0 3 0 3 0 3",
    "1 2 1 2 1 2 1 2",
    "0 1 2 3 0 1 2 3",
    "1 2 3 2 1 0 1 2",
    "2 3 0 3 0 3 0 1",
)

_coords = st.integers(min_value=-(1 << 30), max_value=1 << 30)


def _rows_top_down(grid: np.ndarray) -> tuple[str, ...]:
    return tuple(" ".join(str(v) for v in row) for row in grid[::-1])


_BAND = chair._BAND_ROWS


@st.composite
def _rectangles(draw):
    """[x_lo, x_hi) x [y_lo, y_hi) around a cell on a diagonal ray or anywhere.

    Narrow and up to two bands plus a bit tall, so band boundaries and
    partial last bands come up; coordinates run negative as often as not.
    """
    width = draw(st.integers(min_value=1, max_value=6))
    height = draw(st.integers(min_value=1, max_value=2 * _BAND + 40))
    t = draw(st.one_of(st.integers(-3 * _BAND, 3 * _BAND), _coords))
    where = draw(st.sampled_from(("diagonal", "antidiagonal", "anywhere")))
    if where == "diagonal":
        x, y = t, t
    elif where == "antidiagonal":
        x, y = t, -1 - t
    else:
        x, y = t, draw(st.one_of(st.integers(-3 * _BAND, 3 * _BAND), _coords))
    x_lo = x - draw(st.integers(0, width - 1))
    y_lo = y - draw(st.integers(0, height - 1))
    return x_lo, x_lo + width, y_lo, y_lo + height


_TOP, _BOTTOM = (1 << 63) - 1, -(1 << 63)
_EDGE_STARTS = st.one_of(
    st.integers(min_value=(1 << 62) - 8, max_value=(1 << 62) + 8),
    st.integers(min_value=-(1 << 62) - 8, max_value=-(1 << 62) + 8),
    st.integers(min_value=_TOP - 8, max_value=_TOP),
    st.integers(min_value=_BOTTOM, max_value=_BOTTOM + 8),
)


@st.composite
def _edge_rectangles(draw):
    """Small rectangles near +-2^62 and the int64 ends, where x + y wraps.

    y starts near an edge too, or so that the rectangle meets the diagonal
    x == y or the antidiagonal x + y == -1.
    """
    width = draw(st.integers(min_value=1, max_value=6))
    height = draw(st.integers(min_value=1, max_value=6))
    x_lo = draw(_EDGE_STARTS)
    where = draw(st.sampled_from(("edge", "diagonal", "antidiagonal")))
    if where == "edge":
        y_lo = draw(_EDGE_STARTS)
    else:
        y_lo = x_lo if where == "diagonal" else -1 - x_lo
        y_lo -= draw(st.integers(0, height - 1))
    x_lo, y_lo = (max(_BOTTOM, min(v, _TOP)) for v in (x_lo, y_lo))
    return x_lo, min(x_lo + width, _TOP + 1), y_lo, min(y_lo + height, _TOP + 1)


# Where ``label_grid`` moves from int16 to int32 and from int32 to int64.
_SWITCHES = (1 << 15, 1 << 31)


@st.composite
def _switch_rectangles(draw):
    """Rectangles with a corner within a few cells of +-2^15 or +-2^31.

    Some reach the last coordinate of a dtype and some the first past it;
    y sits at a switch too, near 0, or so that the rectangle meets a ray.
    Heights cross a band edge as often as not.
    """
    bound = draw(st.sampled_from(_SWITCHES))

    def near_switch():
        return draw(st.sampled_from((bound, -bound))) + draw(st.integers(-6, 6))

    width = draw(st.integers(min_value=1, max_value=6))
    height = draw(
        st.one_of(
            st.integers(1, 6),
            st.integers(_BAND - 3, _BAND + 3),
            st.integers(2 * _BAND - 2, 2 * _BAND + 2),
        )
    )
    x_lo = near_switch()
    where = draw(st.sampled_from(("switch", "origin", "diagonal", "antidiagonal")))
    if where == "switch":
        y_lo = near_switch()
    elif where == "origin":
        y_lo = draw(st.integers(-8, 8))
    else:
        y_lo = x_lo if where == "diagonal" else -1 - x_lo
        y_lo -= draw(st.integers(0, height - 1))
    if draw(st.booleans()):
        return y_lo, y_lo + height, x_lo, x_lo + width
    return x_lo, x_lo + width, y_lo, y_lo + height


@st.composite
def _two_ray_rectangles(draw):
    """Rectangles holding cells of both rays, x == y and x + y == -1, with x at t.

    The rays meet x = t at y = t and y = -1 - t, so the height is at least
    |2t + 1| + 1 and crosses band edges for |t| past _BAND / 2.
    """
    t = draw(st.integers(min_value=-_BAND - 8, max_value=_BAND + 8))
    width = draw(st.integers(min_value=1, max_value=4))
    below = draw(st.integers(0, 3))
    above = draw(st.integers(0, 3))
    x_lo = t - draw(st.integers(0, width - 1))
    y_lo = min(t, -1 - t) - below
    return x_lo, x_lo + width, y_lo, max(t, -1 - t) + above + 1


def _pointwise(rect) -> list[list[int]]:
    x_lo, x_hi, y_lo, y_hi = rect
    return [[chair.label((x, y)) for x in range(x_lo, x_hi)] for y in range(y_lo, y_hi)]


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


class TestLabels:
    def test_seed_cells(self):
        assert chair.label((0, 0)) == 0
        assert chair.label((0, -1)) == 1
        assert chair.label((-1, -1)) == 2
        assert chair.label((-1, 0)) == 3

    def test_reference_cells(self):
        assert chair.label((-4, 3)) == 3
        assert chair.label((3, 3)) == 0
        assert chair.label((2, 2)) == 0

    def test_golden_blocks(self):
        assert _rows_top_down(chair.label_grid(-4, 4, -4, 4)) == GOLDEN_8X8
        assert _rows_top_down(chair.label_grid(-2, 2, -2, 2)) == (
            "3 2 1 0",
            "0 3 0 3",
            "1 2 1 2",
            "2 3 0 1",
        )

    def test_window_agreement_with_the_fixed_point(self):
        iterations = 8
        half = 1 << iterations
        window = chair.pattern_window(iterations)
        assert window.origin == (-half, -half)
        direct = chair.label_grid(-half, half, -half, half)
        assert np.array_equal(window.labels, direct)

    def test_grid_matches_pointwise_labels(self):
        grid = chair.label_grid(-9, 7, -5, 11)
        for iy, y in enumerate(range(-5, 11)):
            for ix, x in enumerate(range(-9, 7)):
                assert grid[iy, ix] == chair.label((x, y))

    @settings(max_examples=60, deadline=None)
    @given(_rectangles())
    @example((-3, 2, -_BAND, _BAND))
    @example((0, 3, -1, 2 * _BAND - 1))
    @example((-5, -1, -2 * _BAND - 7, 0))
    def test_banded_grid_matches_pointwise_labels(self, rect):
        x_lo, x_hi, y_lo, y_hi = rect
        grid = chair.label_grid(*rect)
        assert grid.shape == (y_hi - y_lo, x_hi - x_lo)
        expected = [[chair.label((x, y)) for x in range(x_lo, x_hi)] for y in range(y_lo, y_hi)]
        assert np.array_equal(grid, np.array(expected, dtype=np.uint8))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            chair.label_grid(0, 0, 0, 1)

    @settings(max_examples=80, deadline=None)
    @given(_edge_rectangles())
    @example((_TOP - 5, _TOP + 1, _TOP - 5, _TOP + 1))
    @example((_BOTTOM, _BOTTOM + 6, _BOTTOM, _BOTTOM + 6))
    @example((_TOP - 5, _TOP + 1, _BOTTOM, _BOTTOM + 6))
    @example((_BOTTOM, _BOTTOM + 6, _TOP - 5, _TOP + 1))
    def test_grid_matches_pointwise_labels_at_the_int64_edges(self, rect):
        x_lo, x_hi, y_lo, y_hi = rect
        expected = [[chair.label((x, y)) for x in range(x_lo, x_hi)] for y in range(y_lo, y_hi)]
        assert chair.label_grid(*rect).tolist() == expected

    @settings(max_examples=120, deadline=None)
    @given(_switch_rectangles())
    @example(((1 << 15) - 3, 1 << 15, (1 << 15) - 2, 1 << 15))
    @example(((1 << 15) - 3, (1 << 15) + 1, -2, 2))
    @example((-(1 << 15), -(1 << 15) + 3, -(1 << 15), -(1 << 15) + 2))
    @example((-(1 << 15) - 1, -(1 << 15) + 2, 1 << 15, (1 << 15) + 1))
    @example(((1 << 31) - 3, (1 << 31) + 1, -(1 << 31) - 1, -(1 << 31) + 2))
    @example((-(1 << 31), -(1 << 31) + 2, (1 << 31) - 2, 1 << 31))
    def test_grid_matches_pointwise_labels_at_the_dtype_switches(self, rect):
        assert chair.label_grid(*rect).tolist() == _pointwise(rect)

    @settings(max_examples=60, deadline=None)
    @given(_two_ray_rectangles())
    @example((-1, 1, -1, 1))
    @example((_BAND // 2, _BAND // 2 + 1, -_BAND // 2 - 1, _BAND // 2 + 1))
    @example((-_BAND, -_BAND + 3, -_BAND, _BAND))
    def test_grid_matches_pointwise_labels_through_both_rays(self, rect):
        assert chair.label_grid(*rect).tolist() == _pointwise(rect)

    def test_coordinate_dtype_is_the_smallest_that_holds_the_grid(self):
        assert chair._coordinate_dtype(-(1 << 15), (1 << 15) - 1) is np.int16
        assert chair._coordinate_dtype(-(1 << 15) - 1, 0) is np.int32
        assert chair._coordinate_dtype(0, 1 << 15) is np.int32
        assert chair._coordinate_dtype(-(1 << 31), (1 << 31) - 1) is np.int32
        assert chair._coordinate_dtype(-(1 << 31) - 1, 0) is np.int64
        assert chair._coordinate_dtype(0, 1 << 31) is np.int64

    def test_grid_memory_stays_within_a_few_bands(self):
        tracemalloc.start()
        try:
            grid = chair.label_grid(-1024, 1025, -1024, 1025)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.shape == (2049, 2049)
        assert peak < 16 << 20

    def test_grid_rejects_cells_past_int64(self):
        with pytest.raises(ValueError, match="int64"):
            chair.label_grid(0, 2, _TOP - 1, _TOP + 2)
        with pytest.raises(ValueError, match="int64"):
            chair.label_grid(_BOTTOM - 1, _BOTTOM + 1, 0, 2)

    @given(_coords)
    def test_diagonal_rays(self, t):
        assert chair.label((t, t)) == (0 if t >= 0 else 2)
        assert chair.label((t, -1 - t)) == (1 if t >= 0 else 3)

    @given(_coords, _coords)
    def test_colours_split_by_sublattice(self, x, y):
        colour = chair.label((x, y))
        if (x + y) % 2 == 0:
            assert colour in (0, 2)
        else:
            assert colour in (1, 3)

    @given(_coords, _coords)
    def test_halving_fixed_point_equations(self, a, b):
        # The four colour classes satisfy decoupled renormalisation
        # equations; spelled out per parity of (a + b) they decide every
        # double-resolution cell either outright or via the half-scale cell.
        inner = chair.label((a, b))
        if (a + b) % 2 == 0:
            assert chair.label((2 * a, 2 * b)) == inner
            assert chair.label((2 * a + 1, 2 * b + 1)) == inner
            assert chair.label((2 * a, 2 * b + 1)) == 1
            assert chair.label((2 * a + 1, 2 * b)) == 3
        else:
            assert chair.label((2 * a, 2 * b)) == 0
            assert chair.label((2 * a + 1, 2 * b + 1)) == 2
            assert chair.label((2 * a, 2 * b + 1)) == inner
            assert chair.label((2 * a + 1, 2 * b)) == inner

    def test_partition_of_a_block(self):
        grid = chair.label_grid(-256, 256, -256, 256)
        xs = np.arange(-256, 256)[None, :]
        ys = np.arange(-256, 256)[:, None]
        even = (xs + ys) % 2 == 0
        assert np.all(np.isin(grid[even], (0, 2)))
        assert np.all(np.isin(grid[~even], (1, 3)))
        counts = np.bincount(grid.ravel(), minlength=4)
        assert np.all(np.abs(counts / grid.size - 0.25) < 0.01)


# ---------------------------------------------------------------------------
# Layer transforms
# ---------------------------------------------------------------------------


def _layer_oracle(level: int, step: tuple[int, int], k: DyadicPoint2) -> complex:
    """Exact Fourier coefficient of one layer by brute-force lattice sum.

    The layer union of 2^(level+1)-scaled odd-sublattice cosets and the
    kernel e^{-2 pi i k.x} are both periodic with period
    P = 2^max(level+2, k.s), so the coefficient is the plain average of the
    kernel over the layer's points inside one P x P box.
    """
    period = 1 << max(level + 2, k.s)
    scale = 1 << (level + 1)
    total = 0j
    for j in range(1 << level):
        for a in range(period // scale):
            for b in range(period // scale):
                if (a + b) % 2 == 1:
                    x = scale * a + j * step[0]
                    y = scale * b + j * step[1]
                    total += phase(-k.dot((x, y)))
    return total / float(period * period)


class TestCosetAmplitude:
    def test_density_values_at_zero(self):
        k0 = DyadicPoint2(0, 0, 0)
        assert chair.coset_amplitude(0, (1, 1), k0) == pytest.approx(1 / 8, abs=1e-15)
        assert chair.coset_amplitude(1, (1, 1), k0) == pytest.approx(1 / 16, abs=1e-15)
        assert chair.coset_amplitude(2, (1, 1), k0) == pytest.approx(1 / 32, abs=1e-15)

    def test_support_cutoff(self):
        # The layer transform lives on the even sublattice over 2^(level+2).
        assert chair.coset_amplitude(0, (1, 1), DyadicPoint2(1, 0, 3)) == 0j
        assert chair.coset_amplitude(0, (1, 1), DyadicPoint2(1, 0, 2)) == 0j
        assert chair.coset_amplitude(0, (1, 1), DyadicPoint2(1, 1, 2)) != 0j

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            chair.coset_amplitude(-1, (1, 1), DyadicPoint2(0, 0, 0))

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("step", chair.COLOR_STEPS)
    def test_full_period_oracle(self, level, step):
        for k in module_box(4, (0, 1), include_hi=False):
            expected = _layer_oracle(level, step, k)
            got = chair.coset_amplitude(level, step, k)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_full_period_oracle_negative_wave_numbers(self):
        for k in module_box(2, (-1, 0)):
            for level in (0, 1):
                expected = _layer_oracle(level, (1, -1), k)
                got = chair.coset_amplitude(level, (1, -1), k)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_magnitude_tail_bound(self):
        # |coefficient| <= 2^level / 2^(2 level + 3); the layer series that
        # rebuilds an amplitude therefore truncates geometrically.
        for level in range(6):
            for k in module_box(3, (0, 1), include_hi=False):
                size = abs(chair.coset_amplitude(level, (1, 1), k))
                assert size <= 2.0 ** (-level - 3) + 1e-15


# ---------------------------------------------------------------------------
# Closed amplitudes
# ---------------------------------------------------------------------------


class TestAmplitudes:
    def test_deep_levels_do_not_overflow(self):
        # 4^s passes the float range at s = 512; the scale is an exact
        # power of two, so it underflows towards zero instead.
        for k in (DyadicPoint2(1, 0, 600), DyadicPoint2(3, 1, 600), DyadicPoint2(1, 2, 2000)):
            values = chair.amplitudes(k).values
            assert all(abs(v) < 1e-300 for v in values)
        shallow = chair.amplitudes(DyadicPoint2(1, 0, 500)).values[0]
        assert 0 < abs(shallow) < 1e-280

    def test_pinned_values(self):
        cases = {
            DyadicPoint2(1, 1, 0): (0.25, 0.25, 0.25, 0.25),
            DyadicPoint2(1, 1, 1): (0.25, -0.25, 0.25, -0.25),
            DyadicPoint2(1, 0, 1): (0.125, 0.125, -0.125, -0.125),
            DyadicPoint2(0, 1, 1): (0.125, -0.125, -0.125, 0.125),
            DyadicPoint2(1, 0, 2): (
                (1 - 1j) / 32,
                (1 - 1j) / 32,
                -(1 - 1j) / 32,
                -(1 - 1j) / 32,
            ),
            DyadicPoint2(1, 1, 2): (-0.125, 0.0, 0.125, 0.0),
        }
        for k, expected in cases.items():
            got = chair.amplitudes(k).values
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, abs=1e-15)

    def test_layer_sums_rebuild_the_closed_forms(self):
        levels = 24
        for k in module_box(3, (-1, 1)):
            values = chair.amplitudes(k).values
            for colour in range(4):
                total = sum(
                    chair.coset_amplitude(level, chair.COLOR_STEPS[colour], k)
                    for level in range(levels + 1)
                )
                total *= phase(-k.dot(chair.COLOR_SHIFTS[colour]))
                assert total == pytest.approx(values[colour], abs=2e-8)

    def test_anti_pairing_is_exact_for_deep_levels(self):
        for k in module_box(5, (-1, 1)):
            if k.s < 2:
                continue
            values = chair.amplitudes(k).values
            assert values[2] == -values[0]
            assert values[3] == -values[1]

    def test_hermitian_symmetry(self):
        for k in module_box(4, (-1, 1)):
            values = chair.amplitudes(k).values
            minus = chair.amplitudes(-k).values
            for v, w in zip(values, minus):
                assert w == pytest.approx(v.conjugate(), abs=1e-12)

    def test_pair_sum_rules(self):
        # (1/2) Gamma_+ inside the dyadic module: integer points, plus
        # half-integer points with both numerators odd.
        for k in module_box(4, (-1, 1)):
            values = chair.amplitudes(k).values
            even_pair = values[0] + values[2]
            odd_pair = values[1] + values[3]
            on_half_lattice = k.s == 0 or (k.s == 1 and k.m % 2 == 1 and k.n % 2 == 1)
            if on_half_lattice:
                assert even_pair == pytest.approx(0.5, abs=1e-12)
                expected = 0.5 * phase(Dyadic.of(-k.m, k.s))
                assert odd_pair == pytest.approx(expected, abs=1e-12)
            else:
                assert abs(even_pair) <= 1e-12
                assert abs(odd_pair) <= 1e-12

    def test_all_ones_weights_collapse_to_the_lattice(self):
        ones = (1, 1, 1, 1)
        for k in module_box(4, (-1, 1)):
            expected = 1.0 if k.s == 0 else 0.0
            assert chair.intensity(k, ones) == pytest.approx(expected, abs=1e-12)

    def test_fourth_root_weights_are_extinct_on_the_half_lattice(self):
        fourth = (1, 1j, -1, -1j)
        for k in module_box(4, (-1, 1)):
            if k.s == 0 or (k.s == 1 and k.m % 2 == 1 and k.n % 2 == 1):
                assert chair.intensity(k, fourth) <= 1e-12

    def test_fourth_root_reference_intensities(self):
        fourth = (1, 1j, -1, -1j)
        assert chair.intensity(DyadicPoint2(1, 0, 1), fourth) == pytest.approx(
            0.125, abs=1e-12
        )
        assert chair.intensity(DyadicPoint2(0, 1, 1), fourth) == pytest.approx(
            0.125, abs=1e-12
        )
        assert chair.intensity(DyadicPoint2(1, 0, 2), fourth) == pytest.approx(
            1 / 64, abs=1e-12
        )

    def test_pair_comb_reference_intensity(self):
        pair = (1, 0, 1, 0)
        assert chair.intensity(DyadicPoint2(1, 1, 1), pair) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_lattice_periodicity_of_intensities(self):
        weights = (0.8 + 0.3j, -0.5 + 0.9j, 0.2 - 0.7j, -0.9 - 0.4j)
        for k in module_box(4, (0, 1), include_hi=False):
            reference = chair.intensity(k, weights)
            for dx, dy in ((1, 0), (0, 1), (-1, 1)):
                shifted = DyadicPoint2.of(k.m + (dx << k.s), k.n + (dy << k.s), k.s)
                assert chair.intensity(shifted, weights) == pytest.approx(
                    reference, abs=1e-10
                )

    def test_half_lattice_periodicity_of_pair_combs(self):
        # Shifts by (1, 1) / 2 and (1, -1) / 2, built on the numerators at level s + 1.
        for weights in ((1, 0, 1, 0), (0, 1, 0, 1)):
            for k in module_box(4, (0, 1), include_hi=False):
                reference = chair.intensity(k, weights)
                for dx, dy in ((1, 1), (1, -1)):
                    shifted = DyadicPoint2.of(
                        (k.m << 1) + (dx << k.s), (k.n << 1) + (dy << k.s), k.s + 1
                    )
                    assert chair.intensity(shifted, weights) == pytest.approx(
                        reference, abs=1e-10
                    )


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# Numerators over the whole int64 range, with both edges drawn often: m + n
# and m - n wrap past int64 there, which the residues mod 2^s must survive.
_int64 = st.one_of(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([-(1 << 63), -(1 << 63) + 1, (1 << 63) - 2, (1 << 63) - 1]),
)


class TestAmplitudeArrays:
    """``amplitude_arrays`` against the scalar ``amplitudes``, bit for bit."""

    @staticmethod
    def _assert_bits_match(points):
        rows = chair.amplitude_arrays(Module.of(points, 2))
        assert rows.shape == (4, len(points)) and rows.dtype == complex
        re, im = rows.real, rows.imag
        for colour in range(4):
            values = [chair.amplitudes(k).values[colour] for k in points]
            assert _bits(re[colour]) == _bits([v.real for v in values])
            assert _bits(im[colour]) == _bits([v.imag for v in values])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _int64, _int64, st.one_of(st.integers(0, 3), st.integers(0, MAX_LEVEL))
            ),
            max_size=40,
        )
    )
    @example([(0, 0, 0), (-1, 3, 0), (1, 1, 1), (-1, -3, 1), (1, 0, 1), (0, -1, 1)])
    @example([(-3, 1, 2), (5, -7, 2), (-1, -1, 3), (6, -3, 4), (-(1 << 63), -1, 62)])
    def test_bits_match_the_scalar_closed_form(self, triples):
        self._assert_bits_match([DyadicPoint2.of(m, n, s) for m, n, s in triples])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.data())
    def test_dense_levels_use_the_full_table(self, level, data):
        # More points than 2^level residues: the table holds every residue.
        size = (1 << level) + data.draw(st.integers(0, 64))
        coords = st.integers(min_value=-(1 << 20), max_value=1 << 20)
        points = [
            DyadicPoint2.of(2 * data.draw(coords) + 1, data.draw(coords), level)
            for _ in range(size)
        ]
        self._assert_bits_match(points)

    def test_whole_module(self):
        module = module_points(4, ((-1, 1), (-1, 1)))
        self._assert_bits_match(module.points())

    def test_chain_module_is_refused(self):
        with pytest.raises(TypeError, match="plane module"):
            chair.amplitude_arrays(module_points(1, ((0, 1),)))


# ---------------------------------------------------------------------------
# Dihedral colour symmetry
# ---------------------------------------------------------------------------


class TestD4:
    def test_element_roster(self):
        elements = chair.d4_elements()
        assert len(elements) == 8
        assert len({e.name for e in elements}) == 8
        identity = elements[0]
        assert identity.name == "r0"
        assert identity.matrix == ((1, 0), (0, 1))
        assert identity.color_perm == (0, 1, 2, 3)

    def test_table(self):
        assert [(e.name, e.matrix, e.color_perm) for e in chair.d4_elements()] == [
            ("r0", ((1, 0), (0, 1)), (0, 1, 2, 3)),
            ("r90", ((0, -1), (1, 0)), (3, 0, 1, 2)),
            ("r180", ((-1, 0), (0, -1)), (2, 3, 0, 1)),
            ("r270", ((0, 1), (-1, 0)), (1, 2, 3, 0)),
            ("r0m", ((1, 0), (0, -1)), (1, 0, 3, 2)),
            ("r90m", ((0, 1), (1, 0)), (0, 3, 2, 1)),
            ("r180m", ((-1, 0), (0, 1)), (3, 2, 1, 0)),
            ("r270m", ((0, -1), (-1, 0)), (2, 1, 0, 3)),
        ]

    def test_generator_permutations(self):
        by_name = {e.name: e for e in chair.d4_elements()}
        assert by_name["r90"].color_perm == (3, 0, 1, 2)
        assert by_name["r0m"].color_perm == (1, 0, 3, 2)

    def test_group_closure(self):
        elements = chair.d4_elements()
        table = {e.matrix: e for e in elements}
        for g in elements:
            for h in elements:
                composed = chair.d4_compose(g, h)
                assert table[composed.matrix] == composed

    def test_rotation_order_and_mirror_involution(self):
        by_name = {e.name: e for e in chair.d4_elements()}
        r90, r0m, r0 = by_name["r90"], by_name["r0m"], by_name["r0"]
        power = r0
        for _ in range(4):
            power = chair.d4_compose(r90, power)
        assert power == r0
        assert chair.d4_compose(r0m, r0m) == r0

    def test_window_invariance(self):
        half = 128
        labels = chair.label_grid(-half, half, -half, half)
        window = PatternWindow((-half, -half), labels)
        for element in chair.d4_elements():
            assert chair.apply_d4(element, window) == window

    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.sampled_from([np.uint8, np.int64]),
    )
    def test_recolouring_matches_indexing_the_permutation(self, half, seed, dtype):
        # The reference recolours by indexing the permutation with the moved view.
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=(2 * half, 2 * half)).astype(dtype)
        window = PatternWindow((-half, -half), labels)
        for element in chair.d4_elements():
            (a, b), (c, d) = element.matrix
            moved = (labels if b == 0 else labels.T)[:: c + d, :: a + b]
            expected = np.array(element.color_perm, dtype=dtype)[moved]
            image = chair.apply_d4(element, window)
            assert image.labels.dtype == expected.dtype
            assert np.array_equal(image.labels, expected)

    def test_composition_acts_like_sequential_application(self):
        half = 32
        labels = chair.label_grid(-half, half, -half, half)
        window = PatternWindow((-half, -half), labels)
        for g in chair.d4_elements():
            for h in chair.d4_elements():
                sequential = chair.apply_d4(g, chair.apply_d4(h, window))
                combined = chair.apply_d4(chair.d4_compose(g, h), window)
                assert sequential == combined

    @pytest.mark.parametrize("element", chair.d4_elements(), ids=lambda e: e.name)
    def test_cells_move_by_the_wavevector_matrix(self, element):
        # The matrix of the wave-vector action, read off the basis.
        e1 = chair.transform_wavevector(element, DyadicPoint2(1, 0))
        e2 = chair.transform_wavevector(element, DyadicPoint2(0, 1))
        (a, b), (c, d) = matrix = ((e1.m, e2.m), (e1.n, e2.n))
        assert element.matrix == matrix
        n = 8
        # Doubled centres 2u: cell i on an axis is centred at i - n/2 + 1/2.
        # Each coordinate at a corner of the window or next to the origin.
        ends = (-(n - 1), -1, 1, n - 1)
        for x, y in itertools.product(ends, repeat=2):
            labels = np.zeros((n, n), dtype=np.uint8)
            labels[(y + n - 1) // 2, (x + n - 1) // 2] = 1
            image = chair.apply_d4(element, PatternWindow((-n // 2, -n // 2), labels))
            [[iy, ix]] = np.argwhere(image.labels == element.color_perm[1])
            assert (2 * ix - n + 1, 2 * iy - n + 1) == (a * x + b * y, c * x + d * y)

    def test_apply_rejects_off_centre_windows(self):
        element = chair.d4_elements()[1]
        with pytest.raises(ValueError):
            chair.apply_d4(element, PatternWindow((0, 0), np.zeros((4, 4), dtype=np.uint8)))
        with pytest.raises(ValueError):
            chair.apply_d4(element, PatternWindow((-1, -1), np.zeros((3, 3), dtype=np.uint8)))
        with pytest.raises(ValueError):
            chair.apply_d4(element, PatternWindow((-2, -2), np.zeros((4, 6), dtype=np.uint8)))

    def test_wavevector_action(self):
        by_name = {e.name: e for e in chair.d4_elements()}
        k = DyadicPoint2(1, 0, 2)
        assert chair.transform_wavevector(by_name["r90"], k) == DyadicPoint2(0, 1, 2)
        assert chair.transform_wavevector(by_name["r180"], k) == DyadicPoint2(-1, 0, 2)
        assert chair.transform_wavevector(by_name["r0m"], DyadicPoint2(1, 1, 1)) == (
            DyadicPoint2(1, -1, 1)
        )

    def test_wavevector_action_is_a_group_action(self):
        k = DyadicPoint2(3, 1, 2)
        for g in chair.d4_elements():
            for h in chair.d4_elements():
                sequential = chair.transform_wavevector(g, chair.transform_wavevector(h, k))
                combined = chair.transform_wavevector(chair.d4_compose(g, h), k)
                assert sequential == combined

    def test_fourth_root_intensities_are_dihedral_symmetric(self):
        fourth = (1, 1j, -1, -1j)
        for k in module_box(4, (0, 1), include_hi=False):
            reference = chair.intensity(k, fourth)
            for element in chair.d4_elements():
                moved = chair.transform_wavevector(element, k)
                assert chair.intensity(moved, fourth) == pytest.approx(
                    reference, abs=1e-10
                )
