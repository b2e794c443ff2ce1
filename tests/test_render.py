"""Rendering tests: exact CSV rows, SVG geometry, PGM and text grids.

Everything rendered must be byte-deterministic, so most assertions here are
golden strings; the SVG checks additionally parse the geometry back out and
verify the proportionality contracts (stem height to |amplitude|, disc area
to intensity).  The column renderers are pinned byte for byte to the
per-peak renderers they replaced, kept below as a test oracle over
(k, amplitude, intensity) rows.
"""

import math
import re
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from limitper import period_doubling, render
from limitper.dyadic import Dyadic, DyadicPoint2, Module, module_points
from limitper.subst import PatternWindow


def _table(pairs, dim):
    """``PeakTable.of`` over (k, amplitude) pairs."""
    return render.PeakTable.of(Module.of([k for k, _ in pairs], dim), [a for _, a in pairs])


def _columns(rows, dim):
    """The plain column table of (k, amplitude, intensity) rows, intensities as given."""
    return render.PeakTable(
        Module.of([k for k, _, _ in rows], dim),
        np.array([a for _, a, _ in rows], dtype=complex),
        np.array([i for _, _, i in rows], dtype=np.float64),
    )


def _rows(pairs):
    """(k, amplitude, intensity) rows, the intensity written out per peak."""
    return [(k, a, abs(a) ** 2) for k, a in pairs]


# ---------------------------------------------------------------------------
# The per-peak renderers the column renderers replaced (test oracle only)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    # repr() of a float is its shortest exact decimal form; -0.0 would
    # break byte-stable goldens, so flush it to 0.0.
    value = float(x)
    if value == 0.0:
        value = 0.0
    return repr(value)


_SVG_OPEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">'
)


def _legacy_peaks_csv(peaks, dim):
    fmt = _fmt
    if dim == 1:
        lines = ["k_num,k_log2den,amp_re,amp_im,intensity"]
        for k, amplitude, intensity in peaks:
            lines.append(
                f"{k.m},{k.r},{fmt(amplitude.real)},"
                f"{fmt(amplitude.imag)},{fmt(intensity)}"
            )
    else:
        lines = ["kx_num,ky_num,k_log2den,amp_re,amp_im,intensity"]
        for k, amplitude, intensity in peaks:
            lines.append(
                f"{k.m},{k.n},{k.s},{fmt(amplitude.real)},"
                f"{fmt(amplitude.imag)},{fmt(intensity)}"
            )
    return "\n".join(lines) + "\n"


def _legacy_module_csv(points, dim):
    if dim == 1:
        lines = ["k_num,k_log2den"] + [f"{k.m},{k.r}" for k in points]
    else:
        lines = ["kx_num,ky_num,k_log2den"] + [f"{k.m},{k.n},{k.s}" for k in points]
    return "\n".join(lines) + "\n"


def _legacy_stem_svg(peaks, lo, hi):
    fmt = _fmt
    width, height, margin = 800.0, 400.0, 40.0
    flo, fhi = Fraction(lo), Fraction(hi)
    span = float(fhi - flo)
    top = max((abs(amplitude) for _, amplitude, _ in peaks), default=0.0)
    lines = [
        _SVG_OPEN.format(w=int(width), h=int(height)),
        f'<rect width="{int(width)}" height="{int(height)}" fill="white"/>',
        f'<line x1="{fmt(margin)}" y1="{fmt(height - margin)}" '
        f'x2="{fmt(width - margin)}" y2="{fmt(height - margin)}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for k, amplitude, _ in peaks:
        size = abs(amplitude)
        if top == 0.0 or size == 0.0:
            continue
        x = margin + (float(k.value) - float(flo)) / span * (width - 2 * margin)
        stem = size / top * (height - 2 * margin)
        lines.append(
            f'<line x1="{fmt(x)}" y1="{fmt(height - margin)}" '
            f'x2="{fmt(x)}" y2="{fmt(height - margin - stem)}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _legacy_disc_svg(peaks, x_bounds, y_bounds):
    fmt = _fmt
    width = height = 800.0
    margin, top_radius = 40.0, 16.0
    fxlo, fxhi = Fraction(x_bounds[0]), Fraction(x_bounds[1])
    fylo, fyhi = Fraction(y_bounds[0]), Fraction(y_bounds[1])
    xspan, yspan = float(fxhi - fxlo), float(fyhi - fylo)
    top = max((intensity for _, _, intensity in peaks), default=0.0)
    lines = [
        _SVG_OPEN.format(w=int(width), h=int(height)),
        f'<rect width="{int(width)}" height="{int(height)}" fill="white"/>',
    ]
    for k, _, intensity in peaks:
        if top == 0.0 or intensity <= 0.0:
            continue
        kx, ky = k.value
        x = margin + (float(kx) - float(fxlo)) / xspan * (width - 2 * margin)
        y = height - margin - (float(ky) - float(fylo)) / yspan * (height - 2 * margin)
        radius = top_radius * (intensity / top) ** 0.5
        lines.append(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(radius)}" '
            f'fill="black" data-intensity="{fmt(intensity)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# Parts drawn with signed zeros, repeats and a wide spread of exponents.
_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -0.125]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_subnormal=False),
)
_exps = st.integers(min_value=0, max_value=12)
_nums = st.integers(min_value=-(1 << 14), max_value=1 << 14)


# Amplitude components whose |a|^2 stays finite: with both at most 2^510,
# |a|^2 <= 2^1021.
_components = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e-150, max_value=1e-150, allow_nan=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.builds(lambda x, sign: sign * x, st.floats(1e150, 2.0**510), st.sampled_from((1, -1))),
    st.floats(min_value=-(2.0**510), max_value=2.0**510, allow_nan=False),
)


@st.composite
def _peak_lists(draw, dim):
    """(k, amplitude) pairs."""
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        if dim == 1:
            k = Dyadic.of(draw(_nums), draw(_exps))
        else:
            k = DyadicPoint2.of(draw(_nums), draw(_nums), draw(_exps))
        pairs.append((k, complex(draw(_parts), draw(_parts))))
    return pairs


class TestPeakTableOf:
    @settings(max_examples=150, deadline=None)
    @given(_peak_lists(1))
    def test_intensity_is_cpython_abs_squared(self, pairs):
        table = _table(pairs, 1)
        assert len(table) == len(pairs)
        assert table.amplitude.dtype == np.complex128
        assert table.intensity.dtype == np.float64
        assert table.amplitude.tolist() == [a for _, a in pairs]
        # Bit for bit, signed zeros included.
        expected = [abs(a) ** 2 for _, a in pairs]
        assert table.intensity.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_components, _components), max_size=40))
    def test_intensity_bits_over_the_float_range(self, parts):
        # Random, tiny, huge and subnormal components, up to where the scalar
        # rule's square would overflow (past it CPython raised OverflowError).
        amplitude = np.array([complex(re, im) for re, im in parts], dtype=complex)
        table = render.PeakTable.of(Module.of([Dyadic(0)] * len(parts), 1), amplitude)
        expected = [abs(a) ** 2 for a in amplitude.tolist()]
        assert table.intensity.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_empty_table(self):
        table = _table([], 2)
        assert len(table) == 0
        assert table.amplitude.shape == table.intensity.shape == (0,)


# Weight and amplitude parts: ordinary, huge (up to the CLI's 1e150 bound),
# tiny and subnormal.  Products stay under 1e300, so no sum of four overflows.
_weigh_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
    st.floats(min_value=-1e-150, max_value=1e-150, allow_nan=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
)
_weigh_complexes = st.builds(complex, _weigh_parts, _weigh_parts)


@st.composite
def _weighings(draw):
    """Weights for 1-4 letters and per-point columns of as many amplitudes."""
    letters = draw(st.integers(min_value=1, max_value=4))
    column = st.lists(_weigh_complexes, min_size=letters, max_size=letters)
    return draw(column), draw(st.lists(column, max_size=30))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestWeigh:
    @settings(max_examples=300, deadline=None)
    @given(_weighings())
    def test_bits_match_the_scalar_sum(self, case):
        weights, columns = case
        rows = np.array(columns, dtype=complex).reshape(-1, len(weights)).T
        got = render.weigh(rows, weights)
        expected = [sum(w * a for w, a in zip(weights, column)) for column in columns]
        assert got.shape == (len(columns),)
        assert _bits(got.real) == _bits([value.real for value in expected])
        assert _bits(got.imag) == _bits([value.imag for value in expected])

    def test_one_weight_per_row(self):
        with pytest.raises(ValueError):
            render.weigh(np.zeros((2, 3), dtype=complex), (1,))


_ratios = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.floats(min_value=0.0, allow_infinity=False),
)


class TestFigureUfuncs:
    """The figures' array rules give CPython's ``abs(a)`` and ``x ** 0.5`` bit for bit."""

    @staticmethod
    def _assert_hypot_is_abs(amplitude):
        expected = [abs(a) for a in amplitude.tolist()]
        assert _bits(np.hypot(amplitude.real, amplitude.imag)) == _bits(expected)

    @staticmethod
    def _assert_float_power_is_pow(x):
        expected = [value**0.5 for value in x.tolist()]
        assert _bits(np.float_power(x, 0.5)) == _bits(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_components, _components), max_size=40))
    def test_hypot_is_cpython_abs(self, parts):
        self._assert_hypot_is_abs(np.array([complex(re, im) for re, im in parts], dtype=complex))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ratios, max_size=40))
    def test_float_power_half_is_cpython_pow(self, ratios):
        self._assert_float_power_is_pow(np.array(ratios, dtype=np.float64))

    def test_bulk_sample(self):
        # Long arrays run numpy's vector loops; exponents span subnormals to 2^500.
        rng = np.random.default_rng(0)
        parts = rng.standard_normal(1 << 17) * np.exp2(rng.integers(-1070, 500, 1 << 17))
        self._assert_hypot_is_abs(parts.view(complex))
        self._assert_float_power_is_pow(np.abs(parts))


class TestColumnsMatchPeakLists:
    @settings(max_examples=150, deadline=None)
    @given(_peak_lists(1))
    def test_chain_csv_and_stems(self, pairs):
        table, peaks = _table(pairs, 1), _rows(pairs)
        assert render.peaks_csv(table) == _legacy_peaks_csv(peaks, 1)
        assert render.module_csv(table.module) == _legacy_module_csv([k for k, _ in pairs], 1)
        for lo, hi in ((0, 1), (Fraction(-3, 7), Fraction(5, 3))):
            assert render.stem_svg(table, lo, hi) == _legacy_stem_svg(peaks, lo, hi)

    @settings(max_examples=150, deadline=None)
    @given(_peak_lists(2))
    def test_plane_csv_and_discs(self, pairs):
        table, peaks = _table(pairs, 2), _rows(pairs)
        assert render.peaks_csv(table) == _legacy_peaks_csv(peaks, 2)
        assert render.module_csv(table.module) == _legacy_module_csv([k for k, _ in pairs], 2)
        for bounds in (((-1, 1), (-1, 1)), ((Fraction(-1, 3), 1), (-2, Fraction(1, 5)))):
            assert render.disc_svg(table, *bounds) == _legacy_disc_svg(peaks, *bounds)

    def test_int64_edge_numerators(self):
        top, bottom = (1 << 63) - 1, -(1 << 63)
        chain = [Dyadic(top), Dyadic(bottom), Dyadic(-top, 62), Dyadic(top, 1), Dyadic(top)]
        plane = [DyadicPoint2(top, bottom, 0), DyadicPoint2(bottom, -top, 3), DyadicPoint2(top, 0, 62)]
        for dim, points in ((1, chain), (2, plane)):
            pairs = [(k, complex(index, -index)) for index, k in enumerate(points)]
            table = _table(pairs, dim)
            assert render.peaks_csv(table) == _legacy_peaks_csv(_rows(pairs), dim)
            assert render.module_csv(table.module) == _legacy_module_csv(points, dim)

    def test_negative_zero_everywhere(self):
        peaks = [(Dyadic(1, 1), complex(-0.0, -0.0), -0.0)] * 3
        assert render.peaks_csv(_columns(peaks, 1)) == _legacy_peaks_csv(peaks, 1)
        assert "-0.0" not in render.peaks_csv(_columns(peaks, 1))


class TestCsv:
    def test_chain_schema_and_rows(self):
        peaks = [
            (Dyadic(0), 1 / 3 + 0j),
            (Dyadic(1, 1), 2 / 3 + 0j),
        ]
        text = render.peaks_csv(_table(peaks, 1))
        lines = text.splitlines()
        assert lines[0] == "k_num,k_log2den,amp_re,amp_im,intensity"
        assert lines[1].startswith("0,0,0.3333333333333333,0.0,")
        assert lines[2].startswith("1,1,0.6666666666666666,0.0,")
        assert text.endswith("\n")

    def test_plane_schema(self):
        peaks = [(DyadicPoint2(1, -1, 2), 0.25j)]
        text = render.peaks_csv(_table(peaks, 2))
        assert text.splitlines()[0] == "kx_num,ky_num,k_log2den,amp_re,amp_im,intensity"
        assert text.splitlines()[1] == "1,-1,2,0.0,0.25,0.0625"

    def test_negative_zero_is_flushed(self):
        peaks = [(Dyadic(1, 1), complex(-0.0, -0.0))]
        text = render.peaks_csv(_table(peaks, 1))
        assert "-0.0" not in text

    def test_floats_round_trip(self):
        # repr() floats reconstruct the amplitude exactly.
        amplitude = -0.123456789012345 + 0.987654321098765j
        row = render.peaks_csv(_table([(Dyadic(3, 2), amplitude)], 1)).splitlines()[1]
        _, _, re_part, im_part, _ = row.split(",")
        assert complex(float(re_part), float(im_part)) == amplitude

    def test_module_csv(self):
        text = render.module_csv(Module.of([Dyadic(0), Dyadic(1, 2)], 1))
        assert text == "k_num,k_log2den\n0,0\n1,2\n"
        text = render.module_csv(Module.of([DyadicPoint2(1, 1, 1)], 2))
        assert text == "kx_num,ky_num,k_log2den\n1,1,1\n"

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            render.peaks_csv(_table([], 3))
        with pytest.raises(ValueError):
            render.module_csv(Module.of([], 0))


class TestStemSvg:
    def test_structure_and_heights(self):
        peaks = [
            (Dyadic(0), 0.5 + 0j),
            (Dyadic(1, 1), 0.25 + 0j),
        ]
        svg = render.stem_svg(_table(peaks, 1), 0, 1)
        root = ET.fromstring(svg)
        lines = [el for el in root if el.tag.endswith("line")]
        # Baseline plus one stem per peak.
        assert len(lines) == 3
        stems = lines[1:]
        heights = [float(s.get("y1")) - float(s.get("y2")) for s in stems]
        assert heights[0] == pytest.approx(400 - 2 * 40)
        assert heights[1] == pytest.approx(heights[0] / 2)
        xs = [float(s.get("x1")) for s in stems]
        assert xs[0] == pytest.approx(40.0)
        assert xs[1] == pytest.approx(40.0 + 0.5 * (800 - 80))

    def test_zero_peaks_render_no_stems(self):
        svg = render.stem_svg(_table([(Dyadic(0), 0j)], 1), 0, 1)
        root = ET.fromstring(svg)
        assert len([el for el in root if el.tag.endswith("line")]) == 1

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            render.stem_svg(_table([], 1), 1, 1)

    def test_width_that_rounds_to_zero_rejected(self):
        # 10^-400 is nonzero but floats to 0.0, which would divide to nan.
        with pytest.raises(ValueError, match="empty axis range"):
            render.stem_svg(_table([(Dyadic(0), 1 + 0j)], 1), 0, Fraction("1e-400"))

    def test_determinism(self):
        peaks = [(Dyadic(m, 3), complex(m) / 10) for m in range(1, 8, 2)]
        assert render.stem_svg(_table(peaks, 1), 0, 1) == render.stem_svg(_table(peaks, 1), 0, 1)


class TestDiscSvg:
    def test_areas_proportional_to_intensity(self):
        peaks = [
            (DyadicPoint2(0, 0, 0), 1 + 0j, 1.0),
            (DyadicPoint2(1, 1, 1), 0.5 + 0j, 0.25),
            (DyadicPoint2(1, 0, 1), 0.1 + 0j, 0.01),
        ]
        svg = render.disc_svg(_columns(peaks, 2), (-1, 1))
        root = ET.fromstring(svg)
        circles = [el for el in root if el.tag.endswith("circle")]
        assert len(circles) == 3
        radii = [float(c.get("r")) for c in circles]
        intensities = [float(c.get("data-intensity")) for c in circles]
        assert intensities == [1.0, 0.25, 0.01]
        assert radii[0] == pytest.approx(16.0)
        for radius, intensity in zip(radii, intensities):
            assert radius**2 / radii[0] ** 2 == pytest.approx(intensity, rel=1e-12)

    def test_positions_follow_the_region(self):
        peaks = [(DyadicPoint2(1, 1, 0), 1 + 0j)]
        svg = render.disc_svg(_table(peaks, 2), (-1, 1), (0, 2))
        circle = next(
            el for el in ET.fromstring(svg) if el.tag.endswith("circle")
        )
        # x: 1 is the right edge of [-1, 1]; y: 1 sits mid [0, 2], axis up.
        assert float(circle.get("cx")) == pytest.approx(40 + 720)
        assert float(circle.get("cy")) == pytest.approx(800 - 40 - 0.5 * 720)

    def test_zero_intensity_peaks_are_dropped(self):
        peaks = [(DyadicPoint2(0, 0, 0), 0j)]
        svg = render.disc_svg(_table(peaks, 2), (-1, 1))
        assert "circle" not in svg

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            render.disc_svg(_table([], 2), (0, 0))

    @pytest.mark.parametrize("bounds", [((0, Fraction("1e-400")), (0, 1)), ((0, 1), (0, Fraction("1e-400")))])
    def test_width_that_rounds_to_zero_rejected(self, bounds):
        with pytest.raises(ValueError, match="empty axis range"):
            render.disc_svg(_table([(DyadicPoint2(0, 0, 0), 1 + 0j)], 2), *bounds)


# Integer lower bounds of both signs up to about 10^18, the far ends included.
_far_bounds = st.one_of(
    st.integers(-(10**18), 10**18),
    st.sampled_from([10**18, -(10**18), 2**59, -(2**59), 2**53 + 1, -(2**53) - 1, 3, -3]),
)


class TestPlacement:
    """Figures place each peak by its offset from the lower bound, taken off exactly."""

    @settings(max_examples=150, deadline=None)
    @given(_far_bounds, st.integers(min_value=0, max_value=4))
    def test_stems_sit_at_the_exact_offsets(self, lo, cutoff):
        # The finest level whose numerators on [lo, lo + 1] stay in int64.
        cutoff = min(cutoff, 62 - (abs(lo) + 1).bit_length())
        hi = lo + 1
        module = module_points(cutoff, ((lo, hi),))
        table = render.PeakTable.of(module, np.ones(len(module)))
        root = ET.fromstring(render.stem_svg(table, lo, hi))
        stems = [el for el in root if el.tag.endswith("line")][1:]
        expected = [40.0 + float(k.value - lo) / float(hi - lo) * 720.0 for k in module.points()]
        assert _bits([float(stem.get("x1")) for stem in stems]) == _bits(expected)
        assert stems[0].get("x1") == "40.0" and stems[-1].get("x1") == "760.0"

    @pytest.mark.parametrize(
        "ks, lo",
        [
            # Shifting 1/16 by 10^18 * 2^4 would wrap in int64.
            ([Dyadic(1, 4), Dyadic(10**18), Dyadic(-3, 2)], 10**18),
            ([Dyadic(1, 4), Dyadic(-(10**18)), Dyadic(5)], -(10**18)),
            # The shift fits, but -6e18 - 4e18 does not.
            ([Dyadic(-6 * 10**18), Dyadic(1, 1)], 4 * 10**18),
        ],
    )
    def test_points_far_outside_keep_the_float_offsets(self, ks, lo):
        pairs = [(k, 1 + 0j) for k in ks]
        peaks = _rows(pairs)
        assert render.stem_svg(_table(pairs, 1), lo, lo + 1) == _legacy_stem_svg(peaks, lo, lo + 1)
        plane = [(DyadicPoint2(k.m, k.m, k.r), a) for k, a in pairs]
        bounds = ((lo, lo + 1), (lo, lo + 1))
        assert render.disc_svg(_table(plane, 2), *bounds) == _legacy_disc_svg(_rows(plane), *bounds)


def _window_text_per_cell(window, letters):
    """The text rendering one cell at a time, the bar inserted into the list of letters."""
    letters = tuple(letters)
    if window.dim == 1:
        (lo,) = window.origin
        chars = [letters[label] for label in window.labels.tolist()]
        if lo < 0 < lo + len(chars):
            chars.insert(-lo, "|")
        return "".join(chars) + "\n"
    rows = [" ".join(letters[label] for label in row.tolist()) for row in window.labels[::-1]]
    return "\n".join(rows) + "\n"


def _window_pgm_per_cell(window, n_letters):
    """The PGM rendering with one ``str`` per cell."""
    spread = max(n_letters - 1, 1)
    greys = [255 * index // spread for index in range(n_letters)]
    ny, nx = window.labels.shape
    lines = ["P2", f"{nx} {ny}", "255"]
    for row in window.labels[::-1]:
        lines.append(" ".join(str(greys[label]) for label in row.tolist()))
    return "\n".join(lines) + "\n"


_letter_sets = st.lists(
    st.text(alphabet="ab01|", min_size=1, max_size=3), min_size=1, max_size=4
)


@st.composite
def _random_windows(draw, dim):
    """A window of random labels, origin and shape, with one string per label."""
    letters = draw(_letter_sets)
    shape = tuple(draw(st.integers(2 - dim, 40 if dim == 1 else 12)) for _ in range(dim))
    size = math.prod(shape)
    cells = draw(st.lists(st.integers(0, len(letters) - 1), min_size=size, max_size=size))
    origin = tuple(draw(st.integers(-45, 5)) for _ in range(dim))
    labels = np.array(cells, dtype=np.uint8).reshape(shape)
    return PatternWindow(origin, labels), letters


class TestWindowRendering:
    @settings(max_examples=150, deadline=None)
    @given(_random_windows(1), st.integers(1, 8))
    def test_chain_text_matches_the_per_cell_text(self, case, band):
        window, letters = case
        with mock.patch.object(render, "_TEXT_BAND", band):
            assert render.window_text(window, letters) == _window_text_per_cell(window, letters)

    @settings(max_examples=60, deadline=None)
    @given(_random_windows(2))
    def test_plane_text_and_pgm_match_the_per_cell_forms(self, case):
        window, letters = case
        assert render.window_text(window, letters) == _window_text_per_cell(window, letters)
        assert render.window_pgm(window, len(letters)) == _window_pgm_per_cell(window, len(letters))

    def test_chain_text_scratch_stays_near_the_text(self):
        # 2^21 + 2 characters of text; the per-cell list it replaced peaked at 33.9 MB.
        window = period_doubling.pattern_window(10)
        tracemalloc.start()
        try:
            text = render.window_text(window, ("a", "b"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) == window.labels.size + 2
        assert peak < 8 << 20

    def test_chain_text_with_origin_bar(self):
        window = PatternWindow((-4,), np.array([0, 1, 0, 0, 0, 1, 0, 0], dtype=np.uint8))
        assert render.window_text(window, ("a", "b")) == "abaa|abaa\n"

    def test_chain_text_without_origin(self):
        window = PatternWindow((2,), np.array([0, 1], dtype=np.uint8))
        assert render.window_text(window, ("a", "b")) == "ab\n"
        window = PatternWindow((0,), np.array([0, 1], dtype=np.uint8))
        assert render.window_text(window, ("a", "b")) == "ab\n"

    def test_block_text_prints_top_row_first(self):
        labels = np.array([[2, 1], [3, 0]], dtype=np.uint8)
        window = PatternWindow((-1, -1), labels)
        assert render.window_text(window, "0123") == "3 0\n2 1\n"

    def test_pgm_grid(self):
        labels = np.array([[2, 1], [3, 0]], dtype=np.uint8)
        window = PatternWindow((-1, -1), labels)
        assert render.window_pgm(window, 4) == "P2\n2 2\n255\n255 0\n170 85\n"

    def test_pgm_single_letter(self):
        window = PatternWindow((0, 0), np.zeros((1, 2), dtype=np.uint8))
        assert render.window_pgm(window, 1) == "P2\n2 1\n255\n0 0\n"

    def test_pgm_validation(self):
        chain = PatternWindow((0,), np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            render.window_pgm(chain, 2)
        plane = PatternWindow((0, 0), np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            render.window_pgm(plane, 0)


class TestFormatting:
    def test_reprs_shortest_round_trip(self):
        column = np.array([0.1, 1 / 3, -0.0, 2.0, 0.1, 0.0])
        assert render._reprs(column) == ["0.1", "0.3333333333333333", "0.0", "2.0", "0.1", "0.0"]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
                st.sampled_from([0, -1, (1 << 63) - 1, -((1 << 63) - 1), -(1 << 63)]),
            ),
            max_size=40,
        )
    )
    @example([])
    @example([(1 << 63) - 1, -((1 << 63) - 1), -(1 << 63), 0, (1 << 63) - 1])
    def test_reprs_of_int64_columns_are_str(self, values):
        column = np.array(values, dtype=np.int64)
        assert render._reprs(column) == list(map(str, column.tolist()))

    def test_svg_headers_match(self):
        stem = render.stem_svg(_table([], 1), 0, 1)
        disc = render.disc_svg(_table([], 2), (0, 1))
        assert stem.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert disc.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert re.search(r'width="800" height="400"', stem)
        assert re.search(r'width="800" height="800"', disc)
