"""Exactness tests for dyadic rationals, phases and module enumeration.

The whole package leans on these invariants: a dyadic number has exactly one
normal form, phases are group homomorphisms into the unit circle, and the
enumerated wave-number modules nest as the denominator cutoff grows.  The
array enumeration is pinned to the per-level, Fraction-sorted enumeration it
replaced (kept below as a test oracle), inside its int64 range and at both
edges of it, and it refuses oversized boxes before allocating;
``normal_form`` is pinned to the scalar normalisation, wrapped columns
included; ``phase_arrays`` is pinned bit for bit to ``phase``.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from limitper import dyadic
from limitper.dyadic import (
    MAX_LEVEL,
    Dyadic,
    DyadicPoint2,
    Module,
    module_box,
    module_interval,
    module_points,
    normal_form,
    phase,
    phase_arrays,
)

# Numerators and denominator exponents kept small enough that shifted
# products stay exact in the integer arithmetic under test.
_nums = st.integers(min_value=-(1 << 40), max_value=1 << 40)
_exps = st.integers(min_value=0, max_value=24)
# Exponents past 10^4, for the normal form of wide numerators.
_wide_exps = st.integers(min_value=0, max_value=1 << 15)
# Numerators far past int64.
_huge_nums = st.integers(min_value=-(1 << 80), max_value=1 << 80)


def _dyadics():
    return st.builds(Dyadic.of, _nums, _exps)


def _points():
    return st.builds(DyadicPoint2.of, _nums, _nums, _exps)


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


class TestNormalForm:
    def test_of_strips_shared_twos(self):
        assert Dyadic.of(6, 2) == Dyadic(3, 1)
        assert Dyadic.of(4, 2) == Dyadic(1, 0)
        assert Dyadic.of(5, 3) == Dyadic(5, 3)

    def test_zero_collapses_to_exponent_zero(self):
        assert Dyadic.of(0, 7) == Dyadic(0, 0)

    def test_constructor_rejects_non_normal_pairs(self):
        with pytest.raises(ValueError):
            Dyadic(2, 1)
        with pytest.raises(ValueError):
            Dyadic(1, -1)
        with pytest.raises(ValueError):
            Dyadic.of(1, -1)

    @given(_nums, _exps)
    def test_normal_form_is_normal(self, num, exp):
        d = Dyadic.of(num, exp)
        assert d.r == 0 or d.m % 2 == 1

    @given(_nums, _exps)
    def test_normal_form_preserves_value(self, num, exp):
        assert Dyadic.of(num, exp).value == Fraction(num, 1 << exp)

    @given(_nums, _exps, st.integers(min_value=0, max_value=8))
    def test_normal_form_is_unique(self, num, exp, extra):
        # Any representation of the same value normalises identically.
        assert Dyadic.of(num << extra, exp + extra) == Dyadic.of(num, exp)

    @given(_nums, _wide_exps, _wide_exps)
    @example(1, 80000, 80000)
    def test_of_at_wide_exponents(self, base, twos, exp):
        # num / 2^exp with num = base * 2^twos: up to 2^15 factors of two either way.
        num = base << twos
        d = Dyadic.of(num, exp)
        assert d.value == Fraction(num, 1 << exp)
        assert d.r == 0 or d.m % 2 == 1

    @given(_nums, _nums, _wide_exps, _wide_exps, _wide_exps)
    @example(1, 3, 80000, 80000, 80000)
    def test_point_of_at_wide_exponents(self, m, n, m_twos, n_twos, exp):
        mx, ny = m << m_twos, n << n_twos
        p = DyadicPoint2.of(mx, ny, exp)
        assert p.value == (Fraction(mx, 1 << exp), Fraction(ny, 1 << exp))
        assert p.s == 0 or p.m % 2 == 1 or p.n % 2 == 1

    @given(_dyadics(), _dyadics())
    def test_equal_value_iff_equal_representation(self, a, b):
        assert (a == b) == (a.value == b.value)

    def test_str(self):
        assert str(Dyadic(3, 2)) == "3/4"
        assert str(Dyadic(-2)) == "-2"
        assert str(DyadicPoint2(-3, 0, 2)) == "(-3/4, 0)"

    # Both signs, levels 0 to 70 and numerators far past int64: ``Fraction``
    # is an independent oracle for the text the verify report prints.
    @given(_huge_nums, _huge_nums, st.integers(min_value=0, max_value=70))
    @example(-(1 << 70) - 1, 1 << 65, 70)
    @example(-6, 0, 0)
    def test_str_matches_fraction(self, num, other, exp):
        assert str(Dyadic.of(num, exp)) == str(Fraction(num, 1 << exp))
        p = DyadicPoint2.of(num, other, exp)
        assert str(p) == f"({p.value[0]}, {p.value[1]})"

    @given(_dyadics())
    def test_negation_is_exact(self, a):
        assert (-a).value == -a.value


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


class TestPhase:
    def test_quarter_turns_are_exact(self):
        assert phase(Dyadic(0)) == 1 + 0j
        assert phase(Dyadic(7)) == 1 + 0j
        assert phase(Dyadic(1, 1)) == -1 + 0j
        assert phase(Dyadic(1, 2)) == 1j
        assert phase(Dyadic(3, 2)) == -1j
        assert phase(Dyadic(-1, 2)) == -1j

    def test_eighth_turn(self):
        got = phase(Dyadic(1, 3))
        expected = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        assert got == pytest.approx(expected, abs=1e-15)

    @given(_dyadics())
    def test_unit_modulus(self, a):
        assert abs(phase(a)) == pytest.approx(1.0, abs=1e-12)

    @given(_dyadics(), _dyadics())
    def test_additivity(self, a, b):
        r = max(a.r, b.r)
        total = Dyadic.of((a.m << (r - a.r)) + (b.m << (r - b.r)), r)
        assert phase(total) == pytest.approx(phase(a) * phase(b), abs=1e-12)

    @given(_dyadics())
    def test_conjugation_under_negation(self, a):
        assert phase(-a) == pytest.approx(phase(a).conjugate(), abs=1e-12)

    @given(_dyadics(), st.integers(min_value=-8, max_value=8))
    def test_integer_periodicity(self, a, n):
        assert phase(Dyadic.of(a.m + (n << a.r), a.r)) == pytest.approx(phase(a), abs=1e-12)


# ---------------------------------------------------------------------------
# Plane points
# ---------------------------------------------------------------------------


class TestDyadicPoint2:
    def test_normal_form(self):
        assert DyadicPoint2.of(6, 2, 2) == DyadicPoint2(3, 1, 1)
        assert DyadicPoint2.of(4, 8, 2) == DyadicPoint2(1, 2, 0)
        assert DyadicPoint2.of(1, 0, 2) == DyadicPoint2(1, 0, 2)
        with pytest.raises(ValueError):
            DyadicPoint2(2, 2, 1)

    @given(_points())
    def test_negation_is_exact(self, p):
        assert (-p).value == (-p.value[0], -p.value[1])

    @given(_points(), st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    def test_dot_is_exact(self, p, step):
        assert p.dot(step).value == p.value[0] * step[0] + p.value[1] * step[1]

    def test_map_ints_quarter_turn(self):
        k = DyadicPoint2(1, 0, 2)
        assert k.map_ints(0, -1, 1, 0) == DyadicPoint2(0, 1, 2)
        assert k.map_ints(1, 0, 0, -1) == DyadicPoint2(1, 0, 2)


# ---------------------------------------------------------------------------
# Module enumeration
# ---------------------------------------------------------------------------


class TestModuleInterval:
    def test_halves_and_quarters(self):
        assert module_interval(1, 0, 1, include_hi=False) == [Dyadic(0), Dyadic(1, 1)]
        assert module_interval(2, 0, 1, include_hi=False) == [
            Dyadic(0),
            Dyadic(1, 2),
            Dyadic(1, 1),
            Dyadic(3, 2),
        ]

    def test_closed_interval_keeps_endpoint(self):
        points = module_interval(2, 0, 1)
        assert points[-1] == Dyadic(1)
        assert len(points) == 5

    def test_integers_only(self):
        assert module_interval(0, -2, 2) == [Dyadic(m) for m in range(-2, 3)]

    def test_errors(self):
        with pytest.raises(ValueError):
            module_interval(-1, 0, 1)
        with pytest.raises(ValueError):
            module_interval(2, 1, 0)

    @given(st.integers(min_value=0, max_value=6))
    def test_nesting_in_the_cutoff(self, r_max):
        coarse = module_interval(r_max, -1, 1)
        fine = module_interval(r_max + 1, -1, 1)
        assert set(coarse) <= set(fine)

    @given(st.integers(min_value=0, max_value=6))
    def test_sorted_unique_and_in_range(self, r_max):
        points = module_interval(r_max, 0, 1, include_hi=False)
        values = [p.value for p in points]
        assert values == sorted(values)
        assert len(set(points)) == len(points)
        assert all(0 <= v < 1 for v in values)
        assert all(p.r <= r_max for p in points)

    def test_count_doubles_per_level(self):
        # [0, 1) gains 2^(r-1) new odd-numerator points at each level r.
        for r_max in range(1, 8):
            assert len(module_interval(r_max, 0, 1, include_hi=False)) == 1 << r_max


class TestModuleBox:
    def test_unit_cell_at_s1(self):
        points = module_box(1, (0, 1), include_hi=False)
        assert points == [
            DyadicPoint2(0, 0, 0),
            DyadicPoint2(0, 1, 1),
            DyadicPoint2(1, 0, 1),
            DyadicPoint2(1, 1, 1),
        ]

    def test_integer_grid(self):
        points = module_box(0, (-1, 1))
        assert len(points) == 9
        assert all(p.s == 0 for p in points)

    def test_rectangular_bounds(self):
        points = module_box(0, (0, 2), (0, 1))
        assert {(p.m, p.n) for p in points} == {
            (m, n) for m in range(3) for n in range(2)
        }

    @given(st.integers(min_value=0, max_value=4))
    def test_nesting_in_the_cutoff(self, s_max):
        coarse = module_box(s_max, (0, 1), include_hi=False)
        fine = module_box(s_max + 1, (0, 1), include_hi=False)
        assert set(coarse) <= set(fine)

    @given(st.integers(min_value=0, max_value=4))
    def test_sorted_by_value_and_in_range(self, s_max):
        points = module_box(s_max, (0, 1), include_hi=False)
        values = [p.value for p in points]
        assert values == sorted(values)
        assert len(set(points)) == len(points)
        assert all(p.s <= s_max for p in points)
        assert all(0 <= vx < 1 and 0 <= vy < 1 for vx, vy in values)

    def test_count_per_level(self):
        # In [0,1)^2 level s adds 4^s - 4^(s-1) points; the closed total is 4^s.
        for s_max in range(5):
            assert len(module_box(s_max, (0, 1), include_hi=False)) == 4**s_max

    def test_errors(self):
        with pytest.raises(ValueError):
            module_box(-1, (0, 1))
        with pytest.raises(ValueError):
            module_box(1, (1, 0))


# ---------------------------------------------------------------------------
# Array enumeration against the Fraction-sorted lists
# ---------------------------------------------------------------------------


def _level_indices(lo: Fraction, hi: Fraction, den: int, include_hi: bool) -> range:
    first = math.ceil(lo * den)
    last = math.floor(hi * den)
    if not include_hi and Fraction(last, den) == hi:
        last -= 1
    return range(first, last + 1)


def _sorted_interval(r_max, lo, hi, include_hi):
    """The enumeration ``module_points`` replaced: level by level, sorted by value."""
    points = []
    for r in range(r_max + 1):
        for m in _level_indices(Fraction(lo), Fraction(hi), 1 << r, include_hi):
            if r == 0 or m % 2 == 1:
                points.append(Dyadic(m, r))
    return sorted(points, key=lambda k: k.value)


def _sorted_box(s_max, x_bounds, y_bounds, include_hi):
    points = []
    for s in range(s_max + 1):
        ys = list(_level_indices(*map(Fraction, y_bounds), 1 << s, include_hi))
        for m in _level_indices(*map(Fraction, x_bounds), 1 << s, include_hi):
            for n in ys:
                if s == 0 or m % 2 == 1 or n % 2 == 1:
                    points.append(DyadicPoint2(m, n, s))
    return sorted(points, key=lambda k: k.value)


@st.composite
def _ranges(draw, reach=60):
    """A rational [lo, hi], endpoints with denominators up to 12."""
    bounds = st.builds(
        Fraction,
        st.integers(min_value=-reach, max_value=reach),
        st.integers(min_value=1, max_value=12),
    )
    lo = draw(bounds)
    return lo, lo + abs(draw(bounds))


class TestModulePoints:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=7), _ranges(), st.booleans())
    def test_interval_matches_the_sorted_levels(self, r_max, bounds, include_hi):
        expected = _sorted_interval(r_max, *bounds, include_hi)
        assert module_interval(r_max, *bounds, include_hi=include_hi) == expected
        module = module_points(r_max, (bounds,), include_hi=include_hi)
        assert module.numerators.dtype == np.int64 and module.numerators.shape == (len(expected), 1)
        assert module.exponents.tolist() == [k.r for k in expected]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=5), _ranges(6), _ranges(6), st.booleans())
    def test_box_matches_the_sorted_levels(self, s_max, x_bounds, y_bounds, include_hi):
        expected = _sorted_box(s_max, x_bounds, y_bounds, include_hi)
        assert module_box(s_max, x_bounds, y_bounds, include_hi=include_hi) == expected
        module = module_points(s_max, (x_bounds, y_bounds), include_hi=include_hi)
        assert module.numerators.tolist() == [[k.m, k.n] for k in expected]
        assert module.exponents.tolist() == [k.s for k in expected]

    def test_single_point_keeps_its_own_level(self):
        # Only 1/4 lies in [1/4, 1/4]; a cutoff of 40 must not push it finer.
        assert module_points(40, ((Fraction(1, 4), Fraction(1, 4)),)).points() == [Dyadic(1, 2)]
        assert module_points(40, ((0, 0), (3, 3))).points() == [DyadicPoint2(0, 3, 0)]
        assert module_points(5, ((Fraction(1, 3), Fraction(1, 3)),)).points() == []

    def test_empty_and_half_open_degenerate(self):
        assert len(module_points(3, ((1, 1),), include_hi=False)) == 0
        empty = module_points(3, ((0, 1), (1, 1)), include_hi=False)
        assert empty.numerators.shape == (0, 2) and empty.exponents.shape == (0,)

    def test_module_of_round_trips(self):
        points = module_box(2, (-1, 1))
        module = Module.of(points, 2)
        assert module.points() == points
        assert len(module.select(module.exponents == 2)) == sum(k.s == 2 for k in points)
        with pytest.raises(TypeError):
            Module.of([Dyadic(1)], 2)

    @pytest.mark.parametrize(
        "point, dim",
        [(Dyadic(-7, 70), 1), (DyadicPoint2(1, 0, 70), 2), (Dyadic(2**70 + 1, 3), 1)],
        ids=["chain-level-70", "plane-level-70", "numerator-past-int64"],
    )
    def test_module_of_refuses_points_past_the_array_range(self, point, dim):
        with pytest.raises(ValueError) as refused:
            Module.of([point], dim)
        assert repr(point) in str(refused.value)


# Scaled numerators at the finest level must lie in [-2^63, 2^63 - 1].
_TOP, _BOTTOM = (1 << 63) - 1, -(1 << 63)


class TestInt64Range:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=MAX_LEVEL),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_upper_edge(self, level, width, past):
        den = 1 << level
        lo = Fraction(_TOP - width - past, den)
        inside = module_points(level, ((lo, Fraction(_TOP - past, den)),))
        assert inside.points() == _sorted_interval(level, lo, Fraction(_TOP - past, den), True)
        assert inside.points()[-1] == Dyadic.of(_TOP - past, level)
        with pytest.raises(ValueError, match="int64"):
            module_points(level, ((lo, Fraction(_TOP + 1 + past, den)),))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=MAX_LEVEL),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_lower_edge(self, level, width, past):
        den = 1 << level
        hi = Fraction(_BOTTOM + width + past, den)
        inside = module_points(level, ((Fraction(_BOTTOM + past, den), hi), (0, 0)))
        assert inside.points()[0] == DyadicPoint2.of(_BOTTOM + past, 0, level)
        assert len(inside) == width + 1
        with pytest.raises(ValueError, match="int64"):
            module_points(level, ((Fraction(_BOTTOM - 1 - past, den), hi), (0, 0)))

    def test_finest_level_edge(self):
        assert module_points(MAX_LEVEL, ((0, Fraction(1, 1 << 61)),)).exponents.max() == MAX_LEVEL
        with pytest.raises(ValueError, match=f"2\\^{MAX_LEVEL}"):
            module_points(MAX_LEVEL + 1, ((0, Fraction(1, 1 << 61)),))
        # One point at a coarse level stays in range whatever the cutoff.
        assert module_points(MAX_LEVEL + 40, ((Fraction(1, 1 << 62),) * 2,)).points() == [
            Dyadic(1, 62)
        ]

    @pytest.mark.parametrize("bound", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_bounds_are_refused(self, bound):
        with pytest.raises(ValueError):
            module_points(3, ((0, bound),))
        with pytest.raises(ValueError):
            module_points(3, ((0, 1), (bound, 1)))


class TestPointBound:
    def test_refuses_past_the_bound_before_allocating(self, monkeypatch):
        monkeypatch.setattr(dyadic, "MAX_POINTS", 17)
        assert len(module_points(4, ((0, 1),))) == 17
        assert len(module_points(2, ((0, Fraction(3, 4)), (-Fraction(3, 4), 0)))) == 16
        with pytest.raises(ValueError, match="18 module points"):
            module_points(4, ((0, Fraction(17, 16)),))
        with pytest.raises(ValueError, match="25 module points"):
            module_points(2, ((0, 1), (0, 1)))

    def test_count_is_exact_far_past_int64(self):
        with pytest.raises(ValueError, match=f"{(1 << 40) + 1} module points"):
            module_points(40, ((0, 1),))
        with pytest.raises(ValueError, match=f"{((1 << 61) + 1) ** 2} module points"):
            module_points(60, ((-1, 1), (-1, 1)))

    def test_bound_is_far_above_the_sweeps(self):
        assert dyadic.MAX_POINTS >= 100 * len(module_points(7, ((-1, 1), (-1, 1))))



def _peak_bytes(call):
    """``call()``'s outcome (its result or the exception it raised) and its tracemalloc peak."""
    tracemalloc.start()
    try:
        try:
            outcome = call()
        except ValueError as refused:
            outcome = refused
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _outcome_at_the_cutoff(cutoff, bounds):
    """What ``module_points`` answers for a box that holds at most one point per axis, or refuses.

    The axes are indexed at 2^cutoff itself, as the enumeration did before
    it found them at a coarser level: two indices on an axis put points at
    level ``cutoff``, one on every axis is a single point at its own level.
    """
    den = 1 << cutoff
    axes = [range(math.ceil(lo * den), math.floor(hi * den) + 1) for lo, hi in bounds]
    # Counts from the ends: len() of a range overflows past 2^63 - 1.
    counts = [axis.stop - axis.start for axis in axes]
    if min(counts) <= 0:
        return []
    if max(counts) > 1:
        return f"reach denominator 2^{cutoff};"
    point = (Dyadic.of if len(axes) == 1 else DyadicPoint2.of)(*(axis[0] for axis in axes), cutoff)
    level = point.r if len(axes) == 1 else point.s
    if level > MAX_LEVEL:
        return f"reach denominator 2^{level};"
    # A numerator past int64 at its own level is refused, the first by axis.
    numerators = (point.m,) if len(axes) == 1 else (point.m, point.n)
    for j in numerators:
        if not _BOTTOM <= j <= _TOP:
            return f"module numerator {j} at denominator 2^{level} is outside the int64 range"
    return [point]


# Micro boxes: a corner with a dyadic or a non-dyadic denominator and a width
# of 0 or about 2^-width_exp, so that past MAX_LEVEL an axis holds 0, 1 or
# more indices depending on the cutoff.
_corners = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.one_of(st.integers(min_value=0, max_value=120).map(lambda k: 1 << k), st.integers(1, 12)),
)
_widths = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda num, exp: Fraction(num, 1 << exp), st.integers(1, 3), st.integers(0, 150)),
)


class TestHugeCutoff:
    """Past MAX_LEVEL the answer is found without building 2^cutoff."""

    @pytest.mark.parametrize(
        "bounds",
        [((0, 1),), ((-1, 1), (0, Fraction(1, 1000000))), ((0, 0), (0, Fraction(1, 2**200)))],
        ids=["chain", "plane", "plane-one-wide-axis"],
    )
    def test_a_box_of_nonzero_width_is_refused_at_once(self, bounds):
        refused, peak = _peak_bytes(lambda: module_points(10**12, bounds))
        assert isinstance(refused, ValueError)
        assert str(refused) == (
            f"module points reach denominator 2^{10**12}; the array routes stop at 2^{MAX_LEVEL}"
        )
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "bounds, expected",
        [
            (((Fraction(3, 8), Fraction(3, 8)),), [Dyadic(3, 3)]),
            (((0, 0), (Fraction(-5, 2**62), Fraction(-5, 2**62))), [DyadicPoint2(0, -5, 62)]),
            (((Fraction(1, 2**63), Fraction(1, 2**63)),), "reach denominator 2^63;"),
            (((Fraction(1, 3), Fraction(1, 3)),), []),
            (((0, 1), (Fraction(1, 3), Fraction(1, 3))), []),
        ],
        ids=["own-level", "plane-level-62", "level-63", "not-dyadic", "empty-axis-wins"],
    )
    def test_a_degenerate_box_keeps_its_answer(self, bounds, expected):
        outcome, peak = _peak_bytes(lambda: module_points(10**12, bounds))
        if isinstance(expected, str):
            assert isinstance(outcome, ValueError) and expected in str(outcome)
        else:
            assert outcome.points() == expected
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=MAX_LEVEL + 1, max_value=400),
        st.lists(st.tuples(_corners, _widths), min_size=1, max_size=2),
    )
    @example(63, [(Fraction(0), Fraction(1, 2**100))])
    @example(300, [(Fraction(0), Fraction(1, 2**100))])
    @example(63, [(Fraction(1, 2**62), Fraction(0)), (Fraction(2), Fraction(0))])
    def test_matches_the_indices_at_the_cutoff(self, cutoff, corners):
        bounds = [(lo, lo + width) for lo, width in corners]
        expected = _outcome_at_the_cutoff(cutoff, bounds)
        try:
            got = module_points(cutoff, bounds).points()
        except ValueError as refused:
            got = str(refused)
        if isinstance(expected, str):
            assert expected in got
        else:
            assert got == expected


@st.composite
def _capped_boxes(draw):
    """A cutoff and a box: small, micro past MAX_LEVEL (one point or none, or refused), or refused."""
    kind = draw(st.sampled_from(["interval", "rectangle", "micro", "refused"]))
    if kind == "interval":
        return draw(st.integers(0, 7)), [draw(_ranges(6))]
    if kind == "rectangle":
        return draw(st.integers(0, 5)), [draw(_ranges(6)), draw(_ranges(6))]
    if kind == "micro":
        corners = draw(st.lists(st.tuples(_corners, _widths), min_size=1, max_size=2))
        return draw(st.integers(MAX_LEVEL + 1, 400)), [(lo, lo + width) for lo, width in corners]
    return draw(
        st.sampled_from([(62, [(0, 2)]), (62, [(-3, 0)]), (30, [(0, 1)])])
        | st.tuples(st.integers(11, 70), st.just([(-2, 2), (-2, 2)]))
    )


class TestDepth:
    """``depth`` keeps the checks on the cutoff and builds only the levels up to it."""

    @settings(max_examples=300, deadline=None)
    @given(_capped_boxes(), st.booleans(), st.data())
    @example((12, [(-2, 2), (-2, 2)]), True, None)
    @example((63, [(0, 1)]), True, None)
    def test_the_capped_box_is_the_full_box_up_to_depth(self, box, include_hi, data):
        cutoff, bounds = box
        depth = 0 if data is None else data.draw(st.integers(-1, cutoff))
        try:
            full = module_points(cutoff, bounds, include_hi=include_hi)
        except ValueError as refused:
            with pytest.raises(ValueError) as capped:
                module_points(cutoff, bounds, include_hi=include_hi, depth=depth)
            assert str(capped.value) == str(refused)
            return
        capped = module_points(cutoff, bounds, include_hi=include_hi, depth=depth)
        kept = full.exponents <= depth
        assert capped.numerators.dtype == capped.exponents.dtype == np.int64
        assert capped.numerators.shape == (int(kept.sum()), len(bounds))
        assert capped.numerators.tolist() == full.numerators[kept].tolist()
        assert capped.exponents.tolist() == full.exponents[kept].tolist()


_int64 = st.integers(min_value=_BOTTOM, max_value=_TOP)


class TestNormalFormArrays:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_int64, _int64, st.integers(0, MAX_LEVEL)), min_size=1, max_size=30))
    def test_matches_the_scalar_normalisation(self, triples):
        m, n, s = (np.array(column, dtype=np.int64) for column in zip(*triples))
        assert normal_form((m, n), s).points() == [DyadicPoint2.of(*t) for t in triples]
        assert normal_form((m,), s).points() == [Dyadic.of(t[0], t[2]) for t in triples]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(_int64, _int64, st.integers(0, MAX_LEVEL)), min_size=1, max_size=30),
        st.sampled_from([(1, 1), (1, -1), (-1, -1), (2, -3), (-1, 0)]),
    )
    def test_wrapped_columns_keep_levels_and_residues(self, triples, coefficients):
        # a m + b n may leave int64; levels and residues mod 2^level survive.
        a, b = coefficients
        m, n, s = (np.array(column, dtype=np.int64) for column in zip(*triples))
        got = normal_form((a * m + b * n,), s)
        expected = [Dyadic.of(a * x + b * y, level) for x, y, level in triples]
        assert got.exponents.tolist() == [k.r for k in expected]
        residues = [int(j) % (1 << k.r) for j, k in zip(got.numerators[:, 0], expected)]
        assert residues == [k.m % (1 << k.r) for k in expected]

    def test_broadcast_columns_and_a_single_level(self):
        ticks = (np.arange(3, dtype=np.int64)[:, None], np.arange(2, dtype=np.int64)[None, :])
        got = normal_form(ticks, 1)
        assert got.points() == [DyadicPoint2.of(x, y, 1) for x in range(3) for y in range(2)]


def _trailing_zeros_rule(value: int, cap: int) -> int:
    """Python's lowest-set-bit count, capped; zero reads the cap."""
    return cap if value == 0 else min((value & -value).bit_length() - 1, cap)


# Both signs at the top valuations, 3 * 2^62 wrapped to int64, and -2^63.
_TRAILING_EDGES = [0, 1, -1, 1 << 61, -(1 << 61), 1 << 62, -(1 << 62), (3 << 62) - (1 << 64), _BOTTOM]


class TestTrailingZeros:
    """``_trailing_zeros``, which ``normal_form`` and the chain's eta arrays read."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_int64, max_size=30), st.sampled_from([62, 64]))
    @example(_TRAILING_EDGES, 62)
    @example(_TRAILING_EDGES, 64)
    def test_matches_the_python_bit_rule(self, values, cap):
        got = dyadic._trailing_zeros(np.array(values, dtype=np.int64), cap)
        assert got.dtype == np.int64
        assert got.tolist() == [_trailing_zeros_rule(v, cap) for v in values]


class TestPhaseArrays:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=_BOTTOM, max_value=_TOP),
                st.integers(min_value=0, max_value=MAX_LEVEL),
            ),
            max_size=40,
        )
    )
    def test_bits_match_phase(self, pairs):
        points = [Dyadic.of(m, r) for m, r in pairs]
        module = Module.of(points, 1)
        phases = phase_arrays(module.numerators[:, 0], module.exponents)
        assert phases.dtype == complex
        re, im = phases.real, phases.imag
        expected = np.array([phase(k) for k in points], dtype=complex).reshape(-1)
        assert re.view(np.int64).tolist() == expected.real.view(np.int64).tolist()
        assert im.view(np.int64).tolist() == expected.imag.view(np.int64).tolist()

    def test_refuses_levels_past_the_finest(self):
        # At 2^70 the residue mask wraps: the phase of -7/2^70 came out as
        # 1 - 3.7e-20j against 1 - 2.4e-16j from ``phase``.
        with pytest.raises(ValueError, match=r"2\^70"):
            phase_arrays(np.array([-7]), np.array([70]))
        assert phase_arrays(np.array([-7]), np.array([MAX_LEVEL]))[0] == phase(
            Dyadic(-7, MAX_LEVEL)
        )

    def test_quarter_turns_keep_their_signed_zeros(self):
        points = [Dyadic(0), Dyadic(1, 1), Dyadic(1, 2), Dyadic(3, 2), Dyadic(-1, 2)]
        module = Module.of(points, 1)
        phases = phase_arrays(module.numerators[:, 0], module.exponents)
        re, im = phases.real, phases.imag
        expected = np.array([phase(k) for k in points])
        assert re.view(np.int64).tolist() == expected.real.view(np.int64).tolist()
        assert im.view(np.int64).tolist() == expected.imag.view(np.int64).tolist()
