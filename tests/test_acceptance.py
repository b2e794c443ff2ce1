"""Top-level acceptance checks for the whole package.

Each test covers one advertised guarantee end to end, states its tolerance
inline, and prints a one-line PASS summary (visible under ``pytest -s``) with
the measured margin.  Stated runtime budgets are asserted with a monotonic
clock.  These intentionally re-derive their references in place rather than
importing expectations from the unit tests.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from limitper import chair, cli, numerics, period_doubling as pd
from limitper.dyadic import Dyadic, DyadicPoint2, module_box, module_interval, phase
from limitper.subst import PatternWindow

SRC = Path(__file__).resolve().parents[1] / "src"

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


def _on_half_even_lattice(k: DyadicPoint2) -> bool:
    # (1/2) * (even sublattice): integers, plus half-integers with both
    # coordinates half-odd.
    return k.s == 0 or (k.s == 1 and k.m % 2 == 1 and k.n % 2 == 1)


def test_criterion_1_eta_recursion_equals_closed_form():
    """Exact rational agreement for every shift up to 2^16, in under 1 s."""
    start = time.monotonic()
    # 1 - 1/(3 * 2^(r-2)) depends only on the 2-adic valuation r of the shift.
    by_valuation = [1 - 1 / (3 * Fraction(2) ** (r - 2)) for r in range(17)]
    for m in range(1, (1 << 16) + 1):
        recursed = pd.autocorr_balanced(m)
        assert recursed == by_valuation[(m & -m).bit_length() - 1]
        assert recursed == pd.autocorr_balanced_closed_form(m)
        if m % 2 == 1:
            assert recursed == Fraction(-1, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: eta recursion == closed form for m <= 2^16, {elapsed:.2f}s")


def test_criterion_2_empirical_autocorrelation():
    """Windowed autocorrelation matches eta within 0.01 for |z| <= 64."""
    start = time.monotonic()
    comb = numerics.pd_comb(1 << 19)
    worst = 0.0
    for z in range(-64, 65):
        estimate = numerics.empirical_autocorrelation(comb, z, (1, -1))
        worst = max(worst, abs(estimate - float(pd.autocorr_balanced(z))))
    elapsed = time.monotonic() - start
    assert worst <= 0.01
    assert elapsed < 30.0
    print(f"PASS criterion 2: autocorrelation window 2^20, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_empirical_amplitudes_and_stem_periodicity():
    """Windowed amplitudes match the closed forms within 0.01 for r <= 6."""
    comb = numerics.pd_comb(1 << 19)
    worst = 0.0
    for k in module_interval(6, 0, 1, include_hi=False):
        closed = pd.amplitudes(k)
        windowed_a, windowed_b = numerics.empirical_amplitude(comb, k).tolist()
        for alpha, beta in ((1, 0), (0, 1), (1, -1)):
            estimate = alpha * windowed_a + beta * windowed_b
            worst = max(worst, abs(estimate - (alpha * closed.a + beta * closed.b)))
    assert worst <= 0.01
    # Stem data over one period: |A| repeats exactly under k -> k + 1.
    for k in module_interval(8, 0, 1, include_hi=False):
        assert abs(pd.amplitudes(k).a) == abs(pd.amplitudes(Dyadic.of(k.m + (1 << k.r), k.r)).a)
    print(f"PASS criterion 3: empirical amplitudes r <= 6, worst {worst:.2e}; |A| 1-periodic")


def test_criterion_4_pure_point_mass():
    """Balanced intensities over [0,1) at r <= 12 sum to 1 within [0.99, 1+1e-9]."""
    start = time.monotonic()
    total = 0.0
    for k in module_interval(12, 0, 1, include_hi=False):
        closed = pd.amplitudes(k)
        total += abs(closed.a - closed.b) ** 2
    elapsed = time.monotonic() - start
    assert 0.99 <= total <= 1 + 1e-9
    assert elapsed < 1.0
    print(f"PASS criterion 4: peak mass {total:.12f} in [0.99, 1+1e-9], {elapsed:.2f}s")


def test_criterion_5_chair_labels_match_fixed_point():
    """Halving-chain labels equal the substitution fixed point on [-1024, 1024)^2."""
    start = time.monotonic()
    window = chair.pattern_window(10)
    assert window.origin == (-1024, -1024)
    direct = chair.label_grid(-1024, 1024, -1024, 1024)
    assert np.array_equal(window.labels, direct)
    for (x, y), colour in (((0, 0), 0), ((0, -1), 1), ((-1, -1), 2), ((-1, 0), 3)):
        assert chair.label((x, y)) == colour
    central = chair.label_grid(-4, 4, -4, 4)
    assert tuple(" ".join(str(v) for v in row) for row in central[::-1]) == GOLDEN_8X8
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 5: labels agree on [-1024, 1024)^2 plus seed and 8x8, {elapsed:.1f}s")


def test_criterion_6_chair_amplitude_cross_validation():
    """Closed forms vs layer sums (1e-6, s <= 5) and vs windowed sums (0.01, s <= 4)."""
    start = time.monotonic()
    worst_layer = 0.0
    for k in module_box(5, (-1, 1)):
        closed = chair.amplitudes(k).values
        for colour in range(4):
            approx = numerics.approximant_amplitude_chair(20, colour, k)
            worst_layer = max(worst_layer, abs(approx - closed[colour]))
    assert worst_layer <= 1e-6

    half = 1024
    window = PatternWindow(
        (-half, -half), chair.label_grid(-half, half + 1, -half, half + 1)
    )
    comb = numerics.WeightedComb(window, 4)
    worst_emp = 0.0
    for k in module_box(4, (-1, 1)):
        closed = chair.amplitudes(k).values
        for colour, estimate in enumerate(numerics.empirical_amplitude(comb, k).tolist()):
            worst_emp = max(worst_emp, abs(estimate - closed[colour]))
    elapsed = time.monotonic() - start
    assert worst_emp <= 0.01
    assert elapsed < 120.0
    print(
        "PASS criterion 6: layer sums off by "
        f"{worst_layer:.2e} (<= 1e-6), window 2048^2 off by {worst_emp:.2e} (<= 0.01), "
        f"{elapsed:.1f}s"
    )


def test_criterion_7_exact_amplitude_identities():
    """Sum rules, extinctions, and anti-pairing hold to 1e-12 for s <= 5."""
    ones = (1, 1, 1, 1)
    fourth = (1, 1j, -1, -1j)
    for k in module_box(5, (-1, 1)):
        values = chair.amplitudes(k).values
        lattice = 1.0 if k.s == 0 else 0.0
        assert abs(chair.intensity(k, ones) - lattice) <= 1e-12
        even_pair = values[0] + values[2]
        odd_pair = values[1] + values[3]
        if _on_half_even_lattice(k):
            assert abs(even_pair - 0.5) <= 1e-12
            assert abs(odd_pair - 0.5 * phase(Dyadic.of(-k.m, k.s))) <= 1e-12
            assert abs(sum(w * a for w, a in zip(fourth, values))) <= 1e-12
        else:
            assert abs(even_pair) <= 1e-12
            assert abs(odd_pair) <= 1e-12
        if k.s >= 2:
            assert abs(values[2] + values[0]) <= 1e-12
            assert abs(values[3] + values[1]) <= 1e-12
    print("PASS criterion 7: sum rules, extinctions, anti-pairing exact to 1e-12, s <= 5")


def test_criterion_8_symmetries():
    """Lattice periodicity (1e-10), dihedral intensities, window invariance."""
    rng = np.random.default_rng(20260822)
    generic = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    worst_shift = 0.0
    for k in module_box(5, (0, 1), include_hi=False):
        base = chair.intensity(k, generic)
        for dx, dy in ((1, 0), (0, 1)):
            shifted = DyadicPoint2.of(k.m + (dx << k.s), k.n + (dy << k.s), k.s)
            worst_shift = max(worst_shift, abs(chair.intensity(shifted, generic) - base))
    assert worst_shift <= 1e-10

    fourth = (1, 1j, -1, -1j)
    worst_d4 = 0.0
    for k in module_box(5, (-1, 1)):
        base = chair.intensity(k, fourth)
        for element in chair.d4_elements():
            moved = chair.intensity(chair.transform_wavevector(element, k), fourth)
            worst_d4 = max(worst_d4, abs(moved - base))
    assert worst_d4 <= 1e-10

    half = 512
    window = PatternWindow(
        (-half, -half), chair.label_grid(-half, half, -half, half)
    )
    for element in chair.d4_elements():
        assert chair.apply_d4(element, window) == window
    print(
        "PASS criterion 8: periodic intensities off by "
        f"{worst_shift:.1e}, dihedral off by {worst_d4:.1e}, window fixed by all 8"
    )


def test_criterion_9_deterministic_figures(tmp_path):
    """Stem and disc figures are byte-identical across runs and thread counts."""
    stem_args = [
        "diffract", "--system", "pd", "--weights", "1,0",
        "--rmax", "8", "--region", "0,1", "--format", "svg",
    ]
    disc_args = [
        "diffract", "--system", "chair", "--weights", "1,i,-1,-i",
        "--smax", "5", "--region=-1,1", "--format", "svg",
    ]
    outputs = {"stem": [], "disc": []}
    for run in ("a", "b"):
        for name, args in (("stem", stem_args), ("disc", disc_args)):
            out = tmp_path / f"{name}_{run}"
            assert cli.main([*args, "--out", str(out)]) == 0
            outputs[name].append(out.with_suffix(".svg").read_bytes())
    for name, (first, second) in outputs.items():
        assert first == second, f"{name} figure changed between runs"

    for threads in ("1", "4"):
        env = {**os.environ, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        for name, args in (("stem", stem_args), ("disc", disc_args)):
            out = tmp_path / f"{name}_t{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "limitper", *args, "--out", str(out)],
                capture_output=True,
                env=env,
            )
            assert done.returncode == 0, done.stderr.decode()
            assert out.with_suffix(".svg").read_bytes() == outputs[name][0]
    print("PASS criterion 9: stem and disc SVGs byte-identical across runs and threads")
