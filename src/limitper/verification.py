"""Named self-checks crossing every computation route against the others.

Each check pits two independent routes to the same quantity against each
other (recursion vs closed form, congruences vs substitution, layer sums vs
case formulas, windowed sums vs limits) or asserts an identity the closed
forms must satisfy.  Each has one size: its window, cut-off and tolerance
are literals in its body.  ``run_checks`` runs them all through
``forked.run`` (on forked workers when there are CPUs to spare) and returns
one result per name in roster order, so the reports are byte-identical;
``elapsed_s`` is each check's own wall time.

A check states its conditions and its detail; two rules decide it.
``_verdict`` fails at the first failing point of an ordered point set (a
module in module order, the eta shifts, the chain's cells, the D4
elements), with the first condition failing there.  ``_within`` fails a
measured worst error above its tolerance and names both.  Each tolerance
test reads "not error <= tol", so a NaN fails it.  Pinned values, the
chair's seed and central cells and the chain's peak mass are tested singly.

The eta check compares the exact int64 numerators and denominators of
``period_doubling.autocorr_balanced_arrays`` and
``autocorr_balanced_closed_form_arrays``; each gathers a shift's ratio by
its 2-adic valuation from a table of ``_eta_recursion`` or
``_eta_closed_form`` made at the call, so replacing either function changes
what the check compares.  The closed-form checks call their system's
``amplitude_arrays`` over one ``dyadic.module_points`` box and over its
images (negation, the dihedral maps, lattice and half-diagonal shifts),
each an integer map of the numerator columns reduced by
``dyadic.normal_form``; the windowed sums and the layer sums
(``numerics.approximant_amplitudes_chair``) read the same box.  Weighted
amplitudes and intensities come from ``render.weigh`` and
``render.PeakTable.of``, the rules ``diffract`` writes with, and
autocorrelations from ``render.weigh_pairs``.

Every check can fail, and its negative controls live with the tests: each
replaces one route a check reads (a closed form, a label window, a windowed
sum, a symmetry image) on its module, say ``chair.amplitude_arrays``, before
``run_checks``, and pins the exact set of checks that then fail.  The
checks call those routes through their modules, so forked workers inherit
the replacement and run it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import chair, forked, numerics, period_doubling, render
from .dyadic import Dyadic, DyadicPoint2, Module, module_points, normal_form, phase_arrays

__all__ = ["CheckResult", "run_checks", "report_text", "report_json", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check and the wall time it took."""

    name: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0


# ---------------------------------------------------------------------------
# Doubling chain checks
# ---------------------------------------------------------------------------


def _check_pd_eta():
    limit = 1 << 16
    shifts = np.arange(1, limit + 1)
    recursion = period_doubling.autocorr_balanced_arrays(shifts)
    closed = period_doubling.autocorr_balanced_closed_form_arrays(shifts)
    # Both are in lowest terms with positive denominators, so two fractions
    # are equal exactly when their numerators and denominators are.
    split = (recursion[0] != closed[0]) | (recursion[1] != closed[1])
    odd = (shifts % 2 == 1) & ((recursion[0] != -1) | (recursion[1] != 3))
    return _verdict(
        shifts,
        [(split, "recursion and closed form split at shift {k}"), (odd, "odd shift {k} not -1/3")],
        f"exact agreement for all shifts up to {limit}",
    )


def _check_pd_labels():
    iterations = 9
    window = period_doubling.pattern_window(iterations)
    half = 4**iterations
    mismatch = window.labels != period_doubling.label_window(-half, half)
    return _verdict(
        range(-half, half),
        [(mismatch, "congruence labels disagree with the fixed point at {k}")],
        f"congruences match the fixed point on [-{half}, {half})",
    )


def _check_pd_amplitude_relations():
    pinned = [
        (Dyadic(0), 2 / 3 + 0j, 1 / 3 + 0j, 1 / 9),
        (Dyadic(1, 1), 1 / 3 + 0j, -1 / 3 + 0j, 4 / 9),
        (Dyadic(1, 2), 1j / 6, -1j / 6, 1 / 9),
    ]
    for k, amp_a, amp_b, balanced in pinned:
        got = period_doubling.amplitudes(k)
        if not (abs(got.a - amp_a) <= 1e-15 and abs(got.b - amp_b) <= 1e-15):
            return False, f"amplitude pair at {k} off the pinned value"
        if not abs(period_doubling.intensity(k, (1, -1)) - balanced) <= 1e-12:
            return False, f"balanced intensity at {k} not {balanced}"
    module = module_points(8, ((0, 1),), include_hi=False)
    moved = np.abs(period_doubling.amplitude_arrays(_image(module, offset=(1,)))[0])
    broken = np.abs(period_doubling.amplitude_arrays(module)[0]) != moved
    return _verdict(
        module,
        [(broken, "|A| not lattice-periodic at {k}")],
        "pinned amplitudes, lattice periodicity, balanced intensities",
    )


def _check_pd_peak_mass():
    r_max = 12
    mass = period_doubling.peak_mass(r_max, (1, -1))
    if not 0.99 <= mass <= 1 + 1e-9:
        return False, f"peak mass {mass:.6f} outside [0.99, 1] at r <= {r_max}"
    return True, f"peak mass {mass:.6f} at r <= {r_max}"


def _check_pd_empirical_amplitudes():
    half = 1 << 20
    r_max = 6
    tol = 0.01
    module = module_points(r_max, ((0, 1),), include_hi=False)
    closed = period_doubling.amplitude_arrays(module)
    windowed = numerics.empirical_amplitudes(numerics.pd_comb(half), module)
    errors = [
        np.abs(render.weigh(closed, weights) - render.weigh(windowed, weights))
        for weights in ((1, 0), (0, 1), (1, -1))
    ]
    worst = float(np.max(errors))
    detail = f"max error {worst:.2e} over r <= {r_max}, window half {half}"
    return _within(worst, tol, "closed-vs-windowed error", detail)


def _check_pd_empirical_autocorr():
    half = 1 << 20
    z_max = 64
    tol = 0.01
    shifts = np.arange(-z_max, z_max + 1)
    closed = period_doubling.pair_correlations(shifts)
    windowed = numerics.empirical_autocorrelation(numerics.pd_comb(half), shifts)
    worst = float(np.abs(render.weigh_pairs(closed - windowed, (1, -1))).max())
    detail = f"max error {worst:.2e} for |z| <= {z_max}, window half {half}"
    return _within(worst, tol, "autocorrelation error", detail)


# ---------------------------------------------------------------------------
# Block colouring checks
# ---------------------------------------------------------------------------

_GOLDEN_8X8 = (
    "3 2 1 2 1 2 1 0",
    "0 3 2 3 0 1 0 3",
    "1 0 3 2 1 0 3 2",
    "0 3 0 3 0 3 0 3",
    "1 2 1 2 1 2 1 2",
    "0 1 2 3 0 1 2 3",
    "1 2 3 2 1 0 1 2",
    "2 3 0 3 0 3 0 1",
)


def _check_chair_labels():
    iterations = 10
    half = 1 << iterations
    window = chair.pattern_window(iterations)
    direct = chair.label_grid(-half, half, -half, half)
    if not np.array_equal(window.labels, direct):
        return False, "halving-chain labels disagree with the fixed point"
    for (x, y), colour in (((0, 0), 0), ((0, -1), 1), ((-1, -1), 2), ((-1, 0), 3)):
        if chair.label((x, y)) != colour:
            return False, f"seed cell {(x, y)} not colour {colour}"
    central = chair.label_grid(-4, 4, -4, 4)
    rows = tuple(" ".join(str(v) for v in row) for row in central[::-1])
    if rows != _GOLDEN_8X8:
        return False, "central 8x8 block off its pinned value"
    return True, f"chains match the fixed point on [-{half}, {half})^2"


def _check_chair_amplitude_relations():
    s_max = 5
    frozen = [
        (DyadicPoint2(0, 0), (0.25, 0.25, 0.25, 0.25)),
        (DyadicPoint2(1, 1, 1), (0.25, -0.25, 0.25, -0.25)),
        (DyadicPoint2(1, 0, 1), (0.125, 0.125, -0.125, -0.125)),
        (DyadicPoint2(1, 0, 2), ((1 - 1j) / 32, (1 - 1j) / 32, -(1 - 1j) / 32, -(1 - 1j) / 32)),
        (DyadicPoint2(1, 1, 2), (-0.125, 0, 0.125, 0)),
    ]
    for k, expected in frozen:
        got = chair.amplitudes(k).values
        if not all(abs(g - e) <= 1e-15 for g, e in zip(got, expected)):
            return False, f"amplitudes at {k} off the pinned values"
    module = module_points(s_max, ((-1, 1), (-1, 1)))
    values = chair.amplitude_arrays(module)
    minus = chair.amplitude_arrays(_image(module, matrix=((-1, 0), (0, -1))))
    hermitian = ~(np.abs(minus - values.conj()) <= 1e-12).all(axis=0)
    anti = (module.exponents >= 2) & ((values[2] != -values[0]) | (values[3] != -values[1]))
    return _verdict(
        module,
        [(hermitian, "Hermitian symmetry broken at {k}"), (anti, "anti-pairing broken at {k}")],
        f"pinned values, Hermitian symmetry, anti-pairing for s <= {s_max}",
    )


def _check_chair_sum_rules():
    s_max = 5
    module = module_points(s_max, ((-1, 1), (-1, 1)))
    values = chair.amplitude_arrays(module)
    even_pair = values[0] + values[2]
    odd_pair = values[1] + values[3]
    half = _half_even_lattice(module)
    # On the half lattice the odd pair sums to e^{-2 pi i x} / 2.
    expected_odd = 0.5 * phase_arrays(-module.numerators[:, 0], module.exponents)
    on_half = half & ~(
        (np.abs(even_pair - 0.5) <= 1e-12) & (np.abs(odd_pair - expected_odd) <= 1e-12)
    )
    off_half = ~half & ~((np.abs(even_pair) <= 1e-12) & (np.abs(odd_pair) <= 1e-12))
    return _verdict(
        module,
        [
            (on_half, "sum rule broken on the half lattice at {k}"),
            (off_half, "pair sums nonzero off the half lattice at {k}"),
        ],
        f"pair sums match on and off the half lattice for s <= {s_max}",
    )


def _check_chair_extinctions():
    s_max = 5
    module = module_points(s_max, ((-1, 1), (-1, 1)))
    comb = _chair_intensities(module, (1, 1, 1, 1))
    lattice = ~(np.abs(comb - (module.exponents == 0)) <= 1e-12)
    fourth_amplitude = render.weigh(chair.amplitude_arrays(module), (1, 1j, -1, -1j))
    extinct = _half_even_lattice(module) & ~(np.abs(fourth_amplitude) <= 1e-12)
    return _verdict(
        module,
        [
            (lattice, "all-ones intensity wrong at {k}"),
            (extinct, "fourth-root weights not extinct at {k}"),
        ],
        f"lattice comb and fourth-root extinctions hold for s <= {s_max}",
    )


def _check_chair_approximant():
    s_max = 5
    levels = 20
    tol = 1e-6
    module = module_points(s_max, ((-1, 1), (-1, 1)))
    approx = numerics.approximant_amplitudes_chair(levels, module)
    worst = float(np.abs(approx - chair.amplitude_arrays(module)).max())
    detail = f"max layer-sum error {worst:.2e} at {levels} levels, s <= {s_max}"
    return _within(worst, tol, "layer-sum error", detail)


def _check_chair_empirical_amplitudes():
    half = 1024
    s_max = 4
    tol = 0.01
    module = module_points(s_max, ((-1, 1), (-1, 1)))
    windowed = numerics.empirical_amplitudes(numerics.chair_comb(half), module)
    worst = float(np.abs(chair.amplitude_arrays(module) - windowed).max())
    detail = f"max error {worst:.2e} per colour, s <= {s_max}, window half {half}"
    return _within(worst, tol, "closed-vs-windowed error", detail)


def _check_chair_d4_window():
    iterations = 9
    half = 1 << iterations
    window = chair.pattern_window(iterations)
    elements = chair.d4_elements()
    moved = [chair.apply_d4(element, window) != window for element in elements]
    detail = f"all 8 symmetries fix the recoloured window, half {half}"
    return _verdict(elements, [(moved, "window not invariant under {k.name}")], detail)


def _check_chair_d4_intensity():
    s_max = 5
    fourth = (1, 1j, -1, -1j)
    module = module_points(s_max, ((0, 1), (0, 1)), include_hi=False)
    reference = _chair_intensities(module, fourth)
    failures = []
    for element in chair.d4_elements():
        # The linear map sends k = m e1 + n e2 to m g(e1) + n g(e2).
        e1 = chair.transform_wavevector(element, DyadicPoint2(1, 0))
        e2 = chair.transform_wavevector(element, DyadicPoint2(0, 1))
        moved = _image(module, matrix=((e1.m, e2.m), (e1.n, e2.n)))
        broken = ~(np.abs(_chair_intensities(moved, fourth) - reference) <= 1e-10)
        failures.append((broken, f"intensity not {element.name}-symmetric at {{k}}"))
    detail = f"fourth-root intensities are dihedral-symmetric for s <= {s_max}"
    return _verdict(module, failures, detail)


def _check_chair_periodicity():
    s_max = 5
    generic = (0.8 + 0.3j, -0.5 + 0.9j, 0.2 - 0.7j, -0.9 - 0.4j)
    pair = (1, 0, 1, 0)
    module = module_points(s_max, ((0, 1), (0, 1)), include_hi=False)
    reference = _chair_intensities(module, generic)
    failures = []
    for shift in ((1, 0), (0, 1)):
        drift = np.abs(_chair_intensities(_image(module, offset=shift), generic) - reference)
        failures.append((~(drift <= 1e-10), f"intensity not lattice-periodic at {{k}} + {shift}"))
    # k + (1/2, 1/2) = (2m + 2^s, 2n + 2^s) / 2^(s+1).
    moved = _chair_intensities(_image(module, offset=(1, 1), refine=1), pair)
    broken = ~(np.abs(moved - _chair_intensities(module, pair)) <= 1e-10)
    failures.append((broken, "pair-comb intensity not half-lattice-periodic at {k}"))
    detail = f"lattice and half-lattice periodicities hold for s <= {s_max}"
    return _verdict(module, failures, detail)


def _chair_intensities(module: Module, weights) -> np.ndarray:
    """The intensities ``diffract`` writes for the chair at every point of ``module``."""
    amplitude = render.weigh(chair.amplitude_arrays(module), weights)
    return render.PeakTable.of(module, amplitude).intensity


def _half_even_lattice(module: Module) -> np.ndarray:
    # (m, n) / 2^s lies in (1/2) * (even sublattice) iff s = 0, or s = 1
    # with both numerators odd.
    m, n = module.numerators[:, 0], module.numerators[:, 1]
    s = module.exponents
    return (s == 0) | ((s == 1) & ((m & n & 1) == 1))


def _image(module: Module, matrix=None, offset=None, refine=0) -> Module:
    """The points A k + offset / 2^refine, in the order of ``module``, in any dimension.

    An integer map of the numerators at level s + refine,
    (A j 2^refine + offset 2^s) / 2^(s + refine) for k = j / 2^s, then the
    reduction to normal form.  A defaults to the identity, the offset to 0.
    """
    columns = module.numerators.T
    if matrix is not None:
        columns = np.array(matrix, dtype=np.int64) @ columns
    s = module.exponents
    unit = np.left_shift(1, s)
    offset = offset or (0,) * module.dim
    return normal_form([(c << refine) + o * unit for c, o in zip(columns, offset)], s + refine)


def _verdict(points, failures, detail: str) -> tuple[bool, str]:
    """``(False, message)`` at the first failing point of ``points``, else ``(True, detail)``.

    ``failures`` pairs a boolean mask over ``points`` (a ``Module`` or a
    sequence) with a message naming the point as ``{k}``, in the order the
    conditions are tested at one point.
    """
    failing = np.logical_or.reduce([mask for mask, _ in failures])
    if not failing.any():
        return True, detail
    index = int(np.argmax(failing))
    k = points.select([index]).points()[0] if isinstance(points, Module) else points[index]
    return False, next(message for mask, message in failures if mask[index]).format(k=k)


def _within(worst: float, tol: float, error: str, detail: str) -> tuple[bool, str]:
    """``(True, detail)`` when the worst measured ``error`` is at most ``tol``, else both."""
    return (True, detail) if worst <= tol else (False, f"max {error} {worst:.2e} > {tol}")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

_CHECKS = (
    ("pd-eta-recursion-closed-form", _check_pd_eta),
    ("pd-label-window-agreement", _check_pd_labels),
    ("pd-amplitude-relations", _check_pd_amplitude_relations),
    ("pd-peak-mass", _check_pd_peak_mass),
    ("pd-empirical-amplitudes", _check_pd_empirical_amplitudes),
    ("pd-empirical-autocorrelation", _check_pd_empirical_autocorr),
    ("chair-label-window-agreement", _check_chair_labels),
    ("chair-amplitude-relations", _check_chair_amplitude_relations),
    ("chair-sum-rules", _check_chair_sum_rules),
    ("chair-extinctions", _check_chair_extinctions),
    ("chair-approximant-agreement", _check_chair_approximant),
    ("chair-empirical-amplitudes", _check_chair_empirical_amplitudes),
    ("chair-d4-window-invariance", _check_chair_d4_window),
    ("chair-d4-intensity-symmetry", _check_chair_d4_intensity),
    ("chair-lattice-periodicity", _check_chair_periodicity),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def _run_check(name: str, check) -> CheckResult:
    """Run one check and time it on its own."""
    start = time.perf_counter()
    passed, detail = check()
    return CheckResult(name, passed, detail, elapsed_s=time.perf_counter() - start)


def run_checks() -> tuple[CheckResult, ...]:
    """Run every named check through ``forked.run`` and collect the results in roster order.

    The results differ only in ``elapsed_s`` between one CPU and several.  A
    check that raises re-raises here, the first in roster order; a worker
    that dies before reporting a check raises ``forked.run``'s
    ``RuntimeError`` naming the checks without a result.
    """
    outcomes = forked.run((name, partial(_run_check, name, check)) for name, check in _CHECKS)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return tuple(outcomes)


def report_text(results) -> str:
    """One PASS/FAIL line per check."""
    lines = [
        f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}"
        for result in results
    ]
    failed = [result.name for result in results if not result.passed]
    if failed:
        lines.append(f"{len(failed)} of {len(results)} checks failed, first: {failed[0]}")
    else:
        lines.append(f"all {len(results)} checks passed")
    return "\n".join(lines) + "\n"


def report_json(results) -> str:
    """The results as a JSON list, one object per check."""
    # Imported here rather than at the top: only ``verify --json`` needs the
    # encoder.
    import json

    records = [
        {
            "name": result.name,
            "passed": result.passed,
            "elapsed_s": round(result.elapsed_s, 6),
            "detail": result.detail,
        }
        for result in results
    ]
    return json.dumps(records, indent=2) + "\n"
