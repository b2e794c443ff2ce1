"""The fault matrix: which ``verify`` checks fail when one route goes wrong.

Each fault patches one route the way the negative controls of
``test_verification`` do, then runs ``verification.run_checks``; the forked
workers inherit the patch.  A caught fault pins the exact set of checks it
fails.  A fault no check catches is a strict xfail whose reason names the
ROADMAP item that will close it: once a check catches it, the xfail passes,
strictness fails the test, and the row moves to the caught table.
"""

import pytest

from limitper import chair, period_doubling, verification

_CELL = (1 << 40) + 5
_CHAIR_CELL = (5000, 7)


def _wrap(monkeypatch, module, name, wrapper):
    """Replace ``module.name`` by ``wrapper(original)`` for one test."""
    monkeypatch.setattr(module, name, wrapper(getattr(module, name)))


def _scale_rows(module, factor, levels):
    """Multiply ``module.amplitude_arrays`` by ``factor`` at the levels where ``levels`` holds."""

    def wrapper(original):
        def scaled(points):
            rows = original(points)
            rows[:, levels(points.exponents)] *= factor
            return rows

        return scaled

    return lambda monkeypatch: _wrap(monkeypatch, module, "amplitude_arrays", wrapper)


def _conjugate_chain_rows(monkeypatch):
    def wrapper(original):
        return lambda points: original(points).conj()

    _wrap(monkeypatch, period_doubling, "amplitude_arrays", wrapper)


def _flip_chain_label(monkeypatch):
    """Swap a for b at cell 2^40 + 5 of ``period_doubling.label_window``."""

    def wrapper(original):
        def flipped(lo, hi):
            labels = original(lo, hi)
            if lo <= _CELL < hi:
                labels = labels.copy()
                labels[_CELL - lo] ^= 1
            return labels

        return flipped

    _wrap(monkeypatch, period_doubling, "label_window", wrapper)


def _recolour_chair_cell(monkeypatch):
    """Move cell (5000, 7) of ``chair.label_grid`` to the next colour."""
    x, y = _CHAIR_CELL

    def wrapper(original):
        def recoloured(x_lo, x_hi, y_lo, y_hi):
            labels = original(x_lo, x_hi, y_lo, y_hi)
            if x_lo <= x < x_hi and y_lo <= y < y_hi:
                labels = labels.copy()
                labels[y - y_lo, x - x_lo] = (labels[y - y_lo, x - x_lo] + 1) % 4
            return labels

        return recoloured

    _wrap(monkeypatch, chair, "label_grid", wrapper)


def _quarter_bounds(module):
    """Divide ``module.amplitude_bounds``, which the ``diffract`` pre-filter reads, by 4."""
    return lambda monkeypatch: _wrap(
        monkeypatch, module, "amplitude_bounds", lambda original: lambda top: original(top) / 4
    )


def _nudge_axis_sums(monkeypatch):
    """Scale the chair's shared formula ``_axis_sum_amplitude`` by 1 + 1e-9 at s >= 6."""

    def wrapper(original):
        def nudged(c, s):
            return original(c, s) * (1 + 1e-9) if s >= 6 else original(c, s)

        return nudged

    _wrap(monkeypatch, chair, "_axis_sum_amplitude", wrapper)


def _blind(fault, item):
    """A row no check catches yet; a fault that raises is an error, not this xfail."""
    mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"blind spot: {item}")
    return pytest.param(fault, marks=mark)


# Faults some check catches, with the exact set of checks each fails.
_CAUGHT = {
    "chair closed form x 2 at s = 5": (
        _scale_rows(chair, 2, lambda s: s == 5),
        {"chair-approximant-agreement"},
    ),
    "chain closed form conjugated": (_conjugate_chain_rows, {"pd-empirical-amplitudes"}),
}

_FLOOR_CHECKS = "item 19's floor-candidates checks, which change the benchmark's VERIFY_CHECKS"

# Faults no check catches, each with the ROADMAP item that will close it.
_BLIND = {
    "chair closed form x (1 + 1e-9) at s >= 6": _blind(
        _scale_rows(chair, 1 + 1e-9, lambda s: s >= 6), "item 14, a reference at every level"
    ),
    "chair closed form x (1 + 1e-3) at s >= 6": _blind(
        _scale_rows(chair, 1 + 1e-3, lambda s: s >= 6), "item 8, a second route at every level"
    ),
    "chain closed form x (1 + 1e-3) at r >= 7": _blind(
        _scale_rows(period_doubling, 1 + 1e-3, lambda r: r >= 7), "item 4, the exact Bragg mass"
    ),
    "chain closed form x (1 + 1e-3) at r >= 9": _blind(
        _scale_rows(period_doubling, 1 + 1e-3, lambda r: r >= 9), "item 4, the exact Bragg mass"
    ),
    "chain label flipped at cell 2^40 + 5": _blind(_flip_chain_label, "item 11, labels at far cells"),
    "chair label recoloured at cell (5000, 7)": _blind(
        _recolour_chair_cell, "item 11, labels at far cells"
    ),
    "chair amplitude_bounds / 4": _blind(_quarter_bounds(chair), _FLOOR_CHECKS),
    "chain amplitude_bounds / 4": _blind(_quarter_bounds(period_doubling), _FLOOR_CHECKS),
    "chair _axis_sum_amplitude x (1 + 1e-9) at s >= 6": _blind(
        _nudge_axis_sums, "item 14, a reference at every level"
    ),
}


def _failing_checks():
    return {r.name for r in verification.run_checks() if not r.passed}


@pytest.mark.parametrize("fault, checks", list(_CAUGHT.values()), ids=list(_CAUGHT))
def test_a_caught_fault_fails_exactly_its_checks(monkeypatch, fault, checks):
    fault(monkeypatch)
    assert _failing_checks() == checks


@pytest.mark.parametrize("fault", list(_BLIND.values()), ids=list(_BLIND))
def test_some_check_catches_the_fault(monkeypatch, fault):
    fault(monkeypatch)
    assert _failing_checks()


def test_the_matrix_holds_eleven_faults():
    assert len(_CAUGHT) + len(_BLIND) == 11
