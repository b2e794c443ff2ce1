"""Self-check runner tests: roster stability, negative controls, report format."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from limitper import chair, forked, numerics, period_doubling, render, verification
from limitper.dyadic import Dyadic, DyadicPoint2
from limitper.subst import PatternWindow

# The text report of ``verify``, byte for byte.
_FULL_REPORT = (
    "PASS pd-eta-recursion-closed-form: exact agreement for all shifts up to 65536\n"
    "PASS pd-label-window-agreement: congruences match the fixed point on [-262144, 262144)\n"
    "PASS pd-amplitude-relations: pinned amplitudes, lattice periodicity, balanced intensities\n"
    "PASS pd-peak-mass: peak mass 0.999783 at r <= 12\n"
    "PASS pd-empirical-amplitudes: max error 1.13e-06 over r <= 6, window half 1048576\n"
    "PASS pd-empirical-autocorrelation: max error 2.92e-05 for |z| <= 64, window half 1048576\n"
    "PASS chair-label-window-agreement: chains match the fixed point on [-1024, 1024)^2\n"
    "PASS chair-amplitude-relations: pinned values, Hermitian symmetry, anti-pairing for s <= 5\n"
    "PASS chair-sum-rules: pair sums match on and off the half lattice for s <= 5\n"
    "PASS chair-extinctions: lattice comb and fourth-root extinctions hold for s <= 5\n"
    "PASS chair-approximant-agreement: max layer-sum error 1.19e-07 at 20 levels, s <= 5\n"
    "PASS chair-empirical-amplitudes: max error 3.66e-04 per colour, s <= 4, window half 1024\n"
    "PASS chair-d4-window-invariance: all 8 symmetries fix the recoloured window, half 512\n"
    "PASS chair-d4-intensity-symmetry: fourth-root intensities are dihedral-symmetric for s <= 5\n"
    "PASS chair-lattice-periodicity: lattice and half-lattice periodicities hold for s <= 5\n"
    "all 15 checks passed\n"
)


@pytest.fixture(scope="module")
def full_results():
    """One run shared by the tests that need it (about a tenth of a second of checks)."""
    return verification.run_checks()


class TestRoster:
    def test_fifteen_unique_names(self):
        assert len(verification.CHECK_NAMES) == 15
        assert len(set(verification.CHECK_NAMES)) == 15

    def test_each_result_carries_its_elapsed_time(self, full_results):
        assert all(0 <= r.elapsed_s < 60 for r in full_results)
        assert verification.CheckResult("alpha", True, "fine").elapsed_s == 0.0

    def test_full_suite_passes(self, full_results):
        assert tuple(r.name for r in full_results) == verification.CHECK_NAMES
        assert [r.name for r in full_results if not r.passed] == []
        assert all(r.detail for r in full_results)

    def test_results_are_frozen_records(self, full_results):
        result = full_results[0]
        with pytest.raises(AttributeError):
            result.passed = False


_LINUX = sys.platform.startswith("linux")
_SRC = Path(verification.__file__).resolve().parents[1]


def _fresh_python(code, tmp_path, timeout=None):
    """Run ``code`` in a fresh interpreter that imports limitper from this tree."""
    path = os.pathsep.join(filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _with_cpus(monkeypatch, count):
    monkeypatch.setattr(forked, "_usable_cpus", lambda: count)


def _boom():
    raise ZeroDivisionError("check blew up")


def _pid():
    return True, str(os.getpid())


class TestRunner:
    """The forked workers and the serial loop give the same results; a worker fault raises."""

    @pytest.mark.skipif(not _LINUX, reason="checks run on forked workers on Linux only")
    @pytest.mark.parametrize("serial_first", [False, True])
    def test_serial_matches_pool(self, monkeypatch, serial_first):
        # Forked workers inherit the parent's lru caches, so the order decides
        # whether the caches a serial run fills reach the pool.
        def run(cpus):
            _with_cpus(monkeypatch, cpus)
            return verification.run_checks()

        if serial_first:
            serial, pooled = run(1), run(2)
        else:
            pooled, serial = run(2), run(1)

        def fields(results):
            return [(r.name, r.passed, r.detail) for r in results]

        assert fields(pooled) == fields(serial)
        assert [r.name for r in serial] == list(verification.CHECK_NAMES)

    @pytest.mark.skipif(not _LINUX, reason="checks run on forked workers on Linux only")
    def test_pool_runs_checks_in_other_processes(self, monkeypatch):
        monkeypatch.setattr(verification, "_CHECKS", (("one", _pid), ("two", _pid)))
        _with_cpus(monkeypatch, 2)
        pids = {r.detail for r in verification.run_checks()}
        assert str(os.getpid()) not in pids
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        _with_cpus(monkeypatch, 1)
        assert {r.detail for r in verification.run_checks()} == {str(os.getpid())}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_raising_check_reraises(self, monkeypatch, cpus):
        checks = (verification._CHECKS[1], ("boom", _boom), verification._CHECKS[2])
        monkeypatch.setattr(verification, "_CHECKS", checks)
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(ZeroDivisionError, match="check blew up"):
            verification.run_checks()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_atexit_runs_once(self, tmp_path):
        # Forked workers must leave without running the parent's exit hooks.
        code = (
            "import atexit, sys\n"
            "from limitper import cli\n"
            "atexit.register(lambda: open('exits', 'a').write('exit\\n'))\n"
            "sys.exit(cli.main(['verify', '--out', 'report']))\n"
        )
        done = _fresh_python(code, tmp_path)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "report.txt").read_text() == _FULL_REPORT
        assert (tmp_path / "exits").read_text() == "exit\n"

    def test_cli_import_leaves_out_multiprocessing(self, tmp_path):
        # Neither importing the CLI nor a forked verify run loads a pool.
        code = (
            "import sys\n"
            "from limitper import cli, forked\n"
            "def pools():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent'))\n"
            "imported = pools()\n"
            "forked._usable_cpus = lambda: 2\n"
            "status = cli.main(['verify', '--out', 'report'])\n"
            "print(status, imported, pools(), file=sys.stderr)\n"
        )
        done = _fresh_python(code, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1] == "0 [] []"

    @pytest.mark.skipif(not _LINUX, reason="checks run on forked workers on Linux only")
    @pytest.mark.parametrize("cpus, forks", [(2, 2), (3, 3), (64, 4)])
    def test_forks_one_worker_per_cpu_and_no_thread(self, monkeypatch, cpus, forks):
        monkeypatch.setattr(verification, "_CHECKS", (("pid", _pid),) * 4)
        _with_cpus(monkeypatch, cpus)
        parent = os.getpid()
        parent_forks = []
        fork = os.fork

        def counted():
            if os.getpid() == parent:
                parent_forks.append(1)
            return fork()

        def refused(thread):
            raise AssertionError("run_checks started a thread")

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(threading.Thread, "start", refused)
        assert all(r.passed for r in verification.run_checks())
        assert len(parent_forks) == forks

    @pytest.mark.skipif(not _LINUX, reason="checks run on forked workers on Linux only")
    @pytest.mark.parametrize(
        "body, error",
        [
            ("os._exit(3)", "RuntimeError: no result for odd (worker N exited with status 3)"),
            ("os._exit(0)", "RuntimeError: no result for odd (every worker exited with status 0)"),
            (
                "os.kill(os.getpid(), signal.SIGKILL)",
                "RuntimeError: no result for odd (worker N killed by signal 9)",
            ),
            # A class made inside a function cannot be pickled by reference.
            (
                "class Local(Exception): pass\n    raise Local('blew up')",
                "RuntimeError: odd gave Local('blew up'), which cannot be pickled",
            ),
            # Pickles, but unpickling calls __init__ with the one stored argument.
            (
                "raise TwoArguments('blew up', 7)",
                "RuntimeError: odd gave TwoArguments('blew up'), which cannot be pickled",
            ),
        ],
        ids=["exit", "clean-exit", "sigkill", "local-class", "unloadable"],
    )
    def test_worker_fault_raises_not_hangs(self, tmp_path, body, error):
        # A fresh interpreter with a time limit: a runner that waits forever
        # for a dead worker or a lost result fails here instead of stalling
        # the suite.
        code = (
            "import os, re, signal\n"
            "from limitper import forked, verification\n"
            "class TwoArguments(Exception):\n"
            "    def __init__(self, message, code):\n"
            "        super().__init__(message)\n"
            "def fine():\n"
            "    return True, 'fine'\n"
            "def odd():\n"
            f"    {body}\n"
            "verification._CHECKS = (('first', fine), ('odd', odd), ('last', fine))\n"
            "forked._usable_cpus = lambda: 2\n"
            "try:\n"
            "    verification.run_checks()\n"
            "except Exception as error:\n"
            "    text = f'{type(error).__name__}: {error}'\n"
            "    print(re.sub(r'worker \\d+', 'worker N', text))\n"
        )
        done = _fresh_python(code, tmp_path, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == error + "\n"

    @pytest.mark.skipif(not _LINUX, reason="checks run on forked workers on Linux only")
    def test_worker_traceback_comes_back_as_a_note(self, monkeypatch):
        monkeypatch.setattr(verification, "_CHECKS", (("pid", _pid), ("boom", _boom)))
        _with_cpus(monkeypatch, 2)
        with pytest.raises(ZeroDivisionError) as raised:
            verification.run_checks()
        [note] = raised.value.__notes__
        assert "in _boom" in note and note.endswith("ZeroDivisionError: check blew up\n")


class TestReport:
    def test_all_pass_report(self, full_results):
        text = verification.report_text(full_results)
        lines = text.splitlines()
        assert len(lines) == len(full_results) + 1
        for result, line in zip(full_results, lines):
            assert line == f"PASS {result.name}: {result.detail}"
        assert lines[-1] == "all 15 checks passed"
        assert text.endswith("\n")

    def test_full_report_bytes(self, full_results):
        assert verification.report_text(full_results) == _FULL_REPORT

    def test_json_report_lists_every_field(self):
        results = (
            verification.CheckResult("alpha", True, "fine", 0.25),
            verification.CheckResult("beta", False, "broke", 1.5),
        )
        assert json.loads(verification.report_json(results)) == [
            {"name": "alpha", "passed": True, "elapsed_s": 0.25, "detail": "fine"},
            {"name": "beta", "passed": False, "elapsed_s": 1.5, "detail": "broke"},
        ]

    def test_failure_report_names_first_failure(self):
        results = (
            verification.CheckResult("alpha", True, "fine"),
            verification.CheckResult("beta", False, "broke"),
            verification.CheckResult("gamma", False, "also broke"),
        )
        text = verification.report_text(results)
        assert "PASS alpha: fine" in text
        assert "FAIL beta: broke" in text
        assert text.splitlines()[-1] == "2 of 3 checks failed, first: beta"


def _corrupt_amplitudes(monkeypatch, points, system=chair):
    """Make ``system.amplitude_arrays`` add 0.01 to letter 0 at the given points."""
    original = system.amplitude_arrays

    def corrupted(module):
        rows = original(module)
        for i, k in enumerate(module.points()):
            if k in points:
                rows.real[0, i] += 0.01
        return rows

    monkeypatch.setattr(system, "amplitude_arrays", corrupted)


def _wrap(monkeypatch, module, name, wrapper):
    """Replace ``module.name`` by ``wrapper(original)`` for one test."""
    monkeypatch.setattr(module, name, wrapper(getattr(module, name)))


def _eta_off_at_4096(monkeypatch):
    """Add 1 to the closed-form array's fraction at shift 4096."""

    def wrapper(original):
        def off(shifts):
            numerators, denominators = original(shifts)
            at = np.abs(np.asarray(shifts)) == 4096
            return np.where(at, numerators + denominators, numerators), denominators

        return off

    _wrap(monkeypatch, period_doubling, "autocorr_balanced_closed_form_arrays", wrapper)


def _flip_first_label(module, name):
    def wrapper(original):
        def flipped(*bounds):
            labels = original(*bounds).copy()
            labels.flat[0] ^= 1
            return labels

        return flipped

    return lambda monkeypatch: _wrap(monkeypatch, module, name, wrapper)


def _offset_estimates(name, dim, offset):
    """Add ``offset`` to every windowed estimate of a ``dim``-dimensional comb."""

    def wrapper(original):
        def offset_estimates(comb, *args):
            estimate = original(comb, *args)
            return estimate + offset if comb.dim == dim else estimate

        return offset_estimates

    return lambda monkeypatch: _wrap(monkeypatch, numerics, name, wrapper)


def _scale_layer_sums(monkeypatch):
    _wrap(
        monkeypatch,
        numerics,
        "approximant_amplitudes_chair",
        lambda original: lambda levels, module: original(levels, module) * 1.01,
    )


def _recolour_one_r90_cell(monkeypatch):
    def wrapper(original):
        def moved(element, window):
            image = original(element, window)
            if element.name != "r90":
                return image
            labels = image.labels.copy()
            labels[0, 0] = (labels[0, 0] + 1) % 4
            return PatternWindow(image.origin, labels)

        return moved

    _wrap(monkeypatch, chair, "apply_d4", wrapper)


def _halve_chain_a_at_3_128(monkeypatch):
    """Halve letter a's closed form at 3/128, a point of denominator 2^7."""

    def wrapper(original):
        def halved(module):
            rows = original(module)
            rows[0, (module.exponents == 7) & (module.numerators[:, 0] == 3)] *= 0.5
            return rows

        return halved

    _wrap(monkeypatch, period_doubling, "amplitude_arrays", wrapper)


def _double_chain_tail(monkeypatch):
    def wrapper(original):
        def doubled(module):
            rows = original(module)
            rows[:, module.exponents > 6] *= 2
            return rows

        return doubled

    _wrap(monkeypatch, period_doubling, "amplitude_arrays", wrapper)


def _bump_all_ones_weighting(monkeypatch):
    """Add 0.01 at the first point to the chair's all-ones (lattice comb) weighting."""

    def wrapper(original):
        def bumped(rows, weights):
            total = original(rows, weights)
            if tuple(weights) == (1, 1, 1, 1):
                total[0] += 0.01
            return total

        return bumped

    _wrap(monkeypatch, render, "weigh", wrapper)


def _shear_r90_wavevectors(monkeypatch):
    """Send k = (m, n) / 2^s to the r90 image of (m + n, n) / 2^s, not of k."""

    def wrapper(original):
        def sheared(element, k):
            if element.name != "r90":
                return original(element, k)
            return original(element, DyadicPoint2.of(k.m + k.n, k.n, k.s))

        return sheared

    _wrap(monkeypatch, chair, "transform_wavevector", wrapper)


# Corrupting a route only one check reads: the check it fails, alone.
_ALONE = {
    "pd-eta-recursion-closed-form": _eta_off_at_4096,
    "pd-label-window-agreement": _flip_first_label(period_doubling, "label_window"),
    # 3/128 lies past pd-empirical-amplitudes' r <= 6, and halving one
    # amplitude there takes far less peak mass than pd-peak-mass's 0.99 allows.
    "pd-amplitude-relations": _halve_chain_a_at_3_128,
    # Doubled rows keep |A| lattice-periodic, and pd-empirical-amplitudes
    # reads r <= 6 only.
    "pd-peak-mass": _double_chain_tail,
    "pd-empirical-amplitudes": _offset_estimates("empirical_amplitudes", 1, 0.1),
    "pd-empirical-autocorrelation": _offset_estimates("empirical_autocorrelation", 1, 0.1),
    "chair-label-window-agreement": _flip_first_label(chair, "label_grid"),
    "chair-extinctions": _bump_all_ones_weighting,
    "chair-approximant-agreement": _scale_layer_sums,
    "chair-empirical-amplitudes": _offset_estimates("empirical_amplitudes", 2, 0.1),
    "chair-d4-window-invariance": _recolour_one_r90_cell,
    "chair-d4-intensity-symmetry": _shear_r90_wavevectors,
    # Only the lattice shifts of [0, 1)^2 reach (3/2, 1/2); every other
    # chair check reads points of [-1, 1]^2.
    "chair-lattice-periodicity": lambda monkeypatch: _corrupt_amplitudes(
        monkeypatch, {DyadicPoint2(3, 1, 1)}
    ),
}

# Corrupting a route several checks read: the exact set of checks it fails.
_SHARED = {
    # Every chair check that reads the closed forms at (1/2, 1/2) fails, but
    # chair-empirical-amplitudes, whose error at that point stays within 0.01.
    "chair-closed-form-point-bumped": (
        lambda monkeypatch: _corrupt_amplitudes(monkeypatch, {DyadicPoint2(1, 1, 1)}),
        {
            "chair-amplitude-relations",
            "chair-sum-rules",
            "chair-extinctions",
            "chair-approximant-agreement",
            "chair-d4-intensity-symmetry",
            "chair-lattice-periodicity",
        },
    ),
}


def _failing_checks():
    return {r.name for r in verification.run_checks() if not r.passed}


class TestTamper:
    """Corrupting a route only one check reads fails that check alone."""

    @pytest.mark.parametrize("name", list(_ALONE))
    def test_tampered_check_fails_alone(self, monkeypatch, name):
        _ALONE[name](monkeypatch)
        assert _failing_checks() == {name}


    def test_replaced_closed_form_reaches_the_eta_check(self, monkeypatch):
        # The eta arrays read _eta_closed_form at each call, not from a table
        # made at import, so a replacement after import splits the routes.
        def wrapper(original):
            def off(halvings):
                return original(halvings) + (halvings == 12)

            return off

        _wrap(monkeypatch, period_doubling, "_eta_closed_form", wrapper)
        failing = [(r.name, r.detail) for r in verification.run_checks() if not r.passed]
        assert failing == [
            ("pd-eta-recursion-closed-form", "recursion and closed form split at shift 4096")
        ]


class TestNegativeControls:
    """Corrupting a shared route fails exactly the checks that read it."""

    @pytest.mark.parametrize("control", list(_SHARED))
    def test_control_fails_exactly_its_checks(self, monkeypatch, control):
        corrupt, expected = _SHARED[control]
        corrupt(monkeypatch)
        assert _failing_checks() == expected

    def test_every_check_has_a_control(self):
        covered = set(_ALONE).union(*(expected for _, expected in _SHARED.values()))
        assert [name for name in verification.CHECK_NAMES if name not in covered] == []
        assert covered <= set(verification.CHECK_NAMES)


def _detail(name):
    return next(r.detail for r in verification.run_checks() if r.name == name)


class TestFirstFailure:
    """A failing check names its first failing point, shift, cell or symmetry."""

    @staticmethod
    def _sum_rules_detail():
        return next(
            r.detail for r in verification.run_checks() if r.name == "chair-sum-rules"
        )

    def test_earliest_point_in_module_order_reports(self, monkeypatch):
        late, early = DyadicPoint2(1, 1, 1), DyadicPoint2(2, 3, 3)
        _corrupt_amplitudes(monkeypatch, {late, early})
        assert self._sum_rules_detail() == "pair sums nonzero off the half lattice at (1/4, 3/8)"

    def test_each_condition_keeps_its_wording(self, monkeypatch):
        _corrupt_amplitudes(monkeypatch, {DyadicPoint2(1, 1, 1)})
        assert self._sum_rules_detail() == "sum rule broken on the half lattice at (1/2, 1/2)"

    def test_chain_reports_its_earliest_point(self, monkeypatch):
        # Corrupting A at k breaks |A(k)| = |A(k + 1)|; 3/8 precedes 1/2.
        late, early = Dyadic(1, 1), Dyadic(3, 3)
        _corrupt_amplitudes(monkeypatch, {late, early}, system=period_doubling)
        results = verification.run_checks()
        detail = next(r.detail for r in results if r.name == "pd-amplitude-relations")
        assert detail == "|A| not lattice-periodic at 3/8"

    def test_eta_reports_an_odd_shift_both_routes_miss(self, monkeypatch):
        # Both routes moved alike at shift 5: they agree, but not on -1/3.
        def wrapper(original):
            def off(shifts):
                numerators, denominators = original(shifts)
                return np.where(np.asarray(shifts) == 5, 1, numerators), denominators

            return off

        _wrap(monkeypatch, period_doubling, "autocorr_balanced_arrays", wrapper)
        _wrap(monkeypatch, period_doubling, "autocorr_balanced_closed_form_arrays", wrapper)
        assert _detail("pd-eta-recursion-closed-form") == "odd shift 5 not -1/3"

    def test_chain_labels_report_their_first_cell(self, monkeypatch):
        _flip_first_label(period_doubling, "label_window")(monkeypatch)
        detail = _detail("pd-label-window-agreement")
        assert detail == "congruence labels disagree with the fixed point at -262144"

    def test_d4_window_reports_its_first_symmetry(self, monkeypatch):
        _recolour_one_r90_cell(monkeypatch)
        assert _detail("chair-d4-window-invariance") == "window not invariant under r90"


def _nan_at(name, at):
    """Make the chain's windowed ``name`` NaN at one entry, picked by ``at``."""

    def wrapper(original):
        def nan(comb, *args):
            estimate = original(comb, *args)
            return at(estimate, *args) if comb.dim == 1 else estimate

        return nan

    return lambda monkeypatch: _wrap(monkeypatch, numerics, name, wrapper)


class TestWithin:
    """A measured-error check fails past its tolerance, naming the error and the tolerance."""

    def test_layer_sums_report_their_error_and_tolerance(self, monkeypatch):
        _scale_layer_sums(monkeypatch)
        assert _detail("chair-approximant-agreement") == "max layer-sum error 2.50e-03 > 1e-06"

    def test_windowed_sums_report_their_error_and_tolerance(self, monkeypatch):
        _offset_estimates("empirical_amplitudes", 1, 0.1)(monkeypatch)
        assert _detail("pd-empirical-amplitudes") == "max closed-vs-windowed error 1.00e-01 > 0.01"


class TestNaNFails:
    """A NaN where a check compares against a tolerance fails that check."""

    def test_a_nan_amplitude_of_one_letter_fails(self, monkeypatch):
        # Only letter b's row is NaN, so the weighting (1, 0) stays finite.
        def at(rows, module):
            rows[1, 3] = np.nan
            return rows

        _nan_at("empirical_amplitudes", at)(monkeypatch)
        assert _detail("pd-empirical-amplitudes") == "max closed-vs-windowed error nan > 0.01"

    def test_a_nan_autocorrelation_at_one_shift_fails(self, monkeypatch):
        def at(value, z, weights):
            return complex("nan") if z == 5 else value

        _nan_at("empirical_autocorrelation", at)(monkeypatch)
        assert _detail("pd-empirical-autocorrelation") == "max autocorrelation error nan > 0.01"

    def test_a_nan_pinned_amplitude_fails(self, monkeypatch):
        def wrapper(original):
            def nan(k):
                if k == Dyadic(1, 2):
                    return period_doubling.Amplitudes(np.nan, np.nan)
                return original(k)

            return nan

        _wrap(monkeypatch, period_doubling, "amplitudes", wrapper)
        failing = [(r.name, r.detail) for r in verification.run_checks() if not r.passed]
        detail = "amplitude pair at 1/4 off the pinned value"
        assert failing == [("pd-amplitude-relations", detail)]

    def test_a_nan_closed_form_fails_every_check_that_reads_it(self, monkeypatch):
        # The checks a bump at (1/2, 1/2) fails, and the windowed sums too,
        # whose error there stays within their tolerance for the bump.
        def wrapper(original):
            def nan(module):
                rows = original(module)
                rows[:, [k == DyadicPoint2(1, 1, 1) for k in module.points()]] = np.nan
                return rows

            return nan

        _wrap(monkeypatch, chair, "amplitude_arrays", wrapper)
        bumped = _SHARED["chair-closed-form-point-bumped"][1]
        assert _failing_checks() == bumped | {"chair-empirical-amplitudes"}
