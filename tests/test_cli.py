"""End-to-end command tests: golden outputs, exit codes, determinism.

Each test drives ``limitper.cli.main`` in-process with a throwaway working
directory; one determinism test additionally shells out to a fresh
interpreter to prove outputs do not depend on process state, and the
entry-point tests run ``python -m limitper`` itself.
"""

import argparse
import ast
import contextlib
import errno
import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractions import Fraction

from limitper import chair, cli, dyadic, forked, numerics, period_doubling, render, subst, verification
from limitper.dyadic import Module, module_box, module_interval

SRC = Path(__file__).resolve().parents[1] / "src"

PD_IT2 = "abaaabababaaabaa|abaaabababaaabaa\n"

PD_BALANCED_CSV = (
    "k_num,k_log2den,amp_re,amp_im,intensity\n"
    "0,0,0.33333333333333326,0.0,0.11111111111111106\n"
    "1,1,0.6666666666666666,0.0,0.4444444444444444\n"
)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_chain_two_iterations(self, tmp_path, capsys):
        out = tmp_path / "pattern"
        assert cli.main(["generate", "--iterations", "2", "--out", str(out)]) == 0
        assert (tmp_path / "pattern.txt").read_text() == PD_IT2
        assert str(tmp_path / "pattern.txt") in capsys.readouterr().out

    def test_chain_one_iteration(self, tmp_path):
        out = tmp_path / "p"
        assert cli.main(
            ["generate", "--system", "pd", "--iterations", "1", "--out", str(out)]
        ) == 0
        assert (tmp_path / "p.txt").read_text() == "abaa|abaa\n"

    def test_chain_alternative_seed(self, tmp_path):
        out = tmp_path / "p"
        assert cli.main(
            [
                "generate",
                "--seed",
                "b|a",
                "--iterations",
                "1",
                "--out",
                str(out),
            ]
        ) == 0
        assert (tmp_path / "p.txt").read_text() == "abab|abaa\n"

    def test_chair_seed_window(self, tmp_path):
        out = tmp_path / "chair0"
        assert cli.main(
            ["generate", "--system", "chair", "--iterations", "0", "--out", str(out)]
        ) == 0
        assert (tmp_path / "chair0.txt").read_text() == "3 0\n2 1\n"
        pgm = (tmp_path / "chair0.pgm").read_text()
        assert pgm == "P2\n2 2\n255\n255 0\n170 85\n"

    def test_chair_window_nests_the_golden_block(self, tmp_path):
        out = tmp_path / "chair3"
        assert cli.main(
            [
                "generate",
                "--system",
                "chair",
                "--iterations",
                "3",
                "--format",
                "txt",
                "--out",
                str(out),
            ]
        ) == 0
        rows = (tmp_path / "chair3.txt").read_text().splitlines()
        assert len(rows) == 16
        central = [" ".join(row.split()[4:12]) for row in rows[4:12]]
        two_iterations = tmp_path / "chair2"
        assert cli.main(
            [
                "generate",
                "--system",
                "chair",
                "--iterations",
                "2",
                "--format",
                "txt",
                "--out",
                str(two_iterations),
            ]
        ) == 0
        assert central == (tmp_path / "chair2.txt").read_text().splitlines()

    def test_format_restriction(self, tmp_path):
        out = tmp_path / "only"
        assert cli.main(
            [
                "generate",
                "--system",
                "chair",
                "--iterations",
                "1",
                "--format",
                "pgm",
                "--out",
                str(out),
            ]
        ) == 0
        assert (tmp_path / "only.pgm").exists()
        assert not (tmp_path / "only.txt").exists()

    def test_chain_rejects_pgm(self, tmp_path):
        code = cli.main(
            ["generate", "--format", "pgm", "--out", str(tmp_path / "x")]
        )
        assert code == 2


# ---------------------------------------------------------------------------
# module
# ---------------------------------------------------------------------------


class TestModule:
    def test_chain_closed_interval(self, tmp_path):
        out = tmp_path / "mod"
        assert cli.main(
            ["module", "--rmax", "1", "--region", "0,1", "--out", str(out)]
        ) == 0
        assert (tmp_path / "mod.csv").read_text() == "k_num,k_log2den\n0,0\n1,1\n1,0\n"

    def test_chain_half_open_quarters(self, tmp_path):
        out = tmp_path / "mod"
        assert cli.main(
            [
                "module",
                "--rmax",
                "2",
                "--region",
                "0,1",
                "--half-open",
                "--out",
                str(out),
            ]
        ) == 0
        assert (tmp_path / "mod.csv").read_text() == (
            "k_num,k_log2den\n0,0\n1,2\n1,1\n3,2\n"
        )

    def test_chain_integers(self, tmp_path):
        out = tmp_path / "mod"
        assert cli.main(
            ["module", "--rmax", "0", "--region=-2,2", "--out", str(out)]
        ) == 0
        rows = (tmp_path / "mod.csv").read_text().splitlines()[1:]
        assert rows == ["-2,0", "-1,0", "0,0", "1,0", "2,0"]

    def test_plane_half_lattice(self, tmp_path):
        out = tmp_path / "mod"
        assert cli.main(
            [
                "module",
                "--system",
                "chair",
                "--smax",
                "1",
                "--region",
                "0,1",
                "--half-open",
                "--out",
                str(out),
            ]
        ) == 0
        assert (tmp_path / "mod.csv").read_text() == (
            "kx_num,ky_num,k_log2den\n0,0,0\n0,1,1\n1,0,1\n1,1,1\n"
        )

    def test_plane_integsquares(self, tmp_path):
        out = tmp_path / "mod"
        assert cli.main(
            [
                "module",
                "--system",
                "chair",
                "--smax",
                "0",
                "--region=-1,1",
                "--out",
                str(out),
            ]
        ) == 0
        assert len((tmp_path / "mod.csv").read_text().splitlines()) == 10

    def test_zero_width_region(self, tmp_path):
        out = tmp_path / "mod"
        assert cli.main(["module", "--region", "0,0", "--out", str(out)]) == 0
        assert (tmp_path / "mod.csv").read_text() == "k_num,k_log2den\n0,0\n"

    def test_axis_flag_mismatch(self, tmp_path):
        assert cli.main(["module", "--smax", "1", "--out", str(tmp_path / "m")]) == 2
        assert cli.main(
            ["module", "--system", "chair", "--rmax", "1", "--out", str(tmp_path / "m")]
        ) == 2
        assert cli.main(
            ["module", "--rmax", "1", "--smax", "1", "--out", str(tmp_path / "m")]
        ) == 2


# ---------------------------------------------------------------------------
# diffract
# ---------------------------------------------------------------------------


class TestDiffract:
    def test_balanced_chain_golden(self, tmp_path):
        out = tmp_path / "pd"
        assert cli.main(
            [
                "diffract",
                "--weights",
                "1,-1",
                "--rmax",
                "1",
                "--region",
                "0,1",
                "--half-open",
                "--out",
                str(out),
            ]
        ) == 0
        assert (tmp_path / "pd.csv").read_text() == PD_BALANCED_CSV
        svg = (tmp_path / "pd.svg").read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<line") == 3

    def test_lattice_weights_keep_integer_peaks_only(self, tmp_path):
        out = tmp_path / "ones"
        assert cli.main(
            [
                "diffract",
                "--weights",
                "1,1",
                "--rmax",
                "3",
                "--region",
                "0,1",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        ) == 0
        rows = (tmp_path / "ones.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0", "0"], ["1", "0"]]
        assert all(row.split(",")[4] == "1.0" for row in rows)

    def test_fourth_root_chair_golden(self, tmp_path):
        out = tmp_path / "chair"
        assert cli.main(
            [
                "diffract",
                "--system",
                "chair",
                "--weights",
                "1,i,-1,-i",
                "--smax",
                "2",
                "--region",
                "0,1",
                "--half-open",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        ) == 0
        rows = (tmp_path / "chair.csv").read_text().splitlines()
        assert rows[0] == "kx_num,ky_num,k_log2den,amp_re,amp_im,intensity"
        # Extinctions kill the half even lattice; nothing at s = 0 or at the
        # both-odd half-integer points survives the floor.
        coords = [tuple(map(int, row.split(",")[:3])) for row in rows[1:]]
        assert (0, 0, 0) not in coords
        assert (1, 1, 1) not in coords
        assert "1,0,1,0.25,0.25,0.12500000000000003" in rows
        assert "1,0,2,0.125,0.0,0.015625" in rows
        assert "1,1,2,-0.25,0.0,0.0625" in rows

    def test_amplitude_and_intensity_are_consistent(self, tmp_path):
        out = tmp_path / "c"
        assert cli.main(
            [
                "diffract",
                "--system",
                "chair",
                "--weights",
                "0.3,1,-0.5i,2",
                "--smax",
                "3",
                "--region",
                "0,1",
                "--half-open",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        ) == 0
        rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            _, _, _, amp_re, amp_im, intensity = row.split(",")
            strength = abs(complex(float(amp_re), float(amp_im))) ** 2
            assert strength == pytest.approx(float(intensity), abs=1e-10)
            assert float(intensity) >= 1e-8

    def test_floor_filters_small_peaks(self, tmp_path):
        out = tmp_path / "f"
        assert cli.main(
            [
                "diffract",
                "--weights",
                "1,-1",
                "--rmax",
                "4",
                "--region",
                "0,1",
                "--half-open",
                "--floor",
                "0.2",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        ) == 0
        rows = (tmp_path / "f.csv").read_text().splitlines()[1:]
        # Only the k = 1/2 peak (intensity 4/9) clears a 0.2 floor; the
        # 1/9 peaks at r <= 2 and everything deeper fall below it.
        assert [row.split(",")[:2] for row in rows] == [["1", "1"]]

    def test_empirical_route_matches_closed_forms(self, tmp_path):
        out = tmp_path / "emp"
        assert cli.main(
            [
                "diffract",
                "--weights",
                "1,-1",
                "--rmax",
                "3",
                "--region",
                "0,1",
                "--half-open",
                "--empirical",
                "--window",
                "16384",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        ) == 0
        closed = dict(
            (tuple(map(int, row.split(",")[:2])), float(row.split(",")[4]))
            for row in PD_BALANCED_CSV.splitlines()[1:]
        )
        for row in (tmp_path / "emp.csv").read_text().splitlines()[1:]:
            key = tuple(map(int, row.split(",")[:2]))
            if key in closed:
                assert float(row.split(",")[4]) == pytest.approx(closed[key], abs=0.02)

    def test_empirical_chair_window(self, tmp_path):
        out = tmp_path / "cemp"
        assert cli.main(
            [
                "diffract",
                "--system",
                "chair",
                "--smax",
                "1",
                "--region",
                "0,1",
                "--half-open",
                "--empirical",
                "--window",
                "128",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        ) == 0
        rows = (tmp_path / "cemp.csv").read_text().splitlines()[1:]
        by_coord = {tuple(row.split(",")[:3]): float(row.split(",")[5]) for row in rows}
        assert by_coord[("0", "0", "0")] == pytest.approx(1.0, abs=0.02)

    def test_empirical_route_grows_the_window_from_the_given_seed(self, tmp_path):
        def amplitudes(seed):
            out = tmp_path / seed.replace(" ", "").replace("/", "_")
            assert cli.main(
                [
                    "diffract", "--system", "chair", "--seed", seed,
                    "--weights", "1,i,-1,-i", "--smax", "2", "--region=0,1",
                    "--half-open", "--empirical", "--window", "64", "--floor", "0",
                    "--format", "csv", "--out", str(out),
                ]
            ) == 0
            rows = out.with_suffix(".csv").read_text().splitlines()[1:]
            return [complex(float(row.split(",")[3]), float(row.split(",")[4])) for row in rows]

        seed = subst.block_seed(chair.system(), (("1", "0"), ("0", "1")))
        comb = numerics.WeightedComb(subst.centred_window(chair.system(), seed, 64), 4)
        points = dyadic.module_points(2, ((0, 1), (0, 1)), include_hi=False)
        rows = numerics.empirical_amplitudes(comb, points)
        expected = render.weigh(rows, (1, 1j, -1, -1j)).tolist()
        got = amplitudes("1 0 / 0 1")
        assert got == expected
        assert amplitudes("3 0 / 2 1") != got

    def test_default_weights_are_all_ones(self, tmp_path):
        out = tmp_path / "d"
        assert cli.main(
            [
                "diffract",
                "--system",
                "chair",
                "--smax",
                "1",
                "--region",
                "0,1",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        ) == 0
        rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
        # All-ones weights light up exactly the integer points of the closed
        # unit square; every half-integer peak is extinct.
        assert [row.split(",")[:3] for row in rows] == [
            ["0", "0", "0"],
            ["0", "1", "0"],
            ["1", "0", "0"],
            ["1", "1", "0"],
        ]
        assert all(float(row.split(",")[5]) == pytest.approx(1.0) for row in rows)

    @pytest.mark.parametrize(
        "argv, csv",
        [
            (
                ["--region", "0,0"],
                "k_num,k_log2den,amp_re,amp_im,intensity\n0,0,1.0,0.0,1.0\n",
            ),
            (
                ["--system", "chair", "--smax", "1", "--region", "0,0,0,1"],
                "kx_num,ky_num,k_log2den,amp_re,amp_im,intensity\n"
                "0,0,0,1.0,0.0,1.0\n0,1,0,1.0,0.0,1.0\n",
            ),
            # Widths that round to 0.0 as floats.
            (
                ["--region", "0,1e-400"],
                "k_num,k_log2den,amp_re,amp_im,intensity\n0,0,1.0,0.0,1.0\n",
            ),
            (
                ["--system", "chair", "--smax", "1", "--region=0,1e-400,0,1"],
                "kx_num,ky_num,k_log2den,amp_re,amp_im,intensity\n"
                "0,0,0,1.0,0.0,1.0\n0,1,0,1.0,0.0,1.0\n",
            ),
        ],
    )
    def test_zero_width_region_writes_csv(self, argv, csv, tmp_path):
        # Only the figure needs a nonzero width; the peak list is written.
        out = tmp_path / "z"
        assert cli.main(["diffract", *argv, "--format", "csv", "--out", str(out)]) == 0
        assert out.with_suffix(".csv").read_text() == csv
        assert not out.with_suffix(".svg").exists()

    @pytest.mark.parametrize(
        "argv, tag, positions",
        [
            (
                ["--region", "1000000000000000000,1000000000000000001", "--rmax", "2"],
                "line",
                [("40.0", "360.0"), ("760.0", "360.0")],
            ),
            (
                ["--system", "chair", "--region=1000000000000000000,1000000000000000001,0,1",
                 "--smax", "1"],
                "circle",
                [("40.0", "760.0"), ("40.0", "40.0"), ("760.0", "760.0"), ("760.0", "40.0")],
            ),
        ],
    )
    def test_far_narrow_region_keeps_its_peaks_apart(self, argv, tag, positions, tmp_path):
        # Floats of 10^18 and 10^18 + 1 are equal; the exact offsets are 0 and 1.
        out = tmp_path / "far"
        assert cli.main(["diffract", *argv, "--out", str(out)]) == 0
        root = ET.fromstring(out.with_suffix(".svg").read_text())
        marks = [el for el in root if el.tag.endswith(tag)]
        if tag == "line":
            marks = marks[1:]  # the baseline
        names = ("x1", "y1") if tag == "line" else ("cx", "cy")
        assert [tuple(mark.get(name) for name in names) for mark in marks] == positions

    def test_empty_region_beyond_int64(self, tmp_path):
        # The integer part of the lower bound is past int64, and no point lies there.
        out = tmp_path / "empty"
        region = "--region=-100000000000000000000000000000.9,-100000000000000000000000000000.1"
        assert cli.main(["diffract", "--system", "pd", "--rmax", "0", region, "--out", str(out)]) == 0
        assert out.with_suffix(".csv").read_text() == "k_num,k_log2den,amp_re,amp_im,intensity\n"
        assert out.with_suffix(".svg").read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="400" viewBox="0 0 800 400">\n'
            '<rect width="800" height="400" fill="white"/>\n'
            '<line x1="40.0" y1="360.0" x2="760.0" y2="360.0" stroke="black" stroke-width="1"/>\n'
            "</svg>\n"
        )


class TestArrayRoute:
    """The column route of ``diffract`` against the per-point scalar route it replaced."""

    @staticmethod
    def _scalar_route(points, amplitude, dim, floor=1e-8):
        pairs = [(k, complex(amplitude(k))) for k in points]
        kept = [(k, amp) for k, amp in pairs if abs(amp) ** 2 >= floor]
        return render.PeakTable.of(Module.of([k for k, _ in kept], dim), [a for _, a in kept])

    @pytest.mark.parametrize("half_open", [False, True])
    def test_chair_matches_the_scalar_route(self, tmp_path, half_open):
        weights = (0.3 - 0.2j, 1, -0.5j, 2 + 1j)
        x_bounds, y_bounds = (Fraction(-1, 3), 1), (-2, Fraction(1, 5))
        out = tmp_path / "c"
        argv = [
            "diffract", "--system", "chair", "--weights", "0.3-0.2i,1,-0.5i,2+1i",
            "--smax", "4", "--region=-1/3,1,-2,1/5", "--out", str(out),
        ]
        assert cli.main(argv + (["--half-open"] if half_open else [])) == 0
        points = module_box(4, x_bounds, y_bounds, include_hi=not half_open)
        table = self._scalar_route(
            points,
            lambda k: sum(w * a for w, a in zip(weights, chair.amplitudes(k).values)),
            2,
        )
        assert out.with_suffix(".csv").read_text() == render.peaks_csv(table)
        assert out.with_suffix(".svg").read_text() == render.disc_svg(table, x_bounds, y_bounds)

    def test_chain_matches_the_scalar_route(self, tmp_path):
        out = tmp_path / "p"
        argv = [
            "diffract", "--weights", "0.4+1i,-1", "--rmax", "9", "--region=-3/7,5/3",
            "--floor", "0", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        points = module_interval(9, Fraction(-3, 7), Fraction(5, 3))

        def amplitude(k):
            pair = period_doubling.amplitudes(k)
            return (0.4 + 1j) * pair.a + -1 * pair.b

        table = self._scalar_route(points, amplitude, 1, floor=0)
        assert out.with_suffix(".csv").read_text() == render.peaks_csv(table)
        svg = render.stem_svg(table, Fraction(-3, 7), Fraction(5, 3))
        assert out.with_suffix(".svg").read_text() == svg

    def test_system_is_resolved_once(self, tmp_path, monkeypatch):
        calls = []
        resolve = cli.resolve_system

        def counted(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(cli, "resolve_system", counted)
        argv = [
            "diffract", "--system", "chair", "--smax", "2", "--region=0,1",
            "--out", str(tmp_path / "once"),
        ]
        assert cli.main(argv) == 0
        assert calls == [("chair", None)]

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["diffract", "--rmax", "62", "--region=0,2"], "int64"),
            (["module", "--rmax", "62", "--region=-3,0"], "int64"),
            (["module", "--system", "chair", "--smax", "63", "--region=0,1/1000000"], "2^62"),
        ],
    )
    def test_module_outside_int64_exits_two(self, argv, limit, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("limitper: ") and limit in err
        assert not list(tmp_path.iterdir())

    def test_module_past_the_point_bound_exits_two_without_allocating(self, tmp_path, capsys):
        # 2^40 + 1 points: inside int64, but terabytes of columns.
        argv = ["module", "--rmax", "40", "--region", "0,1", "--out", str(tmp_path / "m")]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("limitper: ") and str((1 << 40) + 1) in err
        assert peak < 1 << 20
        assert not list(tmp_path.iterdir())

    def test_module_at_the_int64_edge_runs(self, tmp_path):
        # 2^61 * [0, 4 - 2^-61] scales to [0, 2^63 - 1]: the last key that fits.
        out = tmp_path / "edge"
        region = f"--region={(1 << 63) - 3}/{1 << 61},{(1 << 63) - 1}/{1 << 61}"
        assert cli.main(["module", "--rmax", "61", region, "--out", str(out)]) == 0
        rows = out.with_suffix(".csv").read_text().splitlines()[1:]
        assert rows == [f"{(1 << 63) - 3},61", f"{(1 << 62) - 1},60", f"{(1 << 63) - 1},61"]


# Weights for the pre-filter sweep: zero, units, tiny, and moduli at the 1e150 bound.
_PREFILTER_WEIGHT = st.sampled_from(
    ["0", "1", "-1", "i", "0.3-0.2i", "0.9+0.4i", "1e-300", "1e150", "-1e150i",
     "7.07e149-7.07e149i"]
)


@st.composite
def _prefilter_weights(draw, letters: int) -> str:
    """Weights drawn free, all zero, or in equal pairs (w, w, v, v, ...)."""
    kind = draw(st.sampled_from(["free", "zero", "pairs"]))
    if kind == "zero":
        return ",".join(["0"] * letters)
    if kind == "pairs":
        return ",".join(w for w in draw(st.lists(_PREFILTER_WEIGHT, min_size=letters // 2,
                                                 max_size=letters // 2)) for _ in "ab")
    return ",".join(draw(st.lists(_PREFILTER_WEIGHT, min_size=letters, max_size=letters)))


def _no_prefilter(closed_forms, module, weights, floor):
    return module


class TestLevelPrefilter:
    """Dropping the levels below the floor before the closed forms changes no byte."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["pd", "chair"]),
        st.data(),
        st.sampled_from([None, "0", "1e-300", "1e-3", "inf"]),
    )
    @example("pd", None, None)
    def test_output_matches_the_unfiltered_run(self, system, data, floor):
        if data is None:
            # The benchmark's chain run, where levels 14 to 16 are dropped.
            argv = ["diffract", "--rmax", "16", "--region", "0,1",
                    "--weights=0.028-0.553i,0.086-1.593i"]
        elif system == "pd":
            rmax = data.draw(st.integers(0, 18))
            argv = ["diffract", "--rmax", str(rmax), "--region", "0,1/8",
                    "--weights=" + data.draw(_prefilter_weights(2))]
        else:
            smax = data.draw(st.integers(0, 16))
            argv = ["diffract", "--system", "chair", "--smax", str(smax),
                    "--region=0,1/512,-1/512,0", "--weights=" + data.draw(_prefilter_weights(4))]
        if floor is not None:
            argv += ["--floor", floor]
        runs = []
        with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
            patch.setattr(forked, "_usable_cpus", lambda: 1)
            for name in ("filtered", "unfiltered"):
                if name == "unfiltered":
                    patch.setattr(cli, "_levels_over", _no_prefilter)
                out = Path(scratch) / name / "peaks"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main([*argv, "--out", str(out)])
                runs.append((code, stdout.getvalue().replace(name, "*"),
                             out.with_suffix(".csv").read_bytes(),
                             out.with_suffix(".svg").read_bytes()))
        assert runs[0] == runs[1]

    def test_the_slack_keeps_a_peak_that_rounds_over_its_bound(self, tmp_path):
        # A_b at the integers is 1 - fl(2/3), above the bound 1/3: with the
        # floor at its intensity, the bound alone would drop the level.
        intensity = (1 - 2 / 3) ** 2
        assert intensity > (1 / 3) ** 2
        out = tmp_path / "b"
        argv = ["diffract", "--weights", "0,1", "--rmax", "0", "--floor", repr(intensity),
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = out.with_suffix(".csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0", "0"], ["1", "0"]]

    @pytest.mark.parametrize(
        "closed_forms, weights",
        [
            (period_doubling, (1, -1)),
            (period_doubling, (0.028 - 0.553j, 1e150)),
            (chair, (1, 1j, -1, -1j)),
            (chair, (0, 1e-300, 0, 0.897 - 1.144j)),
        ],
        ids=["pd-balanced", "pd-lopsided", "chair-fourth-roots", "chair-lopsided"],
    )
    def test_the_kept_levels_are_a_prefix(self, closed_forms, weights):
        # The weighted triangle sum of the level bounds never rises with the
        # level, so every floor keeps the levels 0..R' and drops the rest.
        # 1e150 is the largest weight modulus the CLI accepts.
        levels = np.arange(dyadic.MAX_LEVEL + 1)
        module = dyadic.normal_form([np.ones_like(levels)] * (len(weights) // 2), levels)
        for floor in [0.0, *np.logspace(-330, 1, 100)]:
            kept = cli._levels_over(closed_forms, module, weights, floor).exponents.tolist()
            assert kept == list(range(len(kept)))

    @staticmethod
    def _evaluated(closed_forms, monkeypatch) -> list:
        """The modules ``closed_forms.amplitude_arrays`` is called on, from now on."""
        evaluated = []
        amplitude_arrays = closed_forms.amplitude_arrays

        def recorded(module):
            evaluated.append(module)
            return amplitude_arrays(module)

        monkeypatch.setattr(closed_forms, "amplitude_arrays", recorded)
        return evaluated

    def test_the_chain_sweep_evaluates_the_kept_levels_only(self, tmp_path, monkeypatch):
        evaluated = self._evaluated(period_doubling, monkeypatch)
        out = tmp_path / "pd"
        argv = ["diffract", "--rmax", "16", "--region", "0,1",
                "--weights=0.028-0.553i,0.086-1.593i", "--out", str(out)]
        assert cli.main(argv) == 0
        [module] = evaluated
        assert len(module) == 8193 and int(module.exponents.max()) == 13
        assert len(out.with_suffix(".csv").read_text().splitlines()) == 1 + 4097

    def test_the_chair_sweep_keeps_every_level(self, tmp_path, monkeypatch):
        evaluated = self._evaluated(chair, monkeypatch)
        argv = ["diffract", "--system", "chair", "--smax", "7", "--region=-1,1",
                "--weights=0.028-0.553i,-0.024+0.426i,0.897-1.144i,0.331-0.593i",
                "--format", "csv", "--out", str(tmp_path / "c")]
        assert cli.main(argv) == 0
        assert [len(module) for module in evaluated] == [66049]


# The two files of each built-in's diffract, and of the chair's generate, written to ./peaks.
_BOTH_FORMATS = {
    "pd": ["diffract", "--weights", "1,-1", "--rmax", "6", "--region", "0,1", "--out", "peaks"],
    "chair": ["diffract", "--system", "chair", "--weights", "1,i,-1,-i", "--smax", "4",
              "--region=-1,1", "--out", "peaks"],
    "chair-generate": ["generate", "--system", "chair", "--iterations", "4", "--out", "peaks"],
}
# The suffixes each command writes, in the order it prints their paths.
_SUFFIXES = {"diffract": (".csv", ".svg"), "generate": (".pgm", ".txt")}


class TestForkedRender:
    """Writing two files on two processes changes no output, exit code or error."""

    @staticmethod
    def _run(argv, cwd, cpus, monkeypatch, capsys):
        """``(exit code, stdout, stderr, {suffix: bytes})`` of one run in ``cwd``."""
        cwd.mkdir(exist_ok=True)
        monkeypatch.chdir(cwd)
        monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
        code = cli.main(argv)
        captured = capsys.readouterr()
        files = {path.suffix: path.read_bytes() for path in cwd.glob("peaks.*") if path.is_file()}
        return code, captured.out, captured.err, files

    @staticmethod
    def _count_forks(monkeypatch) -> list:
        forks = []
        fork = os.fork

        def counted():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @pytest.mark.parametrize("system", sorted(_BOTH_FORMATS))
    def test_bytes_and_stdout_match_the_sequential_run(self, system, tmp_path, monkeypatch, capsys):
        forks = self._count_forks(monkeypatch)
        argv = _BOTH_FORMATS[system]
        alone = self._run(argv, tmp_path / "one", 1, monkeypatch, capsys)
        assert forks == []
        pooled = self._run(argv, tmp_path / "two", 2, monkeypatch, capsys)
        # One worker per file: the parent renders nothing once it forks.
        assert forks == [os.getpid()] * 2
        assert alone == pooled
        suffixes = _SUFFIXES[argv[0]]
        assert pooled[:3] == (0, "".join(f"peaks{suffix}\n" for suffix in suffixes), "")
        assert set(pooled[3]) == set(suffixes)

    def test_diffract_under_a_file_has_one_line_of_stderr(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "file").touch()
        out = tmp_path / "file" / "m"
        monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
        assert cli.main(["diffract", "--rmax", "1", "--out", str(out)]) == 2
        error = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}.csv'"
        assert capsys.readouterr() == ("", f"limitper: cannot write {out}.csv: {error}\n")

    @pytest.mark.parametrize("blocked", ["peaks.csv", "peaks.svg", "both", "peaks.pgm"])
    def test_write_errors_match_the_sequential_run(self, blocked, tmp_path, monkeypatch, capsys):
        argv = _BOTH_FORMATS["chair-generate" if blocked == "peaks.pgm" else "chair"]
        runs = []
        for cpus in (1, 2):
            cwd = tmp_path / str(cpus)
            # A directory where a file should go makes its write fail.
            for name in (["peaks.csv", "peaks.svg"] if blocked == "both" else [blocked]):
                (cwd / name).mkdir(parents=True)
            runs.append(self._run(argv, cwd, cpus, monkeypatch, capsys))
        # Both runs try every file, so the one that can be written is written by both.
        assert runs[0] == runs[1]
        code, out, err, files = runs[1]
        failed = "peaks.csv" if blocked == "both" else blocked
        assert code == 2
        assert out == ("peaks.csv\n" if blocked == "peaks.svg" else "")
        assert re.fullmatch(f"limitper: cannot write {failed}: [^\n]*\n", err)
        if blocked == "peaks.pgm":
            assert set(files) == {".txt"}

    @pytest.mark.parametrize("how", ["raises", "is killed"])
    def test_a_failing_child_names_its_file(self, how, tmp_path, monkeypatch, capsys):
        def broken(*args):
            if how == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("no figure today")

        monkeypatch.setattr(render, "disc_svg", broken)
        raised = []
        for cpus in (1, 2) if how == "raises" else (2,):
            (tmp_path / str(cpus)).mkdir()
            monkeypatch.chdir(tmp_path / str(cpus))
            monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
            with pytest.raises(Exception) as error:
                cli.main(_BOTH_FORMATS["chair"])
            text = re.sub(r"worker \d+", "worker N", f"{error.type.__name__}: {error.value}")
            raised.append((text, capsys.readouterr()))
        # A raising child's own error comes back, as in the one-CPU run.
        expected = (
            "ValueError: no figure today" if how == "raises"
            else "RuntimeError: no result for peaks.svg (worker N killed by signal 9)"
        )
        assert set(raised) == {(expected, ("peaks.csv\n", ""))}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failing", ["none", "parent", "child"])
    def test_no_child_is_left_behind(self, failing, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("no render today")

        if failing != "none":
            monkeypatch.setattr(render, "peaks_csv" if failing == "parent" else "stem_svg", broken)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
        quiet = contextlib.redirect_stdout(io.StringIO())
        with contextlib.suppress(ValueError, RuntimeError), quiet:
            assert cli.main(_BOTH_FORMATS["pd"]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_fork_writes_both_files_here(self, tmp_path, monkeypatch, capsys):
        def refuse():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        argv = _BOTH_FORMATS["chair"]
        alone = self._run(argv, tmp_path / "one", 1, monkeypatch, capsys)
        monkeypatch.setattr(os, "fork", refuse)
        assert self._run(argv, tmp_path / "two", 2, monkeypatch, capsys) == alone

    @pytest.mark.parametrize(
        "argv, platform",
        [
            (_BOTH_FORMATS["pd"] + ["--format", "csv"], "linux"),
            (_BOTH_FORMATS["pd"] + ["--format", "svg"], "linux"),
            (_BOTH_FORMATS["pd"], "darwin"),
            (_BOTH_FORMATS["chair-generate"] + ["--format", "txt"], "linux"),
            (["module", "--rmax", "3", "--out", "peaks"], "linux"),
        ],
        ids=["csv", "svg", "not-linux", "generate-txt", "module"],
    )
    def test_one_format_or_another_platform_never_forks(
        self, argv, platform, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(sys, "platform", platform)
        # Off Linux the CPU count is not asked for: None would not compare with 2.
        cpus = 2 if platform == "linux" else None
        code, out, _, files = self._run(argv, tmp_path, cpus, monkeypatch, capsys)
        assert code == 0
        assert out == "".join(f"peaks{suffix}\n" for suffix in sorted(files))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_a_failed_fork_runs_the_checks_here(self, tmp_path, monkeypatch, capsys):
        def refuse():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        runs = []
        for cpus in (1, 2):
            (tmp_path / str(cpus)).mkdir()
            monkeypatch.chdir(tmp_path / str(cpus))
            monkeypatch.setattr(forked, "_usable_cpus", lambda: cpus)
            if cpus == 2:
                monkeypatch.setattr(os, "fork", refuse)
            code = cli.main(["verify", "--out", "report"])
            runs.append((code, *capsys.readouterr(), Path("report.txt").read_bytes()))
        assert runs[1] == runs[0]
        assert runs[0][0::2] == (0, "")

    def test_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert cli.main(["verify", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "all 15 checks passed" in stdout
        report = (tmp_path / "report.txt").read_text()
        assert report.count("PASS") == 15
        assert "FAIL" not in report

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert cli.main(["verify", "--json", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        records = json.loads(captured.out)
        assert [r["name"] for r in records] == list(verification.CHECK_NAMES)
        for record in records:
            assert set(record) == {"name", "passed", "elapsed_s", "detail"}
            assert record["passed"] is True
            assert record["elapsed_s"] >= 0
        assert json.loads((tmp_path / "report.json").read_text()) == records
        assert captured.err.strip() == str(tmp_path / "report.json")


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------

# Every flag of every subcommand, in the order ``--help`` lists them.  A new
# option shows up here as a change to this table.
_OPTIONS = {
    "generate": ["--system", "--seed", "--iterations", "--out", "--format"],
    "diffract": [
        "--system", "--seed", "--weights", "--rmax", "--smax", "--region", "--half-open",
        "--floor", "--window", "--empirical", "--out", "--format",
    ],
    "module": ["--system", "--rmax", "--smax", "--region", "--half-open", "--out"],
    "verify": ["--json", "--out"],
}


class TestOptions:
    def test_each_subcommand_has_exactly_its_flags(self):
        parser = cli._build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: [flag for action in sub._actions if action.dest != "help" for flag in action.option_strings]
            for name, sub in commands.choices.items()
        }
        assert flags == _OPTIONS


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["diffract", "--weights", "1,x", "--out", "ignored"],
            ["diffract", "--weights", "1,", "--out", "ignored"],
            ["diffract", "--weights", "1,2,3", "--out", "ignored"],
            ["diffract", "--region", "0,1,2", "--out", "ignored"],
            ["diffract", "--region", "1,0", "--out", "ignored"],
            ["diffract", "--region", "a,b", "--out", "ignored"],
            ["generate", "--system", "/no/such/rules.sub", "--out", "ignored"],
            ["generate", "--seed", "b|b", "--out", "ignored"],
            ["generate", "--seed", "b", "--out", "ignored"],
            ["generate", "--system", "chair", "--seed", "0 0 / 0 0", "--out", "ignored"],
            ["generate", "--iterations", "-1", "--out", "ignored"],
            ["diffract", "--window", "0", "--empirical", "--out", "ignored"],
            ["diffract", "--floor=-1", "--out", "ignored"],
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "limitper:" in capsys.readouterr().err

    def test_argparse_failures_return_two(self, capsys):
        assert cli.main([]) == 2
        assert cli.main(["frobnicate"]) == 2
        assert cli.main(["diffract", "--rmax"]) == 2
        capsys.readouterr()

    def test_weights_parser_accepts_i_notation(self):
        assert cli.parse_weights("1,i,-1,-i") == (1, 1j, -1, -1j)
        assert cli.parse_weights("1.5-0.25i") == (1.5 - 0.25j,)
        assert cli.parse_weights("2j") == (2j,)
        assert cli.parse_weights("2i,(1+2i),( 1+2i )") == (2j, 1 + 2j, 1 + 2j)
        with pytest.raises(cli.UsageError):
            cli.parse_weights("nan")

    def test_weights_parser_bounds_the_modulus(self):
        assert cli.parse_weights("1e150,-1e150i") == (1e150, -1e150j)
        with pytest.raises(cli.UsageError, match="modulus over 1e150"):
            cli.parse_weights("1e150+1e150i")
        with pytest.raises(cli.UsageError, match="modulus over 1e150"):
            cli.parse_weights("1e308+1e308i")

    def test_weights_at_the_bound_give_finite_intensities(self, tmp_path):
        # Four weights of modulus 1e150 on amplitudes of modulus at most 1.
        argv = ["diffract", "--system", "chair", "--weights", "1e150,1e150i,-1e150,-1e150i"]
        argv += ["--smax", "3", "--format", "csv", "--out", str(tmp_path / "huge")]
        with np.errstate(over="raise", invalid="raise"):
            assert cli.main(argv) == 0
        rows = (tmp_path / "huge.csv").read_text().splitlines()[1:]
        intensities = [float(row.split(",")[-1]) for row in rows]
        assert rows and all(np.isfinite(intensities))


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------

_CUSTOM_RULE = """\
kind = word
factor = 2
alphabet = a b
a -> a b
b -> a a
"""

_TRIPLING_RULE = """\
kind = word
factor = 3
alphabet = a
a -> a a a
"""


_NO_SEED_RULE = """\
kind = word
factor = 2
alphabet = a b c d
a -> b b
b -> c c
c -> d d
d -> a a
"""

_BROKEN_RULE = "kind = word\nfactor = 2\nalphabet = a\na -> a\n"

# 257 letters, one more than uint8 labels can tell apart.
_BIG_RULE = "kind = word\nfactor = 2\nalphabet = {}\n{}".format(
    " ".join(f"x{i}" for i in range(257)), "".join(f"x{i} -> x0 x256\n" for i in range(257))
)

# 256 letters, the most uint8 labels tell apart.  In the cyclic rule every
# image is the next letter, so no cell keeps its letter under the rule, its
# square or its cube; in the other only the last letter keeps its corners.
_CYCLIC_256_RULE = "kind = block\nfactor = 2\nalphabet = {}\n{}".format(
    " ".join(f"x{i}" for i in range(256)),
    "".join(f"x{i} ->\n" + f"  x{(i + 1) % 256} x{(i + 1) % 256}\n" * 2 for i in range(256)),
)
_LAST_LETTER_256_RULE = "kind = block\nfactor = 3\nalphabet = {}\n{}x255 ->\n{}".format(
    " ".join(f"x{i}" for i in range(256)),
    "".join(f"x{i} ->\n" + f"  x{i + 1} x{i + 1} x{i + 1}\n" * 3 for i in range(255)),
    "  x255 x0 x255\n  x0 x0 x0\n  x255 x0 x255\n",
)


def _cycle_rule(kind: str, factor: int) -> str:
    """Three letters in a cycle, a -> b -> c -> a, each image one letter.

    No cell keeps its letter under the rule or its square; the cube keeps
    every letter, and its images have factor^(3 d) cells.
    """
    text = f"kind = {kind}\nfactor = {factor}\nalphabet = a b c\n"
    for x, y in zip("abc", "bca"):
        row = " ".join([y] * factor)
        text += f"{x} -> {row}\n" if kind == "word" else f"{x} ->\n" + f"  {row}\n" * factor
    return text


# One flag wrong per argv, with the exact line each prints to stderr; RULES is
# the directory of the rule files written by the test.
# Inputs whose window or count table would outgrow the CLI's bounds, with
# the sizes they state.
_REFUSALS = [
    (
        ["generate", "--system", "pd", "--iterations", "40"],
        "the window after 40 iterations has 2*4^40 cells; the CLI grows at most 16777216",
    ),
    (
        ["generate", "--system", "chair", "--iterations", "12"],
        "the window after 12 iterations has (2*2^12)^2 cells; the CLI grows at most 16777216",
    ),
    (
        ["diffract", "--system", "chair", "--empirical", "--window", "100000"],
        "the window [-100000, 100000]^2 has 40000400001 cells; the CLI grows at most 16777216",
    ),
    (
        ["diffract", "--empirical", "--window", "8388608"],
        "the window [-8388608, 8388608] has 16777217 cells; the CLI grows at most 16777216",
    ),
    (
        ["diffract", "--system", "chair", "--empirical", "--smax", "13", "--region", "0,0.001"],
        "the count table at denominator 2^13 has 4 x 2^26 = 268435456 entries; "
        "the CLI counts at most 4194304",
    ),
    (
        ["diffract", "--empirical", "--rmax", "22", "--region", "0,1/1024"],
        "the count table at denominator 2^22 has 2 x 2^22 = 8388608 entries; "
        "the CLI counts at most 4194304",
    ),
]

_ERROR_TABLE = [
    (["diffract", "--weights", "1,x"], "bad complex weight 'x'"),
    (["diffract", "--weights", "1,"], "empty weight in '1,'"),
    (["diffract", "--weights", "1,2,3"], "3 weights for 2 letters; they must match"),
    (["diffract", "--system", "chair", "--weights", "1,1"], "2 weights for 4 letters; they must match"),
    (["diffract", "--region", "0,1,2"], "a chain region is lo,hi"),
    (["diffract", "--region", "1,0"], "region bound 1 exceeds 0"),
    (["diffract", "--region", "a,b"], "bad region 'a,b'"),
    (
        ["generate", "--system", "/no/such/rules.sub"],
        "cannot read rule file '/no/such/rules.sub': "
        "[Errno 2] No such file or directory: '/no/such/rules.sub'",
    ),
    (["generate", "--seed", "b|b"], "seed 'b|b' is not legal for this system"),
    (["generate", "--seed", "b"], "a chain seed is written left|right, got 'b'"),
    (
        ["generate", "--system", "chair", "--seed", "0 0 / 0 0"],
        "seed '0 0 / 0 0' is not legal for this system",
    ),
    (["generate", "--iterations", "-1"], "negative iteration count: -1"),
    (["diffract", "--window", "0", "--empirical"], "window half-width must be positive: 0"),
    (["diffract", "--floor=-1"], "intensity floor must be nonnegative: -1.0"),
    (["module", "--smax", "1"], "--smax is for plane systems; use --rmax for chains"),
    (["module", "--system", "chair", "--rmax", "1"], "--rmax is for chains; use --smax for plane systems"),
    (["diffract", "--system", "chair", "--rmax", "1"], "--rmax is for chains; use --smax for plane systems"),
    (["module", "--rmax", "1", "--smax", "1"], "pass either --rmax or --smax, not both"),
    # Rejected by two checks at one time; the dyadic module's check is the one left.
    (["module", "--rmax", "-1"], "negative denominator cutoff: -1"),
    (
        ["diffract", "--rmax", "62", "--region=0,2"],
        "module numerator 9223372036854775808 at denominator 2^62 is outside "
        "the int64 range [-2^63, 2^63 - 1]",
    ),
    (
        ["module", "--rmax", "62", "--region=-3,0"],
        "module numerator -13835058055282163712 at denominator 2^62 is outside "
        "the int64 range [-2^63, 2^63 - 1]",
    ),
    (
        ["module", "--system", "chair", "--smax", "63", "--region=0,1/1000000"],
        "module points reach denominator 2^63; the array routes stop at 2^62",
    ),
    (
        ["module", "--rmax", "40", "--region", "0,1"],
        "the box holds 1099511627777 module points; the array routes stop at 16777216",
    ),
    (
        ["module", "--system", "RULES/tripling.sub"],
        "the wave-number module enumerated here is dyadic; it only matches rules "
        "with a power-of-two inflation factor",
    ),
    # Rejected by two checks at one time; the module's factor check is the one left.
    (
        ["diffract", "--system", "RULES/tripling.sub", "--empirical", "--window", "64"],
        "the wave-number module enumerated here is dyadic; it only matches rules "
        "with a power-of-two inflation factor",
    ),
    (
        ["generate", "--system", "RULES/broken.sub"],
        "bad rule file 'RULES/broken.sub': line 4: rule 'a': non-constant length "
        "(expected 2 letters, got 1)",
    ),
    (
        ["diffract", "--system", "RULES/doubling.sub"],
        "no closed forms for user rules; pass --empirical for windowed sums",
    ),
    (
        ["generate", "--system", "RULES/doubling.sub", "--seed", "b|b"],
        "seed 'b|b' is not legal for this rule or its powers up to 3",
    ),
    (
        ["generate", "--system", "RULES/no_seed.sub"],
        "no legal seed found for this rule or its powers up to 3",
    ),
    (["generate", "--format", "pgm"], "format 'pgm' not supported here (choose from txt)"),
] + _REFUSALS + [
    # Zero-width regions, refused only when a figure is asked for.
    (
        ["diffract", "--region", "0,0"],
        "an SVG needs a region of nonzero width on every axis; use --format csv",
    ),
    (
        ["diffract", "--system", "chair", "--region", "0,0,0,1"],
        "an SVG needs a region of nonzero width on every axis; use --format csv",
    ),
    # Weights whose intensities could overflow, and alphabets past uint8 labels.
    (
        ["diffract", "--system", "pd", "--weights", "1e200,-1e200", "--rmax", "2", "--region", "0,1"],
        "weight '1e200' has modulus over 1e150",
    ),
    (
        ["generate", "--system", "RULES/big.sub"],
        "bad rule file 'RULES/big.sub': line 3: alphabet has 257 letters; "
        "labels are uint8, so at most 256",
    ),
    # Empty flag values reach their parsers rather than the defaults.
    (["diffract", "--weights", ""], "empty weight in ''"),
    (["diffract", "--region", ""], "bad region ''"),
    (["diffract", "--seed", ""], "a chain seed is written left|right, got ''"),
    (
        ["generate", "--system", "RULES/latin1.sub"],
        "cannot read rule file 'RULES/latin1.sub': 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte",
    ),
    (
        ["generate", "--system", "RULES/cyclic256.sub"],
        "no legal seed found for this rule or its powers up to 3",
    ),
    # A seed letter outside the alphabet, in a chain seed and in a block seed.
    (["generate", "--seed", "x|a"], "seed letter 'x' is not in the alphabet"),
    (
        ["diffract", "--system", "chair", "--seed", "0 0 / 0 9"],
        "seed letter '9' is not in the alphabet",
    ),
    # A region with neither 2 nor 2 d bounds, in the plane and on the chain.
    (
        ["diffract", "--system", "chair", "--region", "0,1,2"],
        "a plane region is lo,hi or xlo,xhi,ylo,yhi",
    ),
    (["diffract", "--region", "0,1,0,1"], "a chain region is lo,hi"),
    # Cutoffs far past the array routes, refused without building 2^cutoff.
    (
        ["module", "--rmax", "100000000000000"],
        "module points reach denominator 2^100000000000000; the array routes stop at 2^62",
    ),
    (
        ["diffract", "--system", "chair", "--smax", "100000000000000"],
        "module points reach denominator 2^100000000000000; the array routes stop at 2^62",
    ),
    # Nonzero widths that round to 0.0 as floats, which the figure divides by.
    (
        ["diffract", "--system", "pd", "--region", "0,1e-400"],
        "an SVG needs a region of nonzero width on every axis; use --format csv",
    ),
    (
        ["diffract", "--system", "chair", "--region=0,1e-400,0,1"],
        "an SVG needs a region of nonzero width on every axis; use --format csv",
    ),
    # Infinite weights in every spelling complex() reads, the i of inf kept.
    (["diffract", "--weights=inf,1"], "non-finite weight 'inf'"),
    (["diffract", "--weights=-inf,1"], "non-finite weight '-inf'"),
    (["diffract", "--weights=1,Infinity"], "non-finite weight 'Infinity'"),
    (["diffract", "--weights=infi,1"], "non-finite weight 'infi'"),
    # A window without the windowed route it sizes.
    (["diffract", "--window", "64"], "--window is for --empirical; the closed forms take no window"),
]


_RULE_FILES = {
    "doubling": _CUSTOM_RULE,
    "tripling": _TRIPLING_RULE,
    "broken": _BROKEN_RULE,
    "no_seed": _NO_SEED_RULE,
    "big": _BIG_RULE,
    "cyclic256": _CYCLIC_256_RULE,
    "last256": _LAST_LETTER_256_RULE,
    "cycle16": _cycle_rule("block", 16),
    "cycle64": _cycle_rule("block", 64),
    "cycle257": _cycle_rule("word", 257),
}


def _write_rule_files(rules: Path) -> str:
    """Write every rule file of ``_RULE_FILES``, and ``latin1.sub``, into ``rules``; its path."""
    rules.mkdir()
    for name, text in _RULE_FILES.items():
        (rules / f"{name}.sub").write_text(text)
    # A rule file that is not UTF-8: its first byte is 0xff.
    (rules / "latin1.sub").write_bytes(b"\xff" + _CUSTOM_RULE.encode())
    return str(rules)


class TestErrorTable:
    """Each single-error argv exits 2 with its own stderr line and writes nothing."""

    @pytest.fixture
    def rules(self, tmp_path):
        return _write_rule_files(tmp_path / "rules")

    @pytest.mark.parametrize("argv, message", _ERROR_TABLE)
    def test_exit_code_and_message(self, argv, message, rules, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        argv = [arg.replace("RULES", rules) for arg in argv]
        assert cli.main(argv + ["--out", str(out / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"limitper: {message.replace('RULES', rules)}\n"
        assert captured.out == ""
        assert not list(out.iterdir())

    @pytest.mark.parametrize("out", ["", ".", "/", "..", "a/.."])
    @pytest.mark.parametrize("command", ["generate", "diffract", "module", "verify"])
    def test_output_path_without_a_file_name(self, command, out, tmp_path, monkeypatch, capsys):
        # Refused before any pattern is grown, module enumerated or check run.
        def refuse(*args, **kwargs):
            raise AssertionError("work began before the output path was checked")

        monkeypatch.setattr(subst, "fixed_point_window", refuse)
        monkeypatch.setattr(dyadic, "module_points", refuse)
        monkeypatch.setattr(verification, "run_checks", refuse)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"limitper: output path {out!r} has no file name\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_output_under_a_file(self, tmp_path, capsys):
        # The write fails on the file in the way, not on creating the directory.
        (tmp_path / "file").touch()
        out = tmp_path / "file" / "m"
        assert cli.main(["module", "--rmax", "1", "--out", str(out)]) == 2
        error = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}.csv'"
        assert capsys.readouterr().err == f"limitper: cannot write {out}.csv: {error}\n"

    def test_large_alphabet_with_one_legal_seed(self, rules, tmp_path, capsys):
        system, seed, closed_forms = cli.resolve_system(f"{rules}/last256.sub", None)
        assert system == subst.load_rules(f"{rules}/last256.sub")
        assert seed.labels.tolist() == [[255, 255], [255, 255]]
        assert closed_forms is None
        out = tmp_path / "p"
        argv = ["generate", "--system", f"{rules}/last256.sub", "--iterations", "1"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}.pgm\n{out}.txt\n"

    @pytest.mark.parametrize(
        "name, module", [("pd", period_doubling), ("chair", chair), ("RULES/doubling.sub", None)]
    )
    def test_a_builtin_resolves_to_its_closed_forms(self, name, module, rules):
        system, seed, closed_forms = cli.resolve_system(name.replace("RULES", rules), None)
        assert closed_forms is module
        assert subst.check_seed_legal(system, seed)

    @pytest.mark.parametrize(
        "name, cells, peak_limit",
        [
            ("cycle64", 1 << 36, 1 << 20),
            ("cycle257", 257**3, 1 << 20),
        ],
    )
    def test_rule_power_over_the_cell_bound_exits_two(
        self, name, cells, peak_limit, rules, tmp_path, monkeypatch, capsys
    ):
        power = subst.SubstitutionSystem.power

        def bounded(system, exponent):
            if system.factor ** (exponent * system.dim) > dyadic.MAX_CELLS:
                raise AssertionError(f"asked for power {exponent}, whose images are over the bound")
            return power(system, exponent)

        monkeypatch.setattr(subst.SubstitutionSystem, "power", bounded)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["generate", "--system", f"{rules}/{name}.sub", "--iterations", "0"]
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--out", str(out / "x")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            f"limitper: the rule to the power 3 has images of {cells} cells each; "
            "the CLI grows at most 16777216\n"
        )
        assert peak < peak_limit
        assert not list(out.iterdir())

    def test_rule_power_at_the_cell_bound_resolves(self, rules, monkeypatch):
        # The cube of the factor-16 cycle has images of exactly 2^24 cells;
        # it is the only power built.
        power, exponents = subst.SubstitutionSystem.power, []

        def recorded(system, exponent):
            exponents.append(exponent)
            return power(system, exponent)

        monkeypatch.setattr(subst.SubstitutionSystem, "power", recorded)
        system, seed, _ = cli.resolve_system(f"{rules}/cycle16.sub", None)
        assert exponents == [3]
        assert system.factor == 16**3
        assert seed.labels.tolist() == [[0, 0], [0, 0]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rmax", "62", "--region=0,2"],
            ["--system", "chair", "--smax", "63", "--region=0,1/1000000"],
            ["--system", "chair", "--smax", "7", "--region=-1000,1000"],
            ["--system", "chair", "--rmax", "2"],
            ["--region", "1,0"],
            ["--system", "RULES/tripling.sub"],
        ],
    )
    def test_invalid_module_grows_no_window(self, argv, rules, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a window was grown before the module was checked")

        monkeypatch.setattr(subst, "centred_window", refuse)
        argv = ["diffract", "--empirical"] + [arg.replace("RULES", rules) for arg in argv]
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("limitper: ")


    @pytest.mark.parametrize("argv", [argv for argv, _ in _REFUSALS])
    def test_refusals_allocate_under_a_megabyte(self, argv, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--out", str(tmp_path / "x")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("limitper: the ")
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--system", "pd", "--iterations", "11"],
            ["generate", "--system", "chair", "--iterations", "11", "--format", "pgm"],
            ["diffract", "--empirical", "--window", "8388607", "--rmax", "1"],
            ["diffract", "--system", "chair", "--empirical", "--window", "2047", "--smax", "1"],
            ["diffract", "--empirical", "--rmax", "21", "--region", "0,1/1024"],
            ["diffract", "--system", "chair", "--empirical", "--smax", "10", "--region", "0,1/1024"],
        ],
    )
    def test_inputs_at_the_bounds_run(self, argv, tmp_path, monkeypatch):
        # Up to a bound but not past it: 2^23 and 2^24 cells, 2^24 - 1 and
        # 4095^2 window cells, 2 x 2^21 and 4 x 2^20 count entries.  Growth,
        # the sums and rendering are skipped here.
        monkeypatch.setattr(subst, "fixed_point_window", lambda *args: None)
        monkeypatch.setattr(render, "window_text", lambda *args: "")
        monkeypatch.setattr(render, "window_pgm", lambda *args: "")
        monkeypatch.setattr(subst, "centred_window", lambda *args: None)
        monkeypatch.setattr(numerics, "WeightedComb", lambda *args: None)
        monkeypatch.setattr(
            numerics,
            "empirical_amplitudes",
            lambda comb, module: np.zeros((module.dim * 2, len(module)), complex),
        )
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0


class TestRuleFiles:
    def test_generate_from_file_finds_a_seed(self, tmp_path):
        rules = tmp_path / "doubling.sub"
        rules.write_text(_CUSTOM_RULE)
        out = tmp_path / "p"
        assert cli.main(
            [
                "generate",
                "--system",
                str(rules),
                "--iterations",
                "1",
                "--out",
                str(out),
            ]
        ) == 0
        # The rule itself has no legal two-sided seed; its square grows a|a.
        assert (tmp_path / "p.txt").read_text() == "abaa|abaa\n"

    def test_diffract_from_file_requires_empirical(self, tmp_path, capsys):
        rules = tmp_path / "doubling.sub"
        rules.write_text(_CUSTOM_RULE)
        assert cli.main(
            ["diffract", "--system", str(rules), "--out", str(tmp_path / "x")]
        ) == 2
        assert "--empirical" in capsys.readouterr().err

    def test_empirical_diffraction_from_file(self, tmp_path):
        rules = tmp_path / "doubling.sub"
        rules.write_text(_CUSTOM_RULE)
        out = tmp_path / "emp"
        assert cli.main(
            [
                "diffract",
                "--system",
                str(rules),
                "--weights",
                "1,-1",
                "--rmax",
                "1",
                "--region",
                "0,1",
                "--half-open",
                "--empirical",
                "--window",
                "4096",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        ) == 0
        rows = (tmp_path / "emp.csv").read_text().splitlines()[1:]
        by_k = {tuple(row.split(",")[:2]): float(row.split(",")[4]) for row in rows}
        assert by_k[("0", "0")] == pytest.approx(1 / 9, abs=0.02)
        assert by_k[("1", "1")] == pytest.approx(4 / 9, abs=0.02)

    def test_module_takes_no_seed(self, tmp_path, capsys):
        # The rule has no legal seed, nor have its square and cube; the module
        # reads only the dimension and the power-of-two factor.
        rules = tmp_path / "cyc4.sub"
        rules.write_text(_NO_SEED_RULE)
        tables = []
        for name, system in (("rule", str(rules)), ("pd", "pd")):
            out = tmp_path / name
            assert cli.main(["module", "--system", system, "--rmax", "2", "--out", str(out)]) == 0
            tables.append(out.with_suffix(".csv").read_bytes())
        assert tables[0] == tables[1]
        assert capsys.readouterr().err == ""

    def test_non_dyadic_factor_is_rejected_for_modules(self, tmp_path, capsys):
        rules = tmp_path / "tripling.sub"
        rules.write_text(_TRIPLING_RULE)
        assert cli.main(
            ["module", "--system", str(rules), "--out", str(tmp_path / "m")]
        ) == 2
        assert cli.main(
            [
                "diffract",
                "--system",
                str(rules),
                "--empirical",
                "--window",
                "64",
                "--out",
                str(tmp_path / "d"),
            ]
        ) == 2
        capsys.readouterr()

    def test_bad_rule_file_reports_line(self, tmp_path, capsys):
        rules = tmp_path / "broken.sub"
        rules.write_text("kind = word\nfactor = 2\nalphabet = a\na -> a\n")
        assert cli.main(
            ["generate", "--system", str(rules), "--out", str(tmp_path / "x")]
        ) == 2
        assert "line 4" in capsys.readouterr().err


@st.composite
def _rule_texts(draw):
    """Rule file text: a word or block rule with 1-5 letters and factor 2-4."""
    names = "abcde"[: draw(st.integers(min_value=1, max_value=5))]
    factor = draw(st.integers(min_value=2, max_value=4))
    kind = draw(st.sampled_from(("word", "block")))
    row = st.lists(st.sampled_from(names), min_size=factor, max_size=factor).map(" ".join)
    lines = [f"kind = {kind}", f"factor = {factor}", f"alphabet = {' '.join(names)}"]
    for letter in names:
        if kind == "word":
            lines.append(f"{letter} -> {draw(row)}")
        else:
            lines += [f"{letter} ->"] + [f"  {draw(row)}" for _ in range(factor)]
    return "\n".join(lines) + "\n"


class TestRuleFileSweep:
    @settings(max_examples=50, deadline=None)
    @given(_rule_texts())
    def test_runs_or_exits_2_with_one_line(self, text):
        cutoff = "--rmax" if text.startswith("kind = word") else "--smax"
        with tempfile.TemporaryDirectory() as tmp:
            rules = Path(tmp) / "rules.sub"
            rules.write_text(text)
            for argv in (
                ["generate", "--iterations", "2"],
                ["diffract", "--empirical", "--window", "9", cutoff, "2"],
            ):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(argv + ["--system", str(rules), "--out", str(Path(tmp) / "x")])
                assert code in (0, 2)
                if code == 2:
                    assert len(err.getvalue().splitlines()) == 1
                    assert err.getvalue().startswith("limitper: ")


# Edge values for the argv fuzz; RULES is the directory of the rule files.
_FUZZ_SYSTEMS = ("pd", "chair", *(f"RULES/{name}.sub" for name in (*_RULE_FILES, "latin1", "missing")))
_FUZZ_CUTOFFS = ("-1", "0", "1", "3", "62", "63", str(10**20))
_FUZZ_MODULE = {
    "--system": _FUZZ_SYSTEMS,
    "--rmax": _FUZZ_CUTOFFS,
    "--smax": _FUZZ_CUTOFFS,
    "--region": (
        "0,1",
        "-1,1,-1,1",
        "0,0",
        "0,0,-1,1",
        "1,0",
        "",
        "0,1,2",
        "1/3,1/3",
        "1000000000000000000,1000000000000000001",
        f"{10**30},{10**30 + 1},-{10**30 + 1},-{10**30}",
    ),
    "--half-open": None,
}
_FUZZ_SEEDS = ("a|a", "b|a", "b|b", "x|y", "a", "|", "3 0 / 2 1", "0 0 / 0 0", "0 0", "x0 x0 / x0 x0")
# Each command's flags with their values; None marks a switch.
_FUZZ_FLAGS = {
    "generate": {
        "--system": _FUZZ_SYSTEMS,
        "--seed": _FUZZ_SEEDS,
        "--iterations": _FUZZ_CUTOFFS,
        "--format": ("txt", "pgm"),
    },
    "diffract": {
        **_FUZZ_MODULE,
        "--seed": _FUZZ_SEEDS,
        "--weights": (
            "1",
            "1,-1",
            "1,i,-1,-i",
            "inf,1",
            "nan,1",
            "1e151,1",
            "1e150,-1e150",
            "1e150,1e150,1e150,1e150",
            "1+",
            "",
        ),
        "--floor": ("-1", "nan", "1e-300", "0", "inf"),
        "--window": ("0", "1", "3", str(10**20)),
        "--empirical": None,
        "--format": ("csv", "svg"),
    },
    "module": _FUZZ_MODULE,
}


@st.composite
def _fuzz_argvs(draw):
    """A ``generate``, ``diffract`` or ``module`` argv, each flag absent (2 in 3) or an edge value.

    Values go in as --flag=value, so a leading minus stays a value.
    """
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag, values in _FUZZ_FLAGS[command].items():
        if draw(st.integers(0, 2)):
            continue
        argv.append(flag if values is None else f"{flag}={draw(st.sampled_from(values))}")
    return argv


class TestArgvFuzz:
    """Aim 3 over the argv grammar: every accepted input finishes or exits 2, and nothing raises."""

    @pytest.fixture(scope="class")
    def rules(self, tmp_path_factory):
        return _write_rule_files(tmp_path_factory.mktemp("fuzz") / "rules")

    @settings(max_examples=300, deadline=None)
    @given(argv=_fuzz_argvs())
    def test_exits_0_or_2(self, rules, argv):
        def expire(signum, frame):
            raise TimeoutError(f"{argv} ran past its alarm")

        argv = [arg.replace("RULES", rules) for arg in argv]
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            with (
                tempfile.TemporaryDirectory() as tmp,
                mock.patch.object(forked, "_usable_cpus", lambda: 1),
                contextlib.redirect_stdout(io.StringIO()),
                contextlib.redirect_stderr(io.StringIO()),
            ):
                code = cli.main(argv + [f"--out={tmp}/x"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2), argv


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        argv = [
            "diffract",
            "--system",
            "chair",
            "--weights",
            "1,i,-1,-i",
            "--smax",
            "3",
            "--region=-1,1",
        ]
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert cli.main([*argv, "--out", str(out)]) == 0
            outputs.append(
                ((tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.svg").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_fresh_interpreter_matches_in_process(self, tmp_path):
        argv = [
            "diffract",
            "--weights",
            "1,-1",
            "--rmax",
            "6",
            "--region",
            "0,1",
            "--half-open",
        ]
        inproc = tmp_path / "inproc"
        assert cli.main([*argv, "--out", str(inproc)]) == 0
        subproc = tmp_path / "subproc"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-m", "limitper", *argv, "--out", str(subproc)],
            capture_output=True,
            env=env,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "subproc.csv").read_bytes() == (tmp_path / "inproc.csv").read_bytes()
        assert (tmp_path / "subproc.svg").read_bytes() == (tmp_path / "inproc.svg").read_bytes()


# ---------------------------------------------------------------------------
# Process entry point
# ---------------------------------------------------------------------------


def _python(args, cwd):
    """A fresh interpreter run with the package from ``src/`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


class TestEntryPoint:
    """``python -m limitper`` and the console script freeze the collector; ``main`` never does."""

    def test_main_in_process_leaves_the_collector_unfrozen(self, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        argv = ["diffract", "--rmax", "2", "--region", "0,1", "--out", str(tmp_path / "p")]
        assert cli.main(argv) == 0
        assert cli.main(["diffract", "--weights", "1,x"]) == 2
        assert cli.main(["--help"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen

    def test_module_run_keeps_its_exit_codes_and_output(self, tmp_path):
        result = _python(["-m", "limitper", "diffract", "--rmax", "2", "--region", "0,1"], tmp_path)
        assert (result.returncode, result.stdout) == (0, "peaks.csv\npeaks.svg\n")
        assert result.stderr == ""
        assert (tmp_path / "peaks.csv").is_file() and (tmp_path / "peaks.svg").is_file()
        argv, message = _ERROR_TABLE[0]
        result = _python(["-m", "limitper", *argv], tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"limitper: {message}\n"

    def test_run_freezes_then_exits_through_atexit(self, tmp_path):
        # atexit handlers run after the freeze, and buffered stdout is flushed.
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['limitper', 'module', '--rmax', '1']\n"
            "from limitper.__main__ import run\n"
            "run()\n"
        )
        result = _python(["-c", code], tmp_path)
        assert (result.returncode, result.stdout) == (0, "module.csv\nfrozen True\n")

    def test_console_script_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
        module, name = project["scripts"]["limitper"].split(":")
        assert module == "limitper.__main__"
        # The body of the ``if __name__ == "__main__":`` block calls that one function.
        tree = ast.parse((SRC / "limitper" / "__main__.py").read_text())
        (guard,) = [node for node in tree.body if isinstance(node, ast.If)]
        assert ast.unparse(guard.test) == "__name__ == '__main__'"
        assert [ast.unparse(node) for node in guard.body] == [f"{name}()"]
