"""The benchmark's workloads: the CLI argv each run executes and the check
that decides whether a run's output is correct.

A workload is a fixed sequence of ``python -m limitper`` invocations.  The
seed picks only the complex weights; sizes never depend on it.  Every check
raises ``CheckFailed`` with a reason, or returns facts about the output
(peaks kept, measured error) for the run record.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from limitper import chair, period_doubling
from limitper.dyadic import module_box, module_interval

DEFAULT_SEED = 0
FLOOR = 1e-8  # the CLI's default --floor
CLOSED_FORM_TOL = 1e-12
EMPIRICAL_TOL = 0.01  # acceptance tolerance for a 2049^2 chair window
VERIFY_CHECKS = 15

# sha256 of the closed-form-sweep outputs for DEFAULT_SEED, recorded when the
# benchmark was defined.  Refactors must keep these files byte-identical.
DEFAULT_SEED_DIGESTS = {
    "pd": {
        ".csv": "45aa3d414ceafca808ee79f860e672dfd0d65416c3afc5b73123891fab8569b0",
        ".svg": "20aa85729f3958ab7623a4bcf9f52d84a7cbb00c02660bef2dffee3a7ff8266b",
    },
    "chair": {
        ".csv": "6414daecb03ab40ddee9c41ab670476b19c816b2c5b7f5948823dfe96f385c43",
        ".svg": "ba90816b639df612e9a952792ceede82046a78eff5e1e54bb3845ecf09decf62",
    },
}


class CheckFailed(Exception):
    """A run's output is wrong; the message says how."""


@dataclass(frozen=True)
class Invocation:
    """One child process: CLI arguments (without ``--out``) and its check.

    ``check(out_base, stdout)`` reads the files written under ``out_base``
    and returns a dict of facts, or raises ``CheckFailed``.
    """

    label: str
    args: tuple[str, ...]
    check: Callable[[Path, str], dict]
    outputs: tuple[str, ...] = (".csv", ".svg")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    seed_used: bool
    sizes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Weights from the seed
# ---------------------------------------------------------------------------


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))


def generic_weights(seed: int, letters: int) -> tuple[str, ...]:
    """Complex weight literals for the CLI, drawn from ``seed``.

    Letters come in pairs (w, w - d) with |w| in [0.3, 0.6] and |d| in
    [1.0, 1.1] at a random phase.  Only the differences d reach the peaks
    above the lattice, so fixing their size keeps the number of peaks above
    the intensity floor nearly constant across seeds (exactly 4097 for the
    chain at --rmax 16), and random phases rule out the fourth-root pattern
    whose extinctions would shrink the output.
    """
    rng = random.Random(seed)
    bases = [_polar(rng, 0.3, 0.6) for _ in range(letters // 2)]
    partners = [base - _polar(rng, 1.0, 1.1) for base in bases]
    return tuple(f"{w.real:.3f}{w.imag:+.3f}i" for w in bases + partners)


def weight_values(literals) -> tuple[complex, ...]:
    """The values the CLI parses from the literals."""
    return tuple(complex(text.replace("i", "j")) for text in literals)


# ---------------------------------------------------------------------------
# Output parsing and checks
# ---------------------------------------------------------------------------


def _peak_rows(path: Path, dim: int) -> dict:
    """CSV peak rows as {(numerators..., log2 den): (amplitude, intensity)}."""
    lines = path.read_text().splitlines()
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        key = tuple(int(cell) for cell in cells[: dim + 1])
        re, im, intensity = (float(cell) for cell in cells[dim + 1 :])
        if key in rows:
            raise CheckFailed(f"{path.name}: duplicate row for {key}")
        rows[key] = (complex(re, im), intensity)
    return rows


def _module(dim: int, cutoff: int, region) -> list:
    if dim == 1:
        return [((k.m, k.r), k) for k in module_interval(cutoff, *region)]
    return [((k.m, k.n, k.s), k) for k in module_box(cutoff, region)]


def _weighted_closed_form(dim: int, weights):
    if dim == 1:
        alpha, beta = weights

        def amplitude(k):
            pair = period_doubling.amplitudes(k)
            return alpha * pair.a + beta * pair.b

    else:

        def amplitude(k):
            return sum(w * a for w, a in zip(weights, chair.amplitudes(k).values))

    return amplitude


def closed_form_check(dim, cutoff, region, literals, digests=None):
    """Check for a closed-form ``diffract`` run.

    Every CSV row equals the weighted closed form at its point, rows come
    in module order, and exactly the points above the intensity floor are
    listed (points within a relative 1e-9 of the floor may go either way).
    The figure has one mark per peak.  With ``digests`` both files must
    also match byte for byte.
    """
    weights = weight_values(literals)
    amplitude = _weighted_closed_form(dim, weights)

    def check(base: Path, stdout: str) -> dict:
        csv_path, svg_path = base.with_suffix(".csv"), base.with_suffix(".svg")
        if digests is not None:
            for path in (csv_path, svg_path):
                got = hashlib.sha256(path.read_bytes()).hexdigest()
                if got != digests[path.suffix]:
                    raise CheckFailed(f"{path.name}: sha256 {got} differs from the recorded digest")
        rows = _peak_rows(csv_path, dim)
        module = _module(dim, cutoff, region)
        listed = []
        for key, k in module:
            ref = amplitude(k)
            strength = abs(ref) ** 2
            row = rows.get(key)
            if row is None:
                if strength >= FLOOR * (1 + 1e-9):
                    raise CheckFailed(f"peak {key} with intensity {strength!r} missing")
                continue
            amp, intensity = row
            if abs(amp - ref) > CLOSED_FORM_TOL:
                raise CheckFailed(f"amplitude at {key} is {amp!r}, closed form gives {ref!r}")
            if abs(intensity - strength) > CLOSED_FORM_TOL or intensity < FLOOR * (1 - 1e-9):
                raise CheckFailed(f"intensity at {key} is {intensity!r}, expected {strength!r}")
            listed.append(key)
        if listed != list(rows):
            extra = sorted(set(rows) - set(listed))
            raise CheckFailed(
                f"rows off the module or out of order: {extra[:3] or 'order differs'}"
            )
        svg = svg_path.read_text()
        marks = svg.count("<circle") if dim == 2 else svg.count("<line") - 1
        if marks != len(rows):
            raise CheckFailed(f"{svg_path.name}: {marks} marks for {len(rows)} peaks")
        return {"module_points": len(module), "peaks_kept": len(rows)}

    return check


def empirical_check(cutoff, region, literals):
    """Check for a chair ``diffract --empirical`` run.

    Every module point's windowed amplitude lies within ``EMPIRICAL_TOL`` of the
    weighted closed form; points missing from the CSV count as amplitude 0.
    """
    weights = weight_values(literals)
    amplitude = _weighted_closed_form(2, weights)

    def check(base: Path, stdout: str) -> dict:
        rows = _peak_rows(base.with_suffix(".csv"), 2)
        module = _module(2, cutoff, region)
        worst = 0.0
        for key, k in module:
            got = rows[key][0] if key in rows else 0j
            worst = max(worst, abs(got - amplitude(k)))
        extra = set(rows) - {key for key, _ in module}
        if extra:
            raise CheckFailed(f"rows off the module: {sorted(extra)[:3]}")
        if worst > EMPIRICAL_TOL:
            raise CheckFailed(f"max closed-vs-windowed error {worst!r} > {EMPIRICAL_TOL}")
        return {"module_points": len(module), "peaks_kept": len(rows), "max_error": worst}

    return check


def verify_check(base: Path, stdout: str) -> dict:
    """``verify`` printed one PASS line per check and no FAIL line."""
    lines = stdout.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = [line for line in lines if line.startswith("FAIL ")]
    if failed or passed != VERIFY_CHECKS:
        raise CheckFailed(
            f"{passed} PASS lines (want {VERIFY_CHECKS}), first failure: {failed[:1]}"
        )
    return {"checks_passed": passed}


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

WHY = {
    "chair-empirical": (
        "windowed sums on a 2049^2 chair window: label generation and residue "
        "counts dominate, the target of ROADMAP items 2 and 3"
    ),
    "closed-form-sweep": (
        "closed forms over 131k module points with ~50k peaks written: module "
        "enumeration, per-point amplitudes and rendering, no windows"
    ),
    "verify-full": (
        "all 15 self-checks at full size: time to certify the two-route claim, "
        "reusing every layer in other proportions"
    ),
}

NAMES = tuple(WHY)
# The workloads BENCHMARK.json lists.  chair-empirical stays runnable by hand;
# its layers are all measured on verify-full, and leaving it out gives the
# other two runs long enough to be steady in the time a full check may take.
MEASURED = ("closed-form-sweep", "verify-full")


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with weights drawn from ``seed``."""
    plane = (Fraction(-1), Fraction(1))
    if name == "chair-empirical":
        literals = generic_weights(seed, 4)
        invocation = Invocation(
            "chair",
            ("diffract", "--system", "chair", "--smax", "5", "--region=-1,1",
             "--empirical", "--weights=" + ",".join(literals)),
            empirical_check(5, plane, literals),
        )
        sizes = {"window_cells": 2049**2, "module_points": 4225}
        return Workload(name, WHY[name], (invocation,), True, sizes)
    if name == "closed-form-sweep":
        pd_literals = generic_weights(seed, 2)
        chair_literals = generic_weights(seed, 4)
        digests = DEFAULT_SEED_DIGESTS if seed == DEFAULT_SEED else {}
        invocations = (
            Invocation(
                "pd",
                ("diffract", "--system", "pd", "--rmax", "16", "--region", "0,1",
                 "--weights=" + ",".join(pd_literals)),
                closed_form_check(1, 16, (0, 1), pd_literals, digests.get("pd")),
            ),
            Invocation(
                "chair",
                ("diffract", "--system", "chair", "--smax", "7", "--region=-1,1",
                 "--weights=" + ",".join(chair_literals)),
                closed_form_check(2, 7, plane, chair_literals, digests.get("chair")),
            ),
        )
        sizes = {"module_points": {"pd": 65537, "chair": 66049}}
        return Workload(name, WHY[name], invocations, True, sizes)
    if name == "verify-full":
        invocation = Invocation("verify", ("verify",), verify_check, (".txt",))
        return Workload(name, WHY[name], (invocation,), False, {"checks": VERIFY_CHECKS})
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")
