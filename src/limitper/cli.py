"""Command-line front end.

Four subcommands share one pipeline: resolve a substitution system (built-in
name or rule file) plus a legal seed, then either grow pattern windows
(``generate``), evaluate peak lists over the dyadic wave-number module
(``diffract``, closed forms for the built-ins, windowed sums with
``--empirical``), enumerate the module itself (``module``), or run the named
self-check suite (``verify``).

``main`` resolves the system once and hands it to every step.  ``diffract``
and ``module`` enumerate the module once as arrays (``dyadic.module_points``);
``diffract`` then evaluates the closed forms (or the windowed sums) over the
whole array and renders columns.

Exit codes: 0 on success, 1 when verification fails, 2 for usage, parse and
file errors.  All outputs are deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import chair, numerics, period_doubling, render, subst, verification
from .dyadic import module_points

__all__ = ["main", "RunConfig", "UsageError"]

_KNOWN_SUFFIXES = {".csv", ".svg", ".txt", ".pgm"}
_PD_ALIASES = {"pd", "period_doubling", "period-doubling"}


class UsageError(Exception):
    """Bad flags, bad values or unreadable inputs; exits with code 2."""


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def parse_weights(text: str) -> tuple[complex, ...]:
    """Comma-separated complex literals written with an i suffix.

    Accepts forms like ``1``, ``-0.5``, ``i``, ``-i``, ``2i``, ``1+2i`` and
    ``1.5-0.25i``; plain ``j`` notation works too.
    """
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"empty weight in {text!r}")
        try:
            value = complex(token.replace("i", "j"))
        except ValueError as exc:
            raise UsageError(f"bad complex weight {token!r}") from exc
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise UsageError(f"non-finite weight {token!r}")
        values.append(value)
    return tuple(values)


def parse_region(text: str, dim: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """``lo,hi`` or ``lo,hi,lo2,hi2`` with exact rational endpoints."""
    try:
        parts = [Fraction(token.strip()) for token in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad region {text!r}") from exc
    if dim == 1:
        if len(parts) != 2:
            raise UsageError("a chain region is lo,hi")
        bounds = ((parts[0], parts[1]),)
    else:
        if len(parts) == 2:
            bounds = ((parts[0], parts[1]),) * 2
        elif len(parts) == 4:
            bounds = ((parts[0], parts[1]), (parts[2], parts[3]))
        else:
            raise UsageError("a plane region is lo,hi or xlo,xhi,ylo,yhi")
    for lo, hi in bounds:
        if lo > hi:
            raise UsageError(f"region bound {lo} exceeds {hi}")
    return bounds


def _parse_seed(system: subst.SubstitutionSystem, text: str) -> subst.PatternWindow:
    try:
        if system.dim == 1:
            halves = [part.strip() for part in text.split("|")]
            if len(halves) != 2 or not all(halves):
                raise UsageError(f"a chain seed is written left|right, got {text!r}")
            return subst.word_seed(system, halves[0], halves[1])
        rows = [row.split() for row in text.split("/")]
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise UsageError(f"a block seed is written 'tl tr / bl br', got {text!r}")
        return subst.block_seed(system, (tuple(rows[0]), tuple(rows[1])))
    except KeyError as exc:
        raise UsageError(f"seed letter {exc.args[0]!r} is not in the alphabet") from exc


def _legal_seeds(system: subst.SubstitutionSystem):
    """All legal seeds of a system, in alphabet order."""
    letters = system.alphabet
    if system.dim == 1:
        for left, right in itertools.product(letters, repeat=2):
            seed = subst.word_seed(system, left, right)
            if subst.check_seed_legal(system, seed):
                yield seed
    else:
        for tl, tr, bl, br in itertools.product(letters, repeat=4):
            seed = subst.block_seed(system, ((tl, tr), (bl, br)))
            if subst.check_seed_legal(system, seed):
                yield seed


@dataclass(frozen=True)
class ResolvedSystem:
    """A substitution system with a legal seed and its analytic status."""

    source: str
    system: subst.SubstitutionSystem
    seed: subst.PatternWindow
    builtin: str | None


def resolve_system(name_or_path: str, seed_spec: str | None) -> ResolvedSystem:
    """Turn a ``--system`` value into a system plus a legal seed.

    Built-in names come with their canonical seeds (the chain rule is squared
    so a two-sided fixed point exists).  Rule files get an explicit ``--seed``
    or else the first legal seed, searching the rule and then its squares and
    cubes; either way the seed must reproduce itself under substitution.
    """
    lowered = name_or_path.strip().lower()
    if lowered in _PD_ALIASES:
        base = period_doubling.doubled_system()
        seed = _parse_seed(base, seed_spec) if seed_spec else period_doubling.seed()
        resolved = ResolvedSystem("period_doubling", base, seed, "period_doubling")
    elif lowered == "chair":
        base = chair.system()
        seed = _parse_seed(base, seed_spec) if seed_spec else chair.seed()
        resolved = ResolvedSystem("chair", base, seed, "chair")
    else:
        path = Path(name_or_path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise UsageError(f"cannot read rule file {name_or_path!r}: {exc}") from exc
        try:
            base = subst.parse_rules(text)
        except subst.RuleError as exc:
            raise UsageError(f"bad rule file {name_or_path!r}: {exc}") from exc
        if seed_spec:
            seed = _parse_seed(base, seed_spec)
            for exponent in (1, 2, 3):
                candidate = base.power(exponent)
                if subst.check_seed_legal(candidate, seed):
                    return ResolvedSystem(name_or_path, candidate, seed, None)
            raise UsageError(
                f"seed {seed_spec!r} is not legal for this rule or its powers up to 3"
            )
        for exponent in (1, 2, 3):
            candidate = base.power(exponent)
            for seed in _legal_seeds(candidate):
                return ResolvedSystem(name_or_path, candidate, seed, None)
        raise UsageError("no legal seed found for this rule or its powers up to 3")
    if not subst.check_seed_legal(resolved.system, resolved.seed):
        raise UsageError(f"seed {seed_spec!r} is not legal for this system")
    return resolved


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by the subcommands."""

    system: str = "period_doubling"
    seed: str | None = None
    weights: tuple[complex, ...] | None = None
    iterations: int = 2
    window: int | None = None
    cutoff: int | None = None
    region: tuple[tuple[Fraction, Fraction], ...] | None = None
    include_hi: bool = True
    floor: float = 1e-8
    out: str | None = None
    format: str | None = None
    empirical: bool = False
    quick: bool = False
    json: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise UsageError(f"negative iteration count: {self.iterations}")
        if self.window is not None and self.window < 1:
            raise UsageError(f"window half-width must be positive: {self.window}")
        if self.cutoff is not None and self.cutoff < 0:
            raise UsageError(f"negative module cutoff: {self.cutoff}")
        if not self.floor >= 0:
            raise UsageError(f"intensity floor must be nonnegative: {self.floor}")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _out_base(config: RunConfig, default: str) -> Path:
    base = Path(config.out if config.out is not None else default)
    if base.suffix.lower() in _KNOWN_SUFFIXES:
        base = base.with_suffix("")
    return base


def _write(path: Path, content: str, announce=None) -> None:
    """Write ``content`` to ``path`` and print the path to ``announce`` (stdout by default)."""
    try:
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    print(path, file=announce)


def _pick_formats(config: RunConfig, allowed: tuple[str, ...], default: tuple[str, ...]):
    if config.format is None:
        return default
    if config.format not in allowed:
        raise UsageError(
            f"format {config.format!r} not supported here (choose from {', '.join(allowed)})"
        )
    return (config.format,)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(config: RunConfig, resolved: ResolvedSystem) -> int:
    window = subst.fixed_point_window(resolved.system, resolved.seed, config.iterations)
    letters = resolved.system.alphabet
    base = _out_base(config, "pattern")
    if resolved.system.dim == 1:
        formats = _pick_formats(config, ("txt",), ("txt",))
    else:
        formats = _pick_formats(config, ("txt", "pgm"), ("pgm", "txt"))
    for fmt in formats:
        if fmt == "txt":
            _write(base.with_suffix(".txt"), render.window_text(window, letters))
        else:
            _write(base.with_suffix(".pgm"), render.window_pgm(window, len(letters)))
    return 0


def _weighted_sum(re: np.ndarray, im: np.ndarray, weights) -> np.ndarray:
    """sum(w * a for w, a in zip(weights, letters)) at every point.

    Row l of ``re`` and ``im`` is letter l's amplitude.  The products and
    sums are CPython's complex arithmetic written out component-wise, so
    each point gets the bits the scalar expression gives it (numpy's complex
    multiply may round differently).
    """
    total_re = np.zeros(re.shape[1])
    total_im = np.zeros(re.shape[1])
    for weight, a_re, a_im in zip(weights, re, im):
        w = complex(weight)
        total_re = total_re + (w.real * a_re - w.imag * a_im)
        total_im = total_im + (w.real * a_im + w.imag * a_re)
    total = np.empty(re.shape[1], dtype=complex)
    total.real, total.imag = total_re, total_im
    return total


def _empirical_comb(config: RunConfig, resolved: ResolvedSystem, weights) -> numerics.WeightedComb:
    """The weighted window [-N, N]^d grown by substitution from the resolved seed."""
    system = resolved.system
    if system.factor & (system.factor - 1):
        raise UsageError(
            "empirical diffraction needs a power-of-two inflation factor "
            "(the wave-number module enumerated here is dyadic)"
        )
    half = config.window if config.window is not None else (1 << 20 if system.dim == 1 else 1024)
    return numerics.WeightedComb(subst.centred_window(system, resolved.seed, half), weights)


def _module(config: RunConfig, resolved: ResolvedSystem):
    """The module points of ``diffract`` and ``module`` with their region, defaults applied."""
    dim = resolved.system.dim
    cutoff = config.cutoff if config.cutoff is not None else (8 if dim == 1 else 5)
    region = config.region if config.region is not None else (
        ((Fraction(0), Fraction(1)),) if dim == 1 else ((Fraction(-1), Fraction(1)),) * 2
    )
    try:
        module = module_points(cutoff, region, include_hi=config.include_hi)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return module, region


def cmd_diffract(config: RunConfig, resolved: ResolvedSystem) -> int:
    dim = resolved.system.dim
    letters = resolved.system.alphabet
    weights = config.weights if config.weights is not None else (1,) * len(letters)
    if len(weights) != len(letters):
        raise UsageError(
            f"{len(weights)} weights for {len(letters)} letters; they must match"
        )
    if resolved.builtin is None and not config.empirical:
        raise UsageError(
            "no closed forms for user rules; pass --empirical for windowed sums"
        )
    comb = _empirical_comb(config, resolved, weights) if config.empirical else None
    module, region = _module(config, resolved)
    if comb is not None:
        amplitudes = numerics.empirical_amplitudes(comb, module)
    else:
        closed_form = (
            period_doubling.amplitude_arrays
            if resolved.builtin == "period_doubling"
            else chair.amplitude_arrays
        )
        amplitudes = _weighted_sum(*closed_form(module), weights)
    # CPython's abs(complex) per point: numpy's need not round the same way.
    strength = np.array([abs(amp) ** 2 for amp in amplitudes.tolist()], dtype=np.float64)
    kept = strength >= config.floor
    peaks = render.PeakTable(module.select(kept), amplitudes[kept], strength[kept])
    base = _out_base(config, "peaks")
    for fmt in _pick_formats(config, ("csv", "svg"), ("csv", "svg")):
        if fmt == "csv":
            _write(base.with_suffix(".csv"), render.peaks_csv(peaks))
        elif dim == 1:
            _write(
                base.with_suffix(".svg"),
                render.stem_svg(peaks, region[0][0], region[0][1]),
            )
        else:
            _write(base.with_suffix(".svg"), render.disc_svg(peaks, region[0], region[1]))
    return 0


def cmd_module(config: RunConfig, resolved: ResolvedSystem) -> int:
    if resolved.builtin is None and resolved.system.factor & (resolved.system.factor - 1):
        raise UsageError(
            "the wave-number module enumerated here is dyadic; it only matches "
            "rules with a power-of-two inflation factor"
        )
    module, _ = _module(config, resolved)
    base = _out_base(config, "module")
    _write(base.with_suffix(".csv"), render.module_csv(module))
    return 0


def cmd_verify(config: RunConfig, resolved: ResolvedSystem | None) -> int:
    results = verification.run_checks(quick=config.quick)
    base = _out_base(config, "verify_report")
    if config.json:
        # stdout carries the JSON document alone; the file path goes to stderr.
        text = verification.report_json(results)
        print(text, end="")
        _write(base.with_suffix(".json"), text, announce=sys.stderr)
    else:
        text = verification.report_text(results)
        print(text, end="")
        _write(base.with_suffix(".txt"), text)
    return 0 if all(result.passed for result in results) else 1


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitper",
        description="Generate limit-periodic patterns and their Bragg spectra.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_system(sub):
        sub.add_argument(
            "--system",
            default="period_doubling",
            help="built-in name (period_doubling/pd, chair) or rule-file path",
        )
        sub.add_argument("--seed", help="seed override: 'l|r' for chains, 'tl tr / bl br' for blocks")

    def add_module_flags(sub):
        sub.add_argument("--rmax", type=int, help="1D module cutoff: denominators up to 2^rmax")
        sub.add_argument("--smax", type=int, help="2D module cutoff: denominators up to 2^smax")
        sub.add_argument("--region", help="wave-number range lo,hi or xlo,xhi,ylo,yhi (exact rationals)")
        sub.add_argument(
            "--half-open",
            action="store_true",
            help="drop the upper endpoint(s) of the region",
        )

    gen = commands.add_parser("generate", help="grow a fixed-point window")
    add_system(gen)
    gen.add_argument("--iterations", type=int, default=2, help="substitution passes from the seed")
    gen.add_argument("--out", help="output base path (extensions are added)")
    gen.add_argument("--format", choices=("txt", "pgm"), help="restrict to one output format")

    dif = commands.add_parser("diffract", help="write peak lists and figures")
    add_system(dif)
    dif.add_argument("--weights", help="per-letter complex weights, e.g. 1,-1 or 1,i,-1,-i")
    add_module_flags(dif)
    dif.add_argument("--floor", type=float, default=1e-8, help="minimum exported intensity")
    dif.add_argument("--window", type=int, help="half-width N of the window for --empirical")
    dif.add_argument(
        "--empirical",
        action="store_true",
        help="estimate amplitudes from a finite window instead of closed forms",
    )
    dif.add_argument("--out", help="output base path (extensions are added)")
    dif.add_argument("--format", choices=("csv", "svg"), help="restrict to one output format")

    mod = commands.add_parser("module", help="enumerate wave-number module points")
    add_system(mod)
    add_module_flags(mod)
    mod.add_argument("--out", help="output base path (extensions are added)")

    ver = commands.add_parser("verify", help="run the named self-check suite")
    ver.add_argument("--quick", action="store_true", help="small windows and cutoffs, a few seconds")
    ver.add_argument(
        "--json",
        action="store_true",
        help="print name, passed, elapsed_s and detail per check as JSON",
    )
    ver.add_argument("--out", help="report base path (extensions are added)")
    return parser


def _config_from_args(args: argparse.Namespace, resolved: ResolvedSystem | None) -> RunConfig:
    cutoff = None
    region = None
    include_hi = True
    if hasattr(args, "rmax"):
        if args.rmax is not None and args.smax is not None:
            raise UsageError("pass either --rmax or --smax, not both")
        cutoff = args.rmax if args.rmax is not None else args.smax
        include_hi = not args.half_open
    weights = parse_weights(args.weights) if getattr(args, "weights", None) else None
    if getattr(args, "region", None):
        region = parse_region(args.region, resolved.system.dim)
    return RunConfig(
        system=getattr(args, "system", "period_doubling"),
        seed=getattr(args, "seed", None),
        weights=weights,
        iterations=getattr(args, "iterations", 2),
        window=getattr(args, "window", None),
        cutoff=cutoff,
        region=region,
        include_hi=include_hi,
        floor=getattr(args, "floor", 1e-8),
        out=getattr(args, "out", None),
        format=getattr(args, "format", None),
        empirical=getattr(args, "empirical", False),
        quick=getattr(args, "quick", False),
        json=getattr(args, "json", False),
    )


def _check_cutoff_axis(args: argparse.Namespace, resolved: ResolvedSystem | None) -> None:
    if not hasattr(args, "rmax") or (args.rmax is None and args.smax is None):
        return
    if resolved.system.dim == 1 and args.smax is not None:
        raise UsageError("--smax is for plane systems; use --rmax for chains")
    if resolved.system.dim == 2 and args.rmax is not None:
        raise UsageError("--rmax is for chains; use --smax for plane systems")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    handlers = {
        "generate": cmd_generate,
        "diffract": cmd_diffract,
        "module": cmd_module,
        "verify": cmd_verify,
    }
    try:
        # Every subcommand but verify names a system; it is resolved once here.
        resolved = resolve_system(args.system, args.seed) if hasattr(args, "system") else None
        config = _config_from_args(args, resolved)
        _check_cutoff_axis(args, resolved)
        return handlers[args.command](config, resolved)
    except UsageError as exc:
        print(f"limitper: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
