"""Command-line front end.

Four subcommands share one pipeline: resolve a substitution system (built-in
name or rule file) plus a legal seed, then either grow pattern windows
(``generate``), evaluate peak lists over the dyadic wave-number module
(``diffract``, closed forms for the built-ins, windowed sums with
``--empirical``), enumerate the module itself (``module``), or run the named
self-check suite (``verify``).

``main`` parses the flags, resolves the system once and hands the parsed
arguments and the system to the subcommand's handler.  Each handler reads
and checks the flags it uses before it does any work; argparse holds the
plain defaults, and the defaults that depend on the system (cutoff, region,
window, weights) live in the one helper that uses them.  ``diffract`` and
``module`` share ``_module``, which checks the cutoff flags and the region
and enumerates the module once as arrays (``dyadic.module_points``);
``diffract`` then evaluates the closed forms (or grows the window and takes
the windowed sums) over the whole array, weighs the per-letter rows by
``render.weigh`` and renders columns.

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

from . import chair, numerics, period_doubling, render, subst, verification
from .dyadic import MAX_CELLS, MAX_COUNTS, module_points

__all__ = ["main", "UsageError"]

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
    ``1.5-0.25i``; plain ``j`` notation works too.  A weight's modulus may
    be at most 1e150: rule files have at most 256 letters and every
    per-letter amplitude has modulus at most 1, so every intensity stays
    below (256 * 1e150)^2, which is finite.
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
        if math.hypot(value.real, value.imag) > 1e150:
            raise UsageError(f"weight {token!r} has modulus over 1e150")
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


def _all_seeds(system: subst.SubstitutionSystem):
    """Every seed over the alphabet, legal or not, in alphabet order."""
    letters = system.alphabet
    if system.dim == 1:
        for left, right in itertools.product(letters, repeat=2):
            yield subst.word_seed(system, left, right)
    else:
        for tl, tr, bl, br in itertools.product(letters, repeat=4):
            yield subst.block_seed(system, ((tl, tr), (bl, br)))


@dataclass(frozen=True)
class ResolvedSystem:
    """A substitution system with a legal seed and its analytic status."""

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
        builtin, base = "period_doubling", period_doubling.doubled_system()
        seeds = [period_doubling.seed()]
    elif lowered == "chair":
        builtin, base, seeds = "chair", chair.system(), [chair.seed()]
    else:
        try:
            base = subst.load_rules(name_or_path)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read rule file {name_or_path!r}: {exc}") from exc
        except subst.RuleError as exc:
            raise UsageError(f"bad rule file {name_or_path!r}: {exc}") from exc
        builtin, seeds = None, None
    if seed_spec is not None:
        seeds = [_parse_seed(base, seed_spec)]
    for system in (base,) if builtin else (base.power(e) for e in (1, 2, 3)):
        for seed in seeds or _all_seeds(system):
            if subst.check_seed_legal(system, seed):
                return ResolvedSystem(system, seed, builtin)
    if builtin:
        raise UsageError(f"seed {seed_spec!r} is not legal for this system")
    if seed_spec is not None:
        raise UsageError(f"seed {seed_spec!r} is not legal for this rule or its powers up to 3")
    raise UsageError("no legal seed found for this rule or its powers up to 3")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _out_base(out: str) -> Path:
    """``--out`` without a known extension; a path with no file name is refused."""
    base = Path(out)
    if not base.name:
        raise UsageError(f"output path {out!r} has no file name")
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace, resolved: ResolvedSystem) -> int:
    base = _out_base(args.out)
    if args.iterations < 0:
        raise UsageError(f"negative iteration count: {args.iterations}")
    system = resolved.system
    if system.dim == 1 and args.format == "pgm":
        raise UsageError("format 'pgm' not supported here (choose from txt)")
    # Seeds are 2 cells wide; past 64 passes the window is over the bound anyway.
    side = 2 * system.factor ** min(args.iterations, 64)
    if side**system.dim > MAX_CELLS:
        size = f"2*{system.factor}^{args.iterations}"
        if system.dim > 1:
            size = f"({size})^{system.dim}"
        raise UsageError(
            f"the window after {args.iterations} iterations has {size} cells; "
            f"the CLI grows at most {MAX_CELLS}"
        )
    formats = (args.format,) if args.format else ("txt",) if system.dim == 1 else ("pgm", "txt")
    window = subst.fixed_point_window(system, resolved.seed, args.iterations)
    letters = system.alphabet
    for fmt in formats:
        if fmt == "txt":
            _write(base.with_suffix(".txt"), render.window_text(window, letters))
        else:
            _write(base.with_suffix(".pgm"), render.window_pgm(window, len(letters)))
    return 0


def _module(args: argparse.Namespace, resolved: ResolvedSystem):
    """The module points of ``diffract`` and ``module`` with their region.

    Checks the inflation factor, the cutoff flags and the region, applies
    their defaults, and enumerates the module before any window is grown.
    """
    system = resolved.system
    if system.factor & (system.factor - 1):
        raise UsageError(
            "the wave-number module enumerated here is dyadic; it only matches "
            "rules with a power-of-two inflation factor"
        )
    if args.rmax is not None and args.smax is not None:
        raise UsageError("pass either --rmax or --smax, not both")
    if system.dim == 1 and args.smax is not None:
        raise UsageError("--smax is for plane systems; use --rmax for chains")
    if system.dim == 2 and args.rmax is not None:
        raise UsageError("--rmax is for chains; use --smax for plane systems")
    if system.dim == 1:
        cutoff = 8 if args.rmax is None else args.rmax
        region = ((Fraction(0), Fraction(1)),)
    else:
        cutoff = 5 if args.smax is None else args.smax
        region = ((Fraction(-1), Fraction(1)),) * 2
    if args.region is not None:
        region = parse_region(args.region, system.dim)
    try:
        module = module_points(cutoff, region, include_hi=not args.half_open)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return module, region


def _check_empirical_size(half: int, module, letters: int, dim: int) -> None:
    """Refuse a window or a residue-count table over the CLI's bounds, before either exists.

    The window [-N, N]^d has (2N + 1)^d cells; the count table has
    letters x 2^(s d) entries at the finest level s of the module.
    """
    cells = (2 * half + 1) ** dim
    if cells > MAX_CELLS:
        box = f"[-{half}, {half}]" + (f"^{dim}" if dim > 1 else "")
        raise UsageError(f"the window {box} has {cells} cells; the CLI grows at most {MAX_CELLS}")
    level = int(module.exponents.max(initial=0))
    entries = letters << (level * dim)
    if entries > MAX_COUNTS:
        raise UsageError(
            f"the count table at denominator 2^{level} has {letters} x 2^{level * dim} = "
            f"{entries} entries; the CLI counts at most {MAX_COUNTS}"
        )


def cmd_diffract(args: argparse.Namespace, resolved: ResolvedSystem) -> int:
    base = _out_base(args.out)
    system = resolved.system
    letters = system.alphabet
    weights = parse_weights(args.weights) if args.weights is not None else (1,) * len(letters)
    if len(weights) != len(letters):
        raise UsageError(
            f"{len(weights)} weights for {len(letters)} letters; they must match"
        )
    if not args.floor >= 0:
        raise UsageError(f"intensity floor must be nonnegative: {args.floor}")
    if args.window is not None and args.window < 1:
        raise UsageError(f"window half-width must be positive: {args.window}")
    if resolved.builtin is None and not args.empirical:
        raise UsageError(
            "no closed forms for user rules; pass --empirical for windowed sums"
        )
    module, region = _module(args, resolved)
    formats = (args.format,) if args.format else ("csv", "svg")
    if "svg" in formats and any(lo == hi for lo, hi in region):
        raise UsageError("an SVG needs a region of nonzero width on every axis; use --format csv")
    if args.empirical:
        # The window [-N, N]^d grown by substitution from the resolved seed.
        half = args.window or (1 << 20 if system.dim == 1 else 1024)
        _check_empirical_size(half, module, len(letters), system.dim)
        window = subst.centred_window(system, resolved.seed, half)
        rows = numerics.empirical_amplitudes(numerics.WeightedComb(window, len(letters)), module)
    else:
        closed_forms = period_doubling if resolved.builtin == "period_doubling" else chair
        rows = closed_forms.amplitude_arrays(module)
    amplitudes = render.weigh(rows, weights)
    table = render.PeakTable.of(module, amplitudes)
    kept = table.intensity >= args.floor
    peaks = render.PeakTable(module.select(kept), amplitudes[kept], table.intensity[kept])
    for fmt in formats:
        if fmt == "csv":
            _write(base.with_suffix(".csv"), render.peaks_csv(peaks))
        elif system.dim == 1:
            _write(
                base.with_suffix(".svg"),
                render.stem_svg(peaks, region[0][0], region[0][1]),
            )
        else:
            _write(base.with_suffix(".svg"), render.disc_svg(peaks, region[0], region[1]))
    return 0


def cmd_module(args: argparse.Namespace, resolved: ResolvedSystem) -> int:
    base = _out_base(args.out)
    module, _ = _module(args, resolved)
    _write(base.with_suffix(".csv"), render.module_csv(module))
    return 0


def cmd_verify(args: argparse.Namespace, resolved: ResolvedSystem | None) -> int:
    base = _out_base(args.out)
    results = verification.run_checks(quick=args.quick)
    if args.json:
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
    gen.set_defaults(handler=cmd_generate)
    add_system(gen)
    gen.add_argument("--iterations", type=int, default=2, help="substitution passes from the seed")
    gen.add_argument("--out", default="pattern", help="output base path (extensions are added)")
    gen.add_argument("--format", choices=("txt", "pgm"), help="restrict to one output format")

    dif = commands.add_parser("diffract", help="write peak lists and figures")
    dif.set_defaults(handler=cmd_diffract)
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
    dif.add_argument("--out", default="peaks", help="output base path (extensions are added)")
    dif.add_argument("--format", choices=("csv", "svg"), help="restrict to one output format")

    mod = commands.add_parser("module", help="enumerate wave-number module points")
    mod.set_defaults(handler=cmd_module)
    add_system(mod)
    add_module_flags(mod)
    mod.add_argument("--out", default="module", help="output base path (extensions are added)")

    ver = commands.add_parser("verify", help="run the named self-check suite")
    ver.set_defaults(handler=cmd_verify)
    ver.add_argument("--quick", action="store_true", help="small windows and cutoffs, a few seconds")
    ver.add_argument(
        "--json",
        action="store_true",
        help="print name, passed, elapsed_s and detail per check as JSON",
    )
    ver.add_argument("--out", default="verify_report", help="report base path (extensions are added)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # Every subcommand but verify names a system; it is resolved once here.
        resolved = resolve_system(args.system, args.seed) if hasattr(args, "system") else None
        return args.handler(args, resolved)
    except UsageError as exc:
        print(f"limitper: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
