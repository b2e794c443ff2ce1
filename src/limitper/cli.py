"""Command-line front end.

Four subcommands: grow pattern windows (``generate``), evaluate peak lists
over the dyadic wave-number module (``diffract``, closed forms for the
built-ins, windowed sums with ``--empirical``), enumerate the module itself
(``module``), or run the named self-check suite (``verify``).

``main`` parses the flags and hands them to the subcommand's handler.
``generate`` and ``diffract`` first resolve the system (built-in name or
rule file) and a legal seed, once; ``module`` reads only the system's
dimension and factor, so it takes no seed.  A loaded system is the triple
``(system, seed, closed_forms)``: a built-in's ``closed_forms`` is its own
module (``period_doubling`` or ``chair``), a rule file's is ``None``.  Each
handler reads and checks the flags it uses before it does any work;
argparse holds the plain defaults, and the defaults that depend on the
system (cutoff, region, window, weights) live in the one helper that uses
them.  ``diffract`` and ``module`` share ``_module``, which checks the
cutoff flags and the region and enumerates the module once as arrays
(``dyadic.module_points``), for the closed forms only to the depth whose
peaks can reach ``--floor`` (``_depth``).  ``diffract`` then takes the
windowed sums over the whole array with ``--empirical`` (after growing the
window), or evaluates the closed forms.  It weighs the per-letter rows by
``render.weigh`` and keeps the peaks at or above the floor.

Every file the CLI writes is one task of ``forked.run``, through
``_write``: ``generate``'s PGM and text, ``diffract``'s CSV and SVG,
``module``'s CSV and ``verify``'s report.  So two files are written at once
when there are CPUs to spare, and the paths, the first failure and the exit
code are those of a run that writes one file after the other.

Imports: at module level only the standard library, so building the parser
and ``--help`` load no numpy.  Each handler imports the limitper modules it
runs where it runs them, and calls their functions through the module at
call time: a chain run loads no chair code, the closed forms load neither
``numerics`` nor ``verification``.

Exit codes: 0 on success, 1 when verification fails, 2 for usage, parse and
file errors.  All outputs are deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import subst

__all__ = ["main", "UsageError"]

_KNOWN_SUFFIXES = {".csv", ".svg", ".txt", ".pgm"}
_PD_ALIASES = {"pd", "period_doubling", "period-doubling"}
# The imaginary unit i of a weight: the last letter, or the last before ")".
# Only it becomes j, so the i of inf and infinity stays.
_IMAGINARY_I = re.compile(r"i(?=\s*\)?\Z)")


class UsageError(Exception):
    """Bad flags, bad values or unreadable inputs; exits with code 2."""


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def parse_weights(text: str) -> tuple[complex, ...]:
    """Comma-separated complex literals written with an i suffix.

    Accepts forms like ``1``, ``-0.5``, ``i``, ``-i``, ``2i``, ``1+2i`` and
    ``1.5-0.25i``; plain ``j`` notation works too.  Infinite and nan parts,
    in every spelling ``complex`` reads (``inf``, ``-Infinity``, ``infi``),
    are refused.  A weight's modulus may be at most 1e150: rule files have
    at most 256 letters and every per-letter amplitude has modulus at most
    1, so every intensity stays below (256 * 1e150)^2, which is finite.
    """
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"empty weight in {text!r}")
        try:
            value = complex(_IMAGINARY_I.sub("j", token))
        except ValueError as exc:
            raise UsageError(f"bad complex weight {token!r}") from exc
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise UsageError(f"non-finite weight {token!r}")
        if math.hypot(value.real, value.imag) > 1e150:
            raise UsageError(f"weight {token!r} has modulus over 1e150")
        values.append(value)
    return tuple(values)


def parse_region(text: str, dim: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """``lo,hi`` on every axis, or one ``lo,hi`` pair per axis, with exact rational endpoints."""
    try:
        parts = [Fraction(token.strip()) for token in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad region {text!r}") from exc
    if len(parts) not in (2, 2 * dim):
        raise UsageError(
            "a chain region is lo,hi" if dim == 1 else "a plane region is lo,hi or xlo,xhi,ylo,yhi"
        )
    pairs = tuple(zip(parts[::2], parts[1::2]))
    bounds = pairs * dim if len(pairs) == 1 else pairs
    for lo, hi in bounds:
        if lo > hi:
            raise UsageError(f"region bound {lo} exceeds {hi}")
    return bounds


def _parse_seed(system: subst.SubstitutionSystem, text: str) -> subst.PatternWindow:
    from . import subst

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
        raise UsageError(f"seed {exc.args[0]}") from exc


def _load_system(name_or_path: str):
    """``(system, seed, closed_forms)`` for a ``--system`` value; a rule file comes with ``None, None``."""
    lowered = name_or_path.strip().lower()
    if lowered in _PD_ALIASES:
        from . import period_doubling

        return period_doubling.doubled_system(), period_doubling.seed(), period_doubling
    if lowered == "chair":
        from . import chair

        return chair.system(), chair.seed(), chair
    from . import subst

    try:
        return subst.load_rules(name_or_path), None, None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read rule file {name_or_path!r}: {exc}") from exc
    except subst.RuleError as exc:
        raise UsageError(f"bad rule file {name_or_path!r}: {exc}") from exc


def resolve_system(name_or_path: str, seed_spec: str | None):
    """Turn a ``--system`` value into ``(system, seed, closed_forms)`` with a legal seed.

    Built-in names come with their canonical seeds (the chain rule is squared
    so a two-sided fixed point exists).  Rule files get an explicit ``--seed``
    or else ``subst.first_legal_seed``; either way the seed must reproduce
    itself under substitution.  The image corners alone pick the least of the
    rule, its square and its cube with a legal seed; only that power is built.
    """
    from . import subst

    base, seed, closed_forms = _load_system(name_or_path)
    if seed_spec is not None:
        seed = _parse_seed(base, seed_spec)
    if closed_forms:
        if not subst.check_seed_legal(base, seed):
            raise UsageError(f"seed {seed_spec!r} is not legal for this system")
        return base, seed, closed_forms
    for exponent in (1, 2, 3):
        candidate = subst.first_legal_seed(base, exponent) if seed is None else seed
        if candidate is not None and subst.check_seed_legal(base, candidate, exponent):
            break
    else:
        if seed_spec is not None:
            raise UsageError(f"seed {seed_spec!r} is not legal for this rule or its powers up to 3")
        raise UsageError("no legal seed found for this rule or its powers up to 3")
    cells = base.factor ** (exponent * base.dim)
    _within_cells(cells, f"the rule to the power {exponent} has images of {cells} cells each")
    return base.power(exponent), candidate, None


def _within_cells(cells: int, stated: str) -> None:
    """Refuse ``cells`` over ``dyadic.MAX_CELLS``; ``stated`` says what has how many cells."""
    from . import dyadic

    if cells > dyadic.MAX_CELLS:
        raise UsageError(f"{stated}; the CLI grows at most {dyadic.MAX_CELLS}")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _out_base(out: str) -> Path:
    """``--out`` without a known extension; a path with no file name, or ending in ``..``, is refused."""
    base = Path(out)
    if base.name in ("", ".."):
        raise UsageError(f"output path {out!r} has no file name")
    if base.suffix.lower() in _KNOWN_SUFFIXES:
        base = base.with_suffix("")
    return base


def _store(path: Path, content: str) -> None:
    """Write ``content`` to ``path``, creating its directory; ``OSError`` becomes ``UsageError``."""
    try:
        if not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write(base: Path, renders: dict, announce=None) -> None:
    """Write ``base`` with each suffix of ``renders``, then print the paths in that order.

    ``renders`` maps a suffix such as ``"csv"`` to a zero-argument render of
    the file's text.  Each file is one ``forked.run`` task, so every file is
    tried; the paths go to ``announce`` (stdout by default) up to the first
    failure, which is then raised.  It forks because rendering is most of the
    work: on a 2-core host, ``diffract`` rendering its CSV and SVG in process
    lost on closed-form-sweep in 8 of 8, then 6 of 8 alternating pairs
    (``wall_ref`` medians 2.95 -> 3.29, then 3.00 -> 3.38 ref).
    """
    from . import forked

    paths = {base.with_suffix(f".{suffix}"): render for suffix, render in renders.items()}
    tasks = [(str(path), lambda path=path: _store(path, paths[path]())) for path in paths]
    for path, outcome in zip(paths, forked.run(tasks)):
        if isinstance(outcome, Exception):
            raise outcome
        print(path, file=announce)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    from . import render, subst

    system, seed, _ = resolve_system(args.system, args.seed)
    base = _out_base(args.out)
    if args.iterations < 0:
        raise UsageError(f"negative iteration count: {args.iterations}")
    if system.dim == 1 and args.format == "pgm":
        raise UsageError("format 'pgm' not supported here (choose from txt)")
    # Seeds are 2 cells wide; past 64 passes the window is over the bound anyway.
    side = 2 * system.factor ** min(args.iterations, 64)
    size = f"2*{system.factor}^{args.iterations}"
    if system.dim > 1:
        size = f"({size})^{system.dim}"
    _within_cells(side**system.dim, f"the window after {args.iterations} iterations has {size} cells")
    formats = (args.format,) if args.format else ("txt",) if system.dim == 1 else ("pgm", "txt")
    window = subst.fixed_point_window(system, seed, args.iterations)
    letters = system.alphabet
    renders = {
        "pgm": lambda: render.window_pgm(window, len(letters)),
        "txt": lambda: render.window_text(window, letters),
    }
    _write(base, {fmt: renders[fmt] for fmt in formats})
    return 0


def _module(args: argparse.Namespace, system: subst.SubstitutionSystem, depth=None):
    """The module points of ``diffract`` and ``module`` with their region.

    Checks the inflation factor, the cutoff flags and the region, applies
    their defaults, and enumerates the module before any window is grown.
    Only the system's dimension and factor are read.  ``depth(cutoff)``, if
    given, caps the levels enumerated once the requested box passed every check.
    """
    from . import dyadic

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
    cap = None if depth is None else depth(cutoff)
    try:
        module = dyadic.module_points(cutoff, region, include_hi=not args.half_open, depth=cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return module, region


def _check_empirical_size(half: int, module, letters: int, dim: int) -> None:
    """Refuse a window or a residue-count table over the CLI's bounds, before either exists.

    The window [-N, N]^d has (2N + 1)^d cells; the count table has
    letters x 2^(s d) entries at the finest level s of the module.
    """
    from . import dyadic

    cells = (2 * half + 1) ** dim
    box = f"[-{half}, {half}]" + (f"^{dim}" if dim > 1 else "")
    _within_cells(cells, f"the window {box} has {cells} cells")
    level = int(module.exponents.max(initial=0))
    entries = letters << (level * dim)
    if entries > dyadic.MAX_COUNTS:
        raise UsageError(
            f"the count table at denominator 2^{level} has {letters} x 2^{level * dim} = "
            f"{entries} entries; the CLI counts at most {dyadic.MAX_COUNTS}"
        )


def cmd_diffract(args: argparse.Namespace) -> int:
    from . import render

    system, seed, closed_forms = resolve_system(args.system, args.seed)
    base = _out_base(args.out)
    letters = system.alphabet
    weights = parse_weights(args.weights) if args.weights is not None else (1,) * len(letters)
    if len(weights) != len(letters):
        raise UsageError(f"{len(weights)} weights for {len(letters)} letters; they must match")
    if not args.floor >= 0:
        raise UsageError(f"intensity floor must be nonnegative: {args.floor}")
    if args.window is not None and args.window < 1:
        raise UsageError(f"window half-width must be positive: {args.window}")
    if args.window is not None and not args.empirical:
        raise UsageError("--window is for --empirical; the closed forms take no window")
    if closed_forms is None and not args.empirical:
        raise UsageError("no closed forms for user rules; pass --empirical for windowed sums")
    depth = None if args.empirical else lambda cutoff: _depth(closed_forms, weights, args.floor, cutoff)
    module, region = _module(args, system, depth)
    formats = (args.format,) if args.format else ("csv", "svg")
    # The figures' placement test: an axis whose width rounds to 0.0 cannot be drawn.
    if "svg" in formats and any(not float(hi - lo) > 0 for lo, hi in region):
        raise UsageError("an SVG needs a region of nonzero width on every axis; use --format csv")
    if args.empirical:
        from . import numerics, subst

        # The window [-N, N]^d grown by substitution from the resolved seed.
        half = args.window or (1 << 20 if system.dim == 1 else 1024)
        _check_empirical_size(half, module, len(letters), system.dim)
        window = subst.centred_window(system, seed, half)
        rows = numerics.empirical_amplitudes(numerics.WeightedComb(window, len(letters)), module)
    else:
        rows = closed_forms.amplitude_arrays(module)
    amplitudes = render.weigh(rows, weights)
    table = render.PeakTable.of(module, amplitudes)
    kept = table.intensity >= args.floor
    peaks = render.PeakTable(module.select(kept), amplitudes[kept], table.intensity[kept])
    figure, bounds = (render.stem_svg, region[0]) if system.dim == 1 else (render.disc_svg, region)
    renders = {"csv": lambda: render.peaks_csv(peaks), "svg": lambda: figure(peaks, *bounds)}
    _write(base, {fmt: renders[fmt] for fmt in formats})
    return 0


# The pre-filter's slack: the bound on |weighted amplitude| is raised by a
# relative 2^-20, for the roundings of the amplitudes, the weighing, hypot
# and pow, and by an absolute 2^-500, so that every floor below 2^-1000,
# where subnormal rounding is absolute rather than relative, keeps every level.
_BOUND_SLACK = (2.0**-20, 2.0**-500)


def _depth(closed_forms, weights, floor: float, cutoff: int) -> int:
    """The deepest level <= min(cutoff, ``MAX_LEVEL``) whose peaks may reach ``floor``, or -1.

    A level's bound on |sum_l w_l A_l|, with the ``amplitude_bounds`` b, is
    sum_{l < L/2} |w_l - w_{l+L/2}| b_l from ``PAIRED_FROM`` on, where letter
    l + L/2 carries exactly -A_l, and the triangle sum T = sum_l |w_l| b_l
    below; plus 2^-50 T for ``render.weigh``'s rounding, then ``_BOUND_SLACK``.
    The ``intensity >= floor`` mask still decides every peak, so the output
    is the same as with every level enumerated.
    """
    from . import dyadic

    relative, absolute = _BOUND_SLACK
    bounds = closed_forms.amplitude_bounds(min(cutoff, dyadic.MAX_LEVEL))
    half = len(weights) // 2
    triangle = sum(abs(weight) * row for weight, row in zip(weights, bounds, strict=True))
    reach = sum(abs(weights[c] - weights[c + half]) * bounds[c] for c in range(half))
    reach[: closed_forms.PAIRED_FROM] = triangle[: closed_forms.PAIRED_FROM]
    reach = (reach + 2.0**-50 * triangle) * (1 + relative) + absolute
    return max((level for level, bound in enumerate(reach) if bound**2 >= floor), default=-1)


def cmd_module(args: argparse.Namespace) -> int:
    from . import render

    system, _, _ = _load_system(args.system)
    base = _out_base(args.out)
    module, _ = _module(args, system)
    _write(base, {"csv": lambda: render.module_csv(module)})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verification

    base = _out_base(args.out)
    results = verification.run_checks()
    text = (verification.report_json if args.json else verification.report_text)(results)
    print(text, end="")
    # With --json stdout carries the JSON document alone; the file path goes to stderr.
    _write(base, {"json" if args.json else "txt": lambda: text}, sys.stderr if args.json else None)
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

    def add_system(sub, seed=True):
        sub.add_argument(
            "--system",
            default="period_doubling",
            help="built-in name (period_doubling/pd, chair) or rule-file path",
        )
        if seed:
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
    add_system(mod, seed=False)
    add_module_flags(mod)
    mod.add_argument("--out", default="module", help="output base path (extensions are added)")

    ver = commands.add_parser("verify", help="run the named self-check suite")
    ver.set_defaults(handler=cmd_verify)
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
        return args.handler(args)
    except UsageError as exc:
        print(f"limitper: {exc}", file=sys.stderr)
        return 2
