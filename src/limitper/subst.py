"""Constant-length substitution systems on words and on square blocks.

A system replaces every cell of a labelled pattern by a fixed image: a word
of length b in one dimension, a b x b block in two.  It holds its alphabet
and one uint8 stack of images, and reads the factor b, the dimension and
the kind (word or block) off the stack's shape; an unusable rule, in text
or in Python, raises ``RuleError``.  Iterating a system on a legal seed of
two cells per axis straddling the origin grows nested centred windows of its
bi-infinite fixed point.  Every window comes from one loop, ``_grow``, and
the window code is written once for Z^d, with no branch on the dimension.
To reach a cube [lo, hi]^d the loop takes the n passes with [lo, hi] inside
[-b^n, b^n), and before each pass it keeps only the cells whose images meet
the cube.  ``fixed_point_window`` asks for [-b^n, b^n - 1]^d, which n
passes fill, so nothing is trimmed there; ``centred_window`` asks for
[-N, N]^d.  The engine is generic over the alphabet; the built-in rule files
ship as package data under ``rules/``.

A seed is legal when one pass reproduces it, a test per cell: the seed cell
at array index i in {0, 1}^d lands on index (b - 1)(1 - i) of its own image,
so it must carry ``images[letter][(b - 1)(1 - i)] == letter``.

Coordinate convention for blocks: the pattern assigns a label to each cell
of Z^2, arrays are indexed ``labels[iy, ix]`` with both indices increasing
with the coordinate, and a rule file lists block rows top line first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

__all__ = [
    "RuleError",
    "SubstitutionSystem",
    "PatternWindow",
    "parse_rules",
    "render_rules",
    "load_rules",
    "bundled_system",
    "word_seed",
    "block_seed",
    "check_seed_legal",
    "first_legal_seed",
    "fixed_point_window",
    "centred_window",
    "natural_frequencies",
]

# Cells per band of ``_expand_labels``: 128 KiB of intp indices.
_BAND_CELLS = 1 << 14


class RuleError(ValueError):
    """A substitution rule file or rule set is unusable; ``line`` is the offending line, if any."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class SubstitutionSystem:
    """A constant-length substitution rule set.

    ``images[i]`` is the image of letter i in one read-only uint8 array of
    shape (letters, b) for a word rule, or (letters, b, b) for a block rule
    with row index increasing with y; a tuple of per-letter arrays is
    stacked on construction.  The factor b >= 2, the dimension and the kind
    are read off that shape.
    """

    alphabet: tuple[str, ...]
    images: np.ndarray

    def __post_init__(self) -> None:
        letters = len(_check_letters(self.alphabet))
        try:
            images = np.asarray(self.images)
        except ValueError:  # per-letter arrays of different shapes
            images = np.empty(0)
        b = images.shape[-1] if images.ndim else 0
        if images.ndim not in (2, 3) or b < 2 or images.shape != (letters,) + (b,) * (images.ndim - 1):
            raise RuleError(
                f"images stack to shape {images.shape}, not ({letters}, b) or ({letters}, b, b) with b >= 2"
            )
        if not np.issubdtype(images.dtype, np.integer) or images.min() < 0 or images.max() >= letters:
            raise RuleError("an image uses an unknown letter index")
        object.__setattr__(self, "images", images.astype(np.uint8, copy=False))
        self.images.setflags(write=False)

    @property
    def factor(self) -> int:
        return self.images.shape[-1]

    @property
    def dim(self) -> int:
        return self.images.ndim - 1

    @property
    def kind(self) -> str:
        return "word" if self.dim == 1 else "block"

    def index(self, letter: str) -> int:
        try:
            return self.alphabet.index(letter)
        except ValueError:
            raise KeyError(f"letter {letter!r} is not in the alphabet") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubstitutionSystem):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.images, other.images)

    def power(self, exponent: int) -> "SubstitutionSystem":
        """The substitution applied `exponent` times as a single rule set."""
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        images = self.images
        for _ in range(exponent - 1):
            images = _expand_labels(self.images, images)
        return SubstitutionSystem(self.alphabet, images)

    def count_matrix(self) -> list[list[int]]:
        """M[i][j] = number of cells carrying letter i in the image of letter j."""
        k = len(self.alphabet)
        # Letter i in image j counts at j * k + i; the transpose puts letters on the rows.
        keys = self.images.reshape(k, -1) + k * np.arange(k)[:, None]
        return np.bincount(keys.ravel(), minlength=k * k).reshape(k, k).T.tolist()

    def is_primitive(self) -> bool:
        """True iff some power of the count matrix is strictly positive."""
        k = len(self.alphabet)
        power = np.array(self.count_matrix(), dtype=bool)
        # Wielandt bound: a primitive k x k matrix is positive from power
        # (k-1)^2 + 1 on, so the first power of two past it decides.
        for _ in range(((k - 1) ** 2).bit_length()):
            power = power @ power
        return bool(power.all())


@dataclass(frozen=True, eq=False)
class PatternWindow:
    """A finite labelled patch of Z or Z^2.

    ``labels`` is 1D (n,) or 2D (ny, nx); entry [iy, ix] belongs to the cell
    (origin[0] + ix, origin[1] + iy).  Array axes run in the reverse order
    of the coordinates, so ``extent`` is the array shape reversed.
    """

    origin: tuple[int, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.labels.ndim != len(self.origin) or self.labels.ndim not in (1, 2):
            raise ValueError(
                f"origin {self.origin} does not match a {self.labels.ndim}-dimensional label array"
            )
        self.labels.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.labels.ndim

    @property
    def extent(self) -> tuple[int, ...]:
        return self.labels.shape[::-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternWindow):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(self.labels, other.labels)


def _expand_labels(images: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Replace each cell of the last d = dim axes of `labels` by its image, as uint8.

    Leading axes (the stacked images that ``SubstitutionSystem.power``
    passes) are carried along.  Each image row of b cells is one b-byte item
    (``np.void``), so one ``take`` per image row y gathers that row for every
    cell at once into the output's rows b iy + y.  The cells go band by band
    along the first axis, ``_BAND_CELLS`` at a time, because ``take`` casts
    the uint8 labels to intp: the scratch is 8 + b bytes per band cell
    whatever the window.  Any factor, d = 1 or 2, and any strided `labels`.
    """
    b, d = images.shape[-1], images.ndim - 1
    # rows[l, y] is row y of the image of l, one b-byte item; (L, 1) in 1D.
    rows = np.ascontiguousarray(images).reshape(len(images), -1, b).view(f"V{b}")[..., 0]
    out = np.empty(labels.shape[:-d] + tuple(n * b for n in labels.shape[-d:]), dtype=np.uint8)
    # targets[y] has the shape of `labels` and views the output rows b iy + y.
    spread = labels.shape[:-1] + (rows.shape[1], labels.shape[-1] * b)
    targets = np.moveaxis(out.reshape(spread).view(f"V{b}"), -2, 0)
    step = max(1, _BAND_CELLS // max(1, math.prod(labels.shape[1:])))
    for start in range(0, len(labels), step):
        band = labels[start : start + step].astype(np.intp)
        for target, image_rows in zip(targets, rows.T):
            target[start : start + step] = image_rows.take(band)
    return out


def word_seed(system: SubstitutionSystem, left: str, right: str) -> PatternWindow:
    """The two-letter seed left|right occupying cells -1 and 0."""
    if system.dim != 1:
        raise ValueError("word seeds belong to word systems")
    labels = np.array([system.index(left), system.index(right)], dtype=np.uint8)
    return PatternWindow((-1,), labels)


def block_seed(system: SubstitutionSystem, rows_top_down) -> PatternWindow:
    """The 2 x 2 seed on {-1, 0}^2, given as ((top-left, top-right), (bottom-left, bottom-right))."""
    if system.dim != 2:
        raise ValueError("block seeds belong to block systems")
    (tl, tr), (bl, br) = rows_top_down
    labels = np.array(
        [[system.index(bl), system.index(br)], [system.index(tl), system.index(tr)]],
        dtype=np.uint8,
    )
    return PatternWindow((-1, -1), labels)


def _kept_letters(system: SubstitutionSystem, exponent: int = 1) -> np.ndarray:
    """Booleans (letters, 2, ..., 2): entry [l, i] says whether seed cell i keeps letter l.

    The rule to the power e maps corners as the rule's corner map iterated e times.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    # Per axis, a step of 1 - b from the end visits index b - 1, then 0.
    corners = system.images[(slice(None),) + (slice(None, None, 1 - system.factor),) * system.dim]
    letters = np.arange(len(system.alphabet)).reshape((-1,) + (1,) * system.dim)
    mapped = np.broadcast_to(letters, corners.shape)
    for _ in range(exponent):
        mapped = np.take_along_axis(corners, mapped, axis=0)
    return mapped == letters


def check_seed_legal(system: SubstitutionSystem, seed: PatternWindow, exponent: int = 1) -> bool:
    """True iff one pass of the rule to the power ``exponent`` reproduces the seed on its own cells.

    That nesting is exactly what makes repeated substitution converge to a
    two-sided fixed point: each pass extends the previous window outward
    without rewriting it.  The pass sends the seed cell at array index i to
    index (b - 1)(1 - i) of its own image, so the seed is legal exactly when
    ``images[letter][(b - 1)(1 - i)] == letter`` on every cell.
    """
    if seed.extent != (2,) * system.dim or seed.origin != (-1,) * system.dim:
        raise ValueError(f"a {system.kind} seed is a 2-cell-per-axis patch centred on the origin")
    if int(seed.labels.max()) >= len(system.alphabet):
        raise ValueError("seed uses a letter index outside the system alphabet")
    return bool(_kept_letters(system, exponent)[(seed.labels, *np.indices(seed.labels.shape))].all())


def first_legal_seed(system: SubstitutionSystem, exponent: int = 1) -> PatternWindow | None:
    """The first legal seed of the rule to the power ``exponent``, or None if a cell keeps no letter."""
    kept = _kept_letters(system, exponent)
    if not kept.any(axis=0).all():
        return None
    return PatternWindow((-1,) * system.dim, kept.argmax(axis=0).astype(np.uint8))


def _grow(system: SubstitutionSystem, seed: PatternWindow, lo: int, hi: int) -> PatternWindow:
    """The cube [lo, hi]^d of the fixed point through ``seed``, by trimmed passes.

    Needs lo <= hi.  The seed's legality is checked here, once for every
    window.  The loop takes the n passes with b^n the least power of the
    factor b for which [lo, hi] lies inside [-b^n, b^n), the window that n
    passes grow from the seed.  Before each pass, with k passes still to go,
    it keeps only the cells floor(lo / b^k) .. floor(hi / b^k) per axis,
    whose images meet the cube; for the whole [-b^n, b^n - 1] that is every
    cell.  The result is a view of the seed's labels or of the last pass's.
    """
    if not check_seed_legal(system, seed):
        raise ValueError("seed is not legal for this system (no fixed point through it)")
    b = system.factor
    scale = 1
    while not -scale <= lo <= hi < scale:
        scale *= b
    # Every axis covers the same cells, starting at `origin`.
    labels, origin = seed.labels, -1
    while True:
        first, last = lo // scale, hi // scale
        labels = labels[(slice(first - origin, last - origin + 1),) * system.dim]
        if scale == 1:
            return PatternWindow((lo,) * system.dim, labels)
        labels, origin, scale = _expand_labels(system.images, labels), first * b, scale // b


def fixed_point_window(
    system: SubstitutionSystem, seed: PatternWindow, iterations: int
) -> PatternWindow:
    """The window [-b^n, b^n)^d of the fixed point, n substitution passes from a legal seed.

    It asks ``_grow`` for the cube [-b^n, b^n - 1]^d, which the n passes
    fill exactly, so no cell is trimmed.
    """
    if iterations < 0:
        raise ValueError(f"negative iteration count: {iterations}")
    reach = system.factor**iterations
    return _grow(system, seed, -reach, reach - 1)


def centred_window(system: SubstitutionSystem, seed: PatternWindow, half: int) -> PatternWindow:
    """The cube [-N, N]^d of the fixed point, grown only where it reaches the cube.

    It asks ``_grow`` for the cube [-N, N]^d: the n passes with b^n >= N + 1
    that ``fixed_point_window`` takes, trimmed before each.  The last pass
    expands fewer than 2N/b + 2 cells per axis, so the returned view keeps a
    base of at most (2N + 2b)^d cells alive instead of (2 b^n)^d.
    """
    if half < 0:
        raise ValueError(f"negative half-width: {half}")
    return _grow(system, seed, -half, half)


def natural_frequencies(system: SubstitutionSystem) -> dict[str, Fraction]:
    """Exact per-letter cell frequencies of any fixed point of a primitive system.

    Each column of the count matrix M sums to lam = factor^dim, so for a
    primitive rule one positive vector spans the kernel of M - lam I, whose
    rows sum to zero.  With the last row replaced by the normalisation
    (sum = 1) the system is regular; Gauss-Jordan solves it over the rationals.
    """
    if not system.is_primitive():
        raise ValueError("substitution is not primitive; letter frequencies are not unique")
    lam = system.factor**system.dim
    k = len(system.alphabet)
    rows = [
        [Fraction(count - (lam if i == j else 0)) for j, count in enumerate(row)] + [Fraction(0)]
        for i, row in enumerate(system.count_matrix()[:-1])
    ]
    rows.append([Fraction(1)] * (k + 1))
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                scale = rows[r][col] / rows[col][col]
                rows[r] = [v - scale * w for v, w in zip(rows[r], rows[col])]
    return {letter: rows[i][k] / rows[i][i] for i, letter in enumerate(system.alphabet)}


def _check_letters(letters: tuple[str, ...], line: int | None = None) -> tuple[str, ...]:
    """The letters, if uint8 labels hold them and rule text spells them; errors name ``line``."""
    if not letters:
        raise RuleError("empty alphabet", line)
    if len(set(letters)) != len(letters):
        raise RuleError("alphabet letters must be distinct", line)
    if (count := len(letters)) > 256:
        raise RuleError(f"alphabet has {count} letters; labels are uint8, so at most 256", line)
    # Rule text splits on whitespace and on `->`, and a leading `#` starts a comment.
    for letter in letters:
        if letter.split() != [letter] or "->" in letter:
            raise RuleError(f"letter {letter!r} is empty or holds whitespace or '->'", line)
        if letter.startswith("#"):
            raise RuleError(f"letter {letter!r} begins with '#', which starts a comment", line)
    return letters


def _header_value(key: str, value: str, lineno: int):
    """The checked value of one header line: the kind, the factor or the alphabet."""
    if key == "kind":
        if value not in ("word", "block"):
            raise RuleError(f"kind must be 'word' or 'block', got {value!r}", lineno)
        return value
    if key == "factor":
        try:
            factor = int(value)
        except ValueError:
            raise RuleError(f"factor must be an integer, got {value!r}", lineno) from None
        if factor < 2:
            raise RuleError(f"factor must be >= 2, got {factor}", lineno)
        return factor
    return _check_letters(tuple(value.split()), lineno)


def parse_rules(text: str) -> SubstitutionSystem:
    """Parse the rule DSL.

    Format: header lines ``kind = word | block``, ``factor = b`` and
    ``alphabet = l1 l2 ...`` in any order, then one rule per letter.  A word
    rule is ``l -> l1 l2 ... lb`` on one line; a block rule is ``l ->``
    followed by b indented lines of b labels, top row first.  Lines starting
    with ``#`` and blank lines are ignored; the alphabet obeys
    ``_check_letters``.  Image letters are checked once every line is read.
    """
    header: dict = dict.fromkeys(("kind", "factor", "alphabet"))
    rules: dict[str, tuple[int, list[list[str]]]] = {}
    numbered = enumerate(text.splitlines(), 1)
    lines = ((lineno, raw) for lineno, raw in numbered if raw.strip()[:1] not in ("", "#"))
    for lineno, raw in lines:
        line = raw.strip()
        if "->" in line:
            if None in header.values():
                raise RuleError("rule before a complete header (kind, factor, alphabet)", lineno)
            kind, factor, alphabet = header.values()
            lhs, _, rhs = (part.strip() for part in line.partition("->"))
            if len(lhs.split()) != 1:
                raise RuleError(f"rule left side must be a single letter, got {lhs!r}", lineno)
            if lhs not in alphabet:
                raise RuleError(f"rule for unknown letter {lhs!r}", lineno)
            if lhs in rules:
                raise RuleError(f"duplicate rule for letter {lhs!r}", lineno)
            if kind == "word":
                rows = [rhs.split()]
                if len(rows[0]) != factor:
                    raise RuleError(
                        f"rule {lhs!r}: non-constant length (expected {factor} letters, got {len(rows[0])})",
                        lineno,
                    )
            elif rhs:
                raise RuleError(f"rule {lhs!r}: block rows belong on the following indented lines", lineno)
            else:
                rows = []
                for got in range(factor):
                    row_lineno, row = next(lines, (lineno, None))
                    if row is None:
                        raise RuleError(
                            f"rule {lhs!r}: expected {factor} block rows, file ended after {got}", lineno
                        )
                    if not row[0].isspace():
                        raise RuleError(
                            f"rule {lhs!r}: expected {factor} indented block rows, got {got}", row_lineno
                        )
                    rows.append(row.split())
                    if len(rows[-1]) != factor:
                        raise RuleError(
                            f"rule {lhs!r}: block row has {len(rows[-1])} labels, expected {factor}",
                            row_lineno,
                        )
            rules[lhs] = lineno, rows
        elif "=" in line:
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in header:
                raise RuleError(f"unknown header key {key!r}", lineno)
            if rules:
                raise RuleError("header line after the first rule", lineno)
            header[key] = _header_value(key, value, lineno)
        else:
            raise RuleError(f"unrecognised line: {line!r}", lineno)

    if None in header.values():
        raise RuleError("missing header line(s): kind, factor and alphabet are required")
    kind, _, alphabet = header.values()
    missing = [letter for letter in alphabet if letter not in rules]
    if missing:
        raise RuleError(f"no rule for letter(s): {', '.join(repr(m) for m in missing)}")

    index = {letter: i for i, letter in enumerate(alphabet)}
    images = []
    for letter in alphabet:
        lineno, rows = rules[letter]
        for token in (t for row in rows for t in row):
            if token not in index:
                raise RuleError(f"rule {letter!r} uses unknown letter {token!r}", lineno)
        # Text lists the top row first; the array stores low y first.
        labels = [[index[t] for t in row] for row in reversed(rows)]
        images.append(np.array(labels[0] if kind == "word" else labels, dtype=np.uint8))
    return SubstitutionSystem(alphabet, tuple(images))


def render_rules(system: SubstitutionSystem) -> str:
    """Canonical rule text; parse_rules(render_rules(s)) == s."""
    out = [
        f"kind = {system.kind}",
        f"factor = {system.factor}",
        f"alphabet = {' '.join(system.alphabet)}",
    ]
    for letter, img in zip(system.alphabet, system.images):
        if system.kind == "word":
            out.append(f"{letter} -> {' '.join(system.alphabet[i] for i in img)}")
        else:
            out.append(f"{letter} ->")
            for row in img[::-1]:
                out.append("  " + " ".join(system.alphabet[i] for i in row))
    return "\n".join(out) + "\n"


def load_rules(path) -> SubstitutionSystem:
    """Parse a rule file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_rules(handle.read())


_BUNDLED = ("period_doubling", "chair")


def bundled_system(name: str) -> SubstitutionSystem:
    """One of the rule sets shipped with the package."""
    if name not in _BUNDLED:
        raise ValueError(f"unknown bundled system {name!r}; available: {', '.join(_BUNDLED)}")
    text = resources.files(__package__).joinpath(f"rules/{name}.sub").read_text(encoding="utf-8")
    return parse_rules(text)
