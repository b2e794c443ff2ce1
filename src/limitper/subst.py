"""Constant-length substitution systems on words and on square blocks.

A system replaces every cell of a labelled pattern by a fixed image: a word
of length b in one dimension, a b x b block in two.  Iterating a system on a
legal seed of two cells per axis straddling the origin grows nested centred
windows of its bi-infinite fixed point.  Every window comes from one loop,
``_grow``, and the window code is written once for Z^d, with no branch on
the dimension.  To reach a cube [lo, hi]^d the loop takes the n passes with
[lo, hi] inside [-b^n, b^n), and before each pass it keeps only the cells
whose images meet the cube.  ``fixed_point_window`` asks for
[-b^n, b^n - 1]^d, which n passes fill, so nothing is trimmed there;
``centred_window`` asks for [-N, N]^d.  The engine is generic over the
alphabet; the built-in rule files ship as package data under ``rules/``.

A seed is legal when one pass reproduces it, a test per cell: the seed cell
at array index i in {0, 1}^d lands on index (b - 1)(1 - i) of its own image,
so it must carry ``images[letter][(b - 1)(1 - i)] == letter``.

Coordinate convention for blocks: the pattern assigns a label to each cell
of Z^2, arrays are indexed ``labels[iy, ix]`` with both indices increasing
with the coordinate, and a rule file lists block rows top line first.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

__all__ = [
    "RuleError",
    "RuleSyntaxError",
    "RuleSemanticError",
    "SubstitutionSystem",
    "PatternWindow",
    "parse_rules",
    "render_rules",
    "load_rules",
    "bundled_system",
    "bundled_names",
    "word_seed",
    "block_seed",
    "substitute",
    "check_seed_legal",
    "first_legal_seed",
    "fixed_point_window",
    "centred_window",
    "natural_frequencies",
]


class RuleError(ValueError):
    """A substitution rule file or rule set is unusable."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RuleSyntaxError(RuleError):
    """Malformed rule text (unreadable line, bad header)."""


class RuleSemanticError(RuleError):
    """Readable text describing an inconsistent system."""


@dataclass(frozen=True, eq=False)
class SubstitutionSystem:
    """A constant-length substitution rule set.

    ``images[i]`` is the image of letter i in one read-only uint8 array of
    shape (letters, factor), or (letters, factor, factor) with row index
    increasing with y; a tuple of per-letter arrays is stacked on construction.
    """

    alphabet: tuple[str, ...]
    kind: str
    factor: int
    images: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("word", "block"):
            raise RuleSemanticError(f"unknown kind: {self.kind!r}")
        if self.factor < 2:
            raise RuleSemanticError(f"expansion factor must be >= 2, got {self.factor}")
        _check_letters(self.alphabet)
        shape = (len(self.alphabet),) + (self.factor,) * self.dim
        try:
            images = np.asarray(self.images)
        except ValueError:  # per-letter arrays of different shapes
            images = np.empty(0)
        if images.shape != shape:
            raise RuleSemanticError(f"images stack to shape {images.shape}, not {shape} (one per letter)")
        if not np.issubdtype(images.dtype, np.integer) or images.min() < 0 or images.max() >= shape[0]:
            raise RuleSemanticError("an image uses an unknown letter index")
        object.__setattr__(self, "images", images.astype(np.uint8, copy=False))
        self.images.setflags(write=False)

    @property
    def dim(self) -> int:
        return 1 if self.kind == "word" else 2

    def index(self, letter: str) -> int:
        try:
            return self.alphabet.index(letter)
        except ValueError:
            raise KeyError(f"letter {letter!r} is not in the alphabet") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubstitutionSystem):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.kind == other.kind
            and self.factor == other.factor
            and np.array_equal(self.images, other.images)
        )

    def power(self, exponent: int) -> "SubstitutionSystem":
        """The substitution applied `exponent` times as a single rule set."""
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        images = self.images
        for _ in range(exponent - 1):
            images = _expand_labels(self.images, images)
        return SubstitutionSystem(self.alphabet, self.kind, self.factor**exponent, images)

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

    def label_at(self, pos) -> int:
        """The label of one cell, any integer or tuple; ``ValueError`` outside the patch."""
        cell = tuple(map(operator.index, pos)) if np.ndim(pos) else (operator.index(pos),)
        index = tuple(c - o for c, o in zip(cell, self.origin))[::-1]
        if len(cell) != self.dim or any(not 0 <= i < n for i, n in zip(index, self.labels.shape)):
            raise ValueError(f"cell {pos} is outside the patch")
        return int(self.labels[index])

    def subwindow(self, origin: tuple[int, ...], extent: tuple[int, ...]) -> "PatternWindow":
        """The sub-patch with the given origin and per-axis extent."""
        starts = [o - s for o, s in zip(origin, self.origin)][::-1]
        stops = [i + n for i, n in zip(starts, extent[::-1])]
        if any(i < 0 or j > n for i, j, n in zip(starts, stops, self.labels.shape)):
            raise ValueError("subwindow reaches outside the patch")
        return PatternWindow(origin, self.labels[tuple(map(slice, starts, stops))])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternWindow):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(self.labels, other.labels)


def _expand_labels(images: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Replace each cell of the last d = dim axes of `labels` by its image, in the images' dtype."""
    b, d = images.shape[-1], images.ndim - 1
    out = np.empty(labels.shape[:-d] + tuple(n * b for n in labels.shape[-d:]), dtype=images.dtype)
    # Offset (dy, dx) of every image fills the cells out[..., dy::b, dx::b].
    for offset in np.ndindex(*(b,) * d):
        out[(..., *(slice(o, None, b) for o in offset))] = images[(labels, *offset)]
    return out


def substitute(system: SubstitutionSystem, patch: PatternWindow) -> PatternWindow:
    """Apply the rule once: the cell at p maps to its image at factor * p + offsets."""
    if patch.dim != system.dim:
        raise ValueError(f"{system.kind} system cannot act on a {patch.dim}-dimensional patch")
    if (patch.labels >= len(system.alphabet)).any():
        raise ValueError("patch uses a letter index outside the system alphabet")
    origin = tuple(system.factor * o for o in patch.origin)
    return PatternWindow(origin, _expand_labels(system.images, patch.labels))


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
        raise RuleSyntaxError("empty alphabet", line)
    if len(set(letters)) != len(letters):
        raise RuleSemanticError("alphabet letters must be distinct", line)
    if (count := len(letters)) > 256:
        raise RuleSemanticError(f"alphabet has {count} letters; labels are uint8, so at most 256", line)
    # Rule text splits on whitespace and on `->`, and a leading `#` starts a comment.
    for letter in letters:
        if letter.split() != [letter] or "->" in letter:
            raise RuleSemanticError(f"letter {letter!r} is empty or holds whitespace or '->'", line)
        if letter.startswith("#"):
            raise RuleSemanticError(f"letter {letter!r} begins with '#', which starts a comment", line)
    return letters


def _header_value(key: str, value: str, lineno: int):
    """The checked value of one header line: the kind, the factor or the alphabet."""
    if key == "kind":
        if value not in ("word", "block"):
            raise RuleSyntaxError(f"kind must be 'word' or 'block', got {value!r}", lineno)
        return value
    if key == "factor":
        try:
            factor = int(value)
        except ValueError:
            raise RuleSyntaxError(f"factor must be an integer, got {value!r}", lineno) from None
        if factor < 2:
            raise RuleSemanticError(f"factor must be >= 2, got {factor}", lineno)
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
                raise RuleSyntaxError("rule before a complete header (kind, factor, alphabet)", lineno)
            kind, factor, alphabet = header.values()
            lhs, _, rhs = (part.strip() for part in line.partition("->"))
            if len(lhs.split()) != 1:
                raise RuleSyntaxError(f"rule left side must be a single letter, got {lhs!r}", lineno)
            if lhs not in alphabet:
                raise RuleSemanticError(f"rule for unknown letter {lhs!r}", lineno)
            if lhs in rules:
                raise RuleSemanticError(f"duplicate rule for letter {lhs!r}", lineno)
            if kind == "word":
                rows = [rhs.split()]
                if len(rows[0]) != factor:
                    raise RuleSemanticError(
                        f"rule {lhs!r}: non-constant length (expected {factor} letters, got {len(rows[0])})",
                        lineno,
                    )
            elif rhs:
                raise RuleSyntaxError(
                    f"rule {lhs!r}: block rows belong on the following indented lines", lineno
                )
            else:
                rows = []
                for got in range(factor):
                    row_lineno, row = next(lines, (lineno, None))
                    if row is None:
                        raise RuleSemanticError(
                            f"rule {lhs!r}: expected {factor} block rows, file ended after {got}", lineno
                        )
                    if not row[0].isspace():
                        raise RuleSemanticError(
                            f"rule {lhs!r}: expected {factor} indented block rows, got {got}", row_lineno
                        )
                    rows.append(row.split())
                    if len(rows[-1]) != factor:
                        raise RuleSemanticError(
                            f"rule {lhs!r}: block row has {len(rows[-1])} labels, expected {factor}",
                            row_lineno,
                        )
            rules[lhs] = lineno, rows
        elif "=" in line:
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in header:
                raise RuleSyntaxError(f"unknown header key {key!r}", lineno)
            if rules:
                raise RuleSyntaxError("header line after the first rule", lineno)
            header[key] = _header_value(key, value, lineno)
        else:
            raise RuleSyntaxError(f"unrecognised line: {line!r}", lineno)

    if None in header.values():
        raise RuleSyntaxError("missing header line(s): kind, factor and alphabet are required")
    kind, factor, alphabet = header.values()
    missing = [letter for letter in alphabet if letter not in rules]
    if missing:
        raise RuleSemanticError(f"no rule for letter(s): {', '.join(repr(m) for m in missing)}")

    index = {letter: i for i, letter in enumerate(alphabet)}
    images = []
    for letter in alphabet:
        lineno, rows = rules[letter]
        for token in (t for row in rows for t in row):
            if token not in index:
                raise RuleSemanticError(f"rule {letter!r} uses unknown letter {token!r}", lineno)
        # Text lists the top row first; the array stores low y first.
        labels = [[index[t] for t in row] for row in reversed(rows)]
        images.append(np.array(labels[0] if kind == "word" else labels, dtype=np.uint8))
    return SubstitutionSystem(alphabet=alphabet, kind=kind, factor=factor, images=tuple(images))


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


def bundled_names() -> tuple[str, ...]:
    return _BUNDLED


def bundled_system(name: str) -> SubstitutionSystem:
    """One of the rule sets shipped with the package."""
    if name not in _BUNDLED:
        raise ValueError(f"unknown bundled system {name!r}; available: {', '.join(_BUNDLED)}")
    text = resources.files(__package__).joinpath(f"rules/{name}.sub").read_text(encoding="utf-8")
    return parse_rules(text)
