"""Substitution engine tests: parsing, seeds, fixed points, frequencies."""

import itertools
from fractions import Fraction
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitper import subst

# ---------------------------------------------------------------------------
# Reference systems
# ---------------------------------------------------------------------------

_DOUBLING_TEXT = """\
kind = word
factor = 2
alphabet = a b
a -> a b
b -> a a
"""

_BLOCK_TEXT = """\
# comment line
kind = block
factor = 2
alphabet = p q

p ->
  q p
  p p
q ->
  p q
  q q
"""


_FACTOR_4_BLOCK_TEXT = """\
kind = block
factor = 4
alphabet = p q
p ->
  p q p q
  q p q p
  p p q q
  q q p p
q ->
  q q q q
  p p p p
  q p q p
  p q p p
"""


def _doubling():
    return subst.parse_rules(_DOUBLING_TEXT)


def _substitute(system, patch):
    """Apply the rule once: the cell at p maps to its image at factor * p + offsets.

    The literal growth every window route is held to: each cell's image,
    ``images[labels]``, has its axes interleaved with the cell axes, so
    cell iy and image row y land on row factor * iy + y.
    """
    if patch.dim != system.dim:
        raise ValueError(f"{system.kind} system cannot act on a {patch.dim}-dimensional patch")
    if (patch.labels >= len(system.alphabet)).any():
        raise ValueError("patch uses a letter index outside the system alphabet")
    d = patch.dim
    cells = system.images[patch.labels].transpose([i for axis in range(d) for i in (axis, d + axis)])
    labels = cells.reshape([system.factor * n for n in patch.labels.shape])
    return subst.PatternWindow(tuple(system.factor * o for o in patch.origin), labels)


def _substituted(system, seed, iterations):
    """The seed after ``iterations`` passes of ``_substitute``: growth taken literally."""
    window = seed
    for _ in range(iterations):
        window = _substitute(system, window)
    return window


def _cut(window, origin, extent):
    """The sub-patch of ``window`` with the given origin and per-axis extent, coordinates x first."""
    starts = [o - s for o, s in zip(origin, window.origin)][::-1]
    cells = tuple(slice(i, i + n) for i, n in zip(starts, extent[::-1]))
    return subst.PatternWindow(tuple(origin), window.labels[cells])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# (text, line, message fragment); every one raises ``subst.RuleError``.
_PARSE_ERRORS = [
    ("bogus = word\n", 1, "unknown header key"),
    ("kind = word\nfactor = 2\nalphabet = a\na -> a\n", 4, "non-constant length"),
    ("kind = tile\n", 1, "kind"),
    ("kind = word\nfactor = one\n", 2, "integer"),
    ("kind = word\nfactor = 1\n", 2, ">= 2"),
    ("kind = word\nfactor = 2\nalphabet = a a\n", 3, "distinct"),
    ("kind = word\nfactor = 2\nalphabet =\n", 3, "empty alphabet"),
    ("kind = word\nfactor = 2\nalphabet = a\na -> a a\na -> a a\n", 5, "duplicate"),
    ("kind = word\nfactor = 2\nalphabet = a\na -> a b\n", 4, "unknown letter"),
    ("kind = word\nfactor = 2\nalphabet = a\nb -> a a\n", 4, "unknown letter"),
    ("a -> a a\n", 1, "before a complete header"),
    ("kind = word\nfactor = 2\nalphabet = a\na -> a a\nkind = word\n", 5, "after the first rule"),
    ("kind = word\nfactor = 2\nalphabet = a\n???\n", 4, "unrecognised"),
    # Block rows: too many labels, too few rows, rows on the rule line,
    # and a row that is not indented.
    (
        "kind = block\nfactor = 2\nalphabet = p\np ->\n  p p p\n  p p\n",
        5,
        "block row has 3 labels, expected 2",
    ),
    ("kind = block\nfactor = 2\nalphabet = p\np ->\n  p p\n", 4, "file ended after 1"),
    ("kind = block\nfactor = 2\nalphabet = p\np -> p p\n", 4, "indented"),
    (
        "kind = block\nfactor = 2\nalphabet = p\np ->\n  p p\n\n# c\np p\n",
        8,
        "expected 2 indented block rows, got 1",
    ),
    # Image letters are checked after every line is read: a later
    # unreadable line wins, and so does a missing rule.
    ("kind = word\nfactor = 2\nalphabet = a b\na -> a c\nb -> a a\n???\n", 6, "unrecognised"),
    ("kind = word\nfactor = 2\nalphabet = a b\na -> a c\n", None, "no rule for letter(s): 'b'"),
    # A letter may not begin with '#': its rule line would read as a comment.
    (
        "kind = word\nfactor = 2\nalphabet = #x y\n#x -> y y\ny -> #x y\n",
        3,
        "letter '#x' begins with '#'",
    ),
]


class TestParsing:
    def test_word_system(self):
        system = _doubling()
        assert system.kind == "word"
        assert system.factor == 2
        assert system.alphabet == ("a", "b")
        assert system.images[0].tolist() == [0, 1]
        assert system.images[1].tolist() == [0, 0]

    def test_block_rows_are_read_top_first(self):
        system = subst.parse_rules(_BLOCK_TEXT)
        # Image arrays store the low-y row first, so the text rows flip.
        assert system.images[0].tolist() == [[0, 0], [1, 0]]
        assert system.images[1].tolist() == [[1, 1], [0, 1]]

    def test_headers_in_any_order_with_comments(self):
        text = "# c\nalphabet = a\nfactor = 2\n\nkind = word\na -> a a\n"
        system = subst.parse_rules(text)
        assert system.alphabet == ("a",)

    def test_bundled_systems(self):
        pd = subst.bundled_system("period_doubling")
        assert (pd.kind, pd.factor, pd.alphabet) == ("word", 2, ("a", "b"))
        chair = subst.bundled_system("chair")
        assert (chair.kind, chair.factor) == ("block", 2)
        assert chair.alphabet == ("0", "1", "2", "3")
        with pytest.raises(ValueError):
            subst.bundled_system("nonsense")

    @pytest.mark.parametrize(
        "text,line,needle", [pytest.param(*row, id="-".join(map(str, row))) for row in _PARSE_ERRORS]
    )
    def test_errors_carry_line_numbers(self, text, line, needle):
        with pytest.raises(subst.RuleError) as excinfo:
            subst.parse_rules(text)
        assert excinfo.value.line == line
        assert needle in str(excinfo.value)

    def test_alphabet_holds_at_most_256_letters(self):
        # Labels are uint8: a rule naming letter 256 would overflow its image.
        def rules(count):
            letters = [f"x{i}" for i in range(count)]
            images = "".join(f"{letter} -> x0 {letters[-1]}\n" for letter in letters)
            return f"kind = word\nfactor = 2\nalphabet = {' '.join(letters)}\n" + images

        assert len(subst.parse_rules(rules(256)).alphabet) == 256
        with pytest.raises(subst.RuleError, match="at most 256") as excinfo:
            subst.parse_rules(rules(257))
        assert excinfo.value.line == 3

    def test_missing_rule_is_reported(self):
        with pytest.raises(subst.RuleError, match="no rule"):
            subst.parse_rules("kind = word\nfactor = 2\nalphabet = a b\na -> a b\n")

    def test_round_trip_bundled(self):
        for name in ("period_doubling", "chair"):
            system = subst.bundled_system(name)
            assert subst.parse_rules(subst.render_rules(system)) == system

    @given(
        kind=st.sampled_from(["word", "block"]),
        factor=st.integers(min_value=2, max_value=3),
        alphabet=st.lists(
            st.text(max_size=4) | st.sampled_from(("->", "a->b", "#x", "x y", "-", ">", "=")),
            min_size=1,
            max_size=4,
            unique=True,
        ).map(tuple),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_round_trip_random_systems(self, kind, factor, alphabet, data):
        # Any distinct strings: the type refuses exactly the letters rule text
        # cannot spell, and every system it accepts reads back from its text.
        shape = (factor,) if kind == "word" else (factor, factor)
        images = tuple(
            np.array(
                data.draw(
                    st.lists(
                        st.integers(0, len(alphabet) - 1),
                        min_size=int(np.prod(shape)),
                        max_size=int(np.prod(shape)),
                    )
                ),
                dtype=np.uint8,
            ).reshape(shape)
            for _ in alphabet
        )
        unspellable = [
            letter
            for letter in alphabet
            if not letter or any(c.isspace() for c in letter) or "->" in letter or letter[0] == "#"
        ]
        try:
            system = subst.SubstitutionSystem(alphabet, images)
        except subst.RuleError:
            assert unspellable
            return
        assert not unspellable
        assert (system.kind, system.factor) == (kind, factor)
        assert subst.parse_rules(subst.render_rules(system)) == system

    @pytest.mark.parametrize(
        "letter, needle",
        [
            ("a b", "'a b' is empty or holds whitespace"),
            ("a\nb", "'a\\nb' is empty or holds whitespace"),
            ("a->", "'a->' is empty or holds whitespace or '->'"),
            ("", "'' is empty"),
            ("#x", "'#x' begins with '#'"),
        ],
        ids=["space", "newline", "arrow", "empty", "hash"],
    )
    def test_type_refuses_letters_rule_text_cannot_spell(self, letter, needle):
        images = (np.array([0, 1], dtype=np.uint8), np.array([1, 1], dtype=np.uint8))
        with pytest.raises(subst.RuleError, match="^letter ") as refused:
            subst.SubstitutionSystem(("z", letter), images)
        assert needle in str(refused.value) and refused.value.line is None

    def test_type_refuses_an_alphabet_past_uint8_labels(self):
        for count in (257, 300):
            letters = tuple(f"x{i}" for i in range(count))
            with pytest.raises(subst.RuleError, match=f"alphabet has {count} letters; .* at most 256"):
                subst.SubstitutionSystem(letters, np.zeros((count, 2), dtype=np.int64))

    def test_a_256_letter_rule_grows_label_255(self):
        # Letter i becomes x255 xi, so the seed x254|x255 keeps both cells.
        letters = tuple(f"x{i}" for i in range(256))
        images = np.stack([np.full(256, 255), np.arange(256)], axis=1)
        system = subst.SubstitutionSystem(letters, images)
        assert subst.parse_rules(subst.render_rules(system)) == system
        window = subst.fixed_point_window(system, subst.word_seed(system, "x254", "x255"), 2)
        assert window.labels.dtype == np.uint8
        assert window.labels.tolist() == [255, 255, 255, 254, 255, 255, 255, 255]
        assert system.alphabet[window.labels[3]] == "x254"


# ---------------------------------------------------------------------------
# System algebra
# ---------------------------------------------------------------------------


@st.composite
def _primitive_rules(draw):
    """A word or block rule with 1-6 letters and factor 2 or 3, primitive by construction.

    The first cell of letter l's image is l + 1 (mod L) and the last cell of
    letter 0's is 0: a cycle through every letter with a loop at the first
    makes some power of the count matrix positive.
    """
    letters = draw(st.integers(min_value=1, max_value=6))
    factor = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("word", "block")))
    shape = (factor,) if kind == "word" else (factor, factor)
    size = factor ** len(shape)
    images = []
    for letter in range(letters):
        cells = draw(st.lists(st.integers(0, letters - 1), min_size=size, max_size=size))
        cells[0] = (letter + 1) % letters
        if letter == 0:
            cells[-1] = 0
        images.append(np.array(cells, dtype=np.uint8).reshape(shape))
    system = subst.SubstitutionSystem(tuple("abcdef"[:letters]), tuple(images))
    assert system.is_primitive()
    return system


class TestSystemAlgebra:
    def test_power_squares_the_rule(self):
        squared = _doubling().power(2)
        assert squared.factor == 4
        assert squared.images[0].tolist() == [0, 1, 0, 0]
        assert squared.images[1].tolist() == [0, 1, 0, 1]

    def test_power_one_is_identity(self):
        system = _doubling()
        assert system.power(1) == system
        with pytest.raises(ValueError):
            system.power(0)

    @pytest.mark.parametrize("name", ["word", "block", "chair"])
    def test_power_is_repeated_substitution_of_every_letter(self, name):
        system = {
            "word": _doubling,
            "block": lambda: subst.parse_rules(_BLOCK_TEXT),
            "chair": lambda: subst.bundled_system("chair"),
        }[name]()
        cubed = system.power(3)
        assert cubed.images.shape == (len(system.alphabet),) + (system.factor**3,) * system.dim
        for letter, image in enumerate(cubed.images):
            cell = subst.PatternWindow((0,) * system.dim, np.full((1,) * system.dim, letter, dtype=np.uint8))
            assert np.array_equal(image, _substituted(system, cell, 3).labels)

    def test_images_are_one_read_only_uint8_array(self):
        parts = (np.array([0, 1], dtype=np.int64), np.array([0, 0], dtype=np.int64))
        system = subst.SubstitutionSystem(("a", "b"), parts)
        assert isinstance(system.images, np.ndarray) and system.images.dtype == np.uint8
        assert system.images.tolist() == [[0, 1], [0, 0]]
        assert not system.images.flags.writeable
        with pytest.raises(ValueError):
            system.images[0, 0] = 1
        assert system == _doubling() and system.power(2).images.dtype == np.uint8
        block = subst.parse_rules(_BLOCK_TEXT)
        assert block.images.shape == (2, 2, 2) and not block.images.flags.writeable

    def test_count_matrix(self):
        # Column j counts the letters inside the image of letter j.
        assert _doubling().count_matrix() == [[1, 2], [1, 0]]

    def test_primitivity(self):
        assert _doubling().is_primitive()
        assert subst.bundled_system("chair").is_primitive()
        split = subst.parse_rules(
            "kind = word\nfactor = 2\nalphabet = a b\na -> a a\nb -> b b\n"
        )
        assert not split.is_primitive()
        with pytest.raises(ValueError, match="primitive"):
            subst.natural_frequencies(split)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_primitivity_matches_the_definition(self, k):
        # Every 0/1 support of a k-letter count matrix: each image is nonempty,
        # so every column has a one.  The definition walks the powers of the
        # support until they repeat and asks whether one of them is positive.
        columns = [col for col in itertools.product((0, 1), repeat=k) if any(col)]
        for support in itertools.product(columns, repeat=k):
            # Image j repeats the letters of column j, so it holds exactly those.
            images = tuple(np.resize(np.flatnonzero(col), max(k, 2)).astype(np.uint8) for col in support)
            system = subst.SubstitutionSystem(tuple("abc"[:k]), images)
            adj = np.array(support, dtype=bool).T
            assert np.array_equal(np.array(system.count_matrix()) > 0, adj)
            seen, power, positive = set(), adj, False
            while power.tobytes() not in seen and not positive:
                seen.add(power.tobytes())
                positive = bool(power.all())
                power = power @ adj
            assert system.is_primitive() == positive, support

    def test_natural_frequencies(self):
        assert subst.natural_frequencies(_doubling()) == {
            "a": Fraction(2, 3),
            "b": Fraction(1, 3),
        }
        chair = subst.bundled_system("chair")
        assert subst.natural_frequencies(chair) == {
            letter: Fraction(1, 4) for letter in chair.alphabet
        }

    def test_single_letter_frequencies(self):
        solo = subst.parse_rules("kind = word\nfactor = 2\nalphabet = a\na -> a a\n")
        assert subst.natural_frequencies(solo) == {"a": Fraction(1)}

    @settings(max_examples=100, deadline=None)
    @given(_primitive_rules())
    def test_frequencies_are_the_normalised_perron_vector(self, system):
        nu = list(subst.natural_frequencies(system).values())
        assert all(v > 0 for v in nu)
        assert sum(nu) == 1
        cells = system.factor**system.dim
        for row, v in zip(system.count_matrix(), nu):
            assert sum(count * w for count, w in zip(row, nu)) == cells * v

    def test_validation_rejects_bad_shapes(self):
        # The shape is the kind: one letter's 2 x 2 image is a block rule.
        assert subst.SubstitutionSystem(("a",), (np.zeros((2, 2), dtype=np.uint8),)).kind == "block"
        with pytest.raises(subst.RuleError, match="unknown letter index"):
            subst.SubstitutionSystem(("a",), (np.array([0, 1], dtype=np.uint8),))
        # Images of different lengths, one image too few, float labels, factor
        # 1, blocks that are not square, three-dimensional images, one bare image.
        ragged = (np.array([0, 1], dtype=np.uint8), np.array([0, 1, 1], dtype=np.uint8))
        bad = (ragged, ragged[:1], (np.zeros(2), np.zeros(2)))
        shapes = ((2, 1), (2, 2, 3), (2, 2, 2, 2), (2,), ())
        bad += tuple(np.zeros(shape, dtype=np.uint8) for shape in shapes)
        for images in bad:
            with pytest.raises(subst.RuleError):
                subst.SubstitutionSystem(("a", "b"), images)

    @pytest.mark.parametrize("name", ["period_doubling", "chair", "factor 4 block"])
    def test_factor_dim_and_kind_are_read_off_the_images(self, name):
        # A system built from its image stack alone reports what its rule text declares.
        if name in ("period_doubling", "chair"):
            text = resources.files("limitper").joinpath(f"rules/{name}.sub").read_text(encoding="utf-8")
        else:
            text = _FACTOR_4_BLOCK_TEXT
        headers = (line for line in text.splitlines() if line.startswith(("kind", "factor")))
        declared = dict(line.split(" = ") for line in headers)
        parsed = subst.parse_rules(text)
        system = subst.SubstitutionSystem(parsed.alphabet, np.array(parsed.images))
        dim = {"word": 1, "block": 2}[declared["kind"]]
        assert (system.kind, system.factor) == (declared["kind"], int(declared["factor"]))
        assert system.dim == dim
        assert system.images.shape == (len(system.alphabet),) + (system.factor,) * dim
        assert system == parsed and subst.parse_rules(subst.render_rules(system)) == system


# ---------------------------------------------------------------------------
# Patterns, seeds and fixed points
# ---------------------------------------------------------------------------


class TestPatterns:
    def test_window_indexing(self):
        window = subst.PatternWindow((-1, -1), np.array([[0, 1], [2, 3]], dtype=np.uint8))
        assert window.extent == (2, 2)
        # Entry [iy, ix] is the cell (origin[0] + ix, origin[1] + iy).
        x0, y0 = window.origin
        cells = ((-1, -1), (0, -1), (-1, 0), (0, 0))
        assert [window.labels[y - y0, x - x0] for x, y in cells] == [0, 1, 2, 3]

    def test_extent_runs_along_the_coordinates(self):
        chain = subst.PatternWindow((-3,), np.zeros(7, dtype=np.uint8))
        assert chain.extent == (7,)
        # Three rows (y) of five cells (x): the extent is (nx, ny).
        plane = subst.PatternWindow((-2, -1), np.zeros((3, 5), dtype=np.uint8))
        assert plane.extent == (5, 3)

    def test_substitute_positions_images(self):
        system = _doubling()
        patch = subst.word_seed(system, "a", "b")
        image = _substitute(system, patch)
        assert image.origin == (-2,)
        assert image.labels.tolist() == [0, 1, 0, 0]

    def test_substitute_rejects_foreign_labels(self):
        patch = subst.PatternWindow((0,), np.array([5], dtype=np.uint8))
        with pytest.raises(ValueError, match="outside the system alphabet"):
            _substitute(_doubling(), patch)

    def test_substitute_empty_patch(self):
        patch = subst.PatternWindow((3,), np.array([], dtype=np.uint8))
        image = _substitute(_doubling(), patch)
        assert image.origin == (6,)
        assert image.labels.size == 0

    def test_dimension_mismatch(self):
        patch = subst.PatternWindow((0, 0), np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            _substitute(_doubling(), patch)
        with pytest.raises(ValueError):
            subst.word_seed(subst.bundled_system("chair"), "0", "0")
        with pytest.raises(ValueError):
            subst.block_seed(_doubling(), (("a", "a"), ("a", "a")))

    def test_seed_legality_for_the_doubling_rule(self):
        base = _doubling()
        squared = base.power(2)
        aa = subst.word_seed(base, "a", "a")
        # a|a only survives the squared rule: one pass sends the left a to
        # ab, putting b at position -1.
        assert not subst.check_seed_legal(base, aa)
        assert subst.check_seed_legal(squared, subst.word_seed(squared, "a", "a"))
        assert subst.check_seed_legal(squared, subst.word_seed(squared, "b", "a"))
        assert not subst.check_seed_legal(squared, subst.word_seed(squared, "b", "b"))
        assert not subst.check_seed_legal(squared, subst.word_seed(squared, "a", "b"))

    def test_chair_legal_seed_census(self):
        system = subst.bundled_system("chair")
        legal = set()
        for cells in itertools.product(system.alphabet, repeat=4):
            tl, tr, bl, br = cells
            seed = subst.block_seed(system, ((tl, tr), (bl, br)))
            if subst.check_seed_legal(system, seed):
                legal.add(cells)
        assert legal == {
            (tl, tr, bl, br)
            for tl in "13"
            for tr in "02"
            for bl in "02"
            for br in "13"
        }
        assert ("3", "0", "2", "1") in legal

    def test_fixed_point_rejects_illegal_seed(self):
        squared = _doubling().power(2)
        with pytest.raises(ValueError, match="not legal"):
            subst.fixed_point_window(squared, subst.word_seed(squared, "b", "b"), 1)
        with pytest.raises(ValueError):
            subst.fixed_point_window(squared, subst.word_seed(squared, "a", "a"), -1)

    def test_fixed_point_windows_nest(self):
        squared = _doubling().power(2)
        seed = subst.word_seed(squared, "a", "a")
        windows = [subst.fixed_point_window(squared, seed, n) for n in range(5)]
        for small, large in zip(windows, windows[1:]):
            half = small.labels.shape[0] // 2
            assert _cut(large, (-half,), (2 * half,)) == small
            assert _substitute(squared, small) == large

    def test_fixed_point_windows_nest_in_2d(self):
        system = subst.bundled_system("chair")
        seed = subst.block_seed(system, (("3", "0"), ("2", "1")))
        windows = [subst.fixed_point_window(system, seed, n) for n in range(6)]
        for small, large in zip(windows, windows[1:]):
            half = small.labels.shape[0] // 2
            assert _cut(large, (-half, -half), (2 * half, 2 * half)) == small
            assert _substitute(system, small) == large

    def test_window_frequencies_approach_natural_ones(self):
        squared = _doubling().power(2)
        seed = subst.word_seed(squared, "a", "a")
        window = subst.fixed_point_window(squared, seed, 10)
        counts = np.bincount(window.labels, minlength=2)
        freqs = counts / window.labels.size
        assert abs(freqs[0] - 2 / 3) <= 0.01
        assert abs(freqs[1] - 1 / 3) <= 0.01

    def test_block_window_frequencies(self):
        system = subst.bundled_system("chair")
        seed = subst.block_seed(system, (("3", "0"), ("2", "1")))
        window = subst.fixed_point_window(system, seed, 10)
        counts = np.bincount(window.labels.ravel(), minlength=4)
        freqs = counts / window.labels.size
        assert np.all(np.abs(freqs - 0.25) <= 0.01)


# ---------------------------------------------------------------------------
# Seed legality, cell by cell, against one literal pass
# ---------------------------------------------------------------------------


def _all_seeds(system):
    """Every seed over the alphabet, legal or not, in alphabet order."""
    letters = system.alphabet
    if system.dim == 1:
        for left, right in itertools.product(letters, repeat=2):
            yield subst.word_seed(system, left, right)
    else:
        for tl, tr, bl, br in itertools.product(letters, repeat=4):
            yield subst.block_seed(system, ((tl, tr), (bl, br)))


def _reproduces(base, exponent, seed):
    """``exponent`` passes of ``_substitute`` under the base rule give back the seed.

    That is legality under ``base.power(exponent)`` taken literally, as one
    pass of the power replaces each cell by its ``exponent``-fold image; the
    base rule's passes keep the arrays small.
    """
    central = _cut(_substituted(base, seed, exponent), (-1,) * seed.dim, (2,) * seed.dim)
    return central == seed


@st.composite
def _rules(draw):
    """A word or block rule with 1-4 letters and factor 2-4."""
    letters = draw(st.integers(min_value=1, max_value=4))
    factor = draw(st.integers(min_value=2, max_value=4))
    kind = draw(st.sampled_from(("word", "block")))
    shape = (factor,) if kind == "word" else (factor, factor)
    size = factor ** len(shape)
    cells = st.lists(st.integers(0, letters - 1), min_size=size, max_size=size)
    images = tuple(np.array(draw(cells), dtype=np.uint8).reshape(shape) for _ in range(letters))
    return subst.SubstitutionSystem(tuple("abcd"[:letters]), images)


class TestSeedLegality:
    @settings(max_examples=150, deadline=None)
    @given(_rules(), st.integers(min_value=1, max_value=3))
    def test_corner_rule_matches_the_enumeration(self, base, exponent):
        system = base.power(exponent)
        for letter, image in enumerate(system.images):
            cell = subst.PatternWindow((0,) * base.dim, np.full((1,) * base.dim, letter, np.uint8))
            assert np.array_equal(_substituted(base, cell, exponent).labels, image)
        seeds = list(_all_seeds(system))
        legal = [_reproduces(base, exponent, seed) for seed in seeds]
        assert [subst.check_seed_legal(system, seed) for seed in seeds] == legal
        # A window never equals None, so this also holds when neither finds a seed.
        assert subst.first_legal_seed(system) == next(
            (seed for seed, ok in zip(seeds, legal) if ok), None
        )
        # The base rule's corner maps, iterated, give the same answers unbuilt.
        assert [subst.check_seed_legal(base, seed, exponent) for seed in seeds] == legal
        assert subst.first_legal_seed(base, exponent) == subst.first_legal_seed(system)

    def test_first_legal_seed_of_the_built_ins(self):
        squared = _doubling().power(2)
        assert subst.first_legal_seed(_doubling()) is None
        assert subst.first_legal_seed(squared) == subst.word_seed(squared, "a", "a")
        chair = subst.bundled_system("chair")
        assert subst.first_legal_seed(chair) == subst.block_seed(chair, (("1", "0"), ("0", "1")))

    def test_seeds_that_do_not_fit_the_system(self):
        chair = subst.bundled_system("chair")
        with pytest.raises(ValueError, match="2-cell-per-axis"):
            subst.check_seed_legal(chair, subst.word_seed(_doubling(), "a", "a"))
        with pytest.raises(ValueError, match="2-cell-per-axis"):
            subst.check_seed_legal(_doubling(), subst.block_seed(chair, (("1", "0"), ("0", "1"))))
        foreign = subst.PatternWindow((-1,), np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ValueError, match="outside the system alphabet"):
            subst.check_seed_legal(_doubling(), foreign)
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            subst.check_seed_legal(_doubling(), subst.word_seed(_doubling(), "a", "a"), 0)
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            subst.first_legal_seed(chair, 0)


# ---------------------------------------------------------------------------
# Centred windows grown only where they reach the cube
# ---------------------------------------------------------------------------

_TRIPLING_WORD = """\
kind = word
factor = 3
alphabet = a b
a -> a b a
b -> b b a
"""

_TRIPLING_BLOCK = """\
kind = block
factor = 3
alphabet = p q
p ->
  p q p
  q p q
  p q p
q ->
  q p q
  p p p
  q p q
"""


def _centred_cases():
    chair = subst.bundled_system("chair")
    squared = _doubling().power(2)
    word = subst.parse_rules(_TRIPLING_WORD)
    block = subst.parse_rules(_TRIPLING_BLOCK)
    cases = [
        (squared, subst.word_seed(squared, "a", "a")),
        (squared, subst.word_seed(squared, "b", "a")),
        (word, subst.word_seed(word, "a", "a")),
        (block, subst.block_seed(block, (("p", "q"), ("q", "p")))),
    ]
    for tl, tr, bl, br in itertools.product("13", "02", "02", "13"):
        cases.append((chair, subst.block_seed(chair, ((tl, tr), (bl, br)))))
    return cases


@st.composite
def _half_widths(draw, factor, dim):
    # b^n - 1, b^n and b^n + 1 are where the number of passes changes.
    top = {1: {2: 10, 3: 6, 4: 5}, 2: {2: 7, 3: 4}}[dim][factor]
    edge = st.builds(
        lambda n, step: max(0, factor**n + step),
        st.integers(min_value=0, max_value=top),
        st.sampled_from((-1, 0, 1)),
    )
    return draw(st.one_of(edge, st.integers(min_value=0, max_value=factor**top)))


def _fixed_point_cases():
    """(system, seed, most passes): both built-ins as shipped, and two factor-3 rules."""
    doubled = subst.bundled_system("period_doubling").power(2)
    chair = subst.bundled_system("chair")
    word = subst.parse_rules(_TRIPLING_WORD)
    block = subst.parse_rules(_TRIPLING_BLOCK)
    return [
        (doubled, subst.word_seed(doubled, "a", "a"), 6),
        (doubled, subst.word_seed(doubled, "b", "a"), 6),
        (chair, subst.block_seed(chair, (("3", "0"), ("2", "1"))), 6),
        (chair, subst.block_seed(chair, (("1", "2"), ("0", "3"))), 6),
        (word, subst.word_seed(word, "a", "a"), 6),
        (block, subst.block_seed(block, (("p", "q"), ("q", "p"))), 4),
    ]


class TestFixedPointWindow:
    @pytest.mark.parametrize("case", range(len(_fixed_point_cases())))
    def test_is_iterated_substitution(self, case):
        system, seed, most = _fixed_point_cases()[case]
        for iterations in range(most + 1):
            window = subst.fixed_point_window(system, seed, iterations)
            reach = system.factor**iterations
            assert window.origin == (-reach,) * system.dim
            assert window.extent == (2 * reach,) * system.dim
            assert window == _substituted(system, seed, iterations)


class TestCentredWindow:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_the_cut_of_the_whole_grown_window(self, data):
        system, seed = data.draw(st.sampled_from(_centred_cases()))
        half = data.draw(_half_widths(system.factor, system.dim))
        iterations = 0
        while system.factor**iterations < half + 1:
            iterations += 1
        cube = ((-half,) * system.dim, (2 * half + 1,) * system.dim)
        expected = _cut(_substituted(system, seed, iterations), *cube)
        window = subst.centred_window(system, seed, half)
        assert window == expected
        base = window.labels if window.labels.base is None else window.labels.base
        assert base.size <= (2 * half + 1 + 2 * system.factor) ** system.dim

    def test_zero_half_width_is_the_origin_cell(self):
        chair = subst.bundled_system("chair")
        seed = subst.block_seed(chair, (("3", "0"), ("2", "1")))
        window = subst.centred_window(chair, seed, 0)
        assert window.origin == (0, 0)
        assert window.labels.tolist() == [[seed.labels[1, 1]]]

    def test_errors(self):
        squared = _doubling().power(2)
        with pytest.raises(ValueError, match="negative half-width"):
            subst.centred_window(squared, subst.word_seed(squared, "a", "a"), -1)
        with pytest.raises(ValueError, match="not legal"):
            subst.centred_window(squared, subst.word_seed(squared, "b", "b"), 4)


# ---------------------------------------------------------------------------
# Growth kernel
# ---------------------------------------------------------------------------


def _expand_by_offsets(images, labels):
    """The growth oracle: one fancy-index pass per image offset, each written with stride b."""
    b, d = images.shape[-1], images.ndim - 1
    out = np.empty(labels.shape[:-d] + tuple(n * b for n in labels.shape[-d:]), dtype=images.dtype)
    for offset in np.ndindex(*(b,) * d):
        out[(..., *(slice(o, None, b) for o in offset))] = images[(labels, *offset)]
    return out


@st.composite
def _expansions(draw):
    """Images of factor 2-5 in one or two dimensions, and labels for them.

    The labels carry up to two stacked leading axes, as ``power`` passes
    them, and are cut from a larger array by a start and a step per cell
    axis, as ``_grow``'s trimmed (and here also strided) slices are.
    """
    d = draw(st.sampled_from((1, 2)))
    b = draw(st.integers(min_value=2, max_value=5))
    letters = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.integers(0, letters, (letters,) + (b,) * d, dtype=np.uint8)
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    cells = draw(st.lists(st.integers(0, 70 if d == 1 else 14), min_size=d, max_size=d))
    starts = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    steps = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    whole = rng.integers(0, letters, lead + tuple(s + n * k for s, n, k in zip(starts, cells, steps)))
    cut = tuple(slice(s, s + n * k, k) for s, n, k in zip(starts, cells, steps))
    return images, whole.astype(np.uint8)[(...,) + cut]


class TestExpandLabels:
    """``_expand_labels`` against the per-offset loop it replaced, cell for cell."""

    @settings(max_examples=150, deadline=None)
    @given(_expansions(), st.one_of(st.integers(1, 40), st.just(subst._BAND_CELLS)))
    def test_matches_the_offset_loop(self, case, band):
        images, labels = case
        with mock.patch.object(subst, "_BAND_CELLS", band):
            got = subst._expand_labels(images, labels)
        expected = _expand_by_offsets(images, labels)
        assert got.dtype == np.uint8 and got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("text", [_DOUBLING_TEXT, _BLOCK_TEXT, _TRIPLING_WORD, _TRIPLING_BLOCK])
    def test_power_matches_the_offset_loop(self, text):
        system = subst.parse_rules(text)
        images = system.images
        for exponent in range(1, 5):
            assert np.array_equal(system.power(exponent).images, images)
            images = _expand_by_offsets(system.images, images)
