import inspect
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gmotzkin
from gmotzkin import bijection, enumeration, paths, render
from gmotzkin.bijection import sigma, sigma_inv
from gmotzkin.paths import (
    RISE,
    Decomposition,
    PathError,
    _check_steps,
    _heights,
    _is_primitive,
    _max_strip,
    decompose_forward,
    decompose_inverse,
    first_return_blocks,
    parse_pattern,
    parse_word,
)

# A length-25 G-Motzkin path (29 steps, four of them vertical drops) that
# avoids uvv but not uvu.
SHOWCASE_PATH = "huvuuudhhuvuvddhuuuhddudduuvd"

# every valid path of length at most 5, reused as a sample pool
ALL_SMALL = [w for n in range(6) for w in enumeration.generate(n)]


def first_return_split(word: str) -> tuple[str, str]:
    """Split off the shortest nonempty leading block that ends at height 0.

    The prefix is a single "h", or a block starting with u that ends at its
    first return to the axis (any v run finishing the descent included).
    A character outside udhv anywhere, or a prefix that dips below the axis
    or never returns to it, raises PathError; the remainder's heights are
    not checked.  The reference for ``first_return_blocks``.
    """
    if not word:
        raise PathError("cannot split an empty path")
    _check_steps(word)
    if word[0] == "h":
        return "h", word[1:]
    h = 0
    for i, ch in enumerate(word):
        h += RISE[ch]
        if h <= 0:
            if h:
                raise PathError(f"height -1 after step {i + 1}")
            return word[: i + 1], word[i + 1 :]
    raise PathError("path never returns to height 0")


class TestParse:
    def test_simple(self):
        assert parse_word("ud") == "ud"
        assert _heights("ud") == [0, 1, 0]

    def test_whitespace_ignored(self):
        assert parse_word(" u u\nd v ") == "uudv"

    def test_negative_height(self):
        with pytest.raises(PathError, match="height -1 after step 3"):
            parse_word("uvv")

    def test_illegal_character(self):
        with pytest.raises(PathError, match="illegal character 'x' at position 1"):
            parse_word("uxv")

    def test_nonzero_final_height(self):
        with pytest.raises(PathError, match="final height 2"):
            parse_word("uu")

    def test_showcase_path(self):
        word = parse_word(SHOWCASE_PATH)
        assert word == SHOWCASE_PATH
        assert len(word) - word.count("v") == 25  # its x-length
        assert "uvv" not in word
        assert "uvu" in word

    def test_pattern_words(self):
        assert parse_pattern("uvv") == "uvv"
        with pytest.raises(PathError):
            parse_pattern("")
        with pytest.raises(PathError):
            parse_pattern("uq")
        with pytest.raises(PathError, match=r"^illegal character 'q' at position 1$"):
            parse_pattern("u q")
        with pytest.raises(PathError, match=r"^empty pattern$"):
            parse_pattern(" \t")

    @pytest.mark.parametrize(
        "entry",
        [
            parse_word,
            parse_pattern,
            first_return_blocks,
            sigma,
            sigma_inv,
            decompose_forward,
            decompose_inverse,
            lambda w: list(enumeration.generate(2, enumeration.Constraints(avoid=(w,)))),
        ],
        ids=[
            "parse_word", "parse_pattern", "first_return_blocks", "sigma", "sigma_inv",
            "decompose_forward", "decompose_inverse", "Constraints",
        ],
    )
    @pytest.mark.parametrize("word", [None, 123, ["u", "d"], b"ud"], ids=repr)
    def test_rejects_a_word_that_is_not_a_str(self, entry, word):
        with pytest.raises(PathError) as err:
            entry(word)
        assert str(err.value) == f"a word must be a str, not {type(word).__name__}"

    @given(st.sampled_from(ALL_SMALL))
    def test_parse_is_identity_on_valid_words(self, word):
        assert parse_word(word) == word

    @given(st.sampled_from(ALL_SMALL))
    def test_step_balance(self, word):
        assert word.count("u") == word.count("d") + word.count("v")


# Every public function of paths, render and bijection, and every exported
# one, that takes a word or a text first.
WORD_ENTRY_POINTS = {
    name: value
    for module in (paths, render, bijection, gmotzkin)
    for name, value in vars(module).items()
    if not name.startswith("_")
    and inspect.isfunction(value)
    and next(iter(inspect.signature(value).parameters), None) in ("word", "text")
}


def test_word_entry_points_are_found():
    assert {
        "parse_word", "parse_pattern", "first_return_blocks", "sigma", "decompose_forward",
        "render_ascii", "render_svg",
    } <= set(WORD_ENTRY_POINTS)


@pytest.mark.parametrize("name", sorted(WORD_ENTRY_POINTS))
@pytest.mark.parametrize("word", ["ux", 5], ids=repr)
def test_exported_word_entry_point_rejects_a_bad_word(name, word):
    with pytest.raises(PathError):
        WORD_ENTRY_POINTS[name](word)


class StrSubclass(str):
    """A str that is no plain str, so the entry checks' one-test happy path
    sends it to the checks that name the fault."""


@pytest.mark.parametrize("name", sorted(WORD_ENTRY_POINTS))
@pytest.mark.parametrize(
    "word", ["", "h", "uvh", "uuvdhv", "uvuv", "uvv", "uudv", " ud", "ux", "du", "uu"]
)
def test_a_str_subclass_gives_what_a_str_gives(name, word):
    entry = WORD_ENTRY_POINTS[name]

    def outcome(w):
        try:
            return "returns", entry(w)
        except PathError as err:
            return "raises", str(err)

    assert outcome(StrSubclass(word)) == outcome(word)


class TestStructure:
    def test_is_primitive(self):
        assert _is_primitive("uv")
        assert _is_primitive("ud")
        assert not _is_primitive("h")
        assert not _is_primitive("uvuv")
        assert not _is_primitive("")

    def test_first_return_split(self):
        assert first_return_split("uvhh") == ("uv", "hh")
        assert first_return_split("hud") == ("h", "ud")
        assert first_return_split("uudvud") == ("uudv", "ud")

    @pytest.mark.parametrize(
        "word,message",
        [
            ("x", "illegal character 'x' at position 0"),
            ("hx", "illegal character 'x' at position 1"),
            ("du", "height -1 after step 1"),
            ("uu", "path never returns to height 0"),
        ],
    )
    def test_first_return_split_rejects(self, word, message):
        with pytest.raises(PathError) as err:
            first_return_split(word)
        assert str(err.value) == message

    def test_first_return_split_leaves_the_remainder_unchecked(self):
        assert first_return_split("hd") == ("h", "d")

    def test_first_return_blocks(self):
        assert first_return_blocks("huvuudvudh") == ["h", "uv", "uudv", "ud", "h"]
        assert first_return_blocks("") == []

    def test_first_return_blocks_repeat_the_first_return_split(self):
        for word in ALL_SMALL:
            blocks, rest = [], word
            while rest:
                prefix, rest = first_return_split(rest)
                blocks.append(prefix)
            assert first_return_blocks(word) == blocks

    @pytest.mark.parametrize("n", range(7))
    def test_first_return_blocks_checks_as_parse_word_does(self, n):
        for steps in product("udhvx", repeat=n):
            word = "".join(steps)
            try:
                expected = parse_word(word)
            except PathError as err:
                with pytest.raises(PathError) as got:
                    first_return_blocks(word)
                assert str(got.value) == str(err)
            else:
                assert "".join(first_return_blocks(word)) == expected

    @given(st.sampled_from([w for w in ALL_SMALL if w]))
    def test_first_return_prefix_is_primitive_or_h(self, word):
        prefix, rest = first_return_split(word)
        assert prefix + rest == word
        assert prefix == "h" or _is_primitive(prefix)

    def test_max_elevation_strip(self):
        assert _max_strip("uudv", "v") == (1, "ud")
        assert _max_strip("uuvuudvv", "v") == (1, "uvuudv")
        # decompose_forward dispatches uv before the strip, which would empty it
        assert _max_strip("uv", "v") == (1, "")

    def test_max_ud_strip(self):
        assert _max_strip("uuvd", "d") == (1, "uv")
        assert _max_strip("ud", "d") == (1, "")
        assert _max_strip("uhv", "d") == (0, "uhv")

    @given(st.sampled_from([w for w in ALL_SMALL if _is_primitive(w)]))
    def test_strip_maximality(self, word):
        i, core = _max_strip(word, "v")
        assert "u" * i + core + "v" * i == word
        # one more layer is impossible: a run is exhausted or the core dips
        deeper = i + 1
        hs = _heights(word)
        can_peel = (
            word[:deeper] == "u" * deeper
            and word[len(word) - deeper :] == "v" * deeper
            and len(word) >= 2 * deeper
            and all(h >= deeper for h in hs[deeper : len(word) - deeper + 1])
        )
        assert not can_peel


def reference_strip(word: str, close: str) -> tuple[int, str]:
    """The strip by its definition: the largest i with word ==
    "u"*i + core + close*i, core a valid path at elevation i, searched
    downward from the largest i the word's length allows."""
    for i in range(len(word) // 2, -1, -1):
        core = word[i : len(word) - i]
        if word != "u" * i + core + close * i:
            continue
        try:
            parse_word(core)  # a core valid at elevation i is a path on its own
        except PathError:
            continue
        return i, core
    raise AssertionError(f"no strip of {word}")


@pytest.mark.parametrize("n", range(9))
def test_strips_match_their_definition(n):
    for word in enumeration.generate(n):
        if not _is_primitive(word):
            continue
        assert _max_strip(word, "v") == reference_strip(word, "v"), word
        if word.endswith("d"):
            assert _max_strip(word, "d") == reference_strip(word, "d"), word


@pytest.mark.parametrize("fn", [decompose_forward, decompose_inverse])
@pytest.mark.parametrize(
    "word,message",
    [
        ("x", "illegal character 'x' at position 0"),
        ("hx", "illegal character 'x' at position 1"),
        ("hd", "height -1 after step 2"),
        ("uvd", "height -1 after step 3"),
    ],
)
def test_decompositions_reject_words_that_are_not_paths(fn, word, message):
    with pytest.raises(PathError) as err:
        fn(word)
    assert str(err.value) == message


class TestDecomposeForward:
    def test_examples(self):
        assert decompose_forward("uvh") == Decomposition("Case2", 0, ("",))
        assert decompose_forward("uudv") == Decomposition("Case4", 1, ("",))
        assert decompose_forward("uhv") == Decomposition("Case6", 1, ("h", ""))

    def test_base_cases(self):
        for word in ("", "h", "uv"):
            assert decompose_forward(word).case == "Base"

    def test_case3_takes_first_primitive_component(self):
        dec = decompose_forward("uvudud")
        assert dec == Decomposition("Case3", 0, ("ud", "ud"))

    def test_rejects_uvv(self):
        with pytest.raises(PathError):
            decompose_forward("uuvv")

    @pytest.mark.parametrize("word", ["du", "vu", "dudu", "vhu"])
    def test_rejects_a_first_block_below_the_axis(self, word):
        with pytest.raises(PathError, match="height -1 after step 1"):
            decompose_forward(word)

    @given(st.sampled_from([w for w in ALL_SMALL if "uvv" not in w]))
    def test_reassembly(self, word):
        dec = decompose_forward(word)
        assert dec.reassemble() == word

    def test_record_repr(self):
        # verify prints records in its failure details
        assert repr(decompose_forward("uhvud")) == (
            "Decomposition(case='Case6', elevation=1, parts=('h', 'ud'))"
        )

    def test_record_is_immutable(self):
        dec = decompose_forward("uhv")
        with pytest.raises(AttributeError):
            dec.case = "Base"
        assert dec == Decomposition(case="Case6", elevation=1, parts=("h", ""))


@pytest.mark.parametrize(
    "record,message",
    [
        (Decomposition("Case4", 1, ("", "junk")), "case Case4 takes 1 part(s), got 2"),
        (Decomposition("CaseV", 1, ("ud",)), "case CaseV takes 2 part(s), got 1"),
        (Decomposition("Case7", 0, ("",)), "unknown case 'Case7'"),
        (Decomposition("Base", 0, (5,)), "parts must be str, not (5,)"),
        (Decomposition("Case3", 0, ("ud", None)), "parts must be str, not ('ud', None)"),
        (Decomposition("Case4", "x", ("h",)), "elevation must be an int >= 0, not 'x'"),
        (Decomposition("Case6", True, ("ud", "")), "elevation must be an int >= 0, not True"),
        (Decomposition("Case4", -1, ("h",)), "elevation must be an int >= 0, not -1"),
        (Decomposition("Base", 3, ("h",)), "case Base peels no layer, so its elevation must be 0, not 3"),
        (Decomposition("Case1", 2, ("uv",)), "case Case1 peels no layer, so its elevation must be 0, not 2"),
        (Decomposition("Case6", 0, ("h", "uv")), "case Case6 peels a layer, so its elevation must be >= 1, not 0"),
        (Decomposition("CaseIV", 0, ("h", "")), "case CaseIV peels a layer, so its elevation must be >= 1, not 0"),
        (Decomposition("CaseV", 0, ("h", "")), "case CaseV peels a layer, so its elevation must be >= 1, not 0"),
        (Decomposition("Case3", 0, "ud"), "parts must be a tuple, not 'ud'"),
        (Decomposition("Base", 0, 5), "parts must be a tuple, not 5"),
        (Decomposition(["Base"], 0, ("h",)), "unknown case ['Base']"),
        # every case that peels no layer, at elevation 1
        *(
            (
                Decomposition(case, 1, ("",) * count),
                f"case {case} peels no layer, so its elevation must be 0, not 1",
            )
            for case, count in [
                ("Case1", 1), ("Case2", 1), ("Case3", 2), ("CaseI", 1), ("CaseII", 1), ("CaseIII", 2),
            ]
        ),
    ],
)
def test_reassemble_refuses_a_record_its_case_does_not_take(record, message):
    with pytest.raises(ValueError) as err:
        record.reassemble()
    assert str(err.value) == message


class TestDecomposeInverse:
    def test_examples(self):
        assert decompose_inverse("uudv") == Decomposition("CaseIII", 0, ("ud", ""))
        assert decompose_inverse("uuvd") == Decomposition("CaseIV", 1, ("uv", ""))
        assert decompose_inverse("huv") == Decomposition("CaseI", 0, ("uv",))

    def test_case_v(self):
        # a primitive core ending in v with no uv or uuvv suffix
        assert decompose_inverse("uuudvd") == Decomposition("CaseV", 1, ("ud", ""))

    def test_rejects_uvu(self):
        with pytest.raises(PathError):
            decompose_inverse("uvuv")

    @pytest.mark.parametrize("word", ["du", "vu", "dudu", "vhu"])
    def test_rejects_a_first_block_below_the_axis(self, word):
        with pytest.raises(PathError, match="height -1 after step 1"):
            decompose_inverse(word)

    @given(st.sampled_from([w for w in ALL_SMALL if "uvu" not in w]))
    def test_reassembly(self, word):
        dec = decompose_inverse(word)
        assert dec.reassemble() == word
