from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmotzkin import enumeration
from gmotzkin.paths import (
    Decomposition,
    PathError,
    contains_pattern,
    decompose_forward,
    decompose_inverse,
    first_return_blocks,
    first_return_split,
    has_h_on_axis,
    heights,
    is_primitive,
    max_elevation_strip,
    max_ud_strip,
    parse_pattern,
    parse_word,
    weight_exponents,
    x_length,
)
from gmotzkin.samples import SHOWCASE_PATH

# every valid path of length at most 5, reused as a sample pool
ALL_SMALL = [w for n in range(6) for w in enumeration.generate(n)]


class TestParse:
    def test_simple(self):
        assert parse_word("ud") == "ud"
        assert heights("ud") == [0, 1, 0]

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
        assert x_length(word) == 25
        assert not contains_pattern(word, "uvv")
        assert contains_pattern(word, "uvu")

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

    @given(st.sampled_from(ALL_SMALL))
    def test_parse_is_identity_on_valid_words(self, word):
        assert parse_word(word) == word

    @given(st.sampled_from(ALL_SMALL))
    def test_step_balance(self, word):
        assert x_length(word) == word.count("u") + word.count("d") + word.count("h")
        assert word.count("u") == word.count("d") + word.count("v")


class TestWeights:
    def test_weight_exponents(self):
        assert weight_exponents("uhuduuvvdhh") == (3, 2, 2)
        assert weight_exponents("") == (0, 0, 0)
        assert weight_exponents("ud") == (0, 0, 1)

    def test_h_on_axis(self):
        assert has_h_on_axis("h")
        assert not has_h_on_axis("uhv")
        assert has_h_on_axis("uvh")


class TestStructure:
    def test_is_primitive(self):
        assert is_primitive("uv")
        assert is_primitive("ud")
        assert not is_primitive("h")
        assert not is_primitive("uvuv")
        assert not is_primitive("")

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
        assert prefix == "h" or is_primitive(prefix)

    def test_max_elevation_strip(self):
        assert max_elevation_strip("uudv") == (1, "ud")
        assert max_elevation_strip("uuvuudvv") == (1, "uvuudv")
        assert max_elevation_strip("uv") == (0, "uv")

    def test_max_ud_strip(self):
        assert max_ud_strip("uuvd") == (1, "uv")
        assert max_ud_strip("ud") == (1, "")
        assert max_ud_strip("uhv") == (0, "uhv")

    def test_strips_require_primitive(self):
        with pytest.raises(PathError):
            max_elevation_strip("h")
        with pytest.raises(PathError):
            max_ud_strip("uvuv")

    @given(st.sampled_from([w for w in ALL_SMALL if is_primitive(w)]))
    def test_strip_maximality(self, word):
        i, core = max_elevation_strip(word)
        assert "u" * i + core + "v" * i == word
        # one more layer is impossible: a run is exhausted or the core dips
        deeper = i + 1
        hs = heights(word)
        can_peel = (
            word[:deeper] == "u" * deeper
            and word[len(word) - deeper :] == "v" * deeper
            and len(word) > 2 * deeper
            and all(h >= deeper for h in hs[deeper : len(word) - deeper + 1])
        )
        assert not can_peel


def reference_strip(word: str, close: str, allow_empty_core: bool) -> tuple[int, str]:
    """The strip by its definition: the largest i with word ==
    "u"*i + core + close*i, core a valid path at elevation i, searched
    downward from the largest i the word's length allows."""
    for i in range(len(word) // 2, -1, -1):
        core = word[i : len(word) - i]
        if word != "u" * i + core + close * i:
            continue
        if not core and not allow_empty_core:
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
        if not is_primitive(word):
            continue
        assert max_elevation_strip(word) == reference_strip(word, "v", False), word
        if word.endswith("d"):
            assert max_ud_strip(word) == reference_strip(word, "d", True), word


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


@pytest.mark.parametrize(
    "record,message",
    [
        (Decomposition("Case4", 1, ("", "junk")), "case Case4 takes 1 part(s), got 2"),
        (Decomposition("CaseV", 1, ("ud",)), "case CaseV takes 2 part(s), got 1"),
        (Decomposition("Case7", 0, ("",)), "unknown case 'Case7'"),
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
