import hashlib
import random
import tracemalloc
from collections import deque
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmotzkin import bijection
from gmotzkin.bijection import (
    FixedPointCounts,
    _classify,
    _grammar,
    fixed_points,
    is_fixed_point,
    sigma,
    sigma_inv,
)
from gmotzkin.cli import main
from gmotzkin.enumeration import AVOID_UVU, AVOID_UVV, generate
from gmotzkin.formulas import fixed_point_sequences
from gmotzkin.paths import (
    BASE,
    BASE_INV,
    CASE3,
    CASE4,
    CASE5,
    CASE_III,
    CASE_IV,
    CASE_V,
    PathError,
    _is_primitive,
    decompose_forward,
    decompose_inverse,
    first_return_blocks,
)
from gmotzkin.verify import BIJECTION_SAMPLE_INPUT, BIJECTION_SAMPLE_OUTPUT, FIXED_POINT_COUNTS


def reference_sigma(word: str) -> str:
    """sigma by the paper's recursion: each unit maps by its
    ``decompose_forward`` record.  The reference for ``sigma``."""
    return "".join(map(_reference_unit, _units(word)))


def reference_sigma_inv(word: str) -> str:
    """sigma_inv block by block, each by its ``decompose_inverse`` record.
    The reference for ``sigma_inv``."""
    return "".join(map(_reference_block, first_return_blocks(word)))


def _units(word: str) -> list[str]:
    """The units of a path: its blocks, each "uv" glued to a u-block after it."""
    units: list[str] = []
    for block in first_return_blocks(word):
        if units and units[-1] == "uv" and block[0] == "u":
            units[-1] += block
        else:
            units.append(block)
    return units


@lru_cache(maxsize=None)
def _reference_unit(unit: str) -> str:
    dec = decompose_forward(unit)
    case, i = dec.case, dec.elevation
    if case == BASE:
        return unit
    assert not dec.parts[-1]  # a unit leaves no first-return remainder
    if case == CASE4:
        if i % 2:
            j = (i + 1) // 2
            return "u" * j + "uv" + "d" * j
        j = i // 2
        return "u" * (j + 1) + "d" * (j + 1)
    inner = reference_sigma(dec.parts[0] + "uv" if case == CASE5 else dec.parts[0])
    if case == CASE3:
        return "u" + inner + "v"
    if case == CASE5:
        if i % 2:
            j = (i + 1) // 2
            return "u" * j + inner + "d" * j
        j = i // 2
        return "u" * (j + 1) + inner + "v" + "d" * j
    # Case6
    if i % 2:
        j = (i + 1) // 2
        return "u" * j + inner + "v" + "d" * (j - 1)
    j = i // 2
    return "u" * j + inner + "d" * j


@lru_cache(maxsize=None)
def _reference_block(block: str) -> str:
    dec = decompose_inverse(block)
    case, j, mid = dec.case, dec.elevation, dec.parts[0]
    if case == BASE_INV:
        return block
    assert not dec.parts[-1]  # a block leaves no first-return remainder
    if case == CASE_IV and not mid:
        return "u" * (2 * j - 1) + "d" + "v" * (2 * j - 2)
    if case == CASE_V:
        mid = "u" + mid + "v"
    # P'' (CaseIII) or the core loses a uuvv or uv suffix; P'' = uv stays.
    peeled = mid.endswith(("uuvv", "uv")) and (mid != "uv" or case != CASE_III)
    if peeled:
        mid = mid[:-4] + "uv" if mid.endswith("uuvv") else mid[:-2]
    inner = reference_sigma_inv(mid)
    if case == CASE_III:
        if peeled:
            return "u" + inner + "d"
        return "uv" + inner if _is_primitive(inner) else "u" + inner + "v"
    if peeled:
        return "u" * (2 * j) + inner + "d" + "v" * (2 * j - 1)
    return "u" * (2 * j) + inner + "v" * (2 * j)


@st.composite
def random_paths(draw, avoid: str, max_n: int = 60) -> str:
    """A path of x-length at most ``max_n`` that avoids ``avoid`` (uvv or
    uvu), built block by block so that every draw is valid."""
    return _blocks(draw, draw(st.integers(0, max_n)), avoid)


def _blocks(draw, n: int, avoid: str) -> str:
    out = []
    while n:
        kind = draw(st.sampled_from(["h", "uv", "uPd", "uPv"] if n > 1 else ["h", "uv"]))
        if kind == "h":
            out.append("h")
            n -= 1
        elif kind == "uv" and avoid == "uvu" and n > 1:
            out.append("uvh")  # a u-block after uv would hold uvu
            n -= 2
        elif kind == "uv":
            out.append("uv")
            n -= 1
        else:
            close = kind[-1]
            m = draw(st.integers(0, n - 2) if close == "d" else st.integers(1, n - 1))
            inner = _blocks(draw, m, avoid)
            if close == "v" and avoid == "uvv" and inner.endswith("uv"):
                inner = inner[:-2] + "h"  # u...uv v would hold uvv
            out.append("u" + inner + close)
            n -= m + 1 + (close == "d")
    return "".join(out)


class TestSigma:
    def test_base_cases(self):
        assert sigma("") == ""
        assert sigma("h") == "h"
        assert sigma("uv") == "uv"

    def test_known_values(self):
        assert sigma("uudv") == "uuvd"
        assert sigma("uvud") == "uudv"
        assert sigma("uvh") == "uvh"

    def test_sample_pair(self):
        assert sigma(BIJECTION_SAMPLE_INPUT) == BIJECTION_SAMPLE_OUTPUT
        assert sigma_inv(BIJECTION_SAMPLE_OUTPUT) == BIJECTION_SAMPLE_INPUT

    def test_rejects_uvv(self):
        with pytest.raises(PathError):
            sigma("uuvv")

    def test_inverse_known_values(self):
        assert sigma_inv("uuvd") == "uudv"
        assert sigma_inv("uudv") == "uvud"
        assert sigma_inv("uuvv") == "uvuv"

    def test_inverse_rejects_uvu(self):
        with pytest.raises(PathError):
            sigma_inv("uvuv")

    @pytest.mark.parametrize("fn", [sigma, sigma_inv])
    @pytest.mark.parametrize(
        "word,message",
        [
            ("x", "illegal character 'x' at position 0"),
            ("uv h", "illegal character ' ' at position 2"),
            ("huvX", "illegal character 'X' at position 3"),
        ],
    )
    def test_rejects_illegal_characters(self, fn, word, message):
        with pytest.raises(PathError) as err:
            fn(word)
        assert str(err.value) == message

    @pytest.mark.parametrize("fn", [sigma, sigma_inv])
    @pytest.mark.parametrize(
        "word,message",
        [
            ("d", "height -1 after step 1"),
            ("hv", "height -1 after step 2"),
            ("uu", "final height 2 is not 0 after step 2"),
            ("uvu", "final height 1 is not 0 after step 3"),
            ("uvv", "height -1 after step 3"),
            ("uvvu", "height -1 after step 3"),
        ],
    )
    def test_rejects_words_that_are_not_paths(self, fn, word, message):
        with pytest.raises(PathError) as err:
            fn(word)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "fn,word,message",
        [
            (sigma, "uuvvh", "path contains the pattern uvv"),
            (sigma_inv, "uvuv", "path contains the pattern uvu"),
            (sigma_inv, "uvhuvud", "path contains the pattern uvu"),
        ],
    )
    def test_pattern_in_valid_path_keeps_its_message(self, fn, word, message):
        with pytest.raises(PathError) as err:
            fn(word)
        assert str(err.value) == message

    def test_non_primitive_interior_can_map_to_primitive(self):
        # The interior handed to a recursive call may change primitivity
        # status: uvud is not primitive, yet its image uudv is.  The inverse
        # direction therefore tests primitivity of the preimage, not of the
        # interior itself; both round trips below depend on that.
        assert not _is_primitive("uvud") and _is_primitive(sigma("uvud"))
        assert sigma_inv("uuudvv") == "uuvudv"
        assert sigma("uuvudv") == "uuudvv"
        assert sigma_inv("uuudvd") == "uuuvudvv"
        assert sigma("uuuvudvv") == "uuudvd"

    @pytest.mark.parametrize("n", range(9))
    def test_equals_the_recursive_reference(self, n):
        # every node maps by its decomposition's case, exhaustively
        for q in generate(n, AVOID_UVV):
            assert sigma(q) == reference_sigma(q)
        for p in generate(n, AVOID_UVU):
            assert sigma_inv(p) == reference_sigma_inv(p)

    @pytest.mark.parametrize("tail", ["", "h"])
    @pytest.mark.parametrize("core", ["", "uv", "uuvv", "h", "udud", "uhv"])
    @pytest.mark.parametrize("j", range(1, 13))
    def test_sigma_inv_of_nested_ud_layers_equals_the_reference(self, j, core, tail):
        # each u...d layer past the first wraps the block's image in uu...vv;
        # "uhv" is a CaseV core
        p = "u" * j + core + "d" * j + tail
        assert sigma_inv(p) == reference_sigma_inv(p)

    @settings(max_examples=50)
    @given(random_paths("uvv"))
    def test_sigma_equals_the_reference_beyond_exhaustive_reach(self, q):
        assert sigma(q) == reference_sigma(q)

    @settings(max_examples=50)
    @given(random_paths("uvu"))
    def test_sigma_inv_equals_the_reference_beyond_exhaustive_reach(self, p):
        assert sigma_inv(p) == reference_sigma_inv(p)

    @pytest.mark.parametrize("n", range(8))
    def test_bijection_exhaustively(self, n):
        uvu_class = set(generate(n, AVOID_UVU))
        images = set()
        for q in generate(n, AVOID_UVV):
            p = sigma(q)
            assert "uvu" not in p
            assert q.count("h") == p.count("h")
            assert q.count("v") + 2 * q.count("d") == p.count("v") + 2 * p.count("d")
            assert sigma_inv(p) == q
            images.add(p)
        assert images == uvu_class


class TestFixedPoints:
    def test_known_fixed_points(self):
        assert is_fixed_point("uhv")
        assert is_fixed_point("hh")
        assert not is_fixed_point("uudv")

    def test_classification(self):
        for word, cls in (("huv", "B"), ("ud", "C"), ("uvh", "A"), ("", "A")):
            assert is_fixed_point(word)
            assert _classify(word) == cls

    def test_counts_small(self):
        counts = fixed_points(2, include_paths=True)
        assert counts.f == 5
        assert (counts.a, counts.b, counts.c) == (2, 1, 2)
        assert set(counts.paths) == {"hh", "uvh", "ud", "uhv", "huv"}

    def test_counts_zero(self):
        counts = fixed_points(0)
        assert (counts.f, counts.a, counts.b, counts.c) == (1, 1, 0, 0)

    def test_counts_five(self):
        assert fixed_points(5).f == 125

    @pytest.mark.parametrize("n", range(9))
    def test_counts_equal_the_sweep_over_the_uvv_class(self, n):
        """Building from the unit grammar finds what testing every
        uvv-avoiding path finds, in the same order and classes."""
        old = tuple(w for w in generate(n, AVOID_UVV) if sigma(w) == w)
        assert list(_grammar(n)) == [(w, _classify(w)) for w in old]
        counts = fixed_points(n, include_paths=True)
        assert counts.paths == old
        classes = [_classify(w) for w in old]
        assert (counts.f, counts.a, counts.b, counts.c) == (
            len(old), classes.count("A"), classes.count("B"), classes.count("C")
        )

    @pytest.mark.parametrize("n", range(10))
    def test_lists_the_words_and_classes_of_the_grammar(self, n):
        """fixed_points adds sigma's test to the grammar's stream, and
        nothing else: the sweep reads the stream in its place."""
        stream = list(_grammar(n))
        counts = fixed_points(n, include_paths=True)
        assert counts.paths == tuple(word for word, _ in stream)
        classes = [cls for _, cls in stream]
        assert (counts.a, counts.b, counts.c) == tuple(classes.count(cls) for cls in "ABC")

    def test_grammar_stream_digest(self):
        """The (word, class) stream for n <= 11, pinned by its SHA-256."""
        digest = hashlib.sha256()
        for n in range(12):
            for word, cls in _grammar(n):
                digest.update(f"{word} {cls}\n".encode())
        assert digest.hexdigest() == (
            "52659c751d78fdf870d39e013a42aa68595beb81deacba181d43c7f70a7f92ef"
        )

    def test_grammar_streams_in_little_memory(self):
        # 73,783 words of length 10, read one at a time; the walk holds a
        # level per open u, not the words of the shorter lengths
        tracemalloc.start()
        try:
            deque(_grammar(10), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_sigma_runs_once_per_fixed_point(self, monkeypatch):
        calls = []

        def counting_sigma(word):
            calls.append(word)
            return sigma(word)

        monkeypatch.setattr(bijection, "sigma", counting_sigma)
        assert fixed_points(7).f == 1478
        assert len(calls) == 1478
        assert all(sigma(w) == w for w in calls)

    def test_a_grammar_word_that_sigma_moves_raises(self, monkeypatch):
        moved = "uhvh"  # the units u K v with K = h, then h

        def moving_sigma(word):
            return "uv" + word if word == moved else sigma(word)

        monkeypatch.setattr(bijection, "sigma", moving_sigma)
        assert fixed_points(2).f == 5
        with pytest.raises(AssertionError, match=f"sigma moves {moved},"):
            fixed_points(3)

    @pytest.mark.parametrize("n", range(11))
    def test_counts_equal_the_table_and_the_recurrences(self, n):
        f, a, b, c = fixed_point_sequences(n)
        counts = fixed_points(n)
        assert counts.f == FIXED_POINT_COUNTS[n] == f[n]
        assert (counts.a, counts.b, counts.c) == (a[n], b[n], c[n])

    def test_f_is_the_sum_of_the_classes(self):
        # f is read off the classes, so a record made or changed by
        # namedtuple's own methods cannot carry another count
        assert fixed_points(5)._replace(a=0).f == 53
        assert FixedPointCounts._make((1, 1, 0, None)).f == 2
        assert FixedPointCounts._fields == ("a", "b", "c", "paths")

    def test_counts_are_immutable(self):
        counts = fixed_points(2)
        with pytest.raises(AttributeError):
            counts.f = 6
        with pytest.raises(AttributeError):
            counts.a = 6
        assert counts == FixedPointCounts(a=2, b=1, c=2)

    @pytest.mark.parametrize("flag", ["no", 0, 1, None])
    def test_include_paths_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="include_paths must be a bool"):
            fixed_points(3, include_paths=flag)


def _random_units(steps: int) -> str:
    """A seeded concatenation of blocks of x-length <= 6 from the uvv class,
    about ``steps`` steps long; a uv followed by a u-block glues (Case3)."""
    blocks = [
        w
        for n in range(1, 7)
        for w in generate(n, AVOID_UVV)
        if first_return_blocks(w) == [w]
    ]
    rng = random.Random(2022)
    out = []
    while sum(map(len, out)) < steps:
        out.append(rng.choice(blocks))
    return "".join(out)


LONG_PATHS = {
    "flat": "h" * 100_000,
    "uvh": "uvh" * 33_333,
    "ud": "ud" * 20_000,
    "uhvh": "uhvh" * 10_000,
    "units": _random_units(50_000),
}


class TestLongPaths:
    """sigma and sigma_inv read a path in one loop, so length costs no stack."""

    @pytest.mark.parametrize("name", LONG_PATHS)
    def test_round_trip(self, name):
        q = LONG_PATHS[name]
        p = sigma(q)
        assert "uvu" not in p
        assert q.count("h") == p.count("h")
        assert q.count("v") + 2 * q.count("d") == p.count("v") + 2 * p.count("d")
        assert sigma_inv(p) == q
        assert is_fixed_point(q) == (p == q)

    @pytest.mark.parametrize("name", LONG_PATHS)
    def test_cli_round_trip(self, name, capsys):
        q = LONG_PATHS[name]
        assert main(["sigma", "--path", q]) == 0
        p = capsys.readouterr().out.strip()
        assert p == sigma(q)
        assert main(["sigma-inv", "--path", p]) == 0
        assert capsys.readouterr().out.strip() == q


DEEP = 5000
DEEP_PATHS = {
    "ud": ("u" * DEEP + "d" * DEEP, "sigma"),
    "uv": ("u" * DEEP + "v" * DEEP, "sigma-inv"),
    "case3": ("uvu" * DEEP + "h" + "v" * DEEP, "sigma"),
}


class TestNesting:
    """sigma and sigma_inv map nested levels in one loop: nesting costs no stack."""

    def test_nesting_of_480_levels_maps(self):
        q = "u" * 480 + "d" * 480
        assert sigma_inv(sigma(q)) == q

    @pytest.mark.parametrize("name", DEEP_PATHS)
    def test_deep_round_trip(self, name, capsys):
        word, command = DEEP_PATHS[name]
        there, back = (sigma, sigma_inv) if command == "sigma" else (sigma_inv, sigma)
        image = there(word)
        assert back(image) == word
        assert main([command, "--path", word]) == 0
        assert capsys.readouterr().out == image + "\n"
        other = "sigma-inv" if command == "sigma" else "sigma"
        assert main([other, "--path", image]) == 0
        assert capsys.readouterr().out == word + "\n"
