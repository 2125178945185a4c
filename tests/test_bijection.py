import os
import random
import subprocess
import sys

import pytest

import gmotzkin
from gmotzkin.bijection import (
    _classify,
    fixed_points,
    is_fixed_by_structure,
    is_fixed_point,
    sigma,
    sigma_inv,
)
from gmotzkin.cli import main
from gmotzkin.enumeration import AVOID_UVU, AVOID_UVV, generate
from gmotzkin.paths import PathError, first_return_blocks, is_primitive
from gmotzkin.samples import BIJECTION_SAMPLE_INPUT, BIJECTION_SAMPLE_OUTPUT


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

    @pytest.mark.parametrize("fn", [sigma, sigma_inv, is_fixed_by_structure])
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

    @pytest.mark.parametrize("fn", [sigma, sigma_inv, is_fixed_by_structure])
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
            (is_fixed_by_structure, "uuvvh", "path contains the pattern uvv"),
            (is_fixed_by_structure, "uudvuuvv", "path contains the pattern uvv"),
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
        assert not is_primitive("uvud") and is_primitive(sigma("uvud"))
        assert sigma_inv("uuudvv") == "uuvudv"
        assert sigma("uuvudv") == "uuudvv"
        assert sigma_inv("uuudvd") == "uuuvudvv"
        assert sigma("uuuvudvv") == "uuudvd"

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

    @pytest.mark.parametrize("n", range(8))
    def test_structural_test_agrees_with_direct_test(self, n):
        for q in generate(n, AVOID_UVV):
            assert is_fixed_by_structure(q) == (sigma(q) == q)


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
    """sigma walks the units of a path in a loop, so length costs no stack."""

    @pytest.mark.parametrize("name", LONG_PATHS)
    def test_round_trip(self, name):
        q = LONG_PATHS[name]
        p = sigma(q)
        assert "uvu" not in p
        assert q.count("h") == p.count("h")
        assert q.count("v") + 2 * q.count("d") == p.count("v") + 2 * p.count("d")
        assert sigma_inv(p) == q
        assert is_fixed_point(q) == is_fixed_by_structure(q) == (p == q)

    @pytest.mark.parametrize("name", LONG_PATHS)
    def test_cli_round_trip(self, name, capsys):
        q = LONG_PATHS[name]
        assert main(["sigma", "--path", q]) == 0
        p = capsys.readouterr().out.strip()
        assert p == sigma(q)
        assert main(["sigma-inv", "--path", p]) == 0
        assert capsys.readouterr().out.strip() == q


class TestNesting:
    """sigma's interiors still recurse, one level per nesting level; the
    structural fixed-point test does not recurse."""

    def test_nesting_of_480_levels_maps(self):
        # A fresh interpreter: here pytest's frames and whatever units earlier
        # tests left in the caches would decide how many levels are left.
        code = (
            "from gmotzkin.bijection import sigma, sigma_inv\n"
            "q = 'u' * 480 + 'd' * 480\n"
            "print(sigma_inv(sigma(q)) == q)\n"
        )
        flags = ["-O"] if sys.flags.optimize else []
        src = os.path.dirname(os.path.dirname(gmotzkin.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, "True\n", "")

    @pytest.mark.parametrize(
        "fn,word,height",
        [
            (sigma, "u" * 5000 + "d" * 5000, 5000),
            (sigma_inv, "u" * 5000 + "v" * 5000, 5000),
        ],
        ids=["sigma", "sigma_inv"],
    )
    def test_overflow_is_a_path_error(self, fn, word, height):
        with pytest.raises(PathError) as err:
            fn(word)
        assert str(err.value) == f"path nests too deeply: maximum height {height}"

    def test_structural_test_has_no_depth_limit(self):
        assert is_fixed_by_structure("u" * 1000 + "h" + "vh" * 1000)
        assert not is_fixed_by_structure("u" * 5000 + "ud" + "v" * 5000)
        assert is_fixed_by_structure("u" * 5000 + "h" + "vh" * 5000)

    @pytest.mark.parametrize(
        "command,word",
        [("sigma", "u" * 5000 + "d" * 5000), ("sigma-inv", "u" * 5000 + "v" * 5000)],
        ids=["sigma", "sigma-inv"],
    )
    def test_cli_exits_2_on_overflow(self, command, word, capsys):
        assert main([command, "--path", word]) == 2
        err = capsys.readouterr().err
        assert err == "error: path nests too deeply: maximum height 5000\n"
