"""The enumeration oracle, against golden digests and a brute-force search.

``data/enumeration_golden.json`` pins, for n <= 8 and the four classes the
package checks (no constraints, uvv-avoiding, uvu-avoiding, Gbar), the
SHA-256 of the generated words joined by newlines.  It was generated with the
earlier recursive generator, before the one-frame walk replaced it.  After
an intended change of output, regenerate it with

    PYTHONPATH=src python tests/test_enumeration.py

and review the diff.
"""

import hashlib
import itertools
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from gmotzkin.enumeration import (
    AVOID_UVU,
    AVOID_UVV,
    BAR_UVV,
    NO_CONSTRAINTS,
    Constraints,
    generate,
    weight_sum,
)
from gmotzkin.paths import RISE, PathError, parse_word
from gmotzkin.polyring import VAR_A, VAR_B, VAR_C

A, B, C = VAR_A, VAR_B, VAR_C

GOLDEN = Path(__file__).parent / "data" / "enumeration_golden.json"
GOLDEN_CLASSES = {"all": NO_CONSTRAINTS, "uvv": AVOID_UVV, "uvu": AVOID_UVU, "gbar": BAR_UVV}
GOLDEN_MAX_N = 8
BRUTE_MAX_N = 4
# patterns ending in three different steps, or two ending in the same step:
# the walk tests a child only against the patterns that end in its step
WALK_PATTERN_SETS = [("uvv", "hd", "vu"), ("ud", "vh", "uvu"), ("uv", "hv")]
PATTERNS = ["".join(p) for k in (1, 2, 3) for p in itertools.product("udhv", repeat=k)]


def step_order(word: str) -> list[int]:
    """Sort key of the generation order u < d < h < v."""
    return ["udhv".index(ch) for ch in word]


def has_h_on_axis(word: str) -> bool:
    """True iff some h step starts at height 0: the reference for
    ``Constraints.forbid_h_on_axis``."""
    h = 0
    for ch in word:
        if ch == "h" and h == 0:
            return True
        h += RISE[ch]
    return False


def allowed(word: str, avoid: tuple[str, ...], forbid_h: bool) -> bool:
    """True iff the word contains no pattern of ``avoid`` and, if
    ``forbid_h``, no h on the axis."""
    return not any(p in word for p in avoid) and not (forbid_h and has_h_on_axis(word))


def golden_entry(n: int, constraints: Constraints) -> dict:
    words = list(generate(n, constraints))
    digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
    return {"count": len(words), "sha256": digest}


@lru_cache(maxsize=None)
def brute_force_paths() -> dict[int, list[str]]:
    """Every path of x-length <= BRUTE_MAX_N, by filtering all words over udhv.

    A path of x-length n has at most n u steps and as many v steps, so no
    word longer than 2n can be one.
    """
    by_length: dict[int, list[str]] = {n: [] for n in range(BRUTE_MAX_N + 1)}
    for size in range(2 * BRUTE_MAX_N + 1):
        for steps in itertools.product("udhv", repeat=size):
            word = "".join(steps)
            try:
                parse_word(word)
            except PathError:
                continue
            n = len(word) - word.count("v")  # v steps stand still
            if n <= BRUTE_MAX_N:
                by_length[n].append(word)
    return by_length


class TestGenerate:
    def test_length_zero(self):
        assert list(generate(0)) == [""]

    def test_length_one(self):
        assert sorted(generate(1)) == ["h", "uv"]

    def test_length_two_avoiding(self):
        got = set(generate(2, AVOID_UVV))
        assert got == {"hh", "huv", "uvh", "uvuv", "ud", "uhv"}

    def test_negative_length(self):
        with pytest.raises(ValueError):
            list(generate(-1))

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "3", None, sys.maxsize + 1, 10**30])
    def test_length_that_is_not_an_int(self, n):
        # 1.5 never reaches length 0, so the walk would never end; no word
        # has more than sys.maxsize steps
        if type(n) is int:
            message = f"^length n must be at most sys.maxsize, not {n}$"
        else:
            message = "length n must be an int"
        with pytest.raises(ValueError, match=message):
            generate(n)
        with pytest.raises(ValueError, match=message):
            weight_sum(n, AVOID_UVV)

    def test_length_sys_maxsize_is_taken(self):
        # the longest length a word can have; the walk is not started
        generate(sys.maxsize)

    def test_avoid_that_is_a_str(self):
        # a str would be read as the one-step patterns u, v, v
        for avoid in ("uvv", "u"):
            with pytest.raises(ValueError, match=f"not the str '{avoid}'"):
                generate(2, Constraints(avoid=avoid))
            with pytest.raises(ValueError, match=f"not the str '{avoid}'"):
                weight_sum(2, Constraints(avoid=avoid))

    @pytest.mark.parametrize(
        "avoid,named", [(None, "NoneType None"), (["uvv"], "list ['uvv']"), (3, "int 3")]
    )
    def test_avoid_that_is_not_a_tuple(self, avoid, named):
        message = f"avoid must be a tuple of patterns, not the {named}"
        for call in (generate, weight_sum):
            with pytest.raises(ValueError) as err:
                call(2, Constraints(avoid=avoid))
            assert str(err.value) == message

    @pytest.mark.parametrize("constraints", ["uvv", ("uvv",), {"avoid": ("uvv",)}])
    def test_constraints_that_are_no_constraints(self, constraints):
        with pytest.raises(ValueError, match="constraints must be a Constraints or None"):
            generate(2, constraints)
        with pytest.raises(ValueError, match="constraints must be a Constraints or None"):
            weight_sum(2, constraints)

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_forbid_h_on_axis_that_is_no_bool(self, flag):
        # a truthy "no" would forbid h on the axis
        cons = Constraints(avoid=("uvv",), forbid_h_on_axis=flag)
        with pytest.raises(ValueError, match="forbid_h_on_axis must be a bool"):
            generate(2, cons)
        with pytest.raises(ValueError, match="forbid_h_on_axis must be a bool"):
            weight_sum(2, cons)

    @pytest.mark.parametrize("n", range(7))
    def test_sorted_and_duplicate_free(self, n):
        words = list(generate(n))
        keys = [step_order(w) for w in words]
        assert keys == sorted(keys)
        assert len(set(words)) == len(words)

    @pytest.mark.parametrize("n", range(6))
    def test_constrained_generation_equals_filtering(self, n):
        cons = Constraints(avoid=("uvv", "uvu"), forbid_h_on_axis=True)
        direct = list(generate(n, cons))
        filtered = [w for w in generate(n) if allowed(w, ("uvv", "uvu"), True)]
        assert direct == filtered

    @pytest.mark.parametrize("forbid_h", [False, True], ids=["h on axis", "no h on axis"])
    @pytest.mark.parametrize("avoid", WALK_PATTERN_SETS, ids=",".join)
    def test_pattern_set_equals_filtering(self, avoid, forbid_h):
        cons = Constraints(avoid=avoid, forbid_h_on_axis=forbid_h)
        for n in range(7):
            filtered = [w for w in generate(n) if allowed(w, avoid, forbid_h)]
            assert list(generate(n, cons)) == filtered, n

    @pytest.mark.parametrize("forbid_h", [False, True], ids=["h on axis", "no h on axis"])
    @pytest.mark.parametrize("avoid", WALK_PATTERN_SETS, ids=",".join)
    def test_pattern_set_equals_brute_force(self, avoid, forbid_h):
        cons = Constraints(avoid=avoid, forbid_h_on_axis=forbid_h)
        for n, paths in brute_force_paths().items():
            expected = sorted((w for w in paths if allowed(w, avoid, forbid_h)), key=step_order)
            assert list(generate(n, cons)) == expected, n

    def test_h_on_axis(self):
        assert has_h_on_axis("h")
        assert not has_h_on_axis("uhv")
        assert has_h_on_axis("uvh")

    def test_early_termination(self):
        stream = generate(6)
        assert next(stream).startswith("u")

    @pytest.mark.parametrize("tag", sorted(GOLDEN_CLASSES))
    def test_matches_golden_digests(self, tag):
        golden = json.loads(GOLDEN.read_text())[tag]
        for n in range(GOLDEN_MAX_N + 1):
            assert golden_entry(n, GOLDEN_CLASSES[tag]) == golden[str(n)], n

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_single_pattern_equals_brute_force(self, pattern):
        for forbid_h in (False, True):
            cons = Constraints(avoid=(pattern,), forbid_h_on_axis=forbid_h)
            for n, paths in brute_force_paths().items():
                expected = sorted(
                    (w for w in paths if allowed(w, (pattern,), forbid_h)), key=step_order
                )
                assert list(generate(n, cons)) == expected, (n, forbid_h)


class TestConstraints:
    def test_defaults(self):
        assert Constraints() == Constraints(avoid=(), forbid_h_on_axis=False)
        assert (Constraints().avoid, Constraints().forbid_h_on_axis) == ((), False)

    def test_equal_values_hash_equal(self):
        built = Constraints(("uvv",), True)
        assert built == BAR_UVV and hash(built) == hash(BAR_UVV)
        assert {built: 1}[BAR_UVV] == 1

    @pytest.mark.parametrize("field", ["avoid", "forbid_h_on_axis"])
    def test_fields_cannot_be_assigned(self, field):
        cons = Constraints(avoid=("uvv",))
        with pytest.raises(AttributeError):
            setattr(cons, field, ())
        assert cons == AVOID_UVV


class TestWeightSum:
    def test_unconstrained_length_two(self):
        expected = A * A + (A * B).scaled(3) + (B * B).scaled(2) + C
        assert weight_sum(2) == expected

    def test_avoiding_length_two(self):
        expected = A * A + (A * B).scaled(3) + B * B + C
        poly = weight_sum(2, AVOID_UVV)
        assert poly == expected
        assert poly.eval(1, 1, 1) == 6

    def test_no_h_on_axis_length_one(self):
        assert weight_sum(1, Constraints(avoid=("uvv",), forbid_h_on_axis=True)) == B


class TestIdentities:
    B2 = B * B

    @pytest.mark.parametrize("n", range(6))
    def test_substituting_recovers_the_full_class(self, n):
        lhs = weight_sum(n, AVOID_UVV).substitute("c", self.B2 + C)
        assert lhs == weight_sum(n)

    @pytest.mark.parametrize("n", range(7))
    def test_two_avoidance_classes_agree_at_c_eq_b_squared(self, n):
        lhs = weight_sum(n, AVOID_UVV).substitute("c", self.B2)
        rhs = weight_sum(n, Constraints(avoid=("uvu",))).substitute("c", self.B2)
        assert lhs == rhs


if __name__ == "__main__":
    table = {
        tag: {str(n): golden_entry(n, cons) for n in range(GOLDEN_MAX_N + 1)}
        for tag, cons in GOLDEN_CLASSES.items()
    }
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
