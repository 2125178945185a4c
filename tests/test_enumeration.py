import pytest

from gmotzkin.enumeration import AVOID_UVV, Constraints, generate, weight_sum
from gmotzkin.paths import STEP_ORDER, contains_pattern, has_h_on_axis
from gmotzkin.polyring import VAR_A, VAR_B, VAR_C

A, B, C = VAR_A, VAR_B, VAR_C


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

    @pytest.mark.parametrize("n", range(7))
    def test_sorted_and_duplicate_free(self, n):
        words = list(generate(n))
        keys = [[STEP_ORDER[ch] for ch in w] for w in words]
        assert keys == sorted(keys)
        assert len(set(words)) == len(words)

    @pytest.mark.parametrize("n", range(6))
    def test_constrained_generation_equals_filtering(self, n):
        cons = Constraints(avoid=("uvv", "uvu"), forbid_h_on_axis=True)
        direct = list(generate(n, cons))
        filtered = [
            w
            for w in generate(n)
            if not contains_pattern(w, "uvv")
            and not contains_pattern(w, "uvu")
            and not has_h_on_axis(w)
        ]
        assert direct == filtered

    def test_early_termination(self):
        stream = generate(6)
        assert next(stream).startswith("u")


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
