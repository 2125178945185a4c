import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmotzkin.polyring import (
    ONE,
    VAR_A,
    VAR_B,
    VAR_C,
    ZERO,
    DivergenceError,
    OrderMismatchError,
    Polynomial,
    PowerSeries,
)
from gmotzkin.series import solve

A, B, C = VAR_A, VAR_B, VAR_C

monomials = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
polynomials = st.dictionaries(monomials, st.integers(-9, 9), max_size=6).map(Polynomial)
points = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))


class TestPolynomial:
    def test_add_cancellation(self):
        assert (A + B) + (A - B) == A.scaled(2)

    def test_add_identity(self):
        p = A * A + C.scaled(3)
        assert p + ZERO == p

    def test_add_disjoint_supports(self):
        left = A * A + C
        right = (A * B).scaled(3) + (B * B).scaled(2)
        total = left + right
        assert total == Polynomial({(2, 0, 0): 1, (1, 1, 0): 3, (0, 2, 0): 2, (0, 0, 1): 1})

    def test_mul_square(self):
        assert (A + B) * (A + B) == A * A + (A * B).scaled(2) + B * B

    def test_mul_identity(self):
        p = A * B * C + B.scaled(-4)
        assert p * ONE == p

    def test_mul_b_squared(self):
        assert B * B == Polynomial.monomial(0, 2, 0)

    def test_eval(self):
        p = A * A + (A * B).scaled(3) + (B * B).scaled(2) + C
        assert p.eval(1, 1, 1) == 7
        assert C.eval(-3, 4, 16) == 16
        assert Polynomial.monomial(3, 2, 2).eval(1, 1, 1) == 1

    def test_substitute(self):
        assert C.substitute("c", B * B + C) == B * B + C
        assert (A * A).substitute("a", A + B) == A * A + (A * B).scaled(2) + B * B
        assert (A * B).substitute("b", B) == A * B

    def test_div_exact(self):
        assert (A.scaled(6) + B.scaled(9)).div_exact(3) == A.scaled(2) + B.scaled(3)
        with pytest.raises(ValueError):
            A.scaled(3).div_exact(2)

    def test_str_canonical_order(self):
        p = C + (B * B).scaled(2) + (A * B).scaled(3) + A * A
        assert str(p) == "a^2 + 3*a*b + 2*b^2 + c"
        assert str(ZERO) == "0"
        assert str(A - B) == "a - b"

    def test_json_roundtrip(self):
        p = A * A - C.scaled(12345678901234567890)
        assert Polynomial.from_json_obj(p.to_json_obj()) == p

    def test_json_golden(self):
        obj = (A + B.scaled(-2)).to_json_obj()
        assert obj == [
            {"ea": 1, "eb": 0, "ec": 0, "coeff": "1"},
            {"ea": 0, "eb": 1, "ec": 0, "coeff": "-2"},
        ]

    @given(polynomials, polynomials, polynomials)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polynomials, polynomials, points)
    def test_eval_is_homomorphism(self, p, q, pt):
        assert (p + q).eval(*pt) == p.eval(*pt) + q.eval(*pt)
        assert (p * q).eval(*pt) == p.eval(*pt) * q.eval(*pt)

    @given(polynomials, points)
    def test_substitute_then_eval(self, p, pt):
        va, vb, vc = pt
        assert p.substitute("c", B * B + C).eval(va, vb, vc) == p.eval(
            va, vb, vb * vb + vc
        )


class TestPowerSeries:
    def test_mul(self):
        one_plus = PowerSeries.from_ints([1, 1], 2)
        one_minus = PowerSeries.from_ints([1, -1], 2)
        assert one_plus * one_minus == PowerSeries.from_ints([1, 0, -1], 2)

    def test_mul_identity(self):
        s = PowerSeries.from_polys([ONE, A, B * C], 2)
        assert s * PowerSeries.one(2) == s

    def test_mul_with_poly_coeffs(self):
        s = PowerSeries.from_polys([ONE, B], 2)
        assert s * s == PowerSeries.from_polys([ONE, B.scaled(2), B * B], 2)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            PowerSeries.one(2) * PowerSeries.one(3)

    def test_invert_geometric(self):
        s = PowerSeries.from_ints([1, -1], 3)
        assert inverse(s) == PowerSeries.from_ints([1, 1, 1, 1], 3)

    def test_invert_one(self):
        assert inverse(PowerSeries.one(4)) == PowerSeries.one(4)

    def test_invert_alternating(self):
        s = PowerSeries.from_polys([ONE, B], 2)
        assert inverse(s) == PowerSeries.from_polys([ONE, -B, B * B], 2)

    def test_invert_non_unit(self):
        with pytest.raises(DivergenceError):
            inverse(PowerSeries.from_ints([2, 1], 2))
        with pytest.raises(DivergenceError):
            inverse(PowerSeries.from_polys([B, ONE], 2))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.sampled_from([1, -1]))
    def test_invert_property(self, tail, lead):
        s = PowerSeries.from_ints([lead] + tail, len(tail))
        if lead == 1:
            assert s * inverse(s) == PowerSeries.one(len(tail))
        else:  # the solver assumes D_0 = 1
            with pytest.raises(DivergenceError):
                inverse(s)

    def test_shift_roundtrip(self):
        s = PowerSeries.from_polys([ZERO, A, B], 2)
        assert s.shift_down().shift_up().truncated(2) == s

    def test_shift_down_rejects_constant(self):
        with pytest.raises(ValueError):
            PowerSeries.one(2).shift_down()


def inverse(s):
    """1/s, by solving s S = 1."""
    return solve([ONE], [], s.coeffs, s.order)


def catalan_by_convolution(n):
    vals = [1]
    for _ in range(n):
        vals.append(sum(vals[i] * vals[-1 - i] for i in range(len(vals))))
    return vals[n]


class TestFixedPoint:
    """The online solver's root of D S = P + Q S^2, the equation's unique
    series fixed point."""

    def test_geometric(self):
        s = solve([ONE], [], [ONE, -ONE], 3)
        assert s == PowerSeries.from_ints([1, 1, 1, 1], 3)

    def test_catalan_equation_matches_convolution_oracle(self):
        s = solve([ONE], [ZERO, ONE], [ONE], 8)
        expected = [catalan_by_convolution(n) for n in range(9)]
        assert s == PowerSeries.from_ints(expected, 8)

    def test_weighted_path_equation(self):
        # independently derived by listing the paths of length 0, 1 and 2
        s = solve([ONE], [ZERO, B, C], [ONE, -A], 2)
        assert s.coefficient(0) == ONE
        assert s.coefficient(1) == A + B
        assert s.coefficient(2) == A * A + (A * B).scaled(3) + (B * B).scaled(2) + C

    def test_constant_square_term_with_zero_constant_root(self):
        # S = x + S^2 is x C(x): Q_0 != 0 is contractive because s_0 = 0
        s = solve([ZERO, ONE], [ONE], [ONE], 6)
        assert s == PowerSeries.from_ints([0, 1, 1, 2, 5, 14, 42], 6)

    def test_divergence(self):
        # S = 1 + S^2: s_n would need (S^2)_n, which contains 2 s_0 s_n
        with pytest.raises(DivergenceError, match="not contractive"):
            solve([ONE], [ONE], [ONE], 3)

    def test_failed_full_order_check(self):
        # D_0 = 2 breaks the recurrence, which assumes D_0 = 1
        with pytest.raises(DivergenceError, match="fails D S = P"):
            solve([ONE], [ZERO, ONE], [ONE + ONE], 3)
