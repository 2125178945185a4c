import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmotzkin.polyring import (
    ONE,
    VAR_A,
    VAR_B,
    VAR_C,
    ZERO,
    KroneckerCodec,
    Polynomial,
)

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

    @pytest.mark.parametrize("point", [(0.5, 1, 1), ("a", 1, 1), (1, True, 1), (1, 1, None)])
    def test_eval_refuses_a_point_that_is_not_ints(self, point):
        bad = next(v for v in point if type(v) is not int)
        with pytest.raises(ValueError) as err:
            (A + B + C).eval(*point)
        assert str(err.value) == f"eval takes int coordinates, not {bad!r}"

    @pytest.mark.parametrize(
        "cancel",
        [
            lambda p: p + (-p),
            lambda p: p - p,
            lambda p: p.scaled(0),
        ],
        ids=["p + (-p)", "p - p", "scaled(0)"],
    )
    def test_cancelled_results_are_canonical(self, cancel):
        result = cancel(A * A - B.scaled(3) + C)
        assert len(result) == 0 and result == ZERO

    def test_substitute(self):
        assert C.substitute("c", B * B + C) == B * B + C
        assert (A * A).substitute("a", A + B) == A * A + (A * B).scaled(2) + B * B
        assert (A * B).substitute("b", B) == A * B

    def test_str_canonical_order(self):
        p = C + (B * B).scaled(2) + (A * B).scaled(3) + A * A
        assert str(p) == "a^2 + 3*a*b + 2*b^2 + c"
        assert str(ZERO) == "0"
        assert str(A - B) == "a - b"

    def test_json_golden(self):
        obj = (A + B.scaled(-2)).to_json_obj()
        assert obj == [
            {"ea": 1, "eb": 0, "ec": 0, "coeff": "1"},
            {"ea": 0, "eb": 1, "ec": 0, "coeff": "-2"},
        ]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Polynomial({(1, -1, 0): 1}),
            lambda: Polynomial({(0, 0, -2): 0}),
            lambda: Polynomial.monomial(0, -1, 0),
        ],
        ids=["dict", "zero coefficient", "monomial"],
    )
    def test_rejects_a_negative_exponent(self, make):
        with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
            make()

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Polynomial({(0.5, 0, 0): 1}), "exponents must be ints, not (0.5, 0, 0)"),
            (lambda: Polynomial({(True, 0, 0): 1}), "exponents must be ints, not (True, 0, 0)"),
            (lambda: Polynomial.const(1.5), "coefficients must be ints, not 1.5 at (0, 0, 0)"),
            (lambda: Polynomial({(0, 0, 0): "x"}), "coefficients must be ints, not 'x' at (0, 0, 0)"),
            (lambda: Polynomial.monomial(0, 1, 0, True), "coefficients must be ints, not True at (0, 1, 0)"),
            (lambda: Polynomial({5: 1}), "monomials must be exponent triples, not 5"),
            (lambda: Polynomial({(1, 2): 1}), "monomials must be exponent triples, not (1, 2)"),
            (lambda: Polynomial({(1, 2, 3, 4): 1}), "monomials must be exponent triples, not (1, 2, 3, 4)"),
            (lambda: A.scaled(1.5), "scaled takes an int, not 1.5"),
            (lambda: A.scaled(True), "scaled takes an int, not True"),
            (lambda: Polynomial([1, 2]), "terms must be a Mapping or None, not [1, 2]"),
            (lambda: Polynomial(5), "terms must be a Mapping or None, not 5"),
            (lambda: Polynomial("ab"), "terms must be a Mapping or None, not 'ab'"),
            (lambda: Polynomial(0), "terms must be a Mapping or None, not 0"),
            (lambda: Polynomial([]), "terms must be a Mapping or None, not []"),
            (lambda: Polynomial(""), "terms must be a Mapping or None, not ''"),
        ],
        ids=[
            "float exponent", "bool exponent", "float constant", "str coefficient", "bool coefficient",
            "int monomial", "pair monomial", "quadruple monomial",
            "float factor", "bool factor",
            "list terms", "int terms", "str terms", "zero terms", "empty list terms", "empty str terms",
        ],
    )
    def test_rejects_what_is_not_an_int(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: A.substitute("a", 2), "substitute takes a Polynomial replacement, not 2"),
        ],
        ids=["substitute"],
    )
    def test_rejects_what_is_not_a_polynomial(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

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

    @given(polynomials, st.sampled_from("abc"), polynomials)
    def test_substitute_is_the_sum_over_terms(self, p, var, replacement):
        # the definition: each term's other variables times a power of the replacement
        idx = "abc".index(var)
        pairs = []
        for mono, coeff in p.terms():
            rest = list(mono)
            power = ONE
            for _ in range(rest[idx]):
                power = power * replacement
            rest[idx] = 0
            pairs.append((Polynomial.monomial(*rest, coeff), power))
        assert p.substitute(var, replacement) == sum((f * g for f, g in pairs), ZERO)

    @pytest.mark.parametrize("var", ["x", "", "ab", "A", 0, None, ["a"]])
    def test_substitute_refuses_an_unknown_variable(self, var):
        with pytest.raises(ValueError) as err:
            (A * B).substitute(var, B)
        assert str(err.value) == f"unknown variable {var!r}, expected one of a, b, c"


def random_homogeneous(rng, degree, bits):
    """A random polynomial homogeneous of ``degree`` (a, b of degree 1, c of
    degree 2), with coefficients of both signs below 2^bits in size."""
    monos = [
        (degree - eb - 2 * ec, eb, ec)
        for ec in range(degree // 2 + 1)
        for eb in range(degree - 2 * ec + 1)
    ]
    chosen = rng.sample(monos, rng.randint(1, len(monos)))
    return Polynomial({m: rng.choice((-1, 1)) * rng.getrandbits(bits) for m in chosen})


class TestKroneckerCodec:
    def test_round_trip(self):
        rng = random.Random(20090101)
        for _ in range(300):
            degree = rng.randrange(12)
            bits = rng.choice((1, 7, 64, 65, 130))
            poly = random_homogeneous(rng, degree, bits)
            codec = KroneckerCodec((1 << bits) - 1, degree + 1 + rng.randrange(3))
            assert codec.unpack(codec.pack(poly, degree), degree) == poly

    def test_one_codec_round_trips_degrees_in_any_order(self):
        # a codec keeps no state between calls: any degree, in any order
        rng = random.Random(34)
        codec = KroneckerCodec((1 << 70) - 1, 13)
        degrees = [*range(13), *rng.sample(range(13), 13), 12, 0, 7]
        for degree in degrees:
            poly = random_homogeneous(rng, degree, 70)
            assert codec.unpack(codec.pack(poly, degree), degree) == poly

    def test_slot_extremes(self):
        # a bound of 2^64 - 1 needs 65 bits, so the slot is 9 bytes
        codec = KroneckerCodec((1 << 64) - 1, 5)
        assert codec.width == 72
        low, high = -(1 << 71), (1 << 71) - 1
        poly = Polynomial({(4, 0, 0): low, (3, 1, 0): high, (0, 0, 2): low, (0, 2, 1): high})
        assert codec.unpack(codec.pack(poly, 4), 4) == poly
        with pytest.raises(ValueError, match="does not fit"):
            codec.pack(Polynomial.monomial(4, 0, 0, high + 1), 4)
        with pytest.raises(ValueError, match="does not fit"):
            codec.pack(Polynomial.monomial(4, 0, 0, low - 1), 4)

    def test_products_are_single_multiplies(self):
        rng = random.Random(2009)
        for _ in range(100):
            dp, dq = rng.randrange(8), rng.randrange(8)
            p, q = random_homogeneous(rng, dp, 70), random_homogeneous(rng, dq, 70)
            codec = KroneckerCodec(p.norm() * q.norm(), dp + dq + 1)
            product = codec.pack(p, dp) * codec.pack(q, dq)
            assert codec.unpack(product, dp + dq) == p * q

    @pytest.mark.parametrize("width", [1, 2, 8, 65])
    def test_bound_sets_the_width(self, width):
        # a bound of 2^(w-1) - 1 needs w bits, which round up to whole
        # bytes; the digits hold the bound and end at 2^(width-1) - 1
        bound = (1 << (width - 1)) - 1
        codec = KroneckerCodec(bound, 3)
        assert codec.width == 8 * -(-width // 8)
        poly = Polynomial({(2, 0, 0): bound, (1, 1, 0): -bound, (0, 0, 1): bound})
        assert codec.unpack(codec.pack(poly, 2), 2) == poly
        with pytest.raises(ValueError, match="does not fit"):
            codec.pack(Polynomial.monomial(0, 0, 1, 1 << (codec.width - 1)), 2)

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "bound, width",
        [
            (bound, 8 * k if bound < 1 << (8 * k - 1) else 8 * k + 8)
            for k in range(1, 10)
            for bound in ((1 << (8 * k - 1)) - 1, 1 << (8 * k - 1), (1 << (8 * k)) - 1)
        ],
    )
    def test_byte_slots(self, bound, width, stride):
        # the least whole bytes that hold [-bound, bound]; at the top degree
        # the stride allows, every monomial round-trips the bound's and the
        # slot's extremes, one past the slot is refused, and products whose
        # l1 norms the bound holds (at most 16 pairs of terms) unpack
        codec = KroneckerCodec(bound, stride)
        assert codec.width == width
        degree = stride - 1
        monos = [
            (degree - eb - 2 * ec, eb, ec)
            for ec in range(degree // 2 + 1)
            for eb in range(degree - 2 * ec + 1)
        ]
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
        extremes = [bound, -bound, low, high]
        for coeff in extremes:
            poly = Polynomial({m: coeff for m in monos})
            assert codec.unpack(codec.pack(poly, degree), degree) == poly
        mixed = Polynomial({m: extremes[i % 4] for i, m in enumerate(monos)})
        assert codec.unpack(codec.pack(mixed, degree), degree) == mixed
        for coeff in (low - 1, high + 1):
            with pytest.raises(ValueError, match="does not fit"):
                codec.pack(Polynomial({monos[-1]: coeff}), degree)
        rng = random.Random(bound * 8 + stride)
        bits = (bound.bit_length() - 5) // 2
        for _ in range(20):
            dp = rng.randrange(stride)
            dq = rng.randrange(stride - dp)
            p, q = random_homogeneous(rng, dp, bits), random_homogeneous(rng, dq, bits)
            assert p.norm() * q.norm() <= bound
            assert codec.unpack(codec.pack(p, dp) * codec.pack(q, dq), dp + dq) == p * q

    def test_negative_bound_is_refused(self):
        with pytest.raises(ValueError, match="needs bound >= 0 and stride >= 1, not -1, 3"):
            KroneckerCodec(-1, 3)

    @pytest.mark.parametrize(
        "bound,stride,message",
        [
            (1.5, 3, "a codec's bound must be an int, not 1.5"),
            (True, 3, "a codec's bound must be an int, not True"),
            (127, 3.0, "a codec's stride must be an int, not 3.0"),
            (127, True, "a codec's stride must be an int, not True"),
        ],
    )
    def test_bound_or_stride_that_is_not_an_int_is_refused(self, bound, stride, message):
        with pytest.raises(ValueError) as err:
            KroneckerCodec(bound, stride)
        assert str(err.value) == message

    def test_zero(self):
        codec = KroneckerCodec(127, 3)
        assert codec.pack(ZERO, 2) == codec.pack(ZERO, -1) == 0
        assert codec.unpack(0, 2) == ZERO
        assert codec.unpack(0, -1) == ZERO

    def test_non_homogeneous_input_raises(self):
        codec = KroneckerCodec(127, 4)
        with pytest.raises(ValueError, match="not homogeneous"):
            codec.pack(A + C, 1)
        with pytest.raises(ValueError, match="not homogeneous"):
            codec.pack(C, 1)  # c has degree 2
        with pytest.raises(ValueError, match="not homogeneous"):
            codec.pack(ONE, -1)

    def test_degree_must_be_below_the_stride(self):
        with pytest.raises(ValueError, match="stride"):
            KroneckerCodec(127, 3).pack(A * A * A, 3)

    def test_negative_a_exponent_raises(self):
        codec = KroneckerCodec(127, 4)
        # slot 3 is b^3, which a value of degree 2 cannot hold
        with pytest.raises(ValueError, match="a\\^-1"):
            codec.unpack(1 << 24, 2)

    @pytest.mark.parametrize(
        "digits, message",
        [
            ({12: 1}, "b^5 c^1 in a value of degree 5: a^-2"),
            ({6: -3}, "b^6 c^0 in a value of degree 5: a^-1"),
            ({13: 2, 11: -1}, "b^4 c^1 in a value of degree 5: a^-1"),
            ({6: 1, 12: 1}, "b^6 c^0 in a value of degree 5: a^-1"),
        ],
    )
    def test_digit_outside_the_triangle_is_named(self, digits, message):
        # degree 5, stride 7: row c^0 holds b^0..b^5 in slots 0-5, row c^1
        # b^0..b^3 in slots 7-10, row c^2 b^0, b^1 in slots 14, 15; slots
        # 6 and 11-13 must be zero, and the lowest nonzero one is named
        codec = KroneckerCodec(127, 7)
        poly = A * A * A * A * A + (B * C * C).scaled(-3) + (A * B * B * C).scaled(2)
        value = codec.pack(poly, 5) + sum(z << (codec.width * k) for k, z in digits.items())
        with pytest.raises(ValueError) as err:
            codec.unpack(value, 5)
        assert str(err.value) == message
        assert codec.unpack(codec.pack(poly, 5), 5) == poly

    def test_value_outside_its_slots_raises(self):
        codec = KroneckerCodec(127, 4)
        with pytest.raises(ValueError, match="leaves its"):
            codec.unpack(1 << 40, 2)
        with pytest.raises(ValueError, match="negative degree"):
            codec.unpack(1, -1)

    def test_norm(self):
        assert (A.scaled(3) - (B * B).scaled(-4)).norm() == 7
        assert ZERO.norm() == 0
