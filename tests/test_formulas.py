import functools
import hashlib
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmotzkin import formulas
from gmotzkin.enumeration import Constraints, weight_sum
from gmotzkin.formulas import (
    _from_k_basis,
    binom,
    catalan,
    dyck_weight,
    f_closed,
    fixed_point_sequences,
    g_uvv_closed,
    gbar_uvv_closed,
    motzkin_weight,
    relation_checks,
    schroder_weight,
    specialization_checks,
)
from gmotzkin.polyring import ONE, VAR_A, VAR_B, VAR_C, ZERO, Polynomial
from gmotzkin.verify import FIXED_POINT_COUNTS, Harness

A, B = VAR_A, VAR_B

LENGTH_ENTRY_POINTS = [
    lambda n: g_uvv_closed(n, 1),
    lambda n: gbar_uvv_closed(n, 1),
    f_closed,
    dyck_weight,
    motzkin_weight,
    schroder_weight,
    catalan,
    fixed_point_sequences,
]


class TestBinom:
    def test_negative_lower_index(self):
        assert binom(5, -1) == 0
        assert binom(-2, -3) == 0

    def test_zero_lower_index(self):
        assert binom(0, 0) == 1
        assert binom(-1, 0) == 1
        assert binom(-7, 0) == 1

    def test_standard_values(self):
        assert binom(5, 2) == 10
        assert binom(4, 7) == 0

    def test_negative_top(self):
        assert binom(-1, 1) == -1
        assert binom(-1, 2) == 1
        assert binom(-2, 3) == -4
        assert binom(-3, 2) == 6

    @pytest.mark.parametrize("m, r", [(True, 2), (2, False), ("3", 1), (2.5, 1), (3, None)])
    def test_rejects_an_argument_that_is_no_int(self, m, r):
        # a bool would be read as 0 or 1
        with pytest.raises(ValueError, match="binom takes two ints"):
            binom(m, r)


def catalan_by_convolution(n):
    vals = [1]
    for _ in range(n):
        vals.append(sum(vals[i] * vals[-1 - i] for i in range(len(vals))))
    return vals[n]


class TestClassicalWeights:
    def test_catalan(self):
        assert catalan(0) == 1
        assert catalan(5) == 42
        assert catalan(10) == 16796

    @pytest.mark.parametrize("n", range(12))
    def test_catalan_matches_convolution(self, n):
        assert catalan(n) == catalan_by_convolution(n)

    def test_dyck_weight(self):
        assert dyck_weight(0) == ONE
        assert dyck_weight(1) == A
        assert dyck_weight(2) == A * A + A * B

    def test_motzkin_weight(self):
        assert motzkin_weight(2) == A * A + B
        assert motzkin_weight(3) == A * A * A + (A * B).scaled(3)

    def test_schroder_weight(self):
        assert schroder_weight(1) == A + B
        values = [schroder_weight(n).eval(1, 1, 0) for n in range(6)]
        assert values == [1, 2, 6, 22, 90, 394]

    def test_dyck_weight_is_the_narayana_polynomial(self):
        for n in range(1, 61):
            terms = {}
            for k in range(1, n + 1):
                q, r = divmod(math.comb(n, k) * math.comb(n, k - 1), n)
                assert r == 0, (n, k)
                terms[k, n - k, 0] = q
            assert dyck_weight(n) == Polynomial(terms), n

    @pytest.mark.parametrize("n", range(7))
    def test_dyck_specializes_to_catalan(self, n):
        assert dyck_weight(n).eval(1, 1, 0) == catalan(n)

    @pytest.mark.parametrize("n", range(7))
    def test_motzkin_equals_oracle(self, n):
        # (a,b)-Motzkin paths are exactly the v-free paths with d weighted b
        oracle = weight_sum(n, Constraints(avoid=("v",)))
        assert oracle.substitute("c", B) == motzkin_weight(n)


# binom(2n, n) = (n + 1) Cat(n), so with it one too large at n = OFF_N the
# t-extraction's first row entry, a^0 b^n k^0, is 1 mod n + 1.
OFF_N = 4
OFF_MESSAGE = (f"coefficient {math.comb(2 * OFF_N, OFF_N) + 1} of a^0 b^{OFF_N} k^0"
               f" is not divisible by n + 1 = {OFF_N + 1}")


@pytest.fixture
def central_binomial_plus_one(monkeypatch):
    def comb(m, r):
        return math.comb(m, r) + (m == 2 * OFF_N and r == OFF_N)

    monkeypatch.setattr(formulas, "comb", comb)


class TestClosedForms:
    @pytest.mark.parametrize("form", [1, 2, 3, 4, 5])
    def test_g_uvv_base(self, form):
        assert g_uvv_closed(0, form) == ONE

    @pytest.mark.parametrize("form", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", range(7))
    def test_g_uvv_matches_oracle(self, n, form):
        assert g_uvv_closed(n, form) == weight_sum(n, Constraints(avoid=("uvv",)))

    def test_g_uvv_schroder_value(self):
        assert g_uvv_closed(5, 3).eval(1, 1, 1) == 394

    def test_g_uvv_unknown_form(self):
        for form in (6, 0, True, 1.0, "1"):
            with pytest.raises(ValueError, match="unknown form"):
                g_uvv_closed(3, form)

    @pytest.mark.parametrize("form", [1, 2, 3])
    @pytest.mark.parametrize("n", range(7))
    def test_gbar_matches_oracle(self, n, form):
        oracle = weight_sum(n, Constraints(avoid=("uvv",), forbid_h_on_axis=True))
        assert gbar_uvv_closed(n, form) == oracle

    def test_gbar_small_values(self):
        assert gbar_uvv_closed(0, 1) == ONE
        assert gbar_uvv_closed(1, 2) == B
        assert gbar_uvv_closed(2, 3) == A * B + B * B + VAR_C

    def test_gbar_unknown_form(self):
        for form in (4, 0, True, 1.0, "1"):
            with pytest.raises(ValueError, match="unknown form"):
                gbar_uvv_closed(3, form)

    @pytest.mark.parametrize("closed, form", [(g_uvv_closed, 3), (g_uvv_closed, 4), (g_uvv_closed, 5),
                                              (gbar_uvv_closed, 1), (gbar_uvv_closed, 2),
                                              (gbar_uvv_closed, 3)])
    def test_a_sum_not_divisible_by_n_plus_1_raises(self, central_binomial_plus_one, closed, form):
        with pytest.raises(ValueError) as err:
            closed(OFF_N, form)
        assert str(err.value) == OFF_MESSAGE

    def test_criterion_1_reports_a_sum_not_divisible_by_n_plus_1(self, central_binomial_plus_one):
        result = Harness(max_n=OFF_N).criterion_1()
        assert not result.ok
        assert result.detail == f"ValueError: {OFF_MESSAGE}"

    def test_closed_form_digest(self):
        """Every form's JSON for n <= 70 (g) and n <= 60 (gbar), pinned by
        its SHA-256."""
        digest = hashlib.sha256()
        for closed, max_n, forms in ((g_uvv_closed, 70, 5), (gbar_uvv_closed, 60, 3)):
            for n in range(max_n + 1):
                for form in range(1, forms + 1):
                    line = json.dumps(closed(n, form).to_json_obj()) + "\n"
                    digest.update(line.encode())
        assert digest.hexdigest() == (
            "e818f4bddc430cdb77b95a3d46d972c44cccfce1eba0d6e9440bc186c6e175ee"
        )


RELATION_POINTS = [(1, 2, 3), (-3, 4, 16), (2, -1, 5)]
RELATION_MAX_N = 40
PAST_THE_ORACLE = [45, 61, 80]


def large_schroder(n):
    """By (m + 1) S_m = 3(2m - 1) S_(m-1) - (m - 2) S_(m-2), S_0 = 1, S_1 = 2."""
    s = [1, 2]
    for m in range(2, n + 1):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return s[n]


@functools.cache
def values_at_relation_points(closed, form):
    polys = [closed(n, form) for n in range(RELATION_MAX_N + 1)]
    return {point: [p.eval(*point) for p in polys] for point in RELATION_POINTS}


class TestClosedFormsAgainstOneAnother:
    """Checks past the oracle's reach that use no series."""

    @pytest.mark.parametrize("gbar_form", [1, 2, 3])
    @pytest.mark.parametrize("g_form", [1, 2])
    def test_g_from_gbar(self, g_form, gbar_form):
        # T = xG and H = Gbar satisfy x H (1 + aT) = T, so H (1 + axG) = G:
        # G_n = H_n + a sum_(i<n) H_i G_(n-1-i)
        g_values = values_at_relation_points(g_uvv_closed, g_form)
        h_values = values_at_relation_points(gbar_uvv_closed, gbar_form)
        for point in RELATION_POINTS:
            g, h = g_values[point], h_values[point]
            for n in range(RELATION_MAX_N + 1):
                tail = sum(h[i] * g[n - 1 - i] for i in range(n))
                assert g[n] == h[n] + point[0] * tail, (point, n)

    @pytest.mark.parametrize("form", [1, 2, 3, 4, 5])
    def test_g_counts_schroder_and_dyck_paths(self, form):
        for n in PAST_THE_ORACLE:
            g = g_uvv_closed(n, form)
            assert g.eval(1, 1, 1) == large_schroder(n), n
            assert g.eval(0, 1, 1) == catalan_by_convolution(n), n

    @pytest.mark.parametrize("form", [1, 2, 3])
    def test_gbar_counts_dyck_paths(self, form):
        for n in PAST_THE_ORACLE:
            assert gbar_uvv_closed(n, form).eval(0, 1, 1) == catalan_by_convolution(n), n


class TestInputChecks:
    @pytest.mark.parametrize("entry", LENGTH_ENTRY_POINTS)
    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None, sys.maxsize + 1, 10**30])
    def test_length_must_be_an_int(self, entry, n):
        # past sys.maxsize no list or range can take the length; math.comb
        # raised OverflowError there
        if type(n) is int:
            message = f"^length n must be at most sys.maxsize, not {n}$"
        else:
            message = "length n must be an int"
        with pytest.raises(ValueError, match=message):
            entry(n)

    @pytest.mark.parametrize("entry", LENGTH_ENTRY_POINTS)
    def test_length_must_be_nonnegative(self, entry):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            entry(-1)

    def test_catalan_checks_a_bool_after_the_equal_int(self):
        # True == 1, so a cache keyed on the value would answer it unchecked
        assert catalan(1) == 1
        with pytest.raises(ValueError, match="length n must be an int"):
            catalan(True)

    def test_specialization_checks_take_a_polynomial(self):
        with pytest.raises(ValueError) as err:
            specialization_checks(3, 5)
        assert str(err.value) == "specialization_checks takes a Polynomial G_n^uvv, not 5"


class TestKBasis:
    """``_from_k_basis(rows, n)`` reads rows[ea][j] as the coefficient of
    a^ea b^(n-ea-2j) (c - b^2)^j, a term of degree n."""

    @pytest.mark.parametrize("j", range(13))
    def test_power_of_k(self, j):
        power = ONE
        for _ in range(j):
            power = power * (VAR_C - B * B)
        assert _from_k_basis([[0] * j + [1]], 2 * j) == power

    def test_shifted_and_scaled_keys_add(self):
        k = VAR_C - B * B
        # two rows, a^0 and a^2, of degree 7
        expected = (A * A * B * k * k).scaled(3) + (B * B * B * B * B * k).scaled(-5)
        assert _from_k_basis([[0, -5], [0, 0, 0], [0, 0, 3]], 7) == expected
        # row a^0 holds three terms and takes one Taylor shift; row a^1 holds one
        expected = (B * B * B * B).scaled(2) + (B * B * k).scaled(-3) + (k * k).scaled(5)
        expected += (A * B * k).scaled(7)
        assert _from_k_basis([[2, -3, 5], [0, 7]], 4) == expected

    def test_cancelling_terms_leave_no_zero_coefficient(self):
        # b^2 + (c - b^2) = c, and rows of zeros add nothing
        p = _from_k_basis([[1, 1], [0], [0]], 2)
        assert p == VAR_C
        assert [mono for mono, _ in p.terms()] == [(0, 0, 1)]
        assert _from_k_basis([[-1, -1], [0], [0]], 2) == -VAR_C

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_equal_the_sum_in_polynomial_arithmetic(self, data):
        n = data.draw(st.integers(0, 9), label="n")
        rows = [data.draw(st.lists(st.integers(-9, 9), max_size=(n - ea) // 2 + 1))
                for ea in range(data.draw(st.integers(0, n + 1)))]
        expected = ZERO
        for ea, row in enumerate(rows):
            for j, coeff in enumerate(row):
                term = Polynomial.monomial(ea, n - ea - 2 * j, 0, coeff)
                for _ in range(j):
                    term = term * (VAR_C - B * B)
                expected += term
        assert _from_k_basis([row[:] for row in rows], n) == expected


class TestRelations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_relations_hold(self, n):
        assert all(relation_checks(n).values())

    def test_requires_positive_n(self):
        with pytest.raises(ValueError, match="relations hold for n >= 1"):
            relation_checks(0)
        with pytest.raises(ValueError, match="length must be nonnegative"):
            relation_checks(-1)

    @pytest.mark.parametrize("n", ["3", 2.0, None, True])
    def test_rejects_a_length_that_is_no_int(self, n):
        with pytest.raises(ValueError, match="length n must be an int"):
            relation_checks(n)


class TestFixedPointCounts:
    @pytest.mark.parametrize("n", range(11))
    def test_closed_form(self, n):
        assert f_closed(n) == FIXED_POINT_COUNTS[n]

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence(self, n):
        assert fixed_point_sequences(n)[0][n] == FIXED_POINT_COUNTS[n]

    @pytest.mark.parametrize("nmax", range(13))
    def test_sequences_run_through_nmax(self, nmax):
        assert [len(seq) for seq in fixed_point_sequences(nmax)] == [nmax + 1] * 4

    def test_sequences_are_consistent(self):
        f, a, b, c = fixed_point_sequences(10)
        assert f == FIXED_POINT_COUNTS
        assert a[:5] == [1, 1, 2, 7, 23]
        assert all(f[n] == a[n] + b[n] + c[n] for n in range(11))
        assert all(c[n] == a[n - 1] for n in range(3, 11))
        assert c[:3] == [0, 0, 2]
        assert all(b[n] == a[n - 1] + c[n - 1] for n in range(1, 11))
        assert all(f[n] == a[n] + 2 * a[n - 1] + a[n - 2] for n in range(4, 11))
        # the convolution that defines f, re-checked directly
        for n in range(1, 10):
            conv = sum(a[k] * f[n - k] for k in range(1, n + 1))
            assert f[n + 1] == f[n] + 2 * f[n - 1] + conv
