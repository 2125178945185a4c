import pytest

from gmotzkin.enumeration import Constraints, weight_sum
from gmotzkin.formulas import (
    _from_k_basis,
    binom,
    catalan,
    dyck_weight,
    f_closed,
    f_recurrence,
    fixed_point_sequences,
    g_uvv_closed,
    gbar_uvv_closed,
    motzkin_weight,
    relation_checks,
    schroder_weight,
)
from gmotzkin.polyring import ONE, VAR_A, VAR_B, VAR_C

A, B = VAR_A, VAR_B

LENGTH_ENTRY_POINTS = [
    lambda n: g_uvv_closed(n, 1),
    lambda n: gbar_uvv_closed(n, 1),
    f_closed,
    f_recurrence,
    dyck_weight,
    motzkin_weight,
    schroder_weight,
    catalan,
    fixed_point_sequences,
]

FIXED_POINT_COUNTS = [1, 2, 5, 13, 39, 125, 421, 1478, 5329, 19658, 73783]


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

    @pytest.mark.parametrize("n", range(7))
    def test_dyck_specializes_to_catalan(self, n):
        assert dyck_weight(n).eval(1, 1, 0) == catalan(n)

    @pytest.mark.parametrize("n", range(7))
    def test_motzkin_equals_oracle(self, n):
        # (a,b)-Motzkin paths are exactly the v-free paths with d weighted b
        oracle = weight_sum(n, Constraints(avoid=("v",)))
        assert oracle.substitute("c", B) == motzkin_weight(n)


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


class TestInputChecks:
    @pytest.mark.parametrize("entry", LENGTH_ENTRY_POINTS)
    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_length_must_be_an_int(self, entry, n):
        with pytest.raises(ValueError, match="length n must be an int"):
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


class TestKBasis:
    """``_from_k_basis`` reads a key (ea, eb, j) as a^ea b^eb (c - b^2)^j."""

    @pytest.mark.parametrize("j", range(13))
    def test_power_of_k(self, j):
        power = ONE
        for _ in range(j):
            power = power * (VAR_C - B * B)
        assert _from_k_basis({(0, 0, j): 1}) == power

    def test_shifted_and_scaled_keys_add(self):
        k = VAR_C - B * B
        expected = (A * A * B * k * k).scaled(3) + (B * k).scaled(-5)
        assert _from_k_basis({(2, 1, 2): 3, (0, 1, 1): -5}) == expected

    def test_cancelling_terms_leave_no_zero_coefficient(self):
        # b^2 + (c - b^2) = c, and a key whose sum is 0 adds nothing
        p = _from_k_basis({(0, 2, 0): 1, (0, 0, 1): 1, (1, 0, 3): 0})
        assert p == VAR_C
        assert [mono for mono, _ in p.terms()] == [(0, 0, 1)]
        assert _from_k_basis({(0, 2, 0): -1, (0, 0, 1): -1, (0, 0, 0): 0}) == -VAR_C


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
        assert f_recurrence(n) == FIXED_POINT_COUNTS[n]

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
