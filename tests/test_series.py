from collections import Counter

import pytest

from gmotzkin import series, verify
from gmotzkin.enumeration import Constraints, weight_sum
from gmotzkin.formulas import (
    catalan,
    fixed_point_sequences,
    g_uvv_closed,
    gbar_uvv_closed,
    schroder_weight,
)
from gmotzkin.polyring import ONE, VAR_A, VAR_B, VAR_C, ZERO, PowerSeries
from gmotzkin.series import KINDS, expand

A, B, C = VAR_A, VAR_B, VAR_C
B2 = B * B


class TestExpand:
    def test_catalan(self):
        s = expand("C", 5)
        assert [p.eval(0, 0, 0) for p in s.coeffs] == [1, 1, 2, 5, 14, 42]

    def test_g_uvv_low_orders(self):
        s = expand("G_uvv", 2)
        assert s.coefficient(0) == ONE
        assert s.coefficient(1) == A + B
        assert s.coefficient(2) == A * A + (A * B).scaled(3) + B * B + C

    def test_fixed_point_counts(self):
        s = expand("F", 10)
        values = [p.eval(0, 0, 0) for p in s.coeffs]
        assert values == [1, 2, 5, 13, 39, 125, 421, 1478, 5329, 19658, 73783]

    def test_class_a_counts(self):
        s = expand("A", 8)
        values = [p.eval(0, 0, 0) for p in s.coeffs]
        assert values == [1, 1, 2, 7, 23, 72, 254, 898, 3279]

    def test_t_is_shifted_g_uvv(self):
        t = expand("T", 6)
        g = expand("G_uvv", 5)
        assert t.coefficient(0) == ZERO
        assert t.shift_down() == g

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            expand("Q", 4)

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_kinds_expand(self, kind):
        s = expand(kind, 4)
        assert s.order == 4

    @pytest.mark.parametrize(
        "kind,tag",
        [
            ("G", None),
            ("G_uvv", ("uvv",)),
            ("G_uvu", ("uvu",)),
        ],
    )
    @pytest.mark.parametrize("n", range(6))
    def test_matches_oracle(self, kind, tag, n):
        cons = Constraints(avoid=tag) if tag else None
        assert expand(kind, n).coefficient(n) == weight_sum(n, cons)

    @pytest.mark.parametrize("n", range(6))
    def test_gbar_matches_oracle(self, n):
        cons = Constraints(avoid=("uvv",), forbid_h_on_axis=True)
        assert expand("Gbar_uvv", n).coefficient(n) == weight_sum(n, cons)

    def test_verify_expands_each_series_once(self, monkeypatch):
        calls = Counter()
        real_expand = series.expand

        def counted(kind, order):
            calls[kind, order] += 1
            return real_expand(kind, order)

        monkeypatch.setattr(series, "expand", counted)
        monkeypatch.setattr(verify, "expand", counted)
        assert all(r.ok for r in verify.Harness(max_n=3, series_order=8).run_all())
        assert calls and max(calls.values()) == 1, calls


class TestHighOrder:
    def test_g_uvv_matches_closed_form_at_order_40(self):
        s = expand("G_uvv", 40)
        for n in range(36, 41):
            assert s.coefficient(n) == g_uvv_closed(n, 3)

    def test_gbar_uvv_matches_closed_form_at_order_36(self):
        s = expand("Gbar_uvv", 36)
        for n in range(32, 37):
            assert s.coefficient(n) == gbar_uvv_closed(n, 1)

    def test_catalan_at_order_200(self):
        s = expand("C", 200)
        assert [p.eval(0, 0, 0) for p in s.coeffs] == [catalan(n) for n in range(201)]

    def test_fixed_point_classes_at_order_200(self):
        f, a, _, _ = fixed_point_sequences(200)
        assert expand("F", 200).evaluate(0, 0, 0) == f
        assert expand("A", 200).evaluate(0, 0, 0) == a


class TestIdentities:
    ORDER = 12

    def test_substitution_recovers_full_class(self):
        g_uvv = expand("G_uvv", self.ORDER)
        g = expand("G", self.ORDER)
        for n in range(self.ORDER + 1):
            assert g_uvv.coefficient(n).substitute("c", B2 + C) == g.coefficient(n)

    def test_classes_agree_at_c_eq_b_squared(self):
        g_uvv = expand("G_uvv", self.ORDER)
        g_uvu = expand("G_uvu", self.ORDER)
        for n in range(self.ORDER + 1):
            assert g_uvv.coefficient(n).substitute("c", B2) == g_uvu.coefficient(
                n
            ).substitute("c", B2)

    def test_uvu_class_specializes_to_schroder(self):
        g_uvu = expand("G_uvu", 8)
        for n in range(9):
            assert g_uvu.coefficient(n).substitute("c", B2) == schroder_weight(n)

    def test_first_return_residual(self):
        order = self.ORDER
        s = expand("G_uvv", order)
        one = PowerSeries.one(order)
        ax = PowerSeries.from_polys([ZERO, A], order)
        kern = PowerSeries.from_polys([ZERO, B, C - B2], order)
        assert s - one - ax * s - kern * (s * s) == PowerSeries.zero(order)

    def test_f_quadratic_residual(self):
        order = self.ORDER
        f = expand("F", order)
        x = PowerSeries.x(order)
        quad = PowerSeries.from_ints([1, 2, -2, -4, -1], order)
        cube = PowerSeries.from_ints([1, 3, 3, 1], order)
        assert x * f * f - quad * f + cube == PowerSeries.zero(order)

    def test_gbar_relation(self):
        order = self.ORDER
        t = expand("T", order + 1)
        gbar = expand("Gbar_uvv", order)
        one = PowerSeries.one(order + 1)
        assert gbar.shift_up() * (one + t.scaled(A)) == t

