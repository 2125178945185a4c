import random
import sys
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
from gmotzkin.polyring import (
    ONE,
    VAR_A,
    VAR_B,
    VAR_C,
    ZERO,
    DivergenceError,
    KroneckerCodec,
    Polynomial,
)
from gmotzkin.series import KINDS, expand, solve

A, B, C = VAR_A, VAR_B, VAR_C
B2 = B * B
# the kinds whose rows solve takes; T's expansion is G_uvv's, shifted
SOLVED = tuple(kind for kind in KINDS if kind != "T")


class TestExpand:
    def test_catalan(self):
        s = expand("C", 5)
        assert [p.eval(0, 0, 0) for p in s.coeffs] == [1, 1, 2, 5, 14, 42]

    def test_g_uvv_low_orders(self):
        s = expand("G_uvv", 2)
        assert s.coeffs[0] == ONE
        assert s.coeffs[1] == A + B
        assert s.coeffs[2] == A * A + (A * B).scaled(3) + B * B + C

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
        assert t.coeffs[0] == ZERO
        assert t.coeffs[1:] == g.coeffs

    def test_t_at_order_0(self):
        assert expand("T", 0).coeffs == (ZERO,)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            expand("Q", 4)

    @pytest.mark.parametrize("kind", [["G"], {"G"}, None])
    def test_kind_that_is_no_str(self, kind):
        with pytest.raises(ValueError, match="unknown generating function kind"):
            expand(kind, 4)

    @pytest.mark.parametrize("order", [2.0, "3", None, True, sys.maxsize + 1, 10**30])
    def test_order_that_is_not_an_int(self, order):
        # past sys.maxsize the solver's padding raised OverflowError; T's
        # order is checked before G_uvv's row is solved one order lower
        if type(order) is int:
            message = f"^order must be at most sys.maxsize, not {order}$"
        else:
            message = "order must be an int"
        for kind in ("G", "T"):
            with pytest.raises(ValueError, match=message):
                expand(kind, order)

    @pytest.mark.parametrize("kind,v", [("G", 1), ("T", 0)])
    def test_order_whose_row_passes_sys_maxsize(self, kind, v):
        # R's row runs through x^(order + v), longer than a list can be
        message = f"^order must be at most sys.maxsize - {v + 1} for this row, not {sys.maxsize}$"
        with pytest.raises(ValueError, match=message):
            expand(kind, sys.maxsize)

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_kinds_expand(self, kind):
        coeffs = expand(kind, 4).coeffs
        assert type(coeffs) is tuple and len(coeffs) == 5
        assert all(type(p) is Polynomial for p in coeffs)

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
        assert expand(kind, n).coeffs[n] == weight_sum(n, cons)

    @pytest.mark.parametrize("n", range(6))
    def test_gbar_matches_oracle(self, n):
        cons = Constraints(avoid=("uvv",), forbid_h_on_axis=True)
        assert expand("Gbar_uvv", n).coeffs[n] == weight_sum(n, cons)

    def test_verify_expands_each_series_once(self, monkeypatch):
        # one expansion per kind, at the largest order any check reads:
        # max(series_order + 1, avoid_nmax)
        calls, orders = Counter(), set()
        real_expand = series.expand

        def counted(kind, order):
            calls[kind] += 1
            orders.add(order)
            return real_expand(kind, order)

        monkeypatch.setattr(series, "expand", counted)
        monkeypatch.setattr(verify, "expand", counted)
        assert all(r.ok for r in verify.Harness(max_n=3, series_order=8).run_all())
        # criterion 9 reads T's and A's rows, not their series
        expanded = Counter(set(KINDS) - {"C", "T", "A"})
        assert calls == expanded, calls
        assert orders == {9}
        calls.clear()
        orders.clear()
        assert all(r.ok for r in verify.Harness(max_n=6, series_order=2).run_all())
        assert calls == expanded and orders == {6}, (calls, orders)


class TestHighOrder:
    def test_g_uvv_matches_closed_form_at_order_40(self):
        s = expand("G_uvv", 40)
        for n in range(36, 41):
            for form in range(1, 6):
                assert s.coeffs[n] == g_uvv_closed(n, form), (n, form)

    def test_g_uvv_matches_closed_form_at_order_60(self):
        s = expand("G_uvv", 60)
        for n in range(56, 61):
            for form in range(1, 6):
                assert s.coeffs[n] == g_uvv_closed(n, form), (n, form)

    def test_g_uvv_matches_closed_form_at_order_100(self):
        s = expand("G_uvv", 100)
        for n in range(96, 101):
            for form in range(1, 6):
                assert s.coeffs[n] == g_uvv_closed(n, form), (n, form)

    def test_gbar_uvv_matches_closed_form_at_order_36(self):
        s = expand("Gbar_uvv", 36)
        for n in range(32, 37):
            for form in range(1, 4):
                assert s.coeffs[n] == gbar_uvv_closed(n, form), (n, form)

    def test_catalan_at_order_200(self):
        s = expand("C", 200)
        assert [p.eval(0, 0, 0) for p in s.coeffs] == [catalan(n) for n in range(201)]

    def test_fixed_point_classes_at_order_200(self):
        f, a, _, _ = fixed_point_sequences(200)
        assert [p.eval(0, 0, 0) for p in expand("F", 200).coeffs] == f
        assert [p.eval(0, 0, 0) for p in expand("A", 200).coeffs] == a


class TestFixedPoint:
    """The solver's root of D S = P + Q S^2, the equation's unique series
    fixed point."""

    def test_catalan_equation_matches_convolution_oracle(self):
        s = solve([ONE], [ZERO, ONE], [ONE], 8)
        expected = [catalan_by_convolution(n) for n in range(9)]
        assert list(s.coeffs) == consts(*expected)

    def test_weighted_path_equation(self):
        # independently derived by listing the paths of length 0, 1 and 2
        s = solve([ONE], [ZERO, B, C], [ONE, -A], 2)
        assert s.coeffs[0] == ONE
        assert s.coeffs[1] == A + B
        assert s.coeffs[2] == A * A + (A * B).scaled(3) + (B * B).scaled(2) + C

    def test_constant_square_term_with_zero_constant_root(self):
        # S = x + S^2 is x C(x), a shifted row like T's: solve takes rows
        # with Q_0 = 0 only, and a shifted kind is its base's expansion
        with pytest.raises(ValueError, match="^Q_0 must be 0, not 1: solve takes path rows only$"):
            solve([ZERO, ONE], [ONE], [ONE], 6)

    def test_divergence(self):
        # S = 1 + S^2 has no power-series root; Q_0 != 0 is refused first
        with pytest.raises(ValueError, match="^Q_0 must be 0, not 1: "):
            solve([ONE], [ONE], [ONE], 3)

    def test_failed_full_order_check(self):
        # D_0 = 2 breaks the recurrence, which assumes D_0 = 1
        with pytest.raises(DivergenceError, match="fails D S = P"):
            solve([ONE], [ZERO, ONE], [ONE + ONE], 3)

    @pytest.mark.parametrize("q", [[], [ZERO], [ZERO, ZERO]], ids=["[]", "[0]", "[0, 0]"])
    def test_zero_q_is_refused(self, q):
        message = "^Q must be nonzero: solve takes quadratic rows only$"
        with pytest.raises(ValueError, match=message):
            solve([ONE], q, [ONE, -A], 3)


def needed_width(s):
    """The least whole-byte balanced slot width holding every coefficient of s."""
    top = max(k if k >= 0 else ~k for c in s.coeffs for _, k in c.terms())
    return 8 * (top.bit_length() // 8 + 1)


class TestPackedSolver:
    """The solve's slot width and the full-order check that packs anew."""

    @staticmethod
    def expand_with_solve_width(monkeypatch, kind, order, width):
        """expand(kind, order) with the solve's slots forced to ``width``
        bits, a multiple of 8, by a bound of 2^(width-1) - 1; the check's
        codec, built second, keeps its own bound."""
        built = []

        def codec(bound, stride):
            built.append(bound)
            return KroneckerCodec((1 << (width - 1)) - 1 if len(built) == 1 else bound, stride)

        monkeypatch.setattr(series, "KroneckerCodec", codec)
        return expand(kind, order)

    @pytest.mark.parametrize("kind", ["G_uvv", "T", "Gbar_uvv", "F"])
    def test_slot_one_bit_too_narrow_raises(self, kind, monkeypatch):
        # slots are whole bytes, so the next narrower width is one byte less
        expected = expand(kind, 20)
        width = needed_width(expected)
        assert self.expand_with_solve_width(monkeypatch, kind, 20, width) == expected
        with pytest.raises(DivergenceError):
            self.expand_with_solve_width(monkeypatch, kind, 20, width - 8)

    def test_narrow_slot_that_decodes_fails_the_check(self, monkeypatch):
        # a byte too narrow at order 20, G_uvv's s_n all unpack, wrongly
        expected = expand("G_uvv", 20)
        with pytest.raises(DivergenceError, match="fails D S = P"):
            self.expand_with_solve_width(monkeypatch, "G_uvv", 20, needed_width(expected) - 8)

    @pytest.mark.parametrize(
        "row",
        [
            ([ONE], [ZERO, A + C], [ONE]),  # a + c is not homogeneous
            ([ONE], [ZERO, B], [ONE, C]),  # Q_1 sets g = 1, so D_1 needs degree 1
            ([ONE, A], [ZERO, ONE], [ONE]),  # Q_1 sets g = 0, so P_1 needs degree 0
            ([ONE], [ZERO, ZERO, B], [ONE]),  # deg Q_2 = 1 is no multiple of v = 2
            ([ONE], [ZERO, ZERO, A * C], [ONE]),  # nor is deg Q_2 = 3
        ],
    )
    def test_row_without_grading_raises(self, row):
        with pytest.raises(ValueError, match="homogeneous"):
            solve(*row, 6)

    def test_non_homogeneous_entry_of_p_raises(self):
        # P_1 = a + c: Q_1 = b sets g = 1, and packing finds c, of degree 2
        with pytest.raises(ValueError, match="^a \\+ c is not homogeneous of degree 1$"):
            solve([ONE, A + C], [ZERO, B], [ONE, -A], 6)

    def test_grading_with_g_2(self):
        # S = 1 + x c S^2 is the Catalan series in x c
        s = solve([ONE], [ZERO, C], [ONE], 6)
        assert s.coeffs == tuple(
            Polynomial.monomial(0, 0, n, catalan(n)) for n in range(7)
        )


class TestCertificate:
    """series._check, the certificate, refuses a series with one changed
    coefficient; it is called with the arguments that solve passes it."""

    ORDER = 20

    @staticmethod
    def check_arguments(monkeypatch, row, order):
        seen = []
        real = series._check

        def spy(*args):
            seen.append(args)
            real(*args)

        monkeypatch.setattr(series, "_check", spy)
        solve(*row, order)
        (args,) = seen
        return args

    @staticmethod
    def changes(e):
        """Each change with what refuses it: +1 or -1 at degree 0, else a^e
        and -a^(e mod 2) c^(e div 2), refused by the residuals; and
        a^(e+1) - a^e, which is 0 at a = 1, where s is packed, and which
        packing refuses as not homogeneous."""
        residuals, packing = (DivergenceError, "fails D S = P"), (ValueError, "not homogeneous")
        return [
            (Polynomial.monomial(e, 0, 0), residuals),
            (Polynomial.monomial(e % 2, 0, e // 2, -1), residuals),
            (Polynomial.monomial(e + 1, 0, 0) - Polynomial.monomial(e, 0, 0), packing),
        ]

    @pytest.mark.parametrize("row", [series._EQUATIONS[kind] for kind in SOLVED], ids=SOLVED)
    @pytest.mark.parametrize("n", [1, ORDER // 2, ORDER])
    def test_one_changed_coefficient_fails(self, monkeypatch, row, n):
        ps, qs, ds, s, g, stride = self.check_arguments(monkeypatch, row, self.ORDER)
        series._check(ps, qs, ds, s, g, stride)
        for change, (error, message) in self.changes(g * n):
            changed = list(s)
            changed[n] += change
            with pytest.raises(error, match=message):
                series._check(ps, qs, ds, changed, g, stride)

    def test_twice_the_catalan_series_fails(self, monkeypatch):
        # the residuals of R = D - 2QS for m >= 2 leave r_1 free, and 2 C is
        # the series with r_1 = -4: only the m = 1 residual refuses it
        ps, qs, ds, s, g, stride = self.check_arguments(monkeypatch, series._EQUATIONS["C"], 12)
        twice = [c.scaled(2) for c in s]
        with pytest.raises(DivergenceError, match="fails D S = P"):
            series._check(ps, qs, ds, twice, g, stride)


class TestRandomRows:
    """solve against the fixed-point sum, computed in Polynomial arithmetic,
    on random graded rows: g = 0, 1, 2 and Q = x^v Q~ with v = 1, 2."""

    ORDER = 6

    @staticmethod
    def homogeneous(rng, degree):
        """One to three monomials of ``degree``, with small coefficients."""
        monos = [
            (degree - eb - 2 * ec, eb, ec)
            for ec in range(degree // 2 + 1)
            for eb in range(degree - 2 * ec + 1)
        ]
        chosen = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        return Polynomial({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in chosen})

    def random_row(self, rng):
        g = rng.randint(0, 2)
        v = rng.choice((1, 2))
        maybe = lambda e: self.homogeneous(rng, e) if rng.random() < 0.7 else ZERO
        p = [maybe(g * n) for n in range(rng.randint(1, 3))]
        q = [ZERO] * v + [self.homogeneous(rng, g * v)] + [
            maybe(g * (v + i)) for i in range(1, rng.randint(1, 3))
        ]
        d = [ONE] + [maybe(g * n) for n in range(1, rng.randint(1, 4))]
        return p, q, d

    @staticmethod
    def fixed_point_sum(p, q, d, order):
        """s_n = P_n - sum_{i>=1} D_i s_(n-i) + sum_{i>=1} Q_i (S^2)_(n-i),
        as Q_0 = 0."""
        at = lambda row, i: row[i] if i < len(row) else ZERO
        s = []
        for n in range(order + 1):
            pairs = [(-at(d, i), s[n - i]) for i in range(1, n + 1)]
            for i in range(1, n + 1):
                m = n - i
                pairs += [(at(q, i), s[j] * s[m - j]) for j in range(m + 1)]
            s.append(at(p, n) + sum((f * g for f, g in pairs), ZERO))
        return s

    @pytest.mark.parametrize("seed", range(40))
    def test_solve_equals_the_fixed_point_sum(self, seed):
        row = self.random_row(random.Random(seed))
        assert list(solve(*row, self.ORDER).coeffs) == self.fixed_point_sum(*row, self.ORDER)


class TestBounds:
    """The bounds that solve and its certificate give KroneckerCodec, each
    against what it bounds, computed apart from them: with a right series
    every residual is 0 whatever the width, so no other test sees a bound
    that is too small."""

    ORDER = 20

    @staticmethod
    def recorded_bounds(monkeypatch):
        """The bounds of the codecs built from now on, in order."""
        bounds = []

        def codec(bound, stride):
            bounds.append(bound)
            return KroneckerCodec(bound, stride)

        monkeypatch.setattr(series, "KroneckerCodec", codec)
        return bounds

    @staticmethod
    def residuals(ps, qs, ds, s):
        """sum_i Delta_i (2m - 3i) r_(m-i) for m = 1..order + v, with R = D -
        2QS and Delta = D^2 - 4PQ, in Polynomial arithmetic."""
        at = lambda row, i: row[i] if i < len(row) else ZERO
        conv = lambda f, h, m: sum((at(f, i) * at(h, m - i) for i in range(m + 1)), ZERO)
        top = len(s) - 1 + next(i for i, c in enumerate(qs) if c)
        r = [at(ds, m) - conv(qs, s, m).scaled(2) for m in range(top + 1)]
        disc = [conv(ds, ds, m) - conv(ps, qs, m).scaled(4) for m in range(top + 1)]
        return [
            sum(((disc[i] * r[m - i]).scaled(2 * m - 3 * i) for i in range(m + 1)), ZERO)
            for m in range(1, top + 1)
        ]

    def assert_majorant_bounds_the_series(self, monkeypatch, row, order):
        bounds = self.recorded_bounds(monkeypatch)
        s = solve(*row, order)
        solve_bound, _ = bounds
        assert solve_bound >= max(c.norm() for c in s.coeffs)

    @pytest.mark.parametrize("kind", SOLVED)
    def test_majorant_bounds_every_coefficient(self, monkeypatch, kind):
        self.assert_majorant_bounds_the_series(monkeypatch, series._EQUATIONS[kind], self.ORDER)

    @pytest.mark.parametrize("seed", range(40))
    def test_majorant_bounds_every_coefficient_of_a_random_row(self, monkeypatch, seed):
        row = TestRandomRows().random_row(random.Random(seed))
        self.assert_majorant_bounds_the_series(monkeypatch, row, self.ORDER)

    @pytest.mark.parametrize("kind", SOLVED)
    @pytest.mark.parametrize("n", [1, ORDER // 2, ORDER])
    def test_certificate_bound_holds_every_residual(self, monkeypatch, kind, n):
        args = TestCertificate.check_arguments(monkeypatch, series._EQUATIONS[kind], self.ORDER)
        ps, qs, ds, s, g, stride = args
        assert not any(self.residuals(ps, qs, ds, s))
        # a change larger than every coefficient, so that the residuals
        # outgrow every operand that the certificate packs
        changed = list(s)
        changed[n] += Polynomial.monomial(g * n, 0, 0, 1 + max(c.norm() for c in s))
        bounds = self.recorded_bounds(monkeypatch)
        with pytest.raises(DivergenceError, match="fails D S = P"):
            series._check(ps, qs, ds, changed, g, stride)
        (bound,) = bounds
        assert bound >= max(c.norm() for c in self.residuals(ps, qs, ds, changed))


class TestIdentities:
    ORDER = 12

    def test_substitution_recovers_full_class(self):
        g_uvv = expand("G_uvv", self.ORDER)
        g = expand("G", self.ORDER)
        for n in range(self.ORDER + 1):
            assert g_uvv.coeffs[n].substitute("c", B2 + C) == g.coeffs[n]

    def test_classes_agree_at_c_eq_b_squared(self):
        g_uvv = expand("G_uvv", self.ORDER)
        g_uvu = expand("G_uvu", self.ORDER)
        for n in range(self.ORDER + 1):
            assert g_uvv.coeffs[n].substitute("c", B2) == g_uvu.coeffs[n].substitute("c", B2)

    def test_uvu_class_specializes_to_schroder(self):
        g_uvu = expand("G_uvu", 8)
        for n in range(9):
            assert g_uvu.coeffs[n].substitute("c", B2) == schroder_weight(n)

    def test_first_return_residual(self):
        # G = 1 + a x G + (b x + (c - b^2) x^2) G^2
        g = list(expand("G_uvv", self.ORDER).coeffs)
        n = len(g)
        rhs = add(
            padded([ONE], n),
            product(padded([ZERO, A], n), g),
            product(padded([ZERO, B, C - B2], n), product(g, g)),
        )
        assert g == rhs

    def test_t_equation_residual(self):
        # T (1 - a x) = x + (b + (c - b^2) x) T^2
        t = list(expand("T", self.ORDER).coeffs)
        n = len(t)
        lhs = product(padded([ONE, -A], n), t)
        rhs = add(padded([ZERO, ONE], n), product(padded([B, C - B2], n), product(t, t)))
        assert lhs == rhs

    def test_f_quadratic_residual(self):
        # x F^2 + (1 + x)^3 = (1 + 2x - 2x^2 - 4x^3 - x^4) F
        f = list(expand("F", self.ORDER).coeffs)
        n = len(f)
        lhs = add(product(padded([ZERO, ONE], n), product(f, f)), padded(consts(1, 3, 3, 1), n))
        assert lhs == product(padded(consts(1, 2, -2, -4, -1), n), f)

    def test_gbar_relation(self):
        # x Gbar (1 + a T) = T through x^(order + 1)
        n = self.ORDER + 2
        t = list(expand("T", n - 1).coeffs)
        x_gbar = padded([ZERO, *expand("Gbar_uvv", self.ORDER).coeffs], n)
        assert product(x_gbar, add(padded([ONE], n), [A * p for p in t])) == t


def catalan_by_convolution(n):
    vals = [1]
    for _ in range(n):
        vals.append(sum(vals[i] * vals[-1 - i] for i in range(len(vals))))
    return vals[n]


def consts(*values):
    """Series coefficients, the integer constants ``values``."""
    return [Polynomial.const(v) for v in values]


def padded(coeffs, length):
    """A polynomial in x, by its coefficients, as a series of ``length`` terms."""
    return list(coeffs) + [ZERO] * (length - len(coeffs))


def add(*series):
    """The coefficientwise sum of series of equal length."""
    return [sum(terms, ZERO) for terms in zip(*series)]


def product(s, t):
    """The coefficients of S T through the length of s; t is at least as long."""
    return [sum((s[i] * t[n - i] for i in range(n + 1)), ZERO) for n in range(len(s))]
