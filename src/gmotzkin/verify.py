"""Self-verification suite: every headline claim checked by exact computation.

The nine checks cross-validate the package's four independent computation
routes (exhaustive enumeration, closed formulas, generating-function
expansion, and the bijection) against one another and against frozen
known values.  All comparisons are exact; there are no tolerances.

``Harness`` caches oracle weight sums by (class, n), series expansions by
(kind, order) and the bijection sweep by n, so one ``run_all`` computes each
of these once however many checks read it.  The caches do not share walks
between jobs: the weight sum, the sweep and the structural suite each
enumerate the uvv- and the uvu-avoiding class on their own, so at full
bounds each of the two classes is walked three times for n <= 8 and twice
for n = 9, 10.  ``max_n`` clamps the enumeration bounds for quicker runs;
the stated full bounds are length 10 for avoidance classes, 8 for the
unconstrained class and structural checks, and series order 30.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import bijection, formulas, samples
from .enumeration import AVOID_UVU, AVOID_UVV, BAR_UVV, generate, weight_sum
from .paths import (
    BASE,
    BASE_INV,
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CASE5,
    CASE6,
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_V,
    decompose_forward,
    decompose_inverse,
    is_primitive,
)
from .polyring import VAR_A, VAR_B, VAR_C, ZERO, Polynomial, PowerSeries
from .series import expand

# First eleven fixed-point counts of sigma, frozen as independent test data.
FIXED_POINT_COUNTS = [1, 2, 5, 13, 39, 125, 421, 1478, 5329, 19658, 73783]

_B2 = VAR_B * VAR_B


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.ok else ""
        return f"{status}  {self.name}{tail}"


@dataclass(frozen=True)
class _Sweep:
    size: int
    f: int
    a: int
    b: int
    c: int
    error: str | None


class Harness:
    """Runs the verification checks with shared caches."""

    def __init__(self, max_n: int | None = None, series_order: int = 30):
        full = 10**9 if max_n is None else max_n
        self.avoid_nmax = min(10, full)
        self.all_nmax = min(8, full)
        self.structural_nmax = min(8, full)
        self.series_order = series_order
        self._sums: dict[tuple[str, int], Polynomial] = {}
        self._series: dict[tuple[str, int], PowerSeries] = {}
        self._sweeps: dict[int, _Sweep] = {}

    # -- shared computations -------------------------------------------------

    def sums(self, tag: str, n: int) -> Polynomial:
        key = (tag, n)
        if key not in self._sums:
            cons = {
                "uvv": AVOID_UVV,
                "uvu": AVOID_UVU,
                "all": None,
                "gbar": BAR_UVV,
            }[tag]
            self._sums[key] = weight_sum(n, cons)
        return self._sums[key]

    def series(self, kind: str, order: int) -> PowerSeries:
        key = (kind, order)
        if key not in self._series:
            self._series[key] = expand(kind, order)
        return self._series[key]

    def sweep(self, n: int) -> _Sweep:
        """One pass of sigma over the uvv-avoiding class of length n.

        Checks that each image avoids uvu, keeps the weight, maps back under
        sigma_inv and lies in the uvu-avoiding class; counts fixed points by
        class; for n <= 9 also cross-checks the structural fixed-point test.

        Together these prove that sigma is a bijection between the two
        classes without a set of images.  ``generate`` yields each path
        once, and sigma_inv(sigma(q)) == q makes sigma injective, so the
        images are ``count`` distinct members of the uvu-avoiding class; if
        ``count`` equals the class size, they are the whole class.
        """
        if n in self._sweeps:
            return self._sweeps[n]
        uvu_class = set(generate(n, AVOID_UVU))
        count = f = a = b = c = 0
        error: str | None = None
        check_structure = n <= 9
        for q in generate(n, AVOID_UVV):
            p = bijection.sigma(q)
            if "uvu" in p:
                error = f"sigma({q}) = {p} contains uvu"
                break
            if q.count("h") != p.count("h") or (
                q.count("v") + 2 * q.count("d") != p.count("v") + 2 * p.count("d")
            ):
                error = f"sigma({q}) = {p} changes the weight"
                break
            if bijection.sigma_inv(p) != q:
                error = f"sigma_inv(sigma({q})) = {bijection.sigma_inv(p)}"
                break
            if p not in uvu_class:
                error = f"sigma({q}) = {p} outside the uvu-avoiding class"
                break
            count += 1
            fixed = p == q
            if check_structure and bijection.is_fixed_by_structure(q) != fixed:
                error = f"structural fixed-point test disagrees at {q}"
                break
            if fixed:
                f += 1
                cls = bijection.classify_fixed(q)
                if cls == bijection.CLASS_A:
                    a += 1
                elif cls == bijection.CLASS_B:
                    b += 1
                else:
                    c += 1
        if error is None and count != len(uvu_class):
            error = f"image has {count} paths, class has {len(uvu_class)}"
        rec = _Sweep(size=len(uvu_class), f=f, a=a, b=b, c=c, error=error)
        self._sweeps[n] = rec
        return rec

    # -- criteria ------------------------------------------------------------

    def criterion_1(self) -> CheckResult:
        """Closed forms for both restricted classes equal the oracle."""
        for n in range(self.avoid_nmax + 1):
            oracle = self.sums("uvv", n)
            for form in (1, 2, 3, 4, 5):
                got = formulas.g_uvv_closed(n, form)
                if got != oracle:
                    return CheckResult(
                        "closed forms vs oracle", False,
                        f"g_uvv form {form} at n={n}: {got} != {oracle}",
                    )
            bar_oracle = self.sums("gbar", n)
            for form in (1, 2, 3):
                got = formulas.gbar_uvv_closed(n, form)
                if got != bar_oracle:
                    return CheckResult(
                        "closed forms vs oracle", False,
                        f"gbar_uvv form {form} at n={n}: {got} != {bar_oracle}",
                    )
        return CheckResult(
            "closed forms vs oracle",
            True,
            f"5 + 3 forms, n = 0..{self.avoid_nmax}",
        )

    def criterion_2(self) -> CheckResult:
        """Series coefficients of all four classes equal the oracle."""
        order = self.all_nmax
        pairs = [("G_uvv", "uvv"), ("Gbar_uvv", "gbar"), ("G", "all"), ("G_uvu", "uvu")]
        for kind, tag in pairs:
            s = self.series(kind, order)
            for n in range(order + 1):
                if s.coefficient(n) != self.sums(tag, n):
                    return CheckResult(
                        "series vs oracle", False,
                        f"{kind} coefficient {n} != oracle",
                    )
        return CheckResult("series vs oracle", True, f"4 kinds, n = 0..{order}")

    def criterion_3(self) -> CheckResult:
        """The two substitution identities, by oracle and by series."""
        for n in range(self.all_nmax + 1):
            lhs = self.sums("uvv", n).substitute("c", _B2 + VAR_C)
            if lhs != self.sums("all", n):
                return CheckResult(
                    "substitution identities", False, f"oracle c->b^2+c fails at n={n}"
                )
            if self.sums("uvv", n).substitute("c", _B2) != self.sums(
                "uvu", n
            ).substitute("c", _B2):
                return CheckResult(
                    "substitution identities", False, f"oracle c=b^2 fails at n={n}"
                )
        order = self.series_order
        g_uvv = self.series("G_uvv", order)
        g_all = self.series("G", order)
        g_uvu = self.series("G_uvu", order)
        for n in range(order + 1):
            if g_uvv.coefficient(n).substitute("c", _B2 + VAR_C) != g_all.coefficient(n):
                return CheckResult(
                    "substitution identities", False, f"series c->b^2+c fails at n={n}"
                )
            if g_uvv.coefficient(n).substitute("c", _B2) != g_uvu.coefficient(
                n
            ).substitute("c", _B2):
                return CheckResult(
                    "substitution identities", False, f"series c=b^2 fails at n={n}"
                )
        return CheckResult(
            "substitution identities",
            True,
            f"oracle n = 0..{self.all_nmax}, series order {order}",
        )

    def criterion_4(self) -> CheckResult:
        """sigma is a weight-preserving bijection onto the uvu-avoiding class."""
        for n in range(self.avoid_nmax + 1):
            rec = self.sweep(n)
            if rec.error:
                return CheckResult("bijection suite", False, f"n={n}: {rec.error}")
            schroder = formulas.schroder_weight(n).eval(1, 1, 0)
            if rec.size != schroder:
                return CheckResult(
                    "bijection suite", False,
                    f"n={n}: class size {rec.size} != Schroeder {schroder}",
                )
        return CheckResult("bijection suite", True, f"n = 0..{self.avoid_nmax}")

    def criterion_5(self) -> CheckResult:
        """The frozen 28-step worked example maps and inverts exactly."""
        got = bijection.sigma(samples.BIJECTION_SAMPLE_INPUT)
        if got != samples.BIJECTION_SAMPLE_OUTPUT:
            return CheckResult("sample bijection pair", False, f"sigma gave {got}")
        back = bijection.sigma_inv(samples.BIJECTION_SAMPLE_OUTPUT)
        if back != samples.BIJECTION_SAMPLE_INPUT:
            return CheckResult("sample bijection pair", False, f"sigma_inv gave {back}")
        return CheckResult("sample bijection pair", True, "28-step input and image")

    def criterion_6(self) -> CheckResult:
        """Fixed-point counts agree four ways and satisfy the class recurrences."""
        nmax = self.avoid_nmax
        f_series = self.series("F", nmax)
        f_seq, a_seq, b_seq, c_seq = formulas.fixed_point_sequences(nmax)
        sweeps = [self.sweep(n) for n in range(nmax + 1)]
        for n in range(nmax + 1):
            rec = sweeps[n]
            values = {
                "brute force": rec.f,
                "closed form": formulas.f_closed(n),
                "recurrence": formulas.f_recurrence(n),
                "series": f_series.coefficient(n).eval(0, 0, 0),
            }
            if n < len(FIXED_POINT_COUNTS):
                values["frozen table"] = FIXED_POINT_COUNTS[n]
            if len(set(values.values())) != 1:
                return CheckResult("fixed points", False, f"n={n}: {values}")
            if rec.f != rec.a + rec.b + rec.c:
                return CheckResult("fixed points", False, f"n={n}: classes do not sum")
            if (rec.a, rec.b, rec.c) != (a_seq[n], b_seq[n], c_seq[n]):
                return CheckResult(
                    "fixed points", False,
                    f"n={n}: classes {(rec.a, rec.b, rec.c)} != recurrence "
                    f"{(a_seq[n], b_seq[n], c_seq[n])}",
                )
        for n in range(3, nmax + 1):
            if sweeps[n].c != sweeps[n - 1].a:
                return CheckResult("fixed points", False, f"c_{n} != a_{n-1}")
        if nmax >= 2 and sweeps[2].c != 2:
            return CheckResult("fixed points", False, "c_2 != 2")
        for n in range(1, nmax + 1):
            if sweeps[n].b != sweeps[n - 1].a + sweeps[n - 1].c:
                return CheckResult("fixed points", False, f"b_{n} != a_{n-1} + c_{n-1}")
        seeds = [rec.a for rec in sweeps[: min(5, nmax + 1)]]
        if seeds != [1, 1, 2, 7, 23][: len(seeds)]:
            return CheckResult("fixed points", False, f"class-A seeds {seeds}")
        return CheckResult("fixed points", True, f"four-way agreement, n = 0..{nmax}")

    def criterion_7(self) -> CheckResult:
        """Specializations of the closed form reproduce the classical families."""
        order = self.avoid_nmax
        g_series = self.series("G_uvv", order)
        for n in range(order + 1):
            g = formulas.g_uvv_closed(n, 1)
            checks = [
                ("(0,1,1) Catalan", g.eval(0, 1, 1) == formulas.catalan(n)),
                ("(1,0,1) Motzkin", g.eval(1, 0, 1) == formulas.motzkin_weight(n).eval(1, 1, 0)),
                ("(1,1,1) Schroeder", g.eval(1, 1, 1) == formulas.schroder_weight(n).eval(1, 1, 0)),
                (
                    "(a,0,b) Motzkin polynomial",
                    g.substitute("b", ZERO).substitute("c", VAR_B)
                    == formulas.motzkin_weight(n),
                ),
                (
                    "(a,b,b^2) Schroeder polynomial",
                    g.substitute("c", _B2) == formulas.schroder_weight(n),
                ),
            ]
            for point in ((1, 0, 2), (-3, 4, 16)):
                val = g.eval(*point)
                checks.append(
                    (f"{point} oracle", val == self.sums("uvv", n).eval(*point))
                )
                checks.append(
                    (f"{point} series", val == g_series.coefficient(n).eval(*point))
                )
            for label, ok in checks:
                if not ok:
                    return CheckResult("specialization table", False, f"n={n}: {label}")
        return CheckResult("specialization table", True, f"7 rows, n = 0..{order}")

    def criterion_8(self) -> CheckResult:
        """Classical weight-family relations, including the uvu-class identity."""
        for n in range(1, self.avoid_nmax + 1):
            report = formulas.relation_checks(n)
            g_uvu = self.sums("uvu", n).substitute("c", _B2)
            report["uvu_class_eq_schroder"] = g_uvu == formulas.schroder_weight(n)
            for label, ok in report.items():
                if not ok:
                    return CheckResult("weight relations", False, f"n={n}: {label}")
        return CheckResult("weight relations", True, f"n = 1..{self.avoid_nmax}")

    def criterion_9(self) -> CheckResult:
        """Decomposition totality, recursion invariants and series residuals."""
        if not __debug__:  # pragma: no cover
            return CheckResult(
                "structural suite", False, "asserts disabled; recursion invariants unchecked"
            )
        for n in range(self.structural_nmax + 1):
            for q in generate(n, AVOID_UVV):
                err = _check_forward_decomposition(q)
                if err:
                    return CheckResult("structural suite", False, err)
                bijection.sigma(q)  # recursion invariants are assert-checked inside
            for p in generate(n, AVOID_UVU):
                err = _check_inverse_decomposition(p)
                if err:
                    return CheckResult("structural suite", False, err)
        err = self._series_residuals()
        if err:
            return CheckResult("structural suite", False, err)
        return CheckResult(
            "structural suite",
            True,
            f"decompositions n <= {self.structural_nmax}, residuals order {self.series_order}",
        )

    def _series_residuals(self) -> str | None:
        order = self.series_order
        g_uvv = self.series("G_uvv", order)
        one = PowerSeries.one(order)
        x = PowerSeries.x(order)
        zero = PowerSeries.zero(order)
        ax = PowerSeries.from_polys([ZERO, VAR_A], order)
        kern = PowerSeries.from_polys([ZERO, VAR_B, VAR_C - _B2], order)
        if g_uvv - one - ax * g_uvv - kern * (g_uvv * g_uvv) != zero:
            return "first-return equation residual is nonzero"
        t = self.series("T", order + 1)
        one1 = PowerSeries.one(order + 1)
        x1 = PowerSeries.x(order + 1)
        lhs = t * (one1 - t.scaled(VAR_B))
        rhs = x1 * (one1 + t.scaled(VAR_A) + (t * t).scaled(VAR_C - _B2))
        if lhs != rhs:
            return "T equation residual is nonzero"
        gbar = self.series("Gbar_uvv", order)
        if gbar.shift_up() * (one1 + t.scaled(VAR_A)) != t:
            return "Gbar relation fails"
        f = self.series("F", order)
        a = self.series("A", order)
        quad = PowerSeries.from_ints([1, 2, -2, -4, -1], order)
        cube = PowerSeries.from_ints([1, 3, 3, 1], order)
        if x * f * f - quad * f + cube != zero:
            return "F quadratic residual is nonzero"
        if f != PowerSeries.from_ints([1, 2, 1], order) * a + PowerSeries.from_ints(
            [0, -1, 0, 1], order
        ):
            return "F vs A relation fails"
        if f - PowerSeries.from_ints([1, 1], order) - PowerSeries.from_ints(
            [0, 0, 2], order
        ) * f - x * a * f != zero:
            return "F convolution residual is nonzero"
        return None

    def run_all(self) -> list[CheckResult]:
        checks: list[Callable[[], CheckResult]] = [
            self.criterion_1,
            self.criterion_2,
            self.criterion_3,
            self.criterion_4,
            self.criterion_5,
            self.criterion_6,
            self.criterion_7,
            self.criterion_8,
            self.criterion_9,
        ]
        return [check() for check in checks]


def _check_forward_decomposition(word: str) -> str | None:
    """Totality, reassembly and single-case checks for one uvv-avoiding path."""
    dec = decompose_forward(word)
    if dec.reassemble() != word:
        return f"forward reassembly fails for {word}"
    shapes = {
        BASE: word in ("", "h", "uv"),
        CASE1: word[:1] == "h" and word != "h",
        CASE2: word.startswith("uvh"),
        CASE3: word.startswith("uvu"),
    }
    if dec.case in shapes:
        if not shapes[dec.case]:
            return f"{dec.case} shape mismatch for {word}"
        if sum(shapes.values()) != 1:
            return f"forward dispatch not exclusive for {word}"
        if dec.case == CASE3 and not is_primitive(dec.parts[0]):
            return f"Case3 part not primitive for {word}"
        return None
    if any(shapes.values()):
        return f"forward dispatch not exclusive for {word}"
    core = {
        CASE4: "ud",
        CASE5: "u" + dec.parts[0] + "d",
        CASE6: dec.parts[0],
    }[dec.case]
    kinds = [
        core == "ud",
        core != "ud" and is_primitive(core) and core.endswith("d"),
        not is_primitive(core),
    ]
    if sum(kinds) != 1:
        return f"strip trichotomy not exclusive for {word} (core {core})"
    if dec.case == CASE5 and not dec.parts[0]:
        return f"Case5 with empty interior for {word}"
    if dec.case == CASE6:
        if dec.elevation < 1:
            return f"Case6 without a peeled layer for {word}"
        if core.endswith("uv"):
            return f"Case6 core ends with uv for {word}"
    return None


def _check_inverse_decomposition(word: str) -> str | None:
    """Totality, reassembly and single-case checks for one uvu-avoiding path."""
    dec = decompose_inverse(word)
    if dec.reassemble() != word:
        return f"inverse reassembly fails for {word}"
    shapes = {
        BASE_INV: word in ("", "h", "uv"),
        CASE_I: word[:1] == "h" and word != "h",
        CASE_II: word.startswith("uvh"),
    }
    if dec.case in shapes:
        if not shapes[dec.case] or sum(shapes.values()) != 1:
            return f"{dec.case} shape mismatch for {word}"
        return None
    if any(shapes.values()):
        return f"inverse dispatch not exclusive for {word}"
    if dec.case == CASE_III:
        prefix = "u" + dec.parts[0] + "v"
        if not (is_primitive(prefix) and prefix.endswith("v")):
            return f"CaseIII prefix shape mismatch for {word}"
        return None
    if dec.elevation < 1:
        return f"{dec.case} without a peeled u/d layer for {word}"
    core = dec.parts[0] if dec.case == CASE_IV else "u" + dec.parts[0] + "v"
    variants = [
        core == "",
        core != "" and core.endswith("uuvv"),
        core != "" and core.endswith("uv") and not core.endswith("uuvv"),
        core != ""
        and not core.endswith("uv")
        and not core.endswith("uuvv")
        and is_primitive(core),
        core != ""
        and not core.endswith("uv")
        and not core.endswith("uuvv")
        and not is_primitive(core),
    ]
    if sum(variants) != 1:
        return f"inverse core variants not exclusive for {word}"
    if dec.case == CASE_V and not variants[3]:
        return f"CaseV core not a bare primitive v-block for {word}"
    if dec.case == CASE_IV and variants[3]:
        return f"CaseIV holds a bare primitive v-block for {word}"
    return None
