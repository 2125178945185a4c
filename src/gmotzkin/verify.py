"""Self-verification suite: every headline claim checked by exact computation.

The nine checks cross-validate the package's four independent computation
routes (exhaustive enumeration, closed formulas, generating-function
expansion, and the bijection) against one another and against frozen
known values.  All comparisons are exact; there are no tolerances.

Each check returns None or what failed, and ``_criterion`` makes it into
the criterion's PASS or FAIL ``CheckResult``; an exception the check
raises is its FAIL, so every criterion of ``run_all`` reports.

``Harness`` caches oracle weight sums by (class, n), series expansions by
(kind, order) and the bijection sweep by n, so one ``run_all`` computes each
of these once however many checks read it.  The sweep takes the size of the
uvu-avoiding class from the weight-sum cache and walks only the uvv-avoiding
class, mapping every path, so sigma's own Case5/Case6 invariants are
checked there; the structural suite does not sweep, and walks both classes
again for the decompositions.  So at full bounds the uvv-avoiding class is
walked three times for n <= 8 and twice for n = 9, 10 (weight sum, sweep,
structural suite), and the uvu-avoiding class twice for n <= 8 and once for
n = 9, 10 (weight sum, structural suite).  ``max_n``
clamps the enumeration bounds for quicker runs; the stated full bounds are
length 10 for avoidance classes, 8 for the unconstrained class and
structural checks, and series order 30.

The structural suite holds each path's decomposition record to one rule:
it must reassemble to the path and carry the single case that the path's
shape allows, read off its first steps and, past the peeled layers, off
the kind of its core.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import bijection, formulas, samples
from .enumeration import AVOID_UVU, AVOID_UVV, BAR_UVV, NO_CONSTRAINTS, Constraints
from .enumeration import generate, weight_sum
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
    CASE_PARTS,
    CASE_V,
    STEPS,
    Decomposition,
    decompose_forward,
    decompose_inverse,
    heights,
    is_primitive,
    x_length,
)
from .polyring import VAR_B, VAR_C, ZERO, KroneckerCodec, Polynomial, PowerSeries
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


def _criterion(name: str, passed: str):
    """Make a check, which returns None or what failed, into the criterion
    ``name``: PASS with ``passed`` formatted with the harness's bounds, or
    FAIL with what failed.  An exception the check raises is what failed,
    named by its type and message."""

    def wrap(check: Callable[[Harness], str | None]) -> Callable[[Harness], CheckResult]:
        @functools.wraps(check)
        def criterion(self: Harness) -> CheckResult:
            try:
                failure = check(self)
            except Exception as err:
                failure = f"{type(err).__name__}: {err}"
            if failure is None:
                return CheckResult(name, True, passed.format_map(vars(self)))
            return CheckResult(name, False, failure)

        return criterion

    return wrap


# Criterion 1's rows: each closed form, its number of forms and its class.
_CLOSED_FORMS = (
    ("g_uvv", formulas.g_uvv_closed, 5, AVOID_UVV),
    ("gbar_uvv", formulas.gbar_uvv_closed, 3, BAR_UVV),
)


class Harness:
    """Runs the verification checks with shared caches."""

    def __init__(self, max_n: int | None = None, series_order: int = 30):
        bounds = {"max_n": 0 if max_n is None else max_n, "series_order": series_order}
        for name, value in bounds.items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative int, not {value!r}")
        full = 10**9 if max_n is None else max_n
        self.avoid_nmax = min(10, full)
        self.all_nmax = min(8, full)
        self.structural_nmax = min(8, full)
        self.series_order = series_order
        self._sums: dict[tuple[Constraints, int], Polynomial] = {}
        self._series: dict[tuple[str, int], PowerSeries] = {}
        self._sweeps: dict[int, _Sweep] = {}

    # -- shared computations -------------------------------------------------

    def sums(self, constraints: Constraints, n: int) -> Polynomial:
        key = (constraints, n)
        if key not in self._sums:
            self._sums[key] = weight_sum(n, constraints)
        return self._sums[key]

    def series(self, kind: str, order: int) -> PowerSeries:
        key = (kind, order)
        if key not in self._series:
            self._series[key] = expand(kind, order)
        return self._series[key]

    def sweep(self, n: int) -> _Sweep:
        """One pass of sigma over the uvv-avoiding class of length n.

        Checks that each image avoids uvu, keeps the weight, lies in the
        uvu-avoiding class and maps back under sigma_inv; counts fixed points
        by class and cross-checks the structural fixed-point test.

        Together these prove that sigma is a bijection between the two
        classes without holding either class as a set.  ``generate`` yields
        each path once, and sigma_inv(sigma(q)) == q makes sigma injective,
        so the images are ``count`` distinct words.  Each is tested for
        membership directly: a word over udhv that never dips below the
        axis, ends on it, has x-length n and contains no uvu is exactly a
        member of the uvu-avoiding class of length n.  The class size is
        the oracle's weight sum at (1, 1, 1), in which each generated path
        counts once; it comes from the ``sums`` cache, so the sweep walks
        the class no more often than the weight sums do.  If ``count``
        equals the class size, the images are the whole class.
        """
        if n in self._sweeps:
            return self._sweeps[n]
        size = self.sums(AVOID_UVU, n).eval(1, 1, 1)
        count = 0
        classes = {bijection.CLASS_A: 0, bijection.CLASS_B: 0, bijection.CLASS_C: 0}
        error: str | None = None
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
            if not _in_uvu_class(p, n):
                error = f"sigma({q}) = {p} outside the uvu-avoiding class"
                break
            if bijection.sigma_inv(p) != q:
                error = f"sigma_inv(sigma({q})) = {bijection.sigma_inv(p)}"
                break
            count += 1
            fixed = p == q
            if bijection.is_fixed_by_structure(q) != fixed:
                error = f"structural fixed-point test disagrees at {q}"
                break
            if fixed:
                classes[bijection._classify(q)] += 1
        if error is None and count != size:
            error = f"image has {count} paths, class has {size}"
        a, b, c = classes.values()
        rec = _Sweep(size=size, f=a + b + c, a=a, b=b, c=c, error=error)
        self._sweeps[n] = rec
        return rec

    # -- criteria ------------------------------------------------------------

    @_criterion("closed forms vs oracle", "5 + 3 forms, n = 0..{avoid_nmax}")
    def criterion_1(self) -> str | None:
        """Closed forms for both restricted classes equal the oracle."""
        for n in range(self.avoid_nmax + 1):
            for label, closed, forms, constraints in _CLOSED_FORMS:
                oracle = self.sums(constraints, n)
                for form in range(1, forms + 1):
                    got = closed(n, form)
                    if got != oracle:
                        return f"{label} form {form} at n={n}: {got} != {oracle}"
        return None

    @_criterion("series vs oracle", "4 kinds, n = 0..{all_nmax}")
    def criterion_2(self) -> str | None:
        """Series coefficients of all four classes equal the oracle."""
        order = self.all_nmax
        pairs = [("G_uvv", AVOID_UVV), ("Gbar_uvv", BAR_UVV), ("G", NO_CONSTRAINTS), ("G_uvu", AVOID_UVU)]
        for kind, constraints in pairs:
            s = self.series(kind, order)
            for n in range(order + 1):
                if s.coefficient(n) != self.sums(constraints, n):
                    return f"{kind} coefficient {n} != oracle"
        return None

    @_criterion("substitution identities", "oracle n = 0..{all_nmax}, series order {series_order}")
    def criterion_3(self) -> str | None:
        """The two substitution identities, on oracle rows and on series coefficients."""
        order = self.series_order
        sources = {
            "oracle": [[self.sums(c, n) for c in (AVOID_UVV, NO_CONSTRAINTS, AVOID_UVU)]
                       for n in range(self.all_nmax + 1)],
            "series": zip(*(self.series(k, order).coeffs for k in ("G_uvv", "G", "G_uvu"))),
        }
        for source, rows in sources.items():
            for n, (g_uvv, g_all, g_uvu) in enumerate(rows):
                if g_uvv.substitute("c", _B2 + VAR_C) != g_all:
                    return f"{source} c->b^2+c fails at n={n}"
                if g_uvv.substitute("c", _B2) != g_uvu.substitute("c", _B2):
                    return f"{source} c=b^2 fails at n={n}"
        return None

    @_criterion("bijection suite", "n = 0..{avoid_nmax}")
    def criterion_4(self) -> str | None:
        """sigma is a weight-preserving bijection onto the uvu-avoiding class;
        the sweep maps every path, so sigma's Case5/Case6 invariants hold too."""
        for n in range(self.avoid_nmax + 1):
            rec = self.sweep(n)
            if rec.error:
                return f"n={n}: {rec.error}"
            schroder = formulas.schroder_weight(n).eval(1, 1, 0)
            if rec.size != schroder:
                return f"n={n}: class size {rec.size} != Schroeder {schroder}"
        return None

    @_criterion("sample bijection pair", "28-step input and image")
    def criterion_5(self) -> str | None:
        """The frozen 28-step worked example maps and inverts exactly."""
        got = bijection.sigma(samples.BIJECTION_SAMPLE_INPUT)
        if got != samples.BIJECTION_SAMPLE_OUTPUT:
            return f"sigma gave {got}"
        back = bijection.sigma_inv(samples.BIJECTION_SAMPLE_OUTPUT)
        if back != samples.BIJECTION_SAMPLE_INPUT:
            return f"sigma_inv gave {back}"
        return None

    @_criterion("fixed points", "four-way agreement, n = 0..{avoid_nmax}")
    def criterion_6(self) -> str | None:
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
                return f"n={n}: {values}"
            if rec.f != rec.a + rec.b + rec.c:
                return f"n={n}: classes do not sum"
            if (rec.a, rec.b, rec.c) != (a_seq[n], b_seq[n], c_seq[n]):
                return (
                    f"n={n}: classes {(rec.a, rec.b, rec.c)} != recurrence "
                    f"{(a_seq[n], b_seq[n], c_seq[n])}"
                )
        for n in range(3, nmax + 1):
            if sweeps[n].c != sweeps[n - 1].a:
                return f"c_{n} != a_{n-1}"
        if nmax >= 2 and sweeps[2].c != 2:
            return "c_2 != 2"
        for n in range(1, nmax + 1):
            if sweeps[n].b != sweeps[n - 1].a + sweeps[n - 1].c:
                return f"b_{n} != a_{n-1} + c_{n-1}"
        seeds = [rec.a for rec in sweeps[: min(5, nmax + 1)]]
        if seeds != [1, 1, 2, 7, 23][: len(seeds)]:
            return f"class-A seeds {seeds}"
        return None

    @_criterion("specialization table", "7 rows, n = 0..{avoid_nmax}")
    def criterion_7(self) -> str | None:
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
                    (f"{point} oracle", val == self.sums(AVOID_UVV, n).eval(*point))
                )
                checks.append(
                    (f"{point} series", val == g_series.coefficient(n).eval(*point))
                )
            for label, ok in checks:
                if not ok:
                    return f"n={n}: {label}"
        return None

    @_criterion("weight relations", "n = 1..{avoid_nmax}")
    def criterion_8(self) -> str | None:
        """Classical weight-family relations, including the uvu-class identity."""
        for n in range(1, self.avoid_nmax + 1):
            report = formulas.relation_checks(n)
            g_uvu = self.sums(AVOID_UVU, n).substitute("c", _B2)
            report["uvu_class_eq_schroder"] = g_uvu == formulas.schroder_weight(n)
            for label, ok in report.items():
                if not ok:
                    return f"n={n}: {label}"
        return None

    @_criterion(
        "structural suite",
        "decompositions n <= {structural_nmax}, residuals order {series_order}",
    )
    def criterion_9(self) -> str | None:
        """Decomposition records of both classes, and the series residuals.
        sigma's Case5/Case6 invariants are criterion 4's: its sweep maps every
        uvv-avoiding path with n <= avoid_nmax, which covers structural_nmax."""
        for n in range(self.structural_nmax + 1):
            for q in generate(n, AVOID_UVV):
                err = _check_forward_decomposition(q)
                if err:
                    return err
            for p in generate(n, AVOID_UVU):
                err = _check_inverse_decomposition(p)
                if err:
                    return err
        return self._series_residuals()

    def _series_residuals(self) -> str | None:
        """The series identities of criterion 9: None, or the first that fails.

        Every identity is checked on ints, with ``_convolve`` and
        ``_shift``.  The G_uvv first-return equation, the T equation and the
        relation x Gbar (1 + aT) = T run on Kronecker-packed coefficients
        (see ``_residual_sides``).  The identities of the fixed-point count
        F and its class-A part,

            x F^2 - (1 + 2x - 2x^2 - 4x^3 - x^4) F + (1 + x)^3 = 0
            F = (1 + x)^2 A + x^3 - x
            F = 1 + x + 2x^2 F + x A F,

        run on their coefficients as ints; a coefficient that is not an
        integer constant fails the first of them it enters.

        Grade a and b by 1 and c by 2.  ``KroneckerCodec.pack`` sends each
        coefficient G_n, T_n and Gbar_n, homogeneous of degree n, n - 1 and
        n, to its value at a = 1, b = 2^w, c = 2^(w s), with stride
        s = order + 1.  It raises for a coefficient that is not homogeneous
        of its degree, which fails the first identity it enters: taken in
        turn, each identity has only homogeneous solutions.  Packing is
        a ring homomorphism, so the packed n-th coefficient of a side is the
        value of that side's n-th coefficient L_n, a homogeneous polynomial
        of degree e <= order.  Its monomial a^ea b^eb c^ec lands in slot
        eb + s ec; eb <= e < s, so distinct monomials of degree e land in
        distinct slots.  Every term stands on the side where its sign is
        positive, and the same sides run on l1 norms bound ||L_n||, since
        the norm is subadditive and submultiplicative (||b|| = ||c|| = 1);
        with 2^(w-1) above that bound every coefficient of L_n is a
        balanced digit in [-2^(w-1), 2^(w-1)), and so is every coefficient
        of G, T and Gbar, each a term of some side.  Balanced digits are
        unique, so the two sides' ints are equal exactly when their
        polynomials are, and nothing is unpacked.
        """
        order = self.series_order
        series = (
            self.series("G_uvv", order).coeffs,
            self.series("T", order + 1).coeffs,
            self.series("Gbar_uvv", order).coeffs,
        )
        norms = _residual_sides(*series, lambda coeffs, _: [p.norm() for p in coeffs], 1, 1)
        bound = max(max(side) for sides in norms for side in sides)
        codec = KroneckerCodec(bound.bit_length() + 1, order + 1)
        b, c = 1 << codec.width, 1 << (codec.width * codec.stride)

        def pack(coeffs: Sequence[Polynomial], shift: int) -> list[int]:
            return [codec.pack(p, n + shift) for n, p in enumerate(coeffs)]

        packed = _residual_sides(*series, pack, b, c)
        for message in (
            "first-return equation residual is nonzero",
            "T equation residual is nonzero",
            "Gbar relation fails",
        ):
            try:
                lhs, rhs = next(packed)
            except ValueError:  # a coefficient not homogeneous of its degree
                return message
            if lhs != rhs:
                return message
        length = order + 1

        def poly(*values: int) -> list[int]:
            """A polynomial in x, by its coefficients, as a series."""
            return (list(values) + [0] * length)[:length]

        f = _constants(self.series("F", order).coeffs)
        if f is None or [
            s + u for s, u in zip(_shift(_convolve(f, f), 1), poly(1, 3, 3, 1))
        ] != _convolve(poly(1, 2, -2, -4, -1), f):
            return "F quadratic residual is nonzero"
        a = _constants(self.series("A", order).coeffs)
        if a is None or f != [
            s + u for s, u in zip(_convolve(poly(1, 2, 1), a), poly(0, -1, 0, 1))
        ]:
            return "F vs A relation fails"
        if f != [
            s + 2 * u + v
            for s, u, v in zip(poly(1, 1), _shift(f, 2), _shift(_convolve(a, f), 1))
        ]:
            return "F convolution residual is nonzero"
        return None

    def run_all(self) -> list[CheckResult]:
        return [getattr(self, f"criterion_{k}")() for k in range(1, 10)]


def _in_uvu_class(word: str, n: int) -> bool:
    """True iff ``word`` is a uvu-avoiding path of x-length n."""
    if not STEPS.issuperset(word) or "uvu" in word or x_length(word) != n:
        return False
    hs = heights(word)
    return min(hs) == 0 == hs[-1]


def _residual_sides(
    g: Sequence[Polynomial],
    t: Sequence[Polynomial],
    gbar: Sequence[Polynomial],
    value: Callable[[Sequence[Polynomial], int], list[int]],
    b: int,
    c: int,
) -> Iterator[tuple[list[int], list[int]]]:
    """The two sides of three series identities at a = 1, one pair at a time:

        G + b^2 x^2 G^2 = 1 + a x G + b x G^2 + c x^2 G^2    (G = G_uvv)
        T + b^2 x T^2 = x + a x T + b T^2 + c x T^2
        x Gbar + a x Gbar T = T                              (Gbar = Gbar_uvv)

    ``value(coeffs, shift)`` turns a series, its x^n coefficient of degree
    n + shift, into ints, and is called for each series just before its
    first identity.  On l1 norms, with b = c = 1, the sides bound the l1
    norms of the true sides; on packed values, with b and c packed, they are
    the true sides packed.
    """
    g = value(g, 0)
    xgg = _shift(_convolve(g, g), 1)
    xxgg = _shift(xgg, 1)
    yield (
        [s + b * b * u for s, u in zip(g, xxgg)],
        [
            int(n == 0) + s + b * u + c * v
            for n, (s, u, v) in enumerate(zip(_shift(g, 1), xgg, xxgg))
        ],
    )
    t = value(t, -1)
    tt = _convolve(t, t)
    xtt = _shift(tt, 1)
    yield (
        [s + b * b * u for s, u in zip(t, xtt)],
        [
            int(n == 1) + s + b * u + c * v
            for n, (s, u, v) in enumerate(zip(_shift(t, 1), tt, xtt))
        ],
    )
    xgbar = [0] + value(gbar, 0)
    yield [s + u for s, u in zip(xgbar, _convolve(xgbar, t))], t


def _constants(coeffs: Sequence[Polynomial]) -> list[int] | None:
    """The coefficients as ints, or None if one is not an integer constant."""
    values = [p.eval(0, 0, 0) for p in coeffs]
    return values if all(p == v for p, v in zip(coeffs, values)) else None


def _shift(s: list[int], k: int) -> list[int]:
    """x^k S, truncated to the length of S."""
    return ([0] * k + s)[: len(s)]


def _convolve(s: list[int], t: list[int]) -> list[int]:
    """(S T)_n for n < len(s), over ints; t is at least as long as s.  A
    square (t is s) multiplies each pair of coefficients once."""
    if t is s:
        return [
            2 * sum(s[i] * s[n - i] for i in range((n + 1) // 2))
            + (s[n // 2] * s[n // 2] if n % 2 == 0 else 0)
            for n in range(len(s))
        ]
    return [sum(s[i] * t[n - i] for i in range(n + 1)) for n in range(len(s))]


def _check_forward_decomposition(word: str) -> str | None:
    """None, or what is wrong with the forward record of a uvv-avoiding path.

    The first steps decide Base and Cases 1-3, which peel no layer; Case3's
    part is primitive.  Past them the case is the kind of the core ("ud",
    "u" + part + "d" or part): Case4 for "ud", Case5 for another primitive
    core ending in d, Case6 (peeling a layer) for a non-primitive path.
    """
    dec = decompose_forward(word)
    if len(dec.parts) != CASE_PARTS.get(dec.case):
        return _parts_error("forward", word, dec)
    part = dec.parts[0]
    allowed = _first_steps_case(word, BASE, CASE1, CASE2, CASE3)
    if allowed is None:
        core = {CASE4: "ud", CASE5: "u" + part + "d"}.get(dec.case, part)
        if not is_primitive(core):
            allowed = CASE6 if dec.elevation and is_primitive("u" + core + "v") else None
        elif core.endswith("d"):
            allowed = CASE4 if core == "ud" else CASE5
    elif dec.elevation or dec.case == CASE3 and not is_primitive(part):
        allowed = None
    return _record_error("forward", word, dec, allowed)


def _check_inverse_decomposition(word: str) -> str | None:
    """None, or what is wrong with the inverse record of a uvu-avoiding path.

    The first steps decide BaseInv, CaseI and CaseII; CaseIII has u + part +
    v primitive; none peels a layer.  CaseIV and CaseV peel one or more, and
    their core (part, or u + part + v for CaseV) is a path but no primitive
    block ending in d; CaseV iff it is primitive and ends in none of d, uv, uuvv.
    """
    dec = decompose_inverse(word)
    if len(dec.parts) != CASE_PARTS.get(dec.case):
        return _parts_error("inverse", word, dec)
    part = dec.parts[0]
    allowed = _first_steps_case(word, BASE_INV, CASE_I, CASE_II, None)
    if allowed is None and dec.elevation:
        core = "u" + part + "v" if dec.case == CASE_V else part
        if not is_primitive(core):
            allowed = CASE_IV if is_primitive("u" + core + "d") else None
        elif not core.endswith("d"):
            allowed = CASE_IV if core.endswith(("uv", "uuvv")) else CASE_V
    elif allowed is None and dec.case == CASE_III and is_primitive("u" + part + "v"):
        allowed = CASE_III
    elif dec.elevation:
        allowed = None
    return _record_error("inverse", word, dec, allowed)


def _first_steps_case(word: str, base: str, h: str, uvh: str, uvu: str | None) -> str | None:
    """The case that the first steps of a path decide, or None."""
    if word in ("", "h", "uv"):
        return base
    return h if word[0] == "h" else {"uvh": uvh, "uvu": uvu}.get(word[:3])


def _parts_error(direction: str, word: str, dec: Decomposition) -> str:
    """What is wrong with a record of an unknown case or with another number
    of parts than its case takes.  The checkers test this first, since their
    shape rules read the first part and ``reassemble`` refuses the record."""
    if dec.case not in CASE_PARTS:
        return f"{direction} record {dec} of {word}: unknown case"
    return f"{direction} record {dec} of {word}: {dec.case} takes {CASE_PARTS[dec.case]} part(s)"


def _record_error(direction: str, word: str, dec: Decomposition, allowed: str | None) -> str | None:
    """None if ``dec`` reassembles to ``word`` and carries the allowed case."""
    if dec.reassemble() != word:
        return f"{direction} record {dec} does not reassemble to {word}"
    if dec.case != allowed:
        return f"{direction} record {dec} of {word}: its shape allows {allowed}"
    return None
