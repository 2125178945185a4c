"""Self-verification suite: every headline claim checked by exact computation.

The nine checks cross-validate the package's four independent computation
routes (exhaustive enumeration, closed formulas, generating-function
expansion, and the bijection) against one another and against frozen
known values.  All comparisons are exact; there are no tolerances.

Each check returns None or what failed, and ``_criterion`` makes it into
the criterion's PASS or FAIL ``CheckResult``; an exception the check
raises is its FAIL, so every criterion of ``run_all`` reports.

``Harness`` caches oracle weight sums by (class, n), series expansions by
kind and the bijection sweep by n, so one ``run_all`` computes each of these
once however many checks read it.  Each kind is expanded at one order, the
largest any check reads: series_order + 1, since criterion 9 reads T one
order past series_order, or ``avoid_nmax`` if that is larger.  The sweep
takes the size of the uvu-avoiding class from the weight-sum cache and
walks only the uvv-avoiding class, mapping every path, so sigma's own
Case5/Case6 invariants are checked there; the structural suite does not
sweep, and walks both classes again for the decompositions.  So at full
bounds the uvv-avoiding class is walked three times for n <= 8 and twice
for n = 9, 10 (weight sum, sweep, structural suite), and the uvu-avoiding
class twice for n <= 8 and once for n = 9, 10 (weight sum, structural
suite).  ``max_n`` clamps the enumeration bounds for quicker runs; the
stated full bounds are length 10 for avoidance classes (``avoid_nmax``), 8
for the unconstrained class and the structural checks alike
(``all_nmax``), and series order 30.

The structural suite holds each path's decomposition record to one rule:
it must reassemble to the path and carry the single case that the path's
shape allows, read off its first steps and, past the peeled layers, off
the kind of its core.  ``reassemble`` alone refuses a record of an
unknown case or with parts or an elevation that ``paths._CASES`` does not
give its case, and the checkers report that refusal first.  Its series
checks are the three relations between kinds, written out in
``Harness._series_residuals``: the Gbar relation on Kronecker-packed ints,
and F vs A and T = x G_uvv on the polynomials themselves.  No kind's own
equation is restated, since ``expand`` certifies each against its row.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable

from . import bijection, formulas
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
    CASE_V,
    RISE,
    STEPS,
    Decomposition,
    _is_primitive,
    decompose_forward,
    decompose_inverse,
)
from .polyring import ONE, VAR_B, VAR_C, ZERO, KroneckerCodec, Polynomial
from .series import PowerSeries, expand

# First eleven fixed-point counts of sigma, frozen as independent test data.
FIXED_POINT_COUNTS = [1, 2, 5, 13, 39, 125, 421, 1478, 5329, 19658, 73783]

# A uvv-avoiding path of length 28 and its image under sigma, a uvu-avoiding
# path of the same length: a frozen instance of the bijection touching every
# recursion case, which criterion 5 maps both ways.
BIJECTION_SAMPLE_INPUT = "uuudvvuudvuuuuuvdvvvhuuhdvuuuvhvuvuuhudvvv"
BIJECTION_SAMPLE_OUTPUT = "uudduuvduuuuvvddhuhuvduuuvhvuuhuddvv"

_B2 = VAR_B * VAR_B


class CheckResult(namedtuple("CheckResult", "name ok detail")):
    """One criterion's outcome: its name, whether it passed, and a detail
    str, printed by ``line`` only on failure."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.ok else ""
        return f"{status}  {self.name}{tail}"


# One sweep's result: the fixed points by class, and what failed (a str) or
# None.
_Sweep = namedtuple("_Sweep", "a b c error")


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
        self.series_order = series_order
        self._sums: dict[tuple[Constraints, int], Polynomial] = {}
        self._series: dict[str, PowerSeries] = {}
        self._sweeps: dict[int, _Sweep] = {}

    # -- shared computations -------------------------------------------------

    def sums(self, constraints: Constraints, n: int) -> Polynomial:
        key = (constraints, n)
        if key not in self._sums:
            self._sums[key] = weight_sum(n, constraints)
        return self._sums[key]

    def series(self, kind: str) -> PowerSeries:
        """The series of ``kind`` through x^max(series_order + 1, avoid_nmax),
        expanded on first use.  Each check reads the coefficients it needs
        off this one expansion: criterion 2 through all_nmax, criteria 6
        and 7 through avoid_nmax, criterion 3 all of them and criterion 9
        T through series_order + 1 and the others through series_order."""
        if kind not in self._series:
            self._series[kind] = expand(kind, max(self.series_order + 1, self.avoid_nmax))
        return self._series[kind]

    def sweep(self, n: int) -> _Sweep:
        """One pass of sigma over the uvv-avoiding class of length n.

        Checks that each image avoids uvu, keeps the weight, lies in the
        uvu-avoiding class and maps back under sigma_inv; counts fixed points
        by class and checks them against the fixed-point grammar.

        Together these prove that sigma is a bijection between the two
        classes without holding either class as a set.  ``generate`` yields
        each path once, and sigma_inv(sigma(q)) == q makes sigma injective,
        so the images are ``count`` distinct words.  Each is tested for
        membership directly: a word over udhv that never dips below the
        axis, ends on it, has x-length n and contains no uvu is exactly a
        member of the uvu-avoiding class of length n.  The uvu test comes
        first.  The weight test then fixes the x-length: ``generate`` yields
        q with x-length n = #h + #v + 2#d, so p keeps q's weight exactly
        when it has q's #h and #v + 2#d = n - #h.  ``_is_path`` tests the
        rest, in one scan of the height that stops at the first dip below
        the axis.  sigma, sigma_inv, ``_classify`` and ``_grammar`` are read
        off ``bijection`` once per n, at call time.  The class size is the
        oracle's weight sum at (1, 1, 1), in which each generated path
        counts once; it comes from the ``sums`` cache, so the sweep walks
        the class no more often than the weight sums do.  If ``count``
        equals the class size, the images are the whole class.

        ``bijection._grammar(n)`` streams the grammar's words with their
        classes in ``generate``'s order, from a pushdown walk that holds
        O(n) words at a time, and the sweep reads it in step with its walk:
        each q with sigma(q) == q, matched with its class ``_classify(q)``,
        must be the next pair of the stream, and none may be left over.
        Two strictly increasing sequences are equal exactly when their sets
        are, so q is fixed iff it is in the grammar, and the stream is in
        order, distinct and rightly classed; the counts by class are then
        the grammar's too.  So sigma runs once per path, and the words that
        ``fixed_points`` tests with sigma and lists are the ones checked
        here.  A pair out of step does not stop the walk, so the image
        checks and the count report first.  Every length has the fixed
        point h^n, so a walk that meets none fails.
        """
        if n in self._sweeps:
            return self._sweeps[n]
        size = self.sums(AVOID_UVU, n).eval(1, 1, 1)
        count = 0
        classes = {bijection.CLASS_A: 0, bijection.CLASS_B: 0, bijection.CLASS_C: 0}
        error: str | None = None
        sigma, sigma_inv, classify = bijection.sigma, bijection.sigma_inv, bijection._classify
        grammar = bijection._grammar(n)
        mismatch = None  # the first fixed point that is not the next pair
        for q in generate(n, AVOID_UVV):
            p = sigma(q)
            if "uvu" in p:
                error = f"sigma({q}) = {p} contains uvu"
                break
            h = q.count("h")
            if p.count("h") != h or p.count("v") + 2 * p.count("d") != n - h:
                error = f"sigma({q}) = {p} changes the weight"
                break
            if not _is_path(p):
                error = f"sigma({q}) = {p} outside the uvu-avoiding class"
                break
            if sigma_inv(p) != q:
                error = f"sigma_inv(sigma({q})) = {sigma_inv(p)}"
                break
            count += 1
            if p != q or mismatch:
                continue
            cls = classify(q)
            classes[cls] += 1
            listed = next(grammar, None)
            if listed != (q, cls):
                mismatch = f"sigma fixes {(q, cls)!r}, fixed_points lists {listed!r} there"
        a, b, c = classes.values()
        if error is None:
            left = next(grammar, None)  # a pair after the last fixed point
            if count != size:
                error = f"image has {count} paths, class has {size}"
            elif not a + b + c:
                error = "sigma fixes no path"
            elif mismatch:
                error = mismatch
            elif left:
                error = f"fixed_points lists {left!r} after the last path sigma fixes"
        rec = _Sweep(a=a, b=b, c=c, error=error)
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
        pairs = [("G_uvv", AVOID_UVV), ("Gbar_uvv", BAR_UVV), ("G", NO_CONSTRAINTS), ("G_uvu", AVOID_UVU)]
        for kind, constraints in pairs:
            coeffs = self.series(kind).coeffs
            for n in range(self.all_nmax + 1):
                if coeffs[n] != self.sums(constraints, n):
                    return f"{kind} coefficient {n} != oracle"
        return None

    @_criterion("substitution identities", "oracle n = 0..{all_nmax}, series order {series_order}")
    def criterion_3(self) -> str | None:
        """The two substitution identities, G_uvv(a,b,b^2+c) = G and
        G_uvv(a,b,b^2) = G_uvu(a,b,b^2), checked directly on every series
        coefficient, through x^max(series_order + 1, avoid_nmax).  On the
        oracle rows n <= all_nmax they follow from criterion 2, which proves
        each of the three series equal to the oracle there."""
        rows = zip(*(self.series(k).coeffs for k in ("G_uvv", "G", "G_uvu")))
        for n, (g_uvv, g_all, g_uvu) in enumerate(rows):
            if g_uvv.substitute("c", _B2 + VAR_C) != g_all:
                return f"series c->b^2+c fails at n={n}"
            if g_uvv.substitute("c", _B2) != g_uvu.substitute("c", _B2):
                return f"series c=b^2 fails at n={n}"
        return None

    @_criterion("bijection suite", "n = 0..{avoid_nmax}")
    def criterion_4(self) -> str | None:
        """sigma is a weight-preserving bijection onto the uvu-avoiding class
        whose fixed points are the grammar's words; the sweep maps every
        path, so sigma's Case5/Case6 invariants hold too.  That the class
        has S_n(1,1) paths, the large Schroeder number, is criterion 8's:
        it checks the class's weight sum at c = b^2 against S_n(a,b) for
        n >= 1, which at a = b = 1 is the class size, and n = 0 has only
        the empty path."""
        for n in range(self.avoid_nmax + 1):
            rec = self.sweep(n)
            if rec.error:
                return f"n={n}: {rec.error}"
        return None

    @_criterion("sample bijection pair", "28-step input and image")
    def criterion_5(self) -> str | None:
        """The frozen 28-step worked example maps and inverts exactly."""
        got = bijection.sigma(BIJECTION_SAMPLE_INPUT)
        if got != BIJECTION_SAMPLE_OUTPUT:
            return f"sigma gave {got}"
        back = bijection.sigma_inv(BIJECTION_SAMPLE_OUTPUT)
        if back != BIJECTION_SAMPLE_INPUT:
            return f"sigma_inv gave {back}"
        return None

    @_criterion("fixed points", "four-way agreement, n = 0..{avoid_nmax}")
    def criterion_6(self) -> str | None:
        """Fixed-point counts agree four ways, and the counts by class equal
        the recurrence's.  ``fixed_point_sequences`` builds b and c from a
        by the class relations c_n = a_{n-1} (n >= 3), c_2 = 2 and b_n =
        a_{n-1} + c_{n-1}, with seeds a_0..a_4 = 1, 1, 2, 7, 23, so the
        relations are checked through that match.  For n <= all_nmax the
        counts of ``bijection.fixed_points(n)`` are read too: their total f
        as one more value, and their classes against the recurrence, so its
        own counting is checked, not only the grammar that the sweep reads.
        A sweep that failed reports its own error, not counts it stopped
        short of."""
        nmax = self.avoid_nmax
        f_series = self.series("F")
        f_seq, a_seq, b_seq, c_seq = formulas.fixed_point_sequences(nmax)
        for n in range(nmax + 1):
            rec = self.sweep(n)
            if rec.error:
                return f"n={n}: {rec.error}"
            values = {
                "brute force": rec.a + rec.b + rec.c,
                "closed form": formulas.f_closed(n),
                "recurrence": f_seq[n],
                "series": f_series.coeffs[n].eval(0, 0, 0),
            }
            classes = {"classes": (rec.a, rec.b, rec.c)}
            if n <= self.all_nmax:
                counts = bijection.fixed_points(n)
                values["fixed_points"] = counts.f
                classes["fixed_points classes"] = (counts.a, counts.b, counts.c)
            if n < len(FIXED_POINT_COUNTS):
                values["frozen table"] = FIXED_POINT_COUNTS[n]
            if len(set(values.values())) != 1:
                return f"n={n}: {values}"
            recurrence = (a_seq[n], b_seq[n], c_seq[n])
            for label, got in classes.items():
                if got != recurrence:
                    return f"n={n}: {label} {got} != recurrence {recurrence}"
        return None

    @_criterion("specialization table", "7 rows, n = 0..{avoid_nmax}")
    def criterion_7(self) -> str | None:
        """Specializations of closed form 1 reproduce the classical families.

        Four of the table's seven rows are checked directly: the polynomial
        rows of ``formulas.specialization_checks``, which the ``tables``
        command prints too, and the points (1,0,2) and (-3,4,16) against
        the G_uvv series.  The three numeric rows follow from the
        polynomial ones: g(a,0,b) = M_n(a,b) gives the Motzkin numbers at
        (1,1), and g(a,b,b^2) = S_n(a,b) gives the large Schroeder numbers
        at (1,1) and the Catalan numbers at (0,1), where S_n's only term
        free of a is binom(2n,2n) C_n b^n.  Closed form 1 against the oracle
        is criterion 1's.
        """
        g_series = self.series("G_uvv")
        for n in range(self.avoid_nmax + 1):
            g = formulas.g_uvv_closed(n, 1)
            checks = list(formulas.specialization_checks(n, g).items())
            for point in ((1, 0, 2), (-3, 4, 16)):
                ok = g.eval(*point) == g_series.coeffs[n].eval(*point)
                checks.append((f"{point} series", ok))
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
        "decompositions n <= {all_nmax}, residuals order {series_order}",
    )
    def criterion_9(self) -> str | None:
        """Decomposition records of both classes for n <= all_nmax, and the
        series relations between kinds of ``_series_residuals``.  sigma's
        Case5/Case6 invariants are criterion 4's: its sweep maps every
        uvv-avoiding path with n <= avoid_nmax, which covers all_nmax.

        No kind's own equation is restated here.  Each is a row D S = P +
        Q S^2 of ``series``, and ``expand`` certifies every expansion
        against its row through its order (the certificate lemma of the
        ``series`` docstring), so the row holds on every series read here.
        A wrong row, one whose root is not the kind's series, still fails:
          G_uvv     criterion 2 holds its series to the oracle for n <=
                    all_nmax, criterion 3 to G's and G_uvu's series
                    through the whole expansion, and T = x G_uvv to T;
          T         x Gbar (1 + aT) = T has one root T for the true Gbar,
                    so a wrong T fails the Gbar relation (and T = x G_uvv);
          Gbar_uvv  the same relation gives Gbar = T / (x (1 + aT)) for
                    the true T, so a wrong Gbar fails it (and criterion 2);
          F, A      F + x = (1 + x)^2 A + x^3 gives each from the other,
                    so a wrong one fails F vs A, and criterion 6 holds F
                    to the fixed-point counts for n <= avoid_nmax.
        So the first-return equation, the T equation and the F quadratic
        are implied, and are not checked here."""
        for n in range(self.all_nmax + 1):
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
        """Criterion 9's relations between kinds, in turn: None, or the
        message of the first that fails, with the first power of x at
        which its two sides differ (none if a series fails to pack).

          Gbar relation  x Gbar (1 + aT) = T through x^(order + 1);
          F vs A         F + x = (1 + x)^2 A + x^3 through x^order;
          T relation     T = x G_uvv through x^(order + 1).

        Each series is read off the harness's longer expansion, T through
        x^(order + 1) and the others through x^order, so that no
        coefficient packed below has a degree above order.

        The Gbar relation is compared on packed ints.  Grade a and b by 1
        and c by 2: a step's degree is its x-length, so Gbar_n, a weight
        sum over paths of x-length n, is homogeneous of degree n, and T_n
        = G_uvv_(n-1) of degree n - 1.  ``KroneckerCodec.pack_row`` sends
        each to its value at a = 1, b = 2^w, c = 2^(w s), with stride s =
        order + 1, and raises for a coefficient that is not homogeneous of
        its degree, which fails the relation.  Packing is a ring
        homomorphism, so the packed x^n coefficient of each side is the
        value of that side's coefficient L_n, homogeneous of degree n - 1
        <= order.  Its monomial a^ea b^eb c^ec lands in slot eb + s ec;
        eb <= n - 1 < s, so distinct monomials land in distinct slots.  The
        left side's sum and product, run on l1 norms, bound ||L_n||, since
        the norm is subadditive and submultiplicative (||a|| = 1); the
        codec puts 2^(w-1) above that bound and ||T_n||, so every
        coefficient of either side is a balanced digit in [-2^(w-1),
        2^(w-1)), and so is every coefficient of Gbar and T, each a term
        of a side.  Balanced digits are unique, so the two sides' ints are
        equal exactly when their polynomials are, and nothing is unpacked.

        F vs A and the T relation are linear, so they are compared on the
        ``Polynomial`` coefficients themselves, with no packing.
        """
        order = self.series_order
        h = self.series("Gbar_uvv").coeffs[: order + 1]
        t = self.series("T").coeffs[: order + 2]
        # x H (1 + a T) = T, H = Gbar_uvv: at x^n, H_(n-1) + a (H T)_(n-1)
        # on the left and T_n on the right, first on norms, then packed
        norm_h, norm_t = [p.norm() for p in h], [p.norm() for p in t]
        bound = max(*norm_t, *map(int.__add__, norm_h, _convolve(norm_h, norm_t)))
        codec = KroneckerCodec(bound, order + 1)
        try:
            packed_h, packed_t = codec.pack_row(h, 1, 0), codec.pack_row(t, 1, -1)
        except ValueError:  # a coefficient not homogeneous of its degree
            return "Gbar relation fails"
        # F + x - x^3 = (1 + x)^2 A, with A_n at a2[n + 2]
        f, a = (self.series(k).coeffs[: order + 1] for k in ("F", "A"))
        a2, x_terms = [ZERO, ZERO, *a], {1: ONE, 3: -ONE}
        relations = (
            ("Gbar relation", [0, *map(int.__add__, packed_h, _convolve(packed_h, packed_t))], packed_t),
            (
                "F vs A relation",
                [f_n + x_terms.get(n, ZERO) for n, f_n in enumerate(f)],
                [a2[n + 2] + a2[n + 1].scaled(2) + a2[n] for n in range(order + 1)],
            ),
            ("T relation", [ZERO, *self.series("G_uvv").coeffs[: order + 1]], t),
        )
        for name, left, right in relations:
            n = next((n for n, (x, y) in enumerate(zip(left, right)) if x != y), None)
            if n is not None:
                return f"{name} fails at x^{n}"
        return None

    def run_all(self) -> list[CheckResult]:
        return [getattr(self, f"criterion_{k}")() for k in range(1, 10)]


def _is_path(word: str) -> bool:
    """True iff ``word`` is over udhv, never dips below the axis and ends on
    it: one scan of the height, which stops at the first dip."""
    if not STEPS.issuperset(word):
        return False
    height = 0
    for step in word:
        height += RISE[step]
        if height < 0:
            return False
    return height == 0


def _convolve(s: list[int], t: list[int]) -> list[int]:
    """(S T)_n for n < len(s), over ints; t is at least as long as s."""
    return [sum(s[i] * t[n - i] for i in range(n + 1)) for n in range(len(s))]


def _check_forward_decomposition(word: str) -> str | None:
    """None, or what is wrong with the forward record of a uvv-avoiding path.

    The first steps decide Base and Cases 1-3, which peel no layer; Case3's
    part is primitive.  Past them the case is the kind of the core ("ud",
    "u" + part + "d" or part): Case4 for "ud", Case5 for another primitive
    core ending in d, Case6 for a non-primitive path (``reassemble`` has
    already held Case6 to peeling a layer).
    """
    dec = decompose_forward(word)
    try:  # first, since the shape rules read the first part
        whole = dec.reassemble()
    except ValueError as err:  # a record that reassemble refuses
        return f"forward record {dec} of {word}: {err}"
    part = dec.parts[0]
    allowed = _first_steps_case(word, BASE, CASE1, CASE2, CASE3)
    if allowed is None:
        core = {CASE4: "ud", CASE5: "u" + part + "d"}.get(dec.case, part)
        if not _is_primitive(core):
            allowed = CASE6 if _is_primitive("u" + core + "v") else None
        elif core.endswith("d"):
            allowed = CASE4 if core == "ud" else CASE5
    elif dec.case == CASE3 and not _is_primitive(part):
        allowed = None
    return _record_error("forward", word, dec, whole, allowed)


def _check_inverse_decomposition(word: str) -> str | None:
    """None, or what is wrong with the inverse record of a uvu-avoiding path.

    The first steps decide BaseInv, CaseI and CaseII; CaseIII has u + part +
    v primitive; none peels a layer.  CaseIV and CaseV peel one or more, and
    their core (part, or u + part + v for CaseV) is a path but no primitive
    block ending in d; CaseV iff it is primitive and ends in none of d, uv, uuvv.
    """
    dec = decompose_inverse(word)
    try:  # first, since the shape rules read the first part
        whole = dec.reassemble()
    except ValueError as err:  # a record that reassemble refuses
        return f"inverse record {dec} of {word}: {err}"
    part = dec.parts[0]
    allowed = _first_steps_case(word, BASE_INV, CASE_I, CASE_II, None)
    if allowed is None and dec.elevation:
        core = "u" + part + "v" if dec.case == CASE_V else part
        if not _is_primitive(core):
            allowed = CASE_IV if _is_primitive("u" + core + "d") else None
        elif not core.endswith("d"):
            allowed = CASE_IV if core.endswith(("uv", "uuvv")) else CASE_V
    elif allowed is None and dec.case == CASE_III and _is_primitive("u" + part + "v"):
        allowed = CASE_III
    return _record_error("inverse", word, dec, whole, allowed)


def _first_steps_case(word: str, base: str, h: str, uvh: str, uvu: str | None) -> str | None:
    """The case that the first steps of a path decide, or None."""
    if word in ("", "h", "uv"):
        return base
    return h if word[0] == "h" else {"uvh": uvh, "uvu": uvu}.get(word[:3])


def _record_error(
    direction: str, word: str, dec: Decomposition, whole: str, allowed: str | None
) -> str | None:
    """None if ``whole``, what ``dec`` reassembles to, is ``word`` and
    ``dec`` carries the allowed case."""
    if whole != word:
        return f"{direction} record {dec} does not reassemble to {word}"
    if dec.case != allowed:
        return f"{direction} record {dec} of {word}: its shape allows {allowed}"
    return None
