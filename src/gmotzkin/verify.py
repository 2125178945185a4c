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
identities are one table, ``_IDENTITIES``, over the series of
``_SERIES``; ``_sides`` evaluates each on l1 norms, for a slot width, and
then on Kronecker-packed ints.
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
from .polyring import VAR_B, VAR_C, KroneckerCodec, Polynomial
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


# Criterion 9's series by letter: (kind, orders past series_order, g, shift),
# the x^n coefficient homogeneous of degree g n + shift.  T runs one order
# further, so that the Gbar relation through x^(order + 1) reaches Gbar_order.
_SERIES = {
    "G": ("G_uvv", 0, 1, 0),
    "T": ("T", 1, 1, -1),
    "H": ("Gbar_uvv", 0, 1, 0),
    "F": ("F", 0, 0, 0),
    "A": ("A", 0, 0, 0),
}

# Criterion 9's identities, checked in turn: (message, orders past
# series_order, left side, right side).  A term is an optional int factor
# times letters: a, b, c, x and the series of ``_SERIES``.
_IDENTITIES = (
    # G + b^2 x^2 G^2 = 1 + a x G + b x G^2 + c x^2 G^2   (G = G_uvv)
    ("first-return equation residual is nonzero", 0, "G + bbxxGG", "1 + axG + bxGG + cxxGG"),
    # T + b^2 x T^2 = x + a x T + b T^2 + c x T^2
    ("T equation residual is nonzero", 1, "T + bbxTT", "x + axT + bTT + cxTT"),
    # x H (1 + a T) = T   (H = Gbar_uvv)
    ("Gbar relation fails", 1, "xH + axHT", "T"),
    # x F^2 + (1 + x)^3 + (2x^2 + 4x^3 + x^4) F = (1 + 2x) F
    ("F quadratic residual is nonzero", 0, "xFF + 1 + 3x + 3xx + xxx + 2xxF + 4xxxF + xxxxF", "F + 2xF"),
    # F + x = (1 + x)^2 A + x^3
    ("F vs A relation fails", 0, "F + x", "A + 2xA + xxA + xxx"),
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
        each row through its orders past series_order."""
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
        relations are checked through that match.  A sweep that failed
        reports its own error, not counts it stopped short of."""
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
            if n < len(FIXED_POINT_COUNTS):
                values["frozen table"] = FIXED_POINT_COUNTS[n]
            if len(set(values.values())) != 1:
                return f"n={n}: {values}"
            if (rec.a, rec.b, rec.c) != (a_seq[n], b_seq[n], c_seq[n]):
                return (
                    f"n={n}: classes {(rec.a, rec.b, rec.c)} != recurrence "
                    f"{(a_seq[n], b_seq[n], c_seq[n])}"
                )
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
        series residuals.  sigma's Case5/Case6 invariants are criterion 4's:
        its sweep maps every uvv-avoiding path with n <= avoid_nmax, which
        covers all_nmax."""
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
        """The series identities of criterion 9: None, or the message of the
        first in ``_IDENTITIES`` that fails, with the first power of x at
        which its two sides differ (none if a series fails to pack).

        Each series is read through x^(order + its orders past series_order)
        only, off the harness's longer expansion, so that no coefficient it
        packs has a degree above order.

        Grade a and b by 1 and c by 2.  ``KroneckerCodec.pack_row`` sends each
        coefficient of a series of ``_SERIES``, homogeneous of degree
        g n + shift, to its value at a = 1, b = 2^w, c = 2^(w s), with
        stride s = order + 1; F and A, of degree 0, pack to themselves.  Each
        series is packed just before its first identity.  ``pack`` raises
        for a coefficient that is not homogeneous of its degree (for F and
        A, not an integer constant), which fails that identity: taken in
        turn, each identity has only homogeneous solutions.  Packing is a
        ring homomorphism, so the packed n-th coefficient of a side is the
        value of that side's n-th coefficient L_n, a homogeneous polynomial
        of degree e <= order.  Its monomial a^ea b^eb c^ec lands in slot
        eb + s ec; eb <= e < s, so distinct monomials of degree e land in
        distinct slots.  Every term stands on the side where its sign is
        positive, and the same sides run on l1 norms bound ||L_n||, since
        the norm is subadditive and submultiplicative (||a|| = ||b|| =
        ||c|| = 1); the codec puts 2^(w-1) above that bound, so every
        coefficient of L_n is a balanced digit in [-2^(w-1), 2^(w-1)), and
        so is every coefficient of every series, each a term of some side.
        Balanced digits are unique, so the two sides' ints are equal exactly
        when their polynomials are, and nothing is unpacked.
        """
        order = self.series_order
        coeffs = {s: self.series(k).coeffs[: order + e + 1] for s, (k, e, *_) in _SERIES.items()}
        norms = {s: [p.norm() for p in ps] for s, ps in coeffs.items()}
        bound = max(max(side) for i in _IDENTITIES for side in _sides(i, norms, 1, 1, order))
        codec = KroneckerCodec(bound, order + 1)
        b, c = 1 << codec.width, 1 << (codec.width * codec.stride)
        packed: dict[str, list[int]] = {}
        for identity in _IDENTITIES:
            message, _, lhs, rhs = identity
            try:
                for s in _SERIES.keys() & set(lhs + rhs) - packed.keys():
                    g, shift = _SERIES[s][2:]
                    packed[s] = codec.pack_row(coeffs[s], g, shift)
            except ValueError:  # a coefficient not homogeneous of its degree
                return message
            left, right = _sides(identity, packed, b, c, order)
            if left != right:
                n = next(n for n, (x, y) in enumerate(zip(left, right)) if x != y)
                return f"{message} at x^{n}"
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


def _sides(
    identity: tuple[str, int, str, str], values: dict[str, list[int]], b: int, c: int, order: int
) -> list[list[int]]:
    """The two sides of an ``_IDENTITIES`` entry through x^(order + its
    orders past series_order), at a = 1 and the given b and c, each series
    letter read off ``values``.  Each distinct product of series is formed
    once.  On l1 norms, with b = c = 1, the sides bound the l1 norms of the
    true sides; on packed values, with b and c packed, they are the true
    sides packed.  ValueError for a letter outside a, b, c, x and
    ``_SERIES``."""
    _, extra, *sides = identity
    length = order + extra + 1
    factors = {"a": 1, "b": b, "c": c}
    products = {"": [1]}
    out = []
    for side in sides:
        total = [0] * length
        for term in side.split(" + "):
            letters = term.lstrip("0123456789")
            k, key = int(term[: len(term) - len(letters)] or 1), ""
            for letter in letters:
                if letter in factors:
                    k *= factors[letter]
                elif letter in _SERIES:
                    key += letter
                elif letter != "x":
                    raise ValueError(f"unknown letter {letter!r} in term {term!r}")
            key = "".join(sorted(key))
            if key not in products:
                prod = values[key[0]][: min(length, *(len(values[s]) for s in key))]
                for s in key[1:]:
                    prod = _convolve(prod, prod if key == 2 * s else values[s])
                products[key] = prod
            for n, v in zip(range(letters.count("x"), length), products[key]):
                total[n] += k * v
        out.append(total)
    return out


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
