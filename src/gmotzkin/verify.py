"""Self-verification suite: every headline claim checked by exact computation.

The nine checks cross-validate the package's four independent computation
routes (exhaustive enumeration, closed formulas, generating-function
expansion, and the bijection) against one another and against frozen
known values.  All comparisons are exact; there are no tolerances.

Each check returns None or what failed, and ``_criterion`` makes it into
the criterion's PASS or FAIL ``CheckResult``; an exception the check
raises is its FAIL, named by ``_raised``, so every criterion of
``run_all`` reports.

``Harness`` caches oracle weight sums by (class, n), series expansions by
kind and the bijection sweep by n, so one ``run_all`` computes each of these
once however many checks read it.  Each kind is expanded at one order,
series_order + 1 or ``avoid_nmax`` if that is larger, and criterion 3 reads
all of it.  The sweep walks only the uvv-avoiding class, mapping every path,
so sigma's own Case5/Case6 invariants are checked there, and takes the size
of the uvu-avoiding class to be the large Schroeder number that criterion 8
proves it is, so it reads no weight sum.  It checks the images a chunk of
paths at a time: each image test is one C-level transform of the chunk's
images joined by newlines, and the first line where a transform misses its
target names the failing path, so sigma maps each path once, and sigma_inv
maps back only the images before the first failure.

Every exhaustive walk is a job of one runner, ``_run``: each weight sum of
the oracle (criteria 1, 2 and 8), each shard of the sweep (criterion 4),
the counts of ``bijection.fixed_points`` at each length (criterion 6) and
the decompositions of each class and length (criterion 9).  A criterion
hands the runner every job it needs at once, and only those, and checks
each result here as it checks one computed here, so the verdict and every
detail are the same on every CPU count.  A job streams only data: its
records, then, if it raises, the text of the raise that the runner adds
(``_raised``), its failure, cached like any other.  Where some job walks
length 7 or more, the runner deals the jobs out, largest first, to one
forked child per CPU the process may use, and this process only reads
their records; below that, and on one CPU, every job runs here as it is
read.  The sweep cuts the walk at n into S shards, shard k mapping the
chunks whose index is k mod S, with S one per CPU and at most one per four
chunks, so S = 1 for n <= 6; each shard walks the whole class, and their
streams are merged in walk order, so the verdict and the first failure are
those of one shard alone.  The structural suite does not sweep, and walks
both classes again for the decompositions.  So at full bounds the
uvv-avoiding class is walked S + 2 times for n <= 8 and S + 1 times for n
= 9, 10 (weight sum, once in each shard of the sweep, structural suite),
with S = 2 on two CPUs for n = 7..10, and the uvu-avoiding class twice
for n <= 8 and once for n = 9, 10 (weight sum, structural suite); each
walk is one job, and the jobs of a criterion run side by side.  ``max_n``
clamps the enumeration bounds for quicker runs; the stated full bounds are
length 10 for avoidance classes (``avoid_nmax``), 8 for the unconstrained
class and the structural checks alike (``all_nmax``), and series order
30.

The structural suite holds each path's decomposition record to one rule:
it must reassemble to the path and carry the single case that the path's
shape allows, read off its first steps and, past the peeled layers, off
the kind of its core.  ``reassemble`` alone refuses a record of an
unknown case or with parts or an elevation that ``paths._CASES`` does not
give its case, and the checkers report that refusal first.  Its series
checks are the three relations between kinds, proved once for every order
as identities of the rows that ``series.row`` gives, in exact arithmetic on
polynomials in x and S over Z[a, b, c].  It expands no series, and no
kind's own equation is restated, since ``expand`` certifies each expansion
against its row.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import deque, namedtuple
from collections.abc import Callable, Iterator
from itertools import chain, compress, count, islice, repeat
from operator import eq, ne

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
    Decomposition,
    _is_primitive,
    decompose_forward,
    decompose_inverse,
)
from .polyring import VAR_A, VAR_B, VAR_C, ZERO, Polynomial
from .series import PowerSeries, expand, row

# First eleven fixed-point counts of sigma, frozen as independent test data.
FIXED_POINT_COUNTS = [1, 2, 5, 13, 39, 125, 421, 1478, 5329, 19658, 73783]

# A uvv-avoiding path of length 28 and its image under sigma, a uvu-avoiding
# path of the same length: a frozen instance of the bijection touching every
# recursion case, which criterion 5 maps both ways.
BIJECTION_SAMPLE_INPUT = "uuudvvuudvuuuuuvdvvvhuuhdvuuuvhvuvuuhudvvv"
BIJECTION_SAMPLE_OUTPUT = "uudduuvduuuuvvddhuhuvduuuvhvuuhuddvv"

_B2 = VAR_B * VAR_B


# Polynomials in x and S over Z[a, b, c], each a dict from (i, j), for
# x^i S^j, to its nonzero Polynomial coefficient: the arithmetic of
# criterion 9's relations between rows.
def _in_x(*coeffs, j: int = 0) -> dict:
    """The polynomial in x with these coefficients, Polynomials or ints, times S^j."""
    polys = (c if isinstance(c, Polynomial) else Polynomial.const(c) for c in coeffs)
    return {(i, j): c for i, c in enumerate(polys) if c}


def _add(*terms: dict) -> dict:
    out: dict[tuple[int, int], Polynomial] = {}
    for key, c in (item for f in terms for item in f.items()):
        out[key] = out.get(key, ZERO) + c
    return {key: c for key, c in out.items() if c}


def _mul(out: dict, *factors: dict) -> dict:
    for f in factors:
        out = _add(*({(i + k, j + l): c * e} for (i, j), c in out.items() for (k, l), e in f.items()))
    return out


def _row_at(kind: str, num: dict, den: dict) -> dict:
    """M^2 (D S - P - Q S^2) at S = N/M, for the row (P, Q, D) of ``kind``:
    D N M - P M^2 - Q N^2."""
    p, q, d = (_in_x(*entry) for entry in row(kind))
    return _add(_mul(d, num, den), _mul(_MINUS, p, den, den), _mul(_MINUS, q, num, num))


_ONE, _MINUS, _X, _S = _in_x(1), _in_x(-1), _in_x(0, 1), _in_x(1, j=1)
# Criterion 9's relations: (name, kind, N, M, factor, base), each the identity
# M^2 E_kind(N/M) = factor E_base(S), where E_K(S) = D S - P - Q S^2 for K's row.
_RELATIONS = (
    ("Gbar relation", "Gbar_uvv", _S, _X | _in_x(0, VAR_A, j=1), _X, "T"),
    ("F vs A relation", "F", _in_x(0, -1, 0, 1) | _in_x(1, 2, 1, j=1), _ONE, _in_x(1, 3, 3, 1), "A"),
    ("T relation", "G_uvv", _S, _X, _X, "T"),
)


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


def _raised(err: Exception) -> str:
    """What failed, when ``err`` was raised: its type and message."""
    return f"{type(err).__name__}: {err}"


class _Failed(Exception):
    """A job's failure, raised where its result is read: its message is
    the failure's text, ``_raised``'s where the job ran."""


def _criterion(name: str, passed: str):
    """Make a check, which returns None or what failed, into the criterion
    ``name``: PASS with ``passed`` formatted with the harness's bounds, or
    FAIL with what failed.  An exception the check raises is what failed,
    as ``_raised`` names it, or for ``_Failed`` its message."""

    def wrap(check: Callable[[Harness], str | None]) -> Callable[[Harness], CheckResult]:
        @functools.wraps(check)
        def criterion(self: Harness) -> CheckResult:
            try:
                failure = check(self)
            except _Failed as err:
                failure = str(err)
            except Exception as err:
                failure = _raised(err)
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
        """The oracle's weight sum of the class at n, ``weight_sum(n,
        constraints)``, computed on first use (``_sum_all``).  One that
        failed raises ``_Failed`` with what failed, each time it is read."""
        if (constraints, n) not in self._sums:
            self._sum_all([(constraints, n)])
        got = self._sums[constraints, n]
        if isinstance(got, str):
            raise _Failed(got)
        return got

    def _sum_all(self, keys) -> None:
        """Compute the weight sums of the (class, n) of ``keys`` not cached
        yet, each a job of one runner call, and cache them or what failed."""
        todo = [key for key in keys if key not in self._sums]
        jobs = [(n, f"weight_sum({n}, {c})", _value, (weight_sum, n, c)) for c, n in todo]
        self._sums.update(zip(todo, _results(jobs)))

    def series(self, kind: str) -> PowerSeries:
        """The series of ``kind`` through x^max(series_order + 1, avoid_nmax),
        expanded on first use.  Each check reads the coefficients it needs
        off this one expansion: criterion 2 through all_nmax, criteria 6
        and 7 through avoid_nmax, and criterion 3 all of them, so that its
        identities reach one order past series_order."""
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
        so the images are ``images`` distinct words.  Each is tested for
        membership directly: a word over udhv that never dips below the
        axis, ends on it, has x-length n and contains no uvu is exactly a
        member of the uvu-avoiding class of length n.  ``_check_chunk``
        holds the one definition of these tests, in order, with the message
        of each.  ``_classify`` and ``_grammar`` are read off ``bijection``
        once per n, at call time, and sigma and sigma_inv once per shard,
        when it starts.  The class size is the large Schroeder number
        S_n(1,1), ``formulas.schroder_weight(n)`` at (1, 1, 1): for n >= 1
        criterion 8 checks the oracle's weight sum of the class at c = b^2
        against S_n(a,b), and at a = b = 1 that sum counts each path once;
        at n = 0 the class holds only the empty path, and S_0 = 1.  So the
        sweep walks no uvu-avoiding path and reads no weight sum.  If
        ``images`` equals the class size, the images are the whole class.

        The walk is taken ``_CHUNK`` paths at a time (``_check_chunk``).  A
        chunk is mapped once by sigma, keeping the images before a raise.
        Each image test is one transform of the images joined by newlines,
        held to its target; where one misses it, its first differing line
        is the image that fails it, and the least of these, the earlier test
        winning a tie, is the chunk's first failing image.  Only the images
        before it are mapped back by sigma_inv, and a path before it that
        does not come back is the failure instead.  An exception that sigma
        or sigma_inv raises escapes only where no path before the one it
        raised at failed, and is then the chunk's failure, its type and
        message (``_raised``), with no count or fixed point.  So the sweep
        fails exactly where and as a path-by-path sweep would, and a raise
        is its n's failure, cached like any other, not raised again.  Its
        fixed-point counts on a failure are those of the paths before the
        one that failed, or on a raise those of the chunks before its
        chunk.  Each chunk gives a count, its fixed points in walk order and
        its first failure.

        The walk is cut into S = ``_shards(size)`` shards, each a job of
        the runner (``_sweep_all``): shard k maps the chunks i = k mod S,
        reads sigma and sigma_inv when it starts and ends its stream after
        its last record or its first failure (``_shard``), or the runner
        ends it with the text of what it raised; a stream holds only data.
        ``_merge`` reads the records in chunk order, taking chunk i's from
        shard i mod S, and stops at the first failure, whose index is then
        the least of all shards'.  So it reads exactly the records of a
        sweep in one shard, and a failure's text is the same on every CPU
        count.  A child that ends before a shard's last record gives the
        shard a failure record of its own, a ``ChildProcessError`` naming
        the shard, cached like any other failure; no child outlives the
        runner's call.

        ``bijection._grammar(n)`` streams the grammar's words with their
        classes in ``generate``'s order, from a pushdown walk that holds
        O(n) words at a time, and the sweep reads it in step with its walk:
        each q with sigma(q) == q, matched with its class ``_classify(q)``,
        must be the next pair of the stream, and none may be left over.
        Two strictly increasing sequences are equal exactly when their sets
        are, so q is fixed iff it is in the grammar, and the stream is in
        order, distinct and rightly classed; the counts by class are then
        the grammar's too.  So sigma runs once per path of a sweep that
        passes, and the words that ``fixed_points`` tests with sigma and
        lists are the ones checked here.  A pair out of step does not stop
        the walk, so the image checks and the count report first.  Every
        length has the fixed point h^n, so a walk that meets none fails.
        """
        if n not in self._sweeps:
            self._sweep_all([n])
        return self._sweeps[n]

    def _sweep_all(self, ns) -> None:
        """Sweep the n of ``ns`` in order, up to the first whose sweep
        fails, as criteria 4 and 6 read them: the shards of those not swept
        yet are the jobs of one runner call, merged n by n, and each n's
        result is cached, a failure too."""
        todo = []
        for n in ns:
            if n in self._sweeps and self._sweeps[n].error:
                break
            if n not in self._sweeps:
                todo.append(n)
        sizes = [formulas.schroder_weight(n).eval(1, 1, 1) for n in todo]  # S_n(1,1)
        shards = [_shards(size) for size in sizes]
        jobs = [
            (n, f"sweep shard {k} at n={n}", _shard, (n, k, s))
            for n, s in zip(todo, shards)
            for k in range(s)
        ]
        with _run(jobs) as streams:
            streams = iter(streams)
            for n, size, s in zip(todo, sizes, shards):
                self._sweeps[n] = _merge(n, size, list(islice(streams, s)))
                if self._sweeps[n].error:
                    break

    # -- criteria ------------------------------------------------------------

    @_criterion("closed forms vs oracle", "5 + 3 forms, n = 0..{avoid_nmax}")
    def criterion_1(self) -> str | None:
        """Closed forms for both restricted classes equal the oracle."""
        self._sum_all((c, n) for n in range(self.avoid_nmax + 1) for *_, c in _CLOSED_FORMS)
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
        self._sum_all((c, n) for _, c in pairs for n in range(self.all_nmax + 1))
        for kind, constraints in pairs:
            coeffs = self.series(kind).coeffs
            for n in range(self.all_nmax + 1):
                if coeffs[n] != self.sums(constraints, n):
                    return f"{kind} coefficient {n} != oracle"
        return None

    @_criterion("substitution identities", "series order {series_order}")
    def criterion_3(self) -> str | None:
        """The two substitution identities, G_uvv(a,b,b^2+c) = G and
        G_uvv(a,b,b^2) = G_uvu(a,b,b^2), checked directly on every series
        coefficient, through x^max(series_order + 1, avoid_nmax).  On the
        oracle rows n <= all_nmax they follow from criterion 2, which proves
        each of the three series equal to the oracle there.  An expansion
        that stops before x^(series_order + 1) fails, rather than narrowing
        the check."""
        rows = zip(*(self.series(k).coeffs for k in ("G_uvv", "G", "G_uvu")))
        for n, (g_uvv, g_all, g_uvu) in enumerate(rows):
            if g_uvv.substitute("c", _B2 + VAR_C) != g_all:
                return f"series c->b^2+c fails at n={n}"
            if g_uvv.substitute("c", _B2) != g_uvu.substitute("c", _B2):
                return f"series c=b^2 fails at n={n}"
        return None if n > self.series_order else f"series stop at x^{n}"

    @_criterion("bijection suite", "n = 0..{avoid_nmax}")
    def criterion_4(self) -> str | None:
        """sigma is a weight-preserving bijection onto the uvu-avoiding class
        whose fixed points are the grammar's words; the sweep maps every
        path, so sigma's Case5/Case6 invariants hold too.  The sweep takes
        the class size to be S_n(1,1), the large Schroeder number, and
        criterion 8 proves it: it checks the class's weight sum at c = b^2
        against S_n(a,b) for n >= 1, which at a = b = 1 counts the class,
        and n = 0 has only the empty path.  So a wrong oracle weight sum of
        the class fails criteria 2 and 8, not this one, and a wrong S_n
        fails criteria 6, 7 and 8 as well as this one."""
        self._sweep_all(range(self.avoid_nmax + 1))
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
        own counting is checked, not only the grammar that the sweep reads;
        each length's count is a job of one runner call, as far as the
        first sweep that failed.  That sweep reports its own error, not
        counts it stopped short of."""
        nmax = self.avoid_nmax
        f_series = self.series("F")
        f_seq, a_seq, b_seq, c_seq = formulas.fixed_point_sequences(nmax)
        self._sweep_all(range(nmax + 1))
        swept = next((n for n in range(nmax + 1) if self._sweeps[n].error), nmax + 1)
        counted = range(min(swept, self.all_nmax + 1))
        fixed_points = _results(
            [(n, f"fixed_points({n})", _value, (bijection.fixed_points, n)) for n in counted]
        )
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
                counts = fixed_points[n]
                if isinstance(counts, str):
                    return counts
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

        All seven rows of the table that the ``tables`` command prints are
        checked: the polynomial rows of ``formulas.specialization_checks``,
        then each point of ``formulas.SPECIALIZATION_POINTS``, in table
        order, against the G_uvv series.  The polynomial rows are what make
        three of the point rows the classical numbers: g(a,0,b) = M_n(a,b)
        gives the Motzkin numbers at (1,0,1), and g(a,b,b^2) = S_n(a,b)
        gives the large Schroeder numbers at (1,1,1) and the Catalan
        numbers at (0,1,1), where S_n's only term free of a is
        binom(2n,2n) C_n b^n.  Closed form 1 against the oracle is
        criterion 1's.
        """
        g_series = self.series("G_uvv")
        for n in range(self.avoid_nmax + 1):
            g = formulas.g_uvv_closed(n, 1)
            checks = list(formulas.specialization_checks(n, g).items())
            for point, _ in formulas.SPECIALIZATION_POINTS:
                ok = g.eval(*point) == g_series.coeffs[n].eval(*point)
                checks.append((f"{point} series", ok))
            for label, ok in checks:
                if not ok:
                    return f"n={n}: {label}"
        return None

    @_criterion("weight relations", "n = 1..{avoid_nmax}")
    def criterion_8(self) -> str | None:
        """Classical weight-family relations, including the uvu-class
        identity G_uvu(a,b,b^2) = S_n(a,b) on the oracle's weight sums.  At
        a = b = 1 that identity makes S_n(1,1) the size of the uvu-avoiding
        class, the size that criterion 4's sweep compares its image count
        with; at n = 0 the class is the empty path alone, and S_0 = 1."""
        self._sum_all((AVOID_UVU, n) for n in range(1, self.avoid_nmax + 1))
        for n in range(1, self.avoid_nmax + 1):
            report = formulas.relation_checks(n)
            g_uvu = self.sums(AVOID_UVU, n).substitute("c", _B2)
            report["uvu_class_eq_schroder"] = g_uvu == formulas.schroder_weight(n)
            for label, ok in report.items():
                if not ok:
                    return f"n={n}: {label}"
        return None

    @_criterion("structural suite", "decompositions n <= {all_nmax}, 3 relations on the rows")
    def criterion_9(self) -> str | None:
        """Decomposition records of both classes for n <= all_nmax, and the
        relations between kinds, proved on their rows.  sigma's Case5/Case6
        invariants are criterion 4's: its sweep maps every uvv-avoiding path
        with n <= avoid_nmax, which covers all_nmax.

        Write E_K(S) = D S - P - Q S^2 for the row (P, Q, D) of kind K.  Each
        relation of ``_RELATIONS`` is an identity of polynomials in x and S,
        checked term by term:

          Gbar relation    x^2 (1 + aS)^2 E_Gbar_uvv(S / (x (1 + aS))) = x E_T(S)
          F vs A relation  E_F((1 + x)^2 S + x^3 - x) = (1 + x)^3 E_A(S)
          T relation       x^2 E_G_uvv(S / x) = x E_T(S)

        A row with D_0 = 1 and Q_0 P_0 = 0 has exactly one power-series
        root with Q_0 S_0 = 0: at x^0 it gives s_0 = P_0, and at x^n, n >=
        1, s_n enters only as (D_0 - 2 Q_0 s_0) s_n = s_n, so s_0..s_(n-1)
        fix it.  So T is the root of T's row with T_0 = 0, and each other
        row, with Q_0 = 0, has one root.  Put S = T in the first and third
        identity: the right sides vanish.  T_0 = 0, so T/x is a power
        series, and 1 + aT is a unit, so T / (x (1 + aT)) is one too; x^2
        and x^2 (1 + aT)^2 are nonzero, so these two series are roots of
        Gbar_uvv's and G_uvv's rows, and so their roots: x Gbar (1 + aT) =
        T and T = x G_uvv at every order.  Put S = A in the second: (1 +
        x)^2 A + x^3 - x is a power series and a root of F's row, so it is
        F.  ``expand`` certifies each expansion that the other criteria read
        against its row (the certificate lemma of the ``series``
        docstring), so the expansions obey these relations too.

        A wrong row, one whose root is not the kind's series, fails:
          G_uvv     the T relation, criterion 2 for n <= all_nmax and
                    criterion 3 through the whole expansion;
          T         the Gbar and T relations;
          Gbar_uvv  the Gbar relation, and criterion 2;
          F, A      F vs A, and criterion 6 holds F to the fixed-point
                    counts for n <= avoid_nmax.
        A failure names the relation and the first term x^i S^j, S written
        as T or A, at which its two sides differ.  The rows do not depend
        on series_order, so neither does this check's cost.  The records of
        each class and length are checked by one job of a runner call, in
        the order shown."""
        checks = ((AVOID_UVV, _check_forward_decomposition), (AVOID_UVU, _check_inverse_decomposition))
        jobs = [
            (n, f"decompositions at n={n} of {c}", _value, (_first_error, check, n, c))
            for n in range(self.all_nmax + 1)
            for c, check in checks
        ]
        for err in _results(jobs):
            if err:
                return err
        for name, kind, num, den, factor, base in _RELATIONS:
            diff = _add(_row_at(kind, num, den), _mul(_MINUS, factor, _row_at(base, _S, _ONE)))
            if diff:
                i, j = min(diff)
                return f"{name} fails at x^{i} {base}^{j}"
        return None

    def run_all(self) -> list[CheckResult]:
        return [getattr(self, f"criterion_{k}")() for k in range(1, 10)]


# The sweep's paths per chunk: enough to spread the C-level calls of
# ``_check_chunk``'s image tests over many paths, few enough that a chunk's
# words, images and joined strings stay well under a megabyte.
_CHUNK = 1024

# The CPUs this process may run on; no call of the runner forks more children.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# The least length of a job that the runner forks for.  A job at n walks
# about 5^n paths, and below n = 7, where the sweep's class has fewer than
# eight chunks, a child costs more to fork, feed through its pipe and reap
# than it saves.
_FORK_N = 7


def _can_fork() -> bool:
    """Whether the runner may fork: on two CPUs or more, where ``os.fork``
    exists, no other thread runs, since a forked copy of a threaded
    process can deadlock, and SIGCHLD is at its default, since the kernel
    or a handler of its own may then reap a child before the runner kills
    and reaps it."""
    if _CPUS < 2 or not hasattr(os, "fork"):
        return False
    import signal  # only a process that may fork imports these
    import threading

    return threading.active_count() == 1 and signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL


def _shards(size: int) -> int:
    """How many shards the sweep cuts a class of ``size`` paths into: one
    per four chunks, at most one per CPU, and one where the runner may not
    fork (``_can_fork``).  Each shard walks the whole class, so a class of
    fewer than eight chunks (n <= 6) is one shard."""
    shards = max(1, min(_CPUS, size // (4 * _CHUNK)))
    return shards if shards == 1 or _can_fork() else 1


def _shard(n: int, shard: int, shards: int) -> Iterator[tuple[int, list[str], str | None]]:
    """Shard ``shard`` of ``shards``, the stream of one job of the sweep:
    (count, fixed points, failure) for each chunk of the walk at n whose
    index is ``shard`` mod ``shards``, in walk order, from ``_check_chunk``
    with the sigma and sigma_inv that ``bijection`` holds when the shard
    starts, up to its first failure.  It walks the whole class and builds
    every chunk, mapping only its own."""
    sigma, sigma_inv = bijection.sigma, bijection.sigma_inv
    walk = generate(n, AVOID_UVV)
    chunks = iter(lambda: list(islice(walk, _CHUNK)), [])
    for chunk in islice(chunks, shard, None, shards):
        images, error = _check_chunk(chunk, n, sigma, sigma_inv)
        yield len(images), list(compress(chunk, map(eq, chunk, images))), error
        if error:
            return


def _value(func: Callable, *args) -> Iterator:
    """The stream of a job with one result, ``func(*args)``."""
    yield func(*args)


def _first_error(check: Callable[[str], str | None], n: int, constraints: Constraints) -> str | None:
    """The first failure that ``check`` names over the class of length n in
    walk order, or None."""
    return next(filter(None, map(check, generate(n, constraints))), None)


def _results(jobs: list) -> list:
    """The one record of each of ``jobs``, ``_value`` jobs, in order, from
    one call of the runner."""
    with _run(jobs) as streams:
        return [next(stream) for stream in streams]


def _plain(stream: Callable[..., Iterator], args: tuple) -> Iterator:
    """The records of ``stream(*args)`` and, if it raises, one more, the
    text of what it raised (``_raised``), which ends them: a job's records
    as the runner gives them, plain data."""
    try:
        yield from stream(*args)
    except Exception as err:
        yield _raised(err)


@contextlib.contextmanager
def _run(jobs: list[tuple[int, str, Callable[..., Iterator], tuple]]) -> Iterator[list[Iterator]]:
    """The streams of records of ``jobs``, one per job in order, to read
    while the ``with`` block runs: ``verify``'s one runner, and its one
    fork site.

    A job is (n, label, stream, args), its records those of
    ``_plain(stream, args)``: plain data, a raise's text the last of them.
    A job at n walks about 5^n paths.  Where no job is at ``_FORK_N`` or
    more, or the runner may not fork (``_can_fork``), each stream is that
    generator, run in this process as it is read.  Otherwise the jobs are
    dealt out largest first, each to the one of min(``_CPUS``, len(jobs))
    children with the fewest paths so far; this process forks them all,
    runs no job and reads their records as the streams ask for them.  Each child runs its
    jobs in order and writes to its pipe, pickled, a pair (j, record) for
    each record of job j and (j, ...) after its last.  A record read
    before its stream asks for it is held until it does, so the streams
    may be read in any order; read in order, as every caller reads them,
    a child's records wait in its pipe.  A child that ends before a job's
    last record gives that job one more, the ``_raised`` text of a
    ``ChildProcessError`` naming it, which ends its stream.  The children
    are killed and reaped when the block ends, however it ends."""
    if max((job[0] for job in jobs), default=0) < _FORK_N or not _can_fork():
        yield [_plain(stream, args) for _, _, stream, args in jobs]
        return
    import pickle  # only a call that forks imports these
    import signal

    paths = [0] * min(_CPUS, len(jobs))  # the paths dealt to each child
    owner = [0] * len(jobs)  # the child of each job
    for j in sorted(range(len(jobs)), key=lambda j: -jobs[j][0]):
        owner[j] = paths.index(min(paths))
        paths[owner[j]] += 5 ** jobs[j][0]
    held = [deque() for _ in jobs]  # the records of each job read ahead
    children = []  # (pid, reader) of each child

    def records(j: int) -> Iterator:
        reader = children[owner[j]][1]
        while True:
            while not held[j]:
                try:
                    i, record = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    ended = f"the child running {jobs[j][1]} ended before its last record"
                    yield _raised(ChildProcessError(ended))
                    return
                held[i].append(record)
            record = held[j].popleft()
            if record is ...:
                return
            yield record

    try:
        for child in range(len(paths)):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    with open(write, "wb") as out:
                        for j, (_, _, stream, args) in enumerate(jobs):
                            if owner[j] == child:
                                for record in chain(_plain(stream, args), [...]):
                                    out.write(pickle.dumps((j, record)))
                                    out.flush()
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        yield [records(j) for j in range(len(jobs))]
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _merge(n: int, size: int, streams: list[Iterator]) -> _Sweep:
    """The sweep at n of ``Harness.sweep``, of a class of ``size`` paths,
    from the streams of its S shards: their records in chunk order, chunk
    i's the next of shard i mod S, up to the first failure.  A record that
    is a str, the runner's, is that failure, with no count or fixed
    point."""
    images = 0
    classes = {bijection.CLASS_A: 0, bijection.CLASS_B: 0, bijection.CLASS_C: 0}
    error: str | None = None
    classify = bijection._classify
    grammar = bijection._grammar(n)
    mismatch = None  # the first fixed point that is not the next pair
    for i in count():
        record = next(streams[i % len(streams)], None)
        if record is None:
            break
        mapped, fixed, error = (0, [], record) if isinstance(record, str) else record
        images += mapped
        if not mismatch:
            for q in fixed:
                cls = classify(q)
                classes[cls] += 1
                listed = next(grammar, None)
                if listed != (q, cls):
                    mismatch = f"sigma fixes {(q, cls)!r}, fixed_points lists {listed!r} there"
                    break
        if error:
            break
    a, b, c = classes.values()
    if error is None:
        left = next(grammar, None)  # a pair after the last fixed point
        if images != size:
            error = f"image has {images} paths, class has {size}"
        elif not a + b + c:
            error = "sigma fixes no path"
        elif mismatch:
            error = mismatch
        elif left:
            error = f"fixed_points lists {left!r} after the last path sigma fixes"
    return _Sweep(a=a, b=b, c=c, error=error)


# u rises, d and v fall and h is level: each path becomes a word of
# parentheses, balanced exactly when the path is.
_PARENS = str.maketrans("udv", "())", "h")
# What is left of each word once its steps are deleted; each word's h's
# alone; and an h for each step of a word that is not v.
_OFF_STEPS = str.maketrans("", "", "udhv")
_HS = str.maketrans("", "", "udv")
_NOT_V = str.maketrans("ud", "hh", "v")


def _unmatched(words: str) -> str:
    """What is left of ``words`` written in parentheses by ``_PARENS`` once
    "()" is deleted until none is left: the sweep's path test.  No deletion
    crosses a newline, so each line reduces alone, and a line over udhv
    reduces to nothing exactly when it never dips below the axis and ends
    on it, and otherwise to some ")" followed by some "("."""
    parens = words.translate(_PARENS)
    while "()" in parens:
        parens = parens.replace("()", "")
    return parens


def _check_chunk(
    chunk: list[str], n: int, sigma: Callable[[str], str], sigma_inv: Callable[[str], str]
) -> tuple[list[str], str | None]:
    """The images of the paths of ``chunk`` up to its first failure, and what
    failed or None; what sigma or sigma_inv raises escapes if no path before
    the one it raised at failed.

    Each path is mapped once by sigma, in one C-level pass that keeps the
    images before a raise (``list.extend`` keeps the items it has taken
    when its iterator raises; CPython behaviour, which a test pins).  Each
    image test is one transform of the images joined by newlines, held to
    its target, in this order, as a path-by-path sweep applies them:

    - over udhv: deleting the steps leaves only the joining newlines;
    - a path: ``_unmatched`` leaves only those newlines too;
    - no uvu: "uvu" holds no newline, so deleting it changes a line
      exactly when the line contains it;
    - the weight: deleting u, d and v leaves each image's h's, which must
      be those of its path; deleting v and writing h for u and d leaves
      #u + #d + #h h's, which must be n.  On a path #u = #d + #v, so this
      is #v + 2#d = n - #h: ``generate`` yields q with x-length n = #h +
      #v + 2#d, and p keeps q's weight exactly when it has q's #h and this.

    A chunk whose transforms all equal their targets passes them.  Where
    the first misses, the first image off udhv is found image by image, and
    the other tests read only the images before it, since a newline in it
    would shift the lines after it.  Each line of their transforms is then
    that test on one image: the first image that fails a test is the least
    of the tests' first differing lines, the earlier test winning a tie.
    Every image before it is a path, so the weight test is exact there.
    Only the images before it are mapped back by sigma_inv, which refuses
    a word that is no uvu-avoiding path, and a path among them that does
    not come back is the failure instead."""
    images: list[str] = []
    raised = None
    try:
        images.extend(map(sigma, chunk))
    except Exception as err:
        raised = err
    joined, fail, failure = "\n".join(images), len(images), None
    if joined.translate(_OFF_STEPS) != "\n" * (fail - 1):  # an image off udhv, or holding a newline
        fail = next(compress(count(), map(str.lstrip, images, repeat("udhv"))))
        joined, failure = "\n".join(images[:fail]), "outside the uvu-avoiding class"
    for what, got, target in (
        ("outside the uvu-avoiding class", _unmatched(joined), "\n" * (fail - 1)),
        ("contains uvu", joined.replace("uvu", ""), joined),
        ("changes the weight", joined.translate(_HS), "\n".join(chunk[:fail]).translate(_HS)),
        ("changes the weight", joined.translate(_NOT_V), "\n".join(repeat("h" * n, fail))),
    ):
        if got != target:
            line = next(compress(count(), map(ne, got.split("\n"), target.split("\n"))))
            if line < fail:
                fail, failure = line, what
    backs: list[str] = []
    try:
        backs.extend(map(sigma_inv, islice(images, fail)))
    except Exception as err:  # at a path before the failing image: it comes first
        raised, failure = err, None
    if backs != chunk[: len(backs)]:
        i = next(compress(count(), map(ne, backs, chunk)))
        return images[:i], f"sigma_inv(sigma({chunk[i]})) = {backs[i]}"
    if failure:
        return images[:fail], f"sigma({chunk[fail]}) = {images[fail]} {failure}"
    if raised is not None:
        raise raised
    return images, None


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
