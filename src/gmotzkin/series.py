"""Truncated expansions of the package's generating functions.

Every generating function here is the power-series root S of one equation

    D S = P + Q S^2,        D_0 = 1,  Q != 0,

over exact integer polynomials, with P, Q and D given by a few low-order
coefficients (k = c - b^2):

  kind      P                          Q              D                           counts
  C         1                          x              1                           Catalan numbers
  G         1                          x(b + cx)      1 - ax                      all G-Motzkin paths
  G_uvv     1                          x(b + kx)      1 - ax                      uvv-avoiding paths
  G_uvu     1 + bx                     x(b + cx)      1 + (b-a)x - abx^2          uvu-avoiding paths
  T         x                          b + kx         1 - ax                      T = x G_uvv
  F         (1+x)^3                    x              1 + 2x - 2x^2 - 4x^3 - x^4  fixed points
  Gbar_uvv  1                          x(a + b + kx)  1 + ax                      no h on the axis
  A         1 + x - x^2 - 2x^3 + 2x^4  x(1 + x)       1 + x - x^2 - 3x^3          class-A counts

The last two rows are derived as follows, so that no expansion is built
from another:

  Gbar_uvv  put G_uvv = H/(1 - axH) into G = 1 + axG + x(b + kx)G^2 and
            multiply by (1 - axH)^2; H = Gbar_uvv is the root with H_0 = 1.
  A         put F = (1+x)^2 A + x^3 - x into
            (1 + 2x - 2x^2 - 4x^3 - x^4) F = (1+x)^3 + x F^2 and divide
            by (1+x)^3.

So ``verify``'s Gbar relation x Gbar (1 + aT) = T, its F-vs-A relation
F = (1+x)^2 A + x^3 - x and its T relation T = x G_uvv check this
solver's output independently.

``solve`` returns a ``PowerSeries``, a record whose one field ``coeffs`` is
the tuple of Polynomial coefficients s_0, ..., s_order.

The root.  Write Q = x^v Q~ with Q~_0 != 0.  Every row is quadratic, so
R = D - 2QS is a square root of the discriminant:

    R^2 - Delta = -4Q (D S - P - Q S^2),      Delta = D^2 - 4PQ,

and R^2 = Delta at the root.  Delta_0 = 1, since D_0 = 1 and P_0 Q_0 = 0:
a row with Q_0 != 0 is contractive only if s_0 = 0, which makes P_0 = 0,
so Q_0 != 0 with P_0 != 0 raises DivergenceError.  So r_0 = 1, and R is
D-finite (Stanley, *Enumerative Combinatorics* vol. 2, sec. 6.4; Flajolet
& Sedgewick, *Analytic Combinatorics*, App. B.4): from 2 R R' = Delta',
times R, 2 Delta R' = Delta' R, whose x^(m-1) coefficient is

    sum_{i>=0} Delta_i (2m - 3i) r_{m-i} = 0,    that is
    2m r_m = -sum_{i>=1} Delta_i (2m - 3i) r_{m-i}.

It has deg Delta terms: 1 for C, 2 for G, G_uvv, T and Gbar_uvv, 4 for
G_uvu, 6 for A and 8 for F.  ``solve`` runs it through x^(order + v) and
reads s_n off the x^(n + v) coefficient of 2 Q S = D - R:

    s_n = ((D - R)_{n+v} / 2 - sum_{i>=1} Q~_i s_{n-i}) / Q~_0.

So a coefficient costs deg Delta + deg Q~ products of a short row entry
by a long coefficient, and order N costs O(N) products, where squaring S
costs O(N^2).  ``solve`` takes quadratic rows only: Q = 0 raises
ValueError, as does an order for which R's row, order + v + 1 long,
would pass sys.maxsize.

Grading.  Give a and b degree 1 and c degree 2.  Every row above is then
homogeneous: with g and delta fixed by the row, P_n has degree g n + delta,
Q_n degree g n - delta and D_n degree g n, so s_n is homogeneous of degree
g n + delta, and Delta_n and r_n of degree g n.  That is g = 1 for the
kinds in a, b, c (delta = -1 for T, 0 for the others) and g = 0 for C, F
and A.  ``solve`` reads (g, delta) off one term of each nonzero entry,
and packing checks every term of every entry against it, so a row with no
such grading raises ValueError.

Packing.  A homogeneous polynomial is determined by its value at a = 1,
since a's exponent is its degree less eb + 2 ec.  So ``solve`` packs each
coefficient's (b, c) polynomial into one Python int with
``polyring.KroneckerCodec`` (Kronecker substitution: Harvey, *Faster
polynomial multiplication via multipoint Kronecker substitution*, JSC
2009): signed slots of one width, b^eb c^ec in slot eb + stride * ec.
Packing is evaluation at a = 1, b = 2^w, c = 2^(w stride), a ring
homomorphism into Z, so the recurrences run unchanged on the ints, each
product one bigint multiply.  Every division in them is exact at the packed
point, whatever the width: r_m and s_n are integer polynomials (s_n by the
fixed-point form s_n = P_n - sum_{i>=1} D_i s_{n-i} + sum_i Q_i
(S^2)_{n-i}, which divides by nothing, and r by R = D - 2QS), so their
packed values are ints obeying the same identities, and the quotient by 2m,
by 2 or by the packed Q~_0 (1, b or a + b) is that int.  The packed Q~_0 is
nonzero because Q~_0 fits the slots and its degree g v - delta is below the
stride; the stride exceeds g (order + v) + |delta|, every degree that is
packed or tested.  The width only has to hold s, the one series that is
unpacked; r is never unpacked.  Factors such as c - b^2 have negative
coefficients, and an overfull slot would corrupt s silently, so the codec
is given a proven bound and turns it into the width: the root of the row of
l1 norms (P_i, Q_i by their norms, D by 1 - sum_{i>=1} ||D_i|| x^i), solved
by the same code on plain ints, majorises ||s_n||, by induction on the
fixed-point form, as the norm is subadditive and submultiplicative.  A
value that does not unpack raises DivergenceError.  A row entry such as
c - b^2 packs to an int with few nonzero slots spread over a long span, so
``_c_rows`` cuts it into its rows by the power of c, and its product with
a long coefficient becomes a few short products and shifts.

Certificate.  After solving, ``_check`` packs the unpacked s_n anew, with
a codec, a bound and a Delta of its own, forms R = D - 2QS through
x^(order + v) and requires r_0 = 1 (and Delta_0 = 1) and the recurrence's
residual sum_i Delta_i (2m - 3i) r_{m-i} = 0 for m = 1..order + v.  Lemma:
this holds exactly when D S = P + Q S^2 through x^order.  Let M = order + v.
If the residuals vanish, 2 Delta R' - Delta' R = 0 mod x^M, and since

    (R^2 / Delta)' = R (2 Delta R' - Delta' R) / Delta^2,

R^2 / Delta is constant mod x^(M+1), equal to r_0^2 / Delta_0 = 1.  So
R^2 = Delta, Q (D S - P - Q S^2) = 0 mod x^(M+1), and as Q = x^v Q~ with
Q~_0 != 0 in the domain Z[a, b, c], D S - P - Q S^2 = 0 mod x^(order+1).
Conversely the root has R^2 = Delta mod x^(M+1) and R a unit, so the
same identity gives the residuals 0.  S^2 is never formed, so the
certificate is linear work too.  Each residual is homogeneous of degree
g m with coefficients at most 3 M ||Delta||_1 max_j ||r_j|| in size, both
bounded by sums over the operands' l1 norms; the certificate's width holds
that bound and every operand, so a residual packs to 0 only if it is 0.
A slot too narrow in the solve therefore shows up as DivergenceError,
never as a wrong series.

``verify`` checks the solved series again with code of its own, which
shares nothing with this solve or certificate: substitutions in
``Polynomial`` arithmetic, and three relations between kinds.  It does not
restate any row, which the certificate already holds each expansion to.
Of those relations only the Gbar relation forms a product of series, one
product H T on ints packed by the codec, so it alone is O(N^2) in the
order N; F vs A and T = x G_uvv are linear and compared unpacked.

No radical is formed symbolically: R, the square root of Delta, is only
ever a power series of integer polynomials, and closed forms involving
square roots are certified by the residuals of their defining rows, which
the certificate above checks, and independently by ``verify``'s checks of
the series against the oracle, the closed forms and each other.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Sequence

from .polyring import (
    ONE,
    VAR_A,
    VAR_B,
    VAR_C,
    ZERO,
    DivergenceError,
    KroneckerCodec,
    Polynomial,
)

_K = VAR_C - VAR_B * VAR_B
_ONE_MINUS_AX = [ONE, -VAR_A]


def _ints(*values: int) -> list[Polynomial]:
    return [Polynomial.const(v) for v in values]


# kind -> (P, Q, D), each by its low-order coefficients, in the CLI's order
_EQUATIONS: dict[str, tuple[list[Polynomial], ...]] = {
    "G": ([ONE], [ZERO, VAR_B, VAR_C], _ONE_MINUS_AX),
    "G_uvu": ([ONE, VAR_B], [ZERO, VAR_B, VAR_C], [ONE, VAR_B - VAR_A, -(VAR_A * VAR_B)]),
    "G_uvv": ([ONE], [ZERO, VAR_B, _K], _ONE_MINUS_AX),
    "T": ([ZERO, ONE], [VAR_B, _K], _ONE_MINUS_AX),
    "Gbar_uvv": ([ONE], [ZERO, VAR_A + VAR_B, _K], [ONE, VAR_A]),
    "C": ([ONE], [ZERO, ONE], [ONE]),
    "F": (_ints(1, 3, 3, 1), [ZERO, ONE], _ints(1, 2, -2, -4, -1)),
    "A": (_ints(1, 1, -1, -2, 2), _ints(0, 1, 1), _ints(1, 1, -1, -3)),
}
KINDS = tuple(_EQUATIONS)


PowerSeries = namedtuple("PowerSeries", "coeffs")


def solve(
    p: Sequence[Polynomial], q: Sequence[Polynomial], d: Sequence[Polynomial], order: int
) -> PowerSeries:
    """The series S through x^order with D S = P + Q S^2, where D_0 = 1 and
    Q != 0.

    Raises ValueError if the order is not an int in 0..sys.maxsize, if Q =
    0, if order + v + 1 passes sys.maxsize for Q = x^v Q~, or if the row
    has no grading (see the module docstring), and DivergenceError if
    D_0 != 1, if Q_0 != 0 and P_0 != 0, or if the solution fails the
    certificate.
    """
    if isinstance(order, bool) or not isinstance(order, int):
        raise ValueError(f"order must be an int, not {order!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > sys.maxsize:
        raise ValueError(f"order must be at most sys.maxsize, not {order}")
    v = _valuation(q)
    if v is None:
        raise ValueError("Q must be nonzero: solve takes quadratic rows only")
    if order + v + 1 > sys.maxsize:  # R's row runs through x^(order + v)
        raise ValueError(f"order must be at most sys.maxsize - {v + 1} for this row, not {order}")
    top = order + v
    ps, qs, ds = (list(row[: top + 1]) for row in (p, q, d))
    if not ds or ds[0] != ONE:
        raise DivergenceError("the solution fails D S = P + Q S^2 unless D_0 = 1")
    g, delta = _grading(ps, qs, ds)
    stride = max(g * top, 0) + abs(delta) + 1
    p_norm, q_norm, d_norm = ([c.norm() for c in row] for row in (ps, qs, ds))
    majorant = _root(p_norm, q_norm, [1] + [-n for n in d_norm[1:]], order, 0)
    codec = KroneckerCodec(max(majorant + q_norm + d_norm), stride)
    p_int, q_int, d_int = (
        codec.pack_row(row, g, shift) for row, shift in ((ps, delta), (qs, -delta), (ds, 0))
    )
    values = _root(p_int, q_int, d_int, order, codec.width * stride)
    try:
        s = [codec.unpack(v, g * n + delta) for n, v in enumerate(values)]
    except ValueError as err:  # a slot too narrow for the majorant's bound
        raise DivergenceError(f"a solved coefficient does not decode: {err}") from err
    _check(ps, qs, ds, s, g, delta, stride)
    return PowerSeries(tuple(s))


def _grading(
    ps: list[Polynomial], qs: list[Polynomial], ds: list[Polynomial]
) -> tuple[int, int]:
    """(g, delta) with deg P_n = g n + delta, deg Q_n = g n - delta, deg D_n = g n.

    A nonzero coefficient of index n whose first term has degree e says
    e = g n + w delta, with w = 1, -1, 0 in P, Q, D.  Two independent
    equations fix (g, delta); if all are multiples of one, any solution of
    it will do.  Packing then checks every term of every coefficient
    against the grading.
    """
    eqs = []
    for w, row in ((1, ps), (-1, qs), (0, ds)):
        for n, c in enumerate(row):
            if c and (n or w):
                (ea, eb, ec), _ = next(c.terms())
                eqs.append((n, w, ea + eb + 2 * ec))
    for n1, w1, e1 in eqs:
        for n2, w2, e2 in eqs:
            det = n1 * w2 - n2 * w1
            if det:
                return (e1 * w2 - e2 * w1) // det, (n1 * e2 - n2 * e1) // det
    for n, w, e in eqs:
        return (0, w * e) if w else (e // n, 0)
    return 0, 0


def _valuation(row: Sequence) -> int | None:
    """The index v of the row's first nonzero entry, Q = x^v Q~; None if
    Q = 0, which ``solve`` refuses."""
    return next((i for i, c in enumerate(row) if c), None)


def _c_rows(value: int, c_bits: int) -> list[tuple[int, int]]:
    """(part, at) pairs with value = sum of part << at: a packed value cut
    into its rows of slots, one per power of c = 2^c_bits, each part
    balanced in [-2^(c_bits-1), 2^(c_bits-1)) and nonzero.  A row entry
    has a few short parts, so a product with it is a few short products
    and shifts, where one bigint product would run over every slot between
    its powers of c.  c_bits below 2 leaves the value whole, as for plain
    ints."""
    if c_bits < 2:
        return [(value, 0)] if value else []
    parts = []
    half, mask = 1 << (c_bits - 1), (1 << c_bits) - 1
    at = 0
    while value:
        part = ((value + half) & mask) - half
        if part:
            parts.append((part, at))
        value = (value - part) >> c_bits
        at += c_bits
    return parts


def _product(f: list[int], h: list[int], top: int, c_bits: int) -> list[int]:
    """Coefficients 0..top of the product of two polynomials in x over ints,
    f's entries cut by ``_c_rows``; f is the short one, and c_bits = 0
    multiplies short rows whole."""
    out = [0] * (top + 1)
    for i, a in enumerate(f[: top + 1]):
        for part, at in _c_rows(a, c_bits):
            for j, b in enumerate(h[: top + 1 - i]):
                out[i + j] += (part * b) << at
    return out


def _root(p: list[int], q: list[int], d: list[int], order: int, c_bits: int) -> list[int]:
    """s_0, ..., s_order of the root of D S = P + Q S^2 over ints, d_0 = 1:
    R = D - 2QS by its recurrence, then S from 2QS = D - R (see the module
    docstring), Q != 0.  Every division is exact.

    On coefficients packed with c = 2^c_bits this is the solver.  On l1
    norms, with -||D_i|| as d_i for i >= 1 and c_bits = 0, it is the
    majorant of the module docstring.
    """
    v = _valuation(q)
    if v == 0 and p and p[0]:
        raise DivergenceError("Q_0 != 0 needs s_0 = 0; the equation is not contractive")
    top = order + v
    disc = [x - 4 * y for x, y in zip(_product(d, d, top, 0), _product(p, q, top, 0))]
    disc_terms = [(i, *part) for i, c in enumerate(disc) if i and c for part in _c_rows(c, c_bits)]
    r = [1]
    for m in range(1, top + 1):
        tail = sum((c * (2 * m - 3 * i) * r[m - i]) << at for i, c, at in disc_terms if i <= m)
        r.append(-tail // (2 * m))
    d = d + [0] * (top + 1 - len(d))
    q0 = q[v]
    q_terms = [(i - v, *part) for i, c in enumerate(q) if i > v and c for part in _c_rows(c, c_bits)]
    s = []
    for n in range(order + 1):
        half = (d[n + v] - r[n + v]) // 2
        s.append((half - sum((c * s[n - i]) << at for i, c, at in q_terms if i <= n)) // q0)
    return s


def _check(
    ps: list[Polynomial],
    qs: list[Polynomial],
    ds: list[Polynomial],
    s: list[Polynomial],
    g: int,
    delta: int,
    stride: int,
) -> None:
    """Raise DivergenceError unless D S == P + Q S^2 through the order of S,
    Q != 0, by the certificate of the module docstring, with S packed anew
    under a codec and a bound of its own: the residuals sum_i Delta_i
    (2m - 3i) r_(m-i) of R = D - 2QS.  The rows run through x^(order + v)."""
    order = len(s) - 1
    top = order + _valuation(qs)
    p_norm, q_norm, d_norm, s_norm = ([c.norm() for c in row] for row in (ps, qs, ds, s))
    r_norm = max(d_norm) + 2 * sum(q_norm) * max(s_norm)
    disc_norm = sum(d_norm) ** 2 + 4 * sum(p_norm) * sum(q_norm)
    residual = 3 * top * disc_norm * r_norm
    codec = KroneckerCodec(max(p_norm + q_norm + d_norm + s_norm + [residual]), stride)
    p_int, q_int, d_int, s_int = (
        codec.pack_row(row, g, shift)
        for row, shift in ((ps, delta), (qs, -delta), (ds, 0), (s, delta))
    )
    c_bits = codec.width * stride
    d_int += [0] * (top + 1 - len(d_int))
    r = [x - 2 * y for x, y in zip(d_int, _product(q_int, s_int, top, c_bits))]
    squares, products = _product(d_int, d_int, top, 0), _product(p_int, q_int, top, 0)
    disc = [x - 4 * y for x, y in zip(squares, products)]
    terms = [(i, *part) for i, c in enumerate(disc) if c for part in _c_rows(c, c_bits)]
    ok = r[0] == disc[0] == 1 and not any(
        sum((c * (2 * m - 3 * i) * r[m - i]) << at for i, c, at in terms if i <= m)
        for m in range(1, top + 1)
    )
    if not ok:
        raise DivergenceError(f"solution fails D S = P + Q S^2 through x^{order}")


def expand(kind: str, order: int) -> PowerSeries:
    """Expand one generating function through x^order."""
    if not isinstance(kind, str) or kind not in _EQUATIONS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    return solve(*_EQUATIONS[kind], order)
