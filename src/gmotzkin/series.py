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
  T         x                          b + kx         1 - ax                      x G_uvv, for verify
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

``row`` gives a kind's (P, Q, D).  ``verify`` proves its Gbar relation
x Gbar (1 + aT) = T, its F-vs-A relation F = (1+x)^2 A + x^3 - x and its
T relation T = x G_uvv on these rows, by putting one kind's root into
another kind's row: finite algebra, which holds at every order.  So
``expand`` gives T as 0 followed by G_uvv's expansion one order lower, and
solves every other kind's row.  Those rows have Q_0 = 0, as each S^2 comes
with at least one step, and s_n of degree g n (see Grading), as the paper
weighs a path of length n by a^#h b^#v c^#d, of degree #h + #v + 2#d = n.
T's row, with Q_0 = b and T_n of degree n - 1, has neither: ``verify``
alone reads it, and ``solve`` refuses it.

``solve`` returns a ``PowerSeries``, a record whose one field ``coeffs`` is
the tuple of Polynomial coefficients s_0, ..., s_order.

The root.  Write Q = x^v Q~ with Q~_0 != 0, where v >= 1 as Q_0 = 0.
Every row is quadratic, so R = D - 2QS is a square root of the
discriminant:

    R^2 - Delta = -4Q (D S - P - Q S^2),      Delta = D^2 - 4PQ,

and R^2 = Delta at the root.  Q_0 = 0, so Delta_0 = D_0^2 = 1 and
s_0 = P_0.  So r_0 = 1, and R is D-finite (Stanley, *Enumerative
Combinatorics* vol. 2, sec. 6.4; Flajolet & Sedgewick, *Analytic
Combinatorics*, App. B.4): from 2 R R' = Delta', times R,
2 Delta R' = Delta' R, whose x^(m-1) coefficient is

    sum_{i>=0} Delta_i (2m - 3i) r_{m-i} = 0,    that is
    2m r_m = -sum_{i>=1} Delta_i (2m - 3i) r_{m-i}.

It has deg Delta terms: 1 for C, 2 for G, G_uvv and Gbar_uvv, 4 for
G_uvu, 6 for A and 8 for F.  ``solve`` runs it through x^(order + v) and
reads s_n off the x^(n + v) coefficient of 2 Q S = D - R:

    s_n = ((D - R)_{n+v} / 2 - sum_{i>=1} Q~_i s_{n-i}) / Q~_0.

So a coefficient costs deg Delta + deg Q~ products of a short row entry
by a long coefficient, and order N costs O(N) products, where squaring S
costs O(N^2).  ``solve`` takes quadratic rows with Q_0 = 0 only: Q = 0
and Q_0 != 0 raise ValueError, as does an order for which R's row,
order + v + 1 long, would pass sys.maxsize.

Grading.  Give a and b degree 1 and c degree 2.  Every row that ``solve``
takes is then homogeneous: with g fixed by the row, P_n, Q_n and D_n have
degree g n, so s_n, Delta_n and r_n are homogeneous of degree g n.  That
is g = 1 for the kinds in a, b, c and g = 0 for C, F and A.  ``solve``
reads g off the first term of Q_v, of degree g v, and packing checks every
term of every entry against it, so a row with no such grading, a Q_v whose
degree v does not divide among them, raises ValueError.

Packing.  A homogeneous polynomial is determined by its value at a = 1,
since a's exponent is its degree less eb + 2 ec.  So ``solve`` packs each
coefficient's (b, c) polynomial into one Python int with
``polyring.KroneckerCodec`` (Kronecker substitution: Harvey, *Faster
polynomial multiplication via multipoint Kronecker substitution*, JSC
2009): signed slots of one width w, a whole number of bytes, b^eb c^ec
in slot eb + stride * ec, each digit written and read with
``int.to_bytes`` and ``int.from_bytes``, so packing and unpacking are
linear in the packed size.  Of the codec's layout, this module reads only
``codec.width``, to cut packed values by the power of c.  Packing is
evaluation at a = 1, b = 2^w, c = 2^(w stride), a ring homomorphism into
Z, so the recurrences run unchanged on the ints, each product one bigint
multiply.  Every division in them is exact at the packed
point, whatever the width: r_m and s_n are integer polynomials (s_n by the
fixed-point form s_n = P_n - sum_{i>=1} D_i s_{n-i} + sum_i Q_i
(S^2)_{n-i}, which divides by nothing, and r by R = D - 2QS), so their
packed values are ints obeying the same identities, and the quotient by 2m,
by 2 or by the packed Q~_0 (1, b or a + b) is that int.  The packed Q~_0 is
nonzero because Q~_0 fits the slots and its degree g v is below the
stride; the stride g (order + v) + 1 exceeds every degree that is packed
or tested.  The width only has to hold s, the one series that is
unpacked; r is never unpacked.  Factors such as c - b^2 have negative
coefficients, and an overfull slot would corrupt s silently, so the codec
is given a proven bound and turns it into the width, the least multiple
of 8 bits whose balanced digits hold it: the root of the row of l1 norms
(P_i, Q_i by their norms, D by 1 - sum_{i>=1} ||D_i|| x^i), solved
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
``Polynomial`` arithmetic on the expansions, and the three relations
between kinds above, proved on the rows as identities of polynomials in x
and S.  It does not restate any row, which the certificate already holds
each expansion to, and it packs nothing: the Kronecker format stays inside
this module and ``polyring``.

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
    """The series S through x^order with D S = P + Q S^2, where D_0 = 1,
    Q_0 = 0 and Q != 0.

    Raises ValueError if Q = 0 or Q_0 != 0, if the order is not an int in
    0..sys.maxsize, if order + v + 1 passes sys.maxsize for Q = x^v Q~, or
    if the row has no grading (see the module docstring), and
    DivergenceError if D_0 != 1 or if the solution fails the certificate.
    """
    v = _valuation(q)
    if v is None:
        raise ValueError("Q must be nonzero: solve takes quadratic rows only")
    if v == 0:
        raise ValueError(f"Q_0 must be 0, not {q[0]}: solve takes path rows only")
    _check_order(order, v)
    top = order + v
    ps, qs, ds = (list(row[: top + 1]) for row in (p, q, d))
    if not ds or ds[0] != ONE:
        raise DivergenceError("the solution fails D S = P + Q S^2 unless D_0 = 1")
    (ea, eb, ec), _ = next(qs[v].terms())
    g = (ea + eb + 2 * ec) // v  # deg Q_v = g v; packing checks every term
    stride = g * top + 1
    p_norm, q_norm, d_norm = ([c.norm() for c in row] for row in (ps, qs, ds))
    majorant = _root(p_norm, q_norm, [1] + [-n for n in d_norm[1:]], order, 0)
    codec = KroneckerCodec(max(majorant + q_norm + d_norm), stride)
    p_int, q_int, d_int = (codec.pack_row(row, g) for row in (ps, qs, ds))
    values = _root(p_int, q_int, d_int, order, codec.width * stride)
    try:
        s = [codec.unpack(value, g * n) for n, value in enumerate(values)]
    except ValueError as err:  # a slot too narrow for the majorant's bound
        raise DivergenceError(f"a solved coefficient does not decode: {err}") from err
    _check(ps, qs, ds, s, g, stride)
    return PowerSeries(tuple(s))


def _check_order(order: int, v: int) -> None:
    """Raise ValueError unless the order is an int in 0..sys.maxsize and
    R's row, through x^(order + v), is no longer than a list can be."""
    if isinstance(order, bool) or not isinstance(order, int):
        raise ValueError(f"order must be an int, not {order!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > sys.maxsize:
        raise ValueError(f"order must be at most sys.maxsize, not {order}")
    if order + v + 1 > sys.maxsize:
        raise ValueError(f"order must be at most sys.maxsize - {v + 1} for this row, not {order}")


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
    stride: int,
) -> None:
    """Raise DivergenceError unless D S == P + Q S^2 through the order of S,
    Q != 0, by the certificate of the module docstring, with S packed anew
    under a codec and a bound of its own: the residuals sum_i Delta_i
    (2m - 3i) r_(m-i) of R = D - 2QS.  The rows run through x^(order + v).
    Packing raises ValueError for an s_n that is not homogeneous of its
    degree g n, as every s_n of the root is."""
    order = len(s) - 1
    top = order + _valuation(qs)
    p_norm, q_norm, d_norm, s_norm = ([c.norm() for c in row] for row in (ps, qs, ds, s))
    r_norm = max(d_norm) + 2 * sum(q_norm) * max(s_norm)
    disc_norm = sum(d_norm) ** 2 + 4 * sum(p_norm) * sum(q_norm)
    residual = 3 * top * disc_norm * r_norm
    codec = KroneckerCodec(max(p_norm + q_norm + d_norm + s_norm + [residual]), stride)
    p_int, q_int, d_int, s_int = (codec.pack_row(row, g) for row in (ps, qs, ds, s))
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


def row(kind: str) -> tuple[tuple[Polynomial, ...], ...]:
    """The row (P, Q, D) of one generating function, each entry the tuple
    of its low-order coefficients."""
    if not isinstance(kind, str) or kind not in _EQUATIONS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    return tuple(map(tuple, _EQUATIONS[kind]))


def expand(kind: str, order: int) -> PowerSeries:
    """Expand one generating function through x^order.  T = x G_uvv, so
    its expansion is 0 followed by G_uvv's through x^(order - 1)."""
    if kind == "T":
        _check_order(order, 0)  # the bound of T's own row, where v = 0
        tail = solve(*row("G_uvv"), order - 1).coeffs if order else ()
        return PowerSeries((ZERO, *tail))
    return solve(*row(kind), order)
