"""Truncated expansions of the package's generating functions.

Every generating function here is the power-series root S of one equation

    D S = P + Q S^2,        D_0 = 1,

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

So ``verify``'s Gbar relation x Gbar (1 + aT) = T and its F-vs-A relation
F = (1+x)^2 A + x^3 - x check this solver's output independently.

``solve`` returns a ``PowerSeries``, a record whose one field ``coeffs`` is
the tuple of Polynomial coefficients s_0, ..., s_order.  It computes the
root online, one coefficient at a time (the "relaxed" method of van der
Hoeven, *Relax, but don't be too lazy*, 2002):

    s_n = P_n - sum_{i>=1} D_i s_{n-i} + sum_{i>=0} Q_i (S^2)_{n-i}.

Every term on the right is already final, and (S^2)_m is kept as a running
list, each summed once over the symmetric half.  Contractivity is checked
structurally: only Q_0 != 0 (as for T) asks for (S^2)_n at step n, which is
free of s_n only if s_0 = 0, so Q_0 != 0 with s_0 != 0 raises
DivergenceError.

Grading.  Give a and b degree 1 and c degree 2.  Every row above is then
homogeneous: with g and delta fixed by the row, P_n has degree g n + delta,
Q_n degree g n - delta and D_n degree g n, so by induction s_n is
homogeneous of degree g n + delta.  That is g = 1 for the kinds in a, b, c
(delta = -1 for T, 0 for the others) and g = 0 for C, F and A.  ``solve``
reads (g, delta) off the row; a row with no such grading raises ValueError.

Packing.  A homogeneous polynomial is determined by its value at a = 1,
since a's exponent is its degree less eb + 2 ec.  So ``solve`` packs each
coefficient's (b, c) polynomial into one Python int with
``polyring.KroneckerCodec`` (Kronecker substitution: Harvey, *Faster
polynomial multiplication via multipoint Kronecker substitution*, JSC
2009): signed slots of one width, b^eb c^ec in slot eb + stride * ec, the
stride above every degree.  Packing is a ring homomorphism, so the
recurrence runs unchanged on the ints, each coefficient product one bigint
multiply, and only s_n is unpacked.  Factors such as c - b^2 have negative
coefficients, and an overfull slot would corrupt the result silently, so
the codec is given a proven bound and turns it into the width: the same
recurrence run on the l1 norms of P, Q and D (with ||D_i|| for -D_i) is a
majorant of ||s_n||, by induction, as the norm is subadditive and
submultiplicative.  A value that does not unpack raises DivergenceError.

Check.  After solving, D S == P + Q S^2 is checked at full order.  The
check packs the unpacked s_n again, under a bound of its own: the residual
(D S)_n - P_n - (Q S^2)_n is homogeneous of degree g n + delta and has no
coefficient larger than the same sums taken over the operands' l1 norms,
so it packs to 0 only if it is 0.  A slot too narrow in the solve
therefore shows up as DivergenceError, never as a wrong series.
``verify`` checks the solver again with code of its own: substitutions in
``Polynomial`` arithmetic, and one table of six series identities, whose
residuals it evaluates on ints packed by the codec, F and A at degree 0.

No radicals are ever manipulated; closed forms involving square roots are
certified instead by checking the defining equations' residuals, which
``verify`` does independently of this solver.
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
    graded_degree,
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
    """The series S through x^order with D S = P + Q S^2, where D_0 = 1.

    Raises ValueError if the order is not an int in 0..sys.maxsize or the
    row has no grading (see the module docstring), and DivergenceError if
    D_0 != 1, if Q_0 != 0 and s_0 != 0, or if the solution fails the
    full-order check.
    """
    if isinstance(order, bool) or not isinstance(order, int):
        raise ValueError(f"order must be an int, not {order!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > sys.maxsize:
        raise ValueError(f"order must be at most sys.maxsize, not {order}")
    ps, qs, ds = (list(row[: order + 1]) for row in (p, q, d))
    if not ds or ds[0] != ONE:
        raise DivergenceError("the solution fails D S = P + Q S^2 unless D_0 = 1")
    g, delta = _grading(ps, qs, ds)
    stride = max(g * order, 0) + abs(delta) + 1
    p_norm, q_norm, d_norm = ([c.norm() for c in row] for row in (ps, qs, ds))
    majorant = _recurrence(p_norm, d_norm, q_norm, order)
    codec = KroneckerCodec(max(majorant + q_norm + d_norm), stride)
    p_int, q_int, d_int = (
        codec.pack_row(row, g, shift) for row, shift in ((ps, delta), (qs, -delta), (ds, 0))
    )
    values = _recurrence(p_int, [-v for v in d_int], q_int, order)
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

    A nonzero coefficient of index n and degree e says e = g n + w delta,
    with w = 1, -1, 0 in P, Q, D.  Two independent equations fix (g,
    delta); if all are multiples of one, any solution of it will do.
    Packing then checks every coefficient against the grading.
    """
    eqs = [
        (n, w, graded_degree(c))
        for w, row in ((1, ps), (-1, qs), (0, ds))
        for n, c in enumerate(row)
        if c and (n or w)
    ]
    for n1, w1, e1 in eqs:
        for n2, w2, e2 in eqs:
            det = n1 * w2 - n2 * w1
            if det:
                return (e1 * w2 - e2 * w1) // det, (n1 * e2 - n2 * e1) // det
    for n, w, e in eqs:
        return (0, w * e) if w else (e // n, 0)
    return 0, 0


def _recurrence(p: list[int], minus_d: list[int], q: list[int], order: int) -> list[int]:
    """s_n = p_n + sum_{i>=1} minus_d_i s_{n-i} + sum_{i>=0} q_i (S^2)_{n-i}
    for n = 0..order, over ints; rows may stop short of the order.

    On packed coefficients this is the solver.  On l1 norms, with ||D_i|| as
    minus_d, it is a majorant: ||s_n|| is at most its n-th value, by
    induction, since the norm is subadditive and submultiplicative.
    """
    p = p + [0] * (order + 1 - len(p))
    d_terms = [(i, v) for i, v in enumerate(minus_d) if i and v]
    q_terms = [(i, v) for i, v in enumerate(q) if v]
    s: list[int] = []
    sq: list[int] = []  # (S^2)_m; entry n lacks 2 s_0 s_n until s_n is known
    for n in range(order + 1):
        half = sum(s[i] * s[n - i] for i in range(1, (n + 1) // 2))
        mid = s[n // 2] * s[n // 2] if n % 2 == 0 and n else 0
        sq.append(2 * half + mid)
        value = (
            p[n]
            + sum(v * s[n - i] for i, v in d_terms if i <= n)
            + sum(v * sq[n - i] for i, v in q_terms if i <= n)
        )
        s.append(value)
        if n == 0:
            if q and q[0] and value:
                raise DivergenceError("Q_0 != 0 needs s_0 = 0; the equation is not contractive")
            two_s0 = 2 * value
            sq[0] = value * value
        else:
            sq[n] += two_s0 * value
    return s


def _sides(
    p: list[int], q: list[int], d: list[int], s: list[int]
) -> tuple[list[int], list[int]]:
    """(D S)_n and P_n + (Q S^2)_n for every n of S, over ints; on l1
    norms, bounds on the l1 norms of both."""
    order = len(s) - 1
    p = p + [0] * (order + 1 - len(p))
    d_terms = [(i, v) for i, v in enumerate(d) if v]
    q_terms = [(i, v) for i, v in enumerate(q) if v]
    sq = [
        2 * sum(s[i] * s[n - i] for i in range((n + 1) // 2))
        + (s[n // 2] * s[n // 2] if n % 2 == 0 else 0)
        for n in range(order + 1)
    ]
    lhs = [sum(v * s[n - i] for i, v in d_terms if i <= n) for n in range(order + 1)]
    rhs = [p[n] + sum(v * sq[n - i] for i, v in q_terms if i <= n) for n in range(order + 1)]
    return lhs, rhs


def _check(
    ps: list[Polynomial],
    qs: list[Polynomial],
    ds: list[Polynomial],
    s: list[Polynomial],
    g: int,
    delta: int,
    stride: int,
) -> None:
    """Raise DivergenceError unless D S == P + Q S^2 through the order,
    with the solution packed anew under a width of its own (see the module
    docstring)."""
    norms = [[c.norm() for c in row] for row in (ps, qs, ds, s)]
    lhs, rhs = _sides(*norms)
    bound = max([a + b for a, b in zip(lhs, rhs)] + norms[1] + norms[2])
    codec = KroneckerCodec(bound, stride)
    p_int, q_int, d_int, s_int = (
        codec.pack_row(row, g, shift)
        for row, shift in ((ps, delta), (qs, -delta), (ds, 0), (s, delta))
    )
    lhs, rhs = _sides(p_int, q_int, d_int, s_int)
    if lhs != rhs:
        raise DivergenceError(f"solution fails D S = P + Q S^2 through x^{len(s) - 1}")


def expand(kind: str, order: int) -> PowerSeries:
    """Expand one generating function through x^order."""
    if not isinstance(kind, str) or kind not in _EQUATIONS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    return solve(*_EQUATIONS[kind], order)
