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

``solve`` computes the root online, one coefficient at a time (the
"relaxed" method of van der Hoeven, *Relax, but don't be too lazy*, 2002):

    s_n = P_n - sum_{i>=1} D_i s_{n-i} + sum_{i>=0} Q_i (S^2)_{n-i}.

Every term on the right is already final, and (S^2)_m is kept as a running
list, each summed once over the symmetric half.  Contractivity is checked
structurally: only Q_0 != 0 (as for T) asks for (S^2)_n at step n, which is
free of s_n only if s_0 = 0, so Q_0 != 0 with s_0 != 0 raises
DivergenceError.  After solving, the equation is checked once at full order
with ``PowerSeries`` arithmetic; a failure raises DivergenceError too.

No radicals are ever manipulated; closed forms involving square roots are
certified instead by checking the defining equations' residuals, which
``verify`` does independently of this solver.
"""

from __future__ import annotations

from typing import Sequence

from .polyring import (
    ONE,
    VAR_A,
    VAR_B,
    VAR_C,
    ZERO,
    DivergenceError,
    Polynomial,
    PowerSeries,
    dot,
)

KINDS = ("G", "G_uvu", "G_uvv", "T", "Gbar_uvv", "C", "F", "A")

_TWO = Polynomial.const(2)
_K = VAR_C - VAR_B * VAR_B
_ONE_MINUS_AX = [ONE, -VAR_A]


def _ints(*values: int) -> list[Polynomial]:
    return [Polynomial.const(v) for v in values]


# kind -> (P, Q, D), each by its low-order coefficients
_EQUATIONS: dict[str, tuple[list[Polynomial], ...]] = {
    "C": ([ONE], [ZERO, ONE], [ONE]),
    "G": ([ONE], [ZERO, VAR_B, VAR_C], _ONE_MINUS_AX),
    "G_uvv": ([ONE], [ZERO, VAR_B, _K], _ONE_MINUS_AX),
    "G_uvu": ([ONE, VAR_B], [ZERO, VAR_B, VAR_C], [ONE, VAR_B - VAR_A, -(VAR_A * VAR_B)]),
    "T": ([ZERO, ONE], [VAR_B, _K], _ONE_MINUS_AX),
    "F": (_ints(1, 3, 3, 1), [ZERO, ONE], _ints(1, 2, -2, -4, -1)),
    "Gbar_uvv": ([ONE], [ZERO, VAR_A + VAR_B, _K], [ONE, VAR_A]),
    "A": (_ints(1, 1, -1, -2, 2), _ints(0, 1, 1), _ints(1, 1, -1, -3)),
}


def solve(
    p: Sequence[Polynomial], q: Sequence[Polynomial], d: Sequence[Polynomial], order: int
) -> PowerSeries:
    """The series S through x^order with D S = P + Q S^2, where D_0 = 1.

    Raises DivergenceError if Q_0 != 0 and s_0 != 0, or if the solution
    fails the equation (as it does when D_0 != 1).
    """
    ps, qs, ds = (PowerSeries.from_polys(v, order) for v in (p, q, d))
    pc, qc = ps.coeffs, qs.coeffs
    minus_d = [-c for c in ds.coeffs]
    s: list[Polynomial] = []
    sq: list[Polynomial] = []  # (S^2)_m; entry n lacks 2 s_0 s_n until s_n is known
    for n in range(order + 1):
        half = dot((s[i], s[n - i]) for i in range(1, (n + 1) // 2))
        mid = s[n // 2] if n % 2 == 0 and n else ZERO
        sq.append(dot(((half, _TWO), (mid, mid))))
        pairs = [(minus_d[i], s[n - i]) for i in range(1, n + 1) if minus_d[i]]
        pairs += [(qc[i], sq[n - i]) for i in range(n + 1) if qc[i]]
        s.append(pc[n] + dot(pairs))
        if n == 0:
            if qc[0] and s[0]:
                raise DivergenceError("Q_0 != 0 needs s_0 = 0; the equation is not contractive")
            two_s0 = s[0] + s[0]
        sq[n] = dot(((sq[n], ONE), (two_s0, s[n]))) if n else s[0] * s[0]
    result = PowerSeries(s)
    if ds * result != ps + qs * result * result:
        raise DivergenceError(f"solution fails D S = P + Q S^2 through x^{order}")
    return result


def expand(kind: str, order: int) -> PowerSeries:
    """Expand one generating function through x^order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if kind not in _EQUATIONS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    return solve(*_EQUATIONS[kind], order)
