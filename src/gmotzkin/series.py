"""Truncated expansions of the package's generating functions.

Every generating function here is the unique power-series root of a
polynomial or rational functional equation that is contractive in x (the
self-referential term always carries an explicit factor of x), so all
expansions run through ``polyring.fixed_point`` on exact integer
polynomials.  No radicals are ever manipulated; closed forms involving
square roots are certified instead by checking the defining equation's
residual, which the test suite does through high order.

Kinds and their defining equations (S is the series being solved for):

  C         S = 1 + x S^2                       Catalan numbers
  G         S = 1 + axS + x(b + cx) S^2         all (a,b,c)-G-Motzkin paths
  G_uvv     S = 1 + axS + x(b + (c-b^2)x) S^2   uvv-avoiding paths
  G_uvu     S = ((1+bx) + x(b + cx) S^2) / ((1-ax)(1+bx))
  T         T = x (1 + aT + (c-b^2) T^2) / (1 - bT);  T = x G_uvv
  Gbar_uvv  derived:  Gbar = (T/x) / (1 + aT)   no h steps on the axis
  F         S = ((1+x)^3 + x S^2) / ((1+x)(1+x-3x^2-x^3))   fixed points
  A         derived:  A = (F + x - x^3) / (1+x)^2           class-A counts

The divisors are units in the series ring (constant term 1), handled by
exact series inversion.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .polyring import (
    ONE,
    VAR_A,
    VAR_B,
    VAR_C,
    ZERO,
    Polynomial,
    PowerSeries,
    fixed_point,
)

KINDS = ("G", "G_uvu", "G_uvv", "T", "Gbar_uvv", "C", "F", "A")

_B2 = VAR_B * VAR_B
_C_MINUS_B2 = VAR_C - _B2


def _quadratic_update(
    linear: Sequence[Polynomial], kernel: Sequence[Polynomial]
) -> Callable[[PowerSeries], PowerSeries]:
    """The update S -> 1 + L S + K S^2, with L and K given by their low-order
    coefficients; K S is formed first, since K has few nonzero terms."""

    def update(s: PowerSeries) -> PowerSeries:
        n = s.order
        lin = PowerSeries.from_polys(linear, n)
        ker = PowerSeries.from_polys(kernel, n)
        return PowerSeries.one(n) + lin * s + ker * s * s

    return update


def _update_g_uvu(s: PowerSeries) -> PowerSeries:
    n = s.order
    one_bx = PowerSeries.from_polys([ONE, VAR_B], n)
    kernel = PowerSeries.from_polys([ZERO, VAR_B, VAR_C], n)
    numer = one_bx + kernel * (s * s)
    denom = PowerSeries.from_polys([ONE, -VAR_A], n) * one_bx
    return numer * denom.invert()


def _update_t(s: PowerSeries) -> PowerSeries:
    n = s.order
    inner = PowerSeries.one(n) + s.scaled(VAR_A) + (s * s).scaled(_C_MINUS_B2)
    denom = PowerSeries.one(n) - s.scaled(VAR_B)
    return PowerSeries.x(n) * inner * denom.invert()


def _update_f(s: PowerSeries) -> PowerSeries:
    n = s.order
    cube = PowerSeries.from_ints([1, 3, 3, 1], n)  # (1+x)^3
    denom = PowerSeries.from_ints([1, 2, -2, -4, -1], n)  # (1+x)(1+x-3x^2-x^3)
    return (cube + PowerSeries.x(n) * s * s) * denom.invert()


_UPDATES: dict[str, Callable[[PowerSeries], PowerSeries]] = {
    "C": _quadratic_update([], [ZERO, ONE]),
    "G": _quadratic_update([ZERO, VAR_A], [ZERO, VAR_B, VAR_C]),  # x(b + cx)
    "G_uvv": _quadratic_update([ZERO, VAR_A], [ZERO, VAR_B, _C_MINUS_B2]),
    "G_uvu": _update_g_uvu,
    "T": _update_t,
    "F": _update_f,
}


def expand(kind: str, order: int) -> PowerSeries:
    """Expand one generating function through x^order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if kind in _UPDATES:
        s = fixed_point(_UPDATES[kind], order)
        if kind == "T":
            assert s.coefficient(0).is_zero()
        else:
            assert s.coefficient(0) == ONE
        return s
    if kind == "Gbar_uvv":
        t = expand("T", order + 1)
        denom = PowerSeries.one(order + 1) + t.scaled(VAR_A)
        return (t.shift_down() * denom.invert().truncated(order))
    if kind == "A":
        f = expand("F", order)
        numer = f + PowerSeries.from_ints([0, 1, 0, -1], order)
        return numer * PowerSeries.from_ints([1, 2, 1], order).invert()
    raise ValueError(f"unknown generating function kind {kind!r}")

