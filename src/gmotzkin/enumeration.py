"""Exhaustive generation of G-Motzkin paths and exact weight sums.

This is the ground-truth oracle: every closed formula, generating function
and bijection in the package is checked against plain enumeration.  No
counting shortcuts are taken on purpose; the value of this module is that
its correctness is obvious.

Paths of length n are emitted in lexicographic order of their step words
under the step order u < d < h < v, each exactly once.  Since v steps do
not consume length, a path word may be longer than n; termination is still
guaranteed because consecutive v steps are bounded by the current height.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .polyring import Polynomial
from .paths import parse_pattern


@dataclass(frozen=True)
class Constraints:
    """Pure path predicates: forbidden contiguous patterns, no h on the axis."""

    avoid: tuple[str, ...] = ()
    forbid_h_on_axis: bool = False

    def normalized(self) -> "Constraints":
        return Constraints(
            avoid=tuple(parse_pattern(p) for p in self.avoid),
            forbid_h_on_axis=self.forbid_h_on_axis,
        )


NO_CONSTRAINTS = Constraints()
AVOID_UVV = Constraints(avoid=("uvv",))
AVOID_UVU = Constraints(avoid=("uvu",))
BAR_UVV = Constraints(avoid=("uvv",), forbid_h_on_axis=True)


def generate(n: int, constraints: Constraints | None = None) -> Iterator[str]:
    """All valid paths of length exactly n satisfying the constraints.

    Yields canonical words in sorted order (u < d < h < v), duplicate-free.
    The stream supports early termination.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    cons = (constraints or NO_CONSTRAINTS).normalized()
    avoid = cons.avoid
    forbid_h = cons.forbid_h_on_axis
    buf: list[str] = []

    def banned_suffix() -> bool:
        for pat in avoid:
            plen = len(pat)
            if len(buf) >= plen:
                for k in range(1, plen + 1):
                    if buf[-k] != pat[-k]:
                        break
                else:
                    return True
        return False

    def rec(rem: int, height: int) -> Iterator[str]:
        if rem == 0 and height == 0:
            yield "".join(buf)
            return
        if rem:
            buf.append("u")
            if not banned_suffix():
                yield from rec(rem - 1, height + 1)
            buf.pop()
            if height:
                buf.append("d")
                if not banned_suffix():
                    yield from rec(rem - 1, height - 1)
                buf.pop()
            if not (forbid_h and height == 0):
                buf.append("h")
                if not banned_suffix():
                    yield from rec(rem - 1, height)
                buf.pop()
        if height:
            buf.append("v")
            if not banned_suffix():
                yield from rec(rem, height - 1)
            buf.pop()

    return rec(n, 0)


def weight_sum(n: int, constraints: Constraints | None = None) -> Polynomial:
    """Sum of weight monomials a^#h b^#v c^#d over all generated paths."""
    sums: dict[tuple[int, int, int], int] = {}
    for word in generate(n, constraints):
        key = (word.count("h"), word.count("v"), word.count("d"))
        sums[key] = sums.get(key, 0) + 1
    return Polynomial(sums)
