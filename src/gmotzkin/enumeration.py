"""Exhaustive generation of G-Motzkin paths and exact weight sums.

This is the ground-truth oracle: every closed formula, generating function
and bijection in the package is checked against plain enumeration.  No
counting shortcuts are taken on purpose; the value of this module is that
its correctness is obvious.

It stays obvious because the walk is the definition of a path, one step at
a time.  ``generate`` walks the tree of step words depth first from the
empty word, in one generator frame with an explicit stack.  A word grows by
u, d, h or v exactly when the step is legal: u and h while length remains
(h not on the axis if the constraints say so), d and v only above the axis.
A child ending in a forbidden pattern is dropped, and with it every word
extending it, since all of them contain the pattern.  A word is emitted
when no length remains and it is back on the axis.  So every emitted word
is a path satisfying the constraints, and every such path is reached along
its own steps, once.

Paths of length n are emitted in lexicographic order of their step words
under the step order u < d < h < v, each exactly once: a node's children
are pushed in the order v, h, d, u, so the u subtree is popped and emptied
first.  Since v steps do not consume length, a path word may be longer than
n; termination is still guaranteed because consecutive v steps are bounded
by the current height.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator

from .polyring import Polynomial
from .paths import _check_length, parse_pattern


class Constraints(namedtuple("Constraints", "avoid forbid_h_on_axis", defaults=((), False))):
    """Pure path predicates: forbidden contiguous patterns (a tuple of str),
    no h on the axis (a bool)."""

    __slots__ = ()

    def normalized(self) -> "Constraints":
        if not isinstance(self.avoid, tuple):
            kind = type(self.avoid).__name__
            raise ValueError(f"avoid must be a tuple of patterns, not the {kind} {self.avoid!r}")
        if not isinstance(self.forbid_h_on_axis, bool):
            raise ValueError(
                f"forbid_h_on_axis must be a bool, not {self.forbid_h_on_axis!r}"
            )
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
    _check_length(n)
    if constraints is not None and not isinstance(constraints, Constraints):
        raise ValueError(f"constraints must be a Constraints or None, not {constraints!r}")
    cons = (constraints or NO_CONSTRAINTS).normalized()
    return _walk(n, cons.avoid, cons.forbid_h_on_axis)


def _walk(n: int, avoid: tuple[str, ...], forbid_h: bool) -> Iterator[str]:
    """The depth-first walk of ``generate``; a stack entry is
    (word, length left, height)."""
    stack = [("", n, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        word, rem, height = pop()
        if rem == 0 and height == 0:
            yield word
            continue
        if height:
            child = word + "v"
            if not child.endswith(avoid):
                push((child, rem, height - 1))
        if rem:
            if height or not forbid_h:
                child = word + "h"
                if not child.endswith(avoid):
                    push((child, rem - 1, height))
            if height:
                child = word + "d"
                if not child.endswith(avoid):
                    push((child, rem - 1, height - 1))
            child = word + "u"
            if not child.endswith(avoid):
                push((child, rem - 1, height + 1))


def weight_sum(n: int, constraints: Constraints | None = None) -> Polynomial:
    """Sum of weight monomials a^#h b^#v c^#d over all generated paths."""
    words = generate(n, constraints)
    return Polynomial(Counter((w.count("h"), w.count("v"), w.count("d")) for w in words))
