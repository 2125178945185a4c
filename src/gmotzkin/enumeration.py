"""Exhaustive generation of G-Motzkin paths and exact weight sums.

This is the ground-truth oracle: every closed formula, generating function
and bijection in the package is checked against plain enumeration.  No
counting shortcuts are taken on purpose; the value of this module is that
its correctness is obvious.

It stays obvious because the walk is the definition of a path, one step at
a time.  ``generate`` walks the tree of step words depth first from the
empty word, in one generator frame with an explicit stack.  A word grows by
u, d, h or v exactly when the step is legal: u, d and h while length
remains (h not on the axis if the constraints say so), d and v only above
the axis.
A child ending in a forbidden pattern is dropped, and with it every word
extending it, since all of them contain the pattern.  A word is emitted
when no length remains and it is back on the axis.  So every emitted word
is a path satisfying the constraints, and every such path is reached along
its own steps, once.

The walk pays only for its choices.  A word with no length left can only
take v steps, so it finishes along its forced run of v steps, tested after
each step, without the stack.  The u child is followed directly, not
pushed and popped.  A child is tested only against the patterns that end
in its step, since no other can end it.  Each shortcut visits the same
words and makes every test that can fail, so the walk is still the
definition of a path (see ``_walk``).

Paths of length n are emitted in lexicographic order of their step words
under the step order u < d < h < v, each exactly once: a node's children
are pushed in the order v, h, d, and its u subtree, followed first, is
emptied before any of them is popped.  Since v steps do not consume
length, a path word may be longer than n; termination is still
guaranteed because consecutive v steps are bounded by the current height.
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
    (word, length left, height).

    It visits the words of the one-step-at-a-time walk in the same order
    and drops the same ones, with three shortcuts:

    (a) With no length left, u, d and h are illegal, so a word's one child
        is its v child.  The forced run of v steps down to the axis is
        taken in a loop; after each step the patterns are tested as that
        child's would be, and a word that ends in one is dropped with the
        rest of its run.  The run's last word is emitted, as the node with
        no length and no height left would be.
    (b) The u child is pushed last, so it would be popped next: the walk
        follows it directly.  Its pattern test still decides whether it
        lives.
    (c) A word ends in a pattern only if the pattern ends in the word's
        last step.  So each child is tested against the patterns that end
        in its step, and not at all if none do.
    """
    avoid_u, avoid_d, avoid_h, avoid_v = (
        tuple(p for p in avoid if p[-1] == step) for step in "udhv"
    )
    stack = [("", n, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        word, rem, height = pop()
        while rem:  # push the v, h and d children, then follow the u child
            if height:
                child = word + "v"
                if not (avoid_v and child.endswith(avoid_v)):
                    push((child, rem, height - 1))
            if height or not forbid_h:
                child = word + "h"
                if not (avoid_h and child.endswith(avoid_h)):
                    push((child, rem - 1, height))
            if height:
                child = word + "d"
                if not (avoid_d and child.endswith(avoid_d)):
                    push((child, rem - 1, height - 1))
            word += "u"
            if avoid_u and word.endswith(avoid_u):
                break  # the u child is dropped
            rem -= 1
            height += 1
        else:  # no length left: the forced v-run
            while height:
                word += "v"
                if avoid_v and word.endswith(avoid_v):
                    break  # dropped with the rest of its run
                height -= 1
            else:  # back on the axis
                yield word


def weight_sum(n: int, constraints: Constraints | None = None) -> Polynomial:
    """Sum of weight monomials a^#h b^#v c^#d over all generated paths."""
    words = generate(n, constraints)
    return Polynomial(Counter((w.count("h"), w.count("v"), w.count("d")) for w in words))
