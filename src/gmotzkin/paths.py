"""G-Motzkin path words: parsing, weights, patterns and decompositions.

A G-Motzkin path runs from (0, 0) to (n, 0) without dipping below the
x-axis, using four step kinds:

    u = (1, 1)    up
    d = (1, -1)   down
    h = (1, 0)    horizontal
    v = (0, -1)   vertical drop

Paths are handled as their canonical step words: plain strings over
"udhv" with no separators.  The length of a path is its x-extent, so v
steps do not count toward length.  ``parse_word`` validates and
canonicalizes arbitrary input text, and ``first_return_blocks`` checks a
word as it cuts it into blocks.  The decompositions cut with it and so
check their input too, and ``parse_pattern`` checks a pattern word.  Every
other function in this module assumes its argument is already a valid
word.

Weights: an (a, b, c)-weighting assigns u -> 1, h -> a, v -> b, d -> c,
and the weight of a path is the product over its steps, i.e. the monomial
a^#h b^#v c^#d.

A nonempty path is *primitive* if it starts with u and returns to height
zero only at its very end.  The single step "h" is not primitive.  The
decompositions below factor a path at its first return to the axis and
then peel maximal layers of matching u...v (or u...d) pairs.  They follow
the case analysis of the pattern-swapping bijection, which
``gmotzkin.bijection`` computes in one pass over matched steps without
them; ``verify``'s structural suite checks every record against its path,
and the tests' reference sigma maps by them.
"""

from __future__ import annotations

from dataclasses import dataclass

# Vertical displacement of each step kind.
RISE = {"u": 1, "d": -1, "h": 0, "v": -1}

# The step alphabet, for C-speed ``STEPS.issuperset(word)`` tests.
STEPS = frozenset(RISE)

# Horizontal displacement; only v stands still.
RUN = {"u": 1, "d": 1, "h": 1, "v": 0}

class PathError(ValueError):
    """Input text is not a valid G-Motzkin path or pattern word."""


def parse_word(text: str) -> str:
    """Validate ``text`` as a path and return its canonical word.

    Whitespace is ignored.  Raises PathError naming the offending position
    for an illegal character, a negative height, or a nonzero final height.
    """
    _check_str(text)
    for pos, ch in enumerate(text):
        if ch not in RISE and not ch.isspace():
            raise PathError(f"illegal character {ch!r} at position {pos}")
    word = "".join(text.split())
    first_return_blocks(word)
    return word


def first_return_blocks(word: str) -> list[str]:
    """Check ``word`` as a path and cut it after every return to the axis.

    The blocks ("h" or primitive) join to ``word``.  A word that is no path,
    whitespace included, raises ``parse_word``'s PathError.
    """
    _check_steps(word)
    blocks = []
    start = height = 0
    for end, ch in enumerate(word, 1):
        height += RISE[ch]
        if height <= 0:
            if height:
                raise PathError(f"height -1 after step {end}")
            blocks.append(word[start:end])
            start = end
    if height:
        raise PathError(f"final height {height} is not 0 after step {len(word)}")
    return blocks


def _check_steps(word: str) -> None:
    """Raise PathError naming the first character of ``word`` outside udhv."""
    _check_str(word)
    if not STEPS.issuperset(word):
        pos = next(i for i, ch in enumerate(word) if ch not in STEPS)
        raise PathError(f"illegal character {word[pos]!r} at position {pos}")


def _check_str(text: object) -> None:
    """Raise PathError naming the type of ``text`` unless it is a str."""
    if not isinstance(text, str):
        raise PathError(f"a word must be a str, not {type(text).__name__}")


def parse_pattern(text: str) -> str:
    """Validate a nonempty pattern word over the step alphabet."""
    _check_str(text)
    word = "".join(text.split())
    _check_steps(word)
    if not word:
        raise PathError("empty pattern")
    return word


def x_length(word: str) -> int:
    """The x-extent: number of u, d and h steps."""
    return len(word) - word.count("v")


def heights(word: str) -> list[int]:
    """Running heights, one entry per prefix (len(word) + 1 values)."""
    out = [0]
    h = 0
    for ch in word:
        h += RISE[ch]
        out.append(h)
    return out


def is_primitive(word: str) -> bool:
    """Nonempty, starts with u, and touches height 0 only at the end."""
    if not word or word[0] != "u":
        return False
    h = 0
    last = len(word) - 1
    for i, ch in enumerate(word):
        h += RISE[ch]
        if h == 0:
            return i == last
    return False  # unreachable for valid words


def _max_strip(word: str, close: str, allow_empty_core: bool) -> tuple[int, str]:
    """Largest i with word == "u"*i + core + close*i, core valid at elevation i.

    The core must start and end at elevation i and never dip below it.  No
    i can exceed the run-length bound: the length of the leading u run, of
    the closing run, and (for a nonempty core) (len(word) - 1) // 2.  Up to
    that bound the two runs fix the heights: the height is p at position p
    and at position len(word) - p for every p <= bound, since the word
    starts and ends at height 0.  For i <= bound the core therefore starts
    and ends at elevation i, and its heights within the two runs are at
    least i.  Only the heights from position bound to len(word) - bound,
    between the runs, can cap i, so the largest valid i is the least of
    them; it is at most hs[bound], which is bound.
    """
    hs = heights(word)
    u_run = len(word) - len(word.lstrip("u"))
    close_run = len(word) - len(word.rstrip(close))
    bound = min(u_run, close_run)
    if not allow_empty_core:
        bound = min(bound, (len(word) - 1) // 2)
    i = min(hs[bound : len(word) - bound + 1])
    return i, word[i : len(word) - i]


# Case tags for the forward decomposition of uvv-avoiding paths.
BASE = "Base"
CASE1 = "Case1"
CASE2 = "Case2"
CASE3 = "Case3"
CASE4 = "Case4"
CASE5 = "Case5"
CASE6 = "Case6"

# Case tags for the inverse decomposition of uvu-avoiding paths.
BASE_INV = "BaseInv"
CASE_I = "CaseI"
CASE_II = "CaseII"
CASE_III = "CaseIII"
CASE_IV = "CaseIV"
CASE_V = "CaseV"

# The number of parts each case's record holds.
CASE_PARTS = {
    BASE: 1, CASE1: 1, CASE2: 1, CASE3: 2, CASE4: 1, CASE5: 2, CASE6: 2,
    BASE_INV: 1, CASE_I: 1, CASE_II: 1, CASE_III: 2, CASE_IV: 2, CASE_V: 2,
}

_BASE_WORDS = ("", "h", "uv")


@dataclass(frozen=True)
class Decomposition:
    """One canonical case record; ``reassemble`` restores the original word.

    ``elevation`` is the number of peeled u...v layers (Case4-Case6) or
    u...d layers (CaseIV, CaseV); it is 0 for the other cases.  ``parts``
    holds the constituent subwords in template order, ``CASE_PARTS[case]``
    of them.
    """

    case: str
    elevation: int
    parts: tuple[str, ...]

    def reassemble(self) -> str:
        c, i, p = self.case, self.elevation, self.parts
        if len(p) != CASE_PARTS.get(c):
            if c not in CASE_PARTS:
                raise ValueError(f"unknown case {c!r}")
            raise ValueError(f"case {c} takes {CASE_PARTS[c]} part(s), got {len(p)}")
        if c in (BASE, BASE_INV):
            return p[0]
        if c in (CASE1, CASE_I):
            return "h" + p[0]
        if c in (CASE2, CASE_II):
            return "uvh" + p[0]
        if c == CASE3:
            return "uv" + p[0] + p[1]
        if c == CASE4:
            return "u" * i + "ud" + "v" * i + p[0]
        if c == CASE5:
            return "u" * i + "u" + p[0] + "d" + "v" * i + p[1]
        if c == CASE6:
            return "u" * i + p[0] + "v" * i + p[1]
        if c == CASE_III:
            return "u" + p[0] + "v" + p[1]
        if c == CASE_IV:
            return "u" * i + p[0] + "d" * i + p[1]
        return "u" * i + "u" + p[0] + "v" + "d" * i + p[1]  # CASE_V


def decompose_forward(word: str) -> Decomposition:
    """The unique case record of a uvv-avoiding path.

    Dispatch: the empty path, "h" and "uv" are Base.  A path starting with
    h is Case1.  After a leading uv the rest starts with h (Case2) or with
    u (Case3, whose first part is the first primitive component of the
    rest).  Otherwise the first-return prefix is peeled by the maximal
    elevation strip; its core is "ud" (Case4), a primitive u...d block with
    nonempty interior (Case5), or a non-primitive path (Case6).  A
    primitive core ending in v cannot survive a maximal strip of a
    uvv-avoiding path, so the three shapes are exhaustive and disjoint.
    """
    blocks = first_return_blocks(word)
    if "uvv" in word:
        raise PathError("path contains the pattern uvv")
    if word in _BASE_WORDS:
        return Decomposition(BASE, 0, (word,))
    prefix, rest = blocks[0], word[len(blocks[0]) :]
    if prefix == "h":
        return Decomposition(CASE1, 0, (rest,))
    if prefix == "uv":
        if rest[0] == "h":
            return Decomposition(CASE2, 0, (rest[1:],))
        return Decomposition(CASE3, 0, (blocks[1], rest[len(blocks[1]) :]))
    i, core = _max_strip(prefix, "v", allow_empty_core=False)
    if core == "ud":
        return Decomposition(CASE4, i, (rest,))
    if is_primitive(core):
        if not core.endswith("d"):
            raise PathError("maximal strip left a primitive core ending in v")
        return Decomposition(CASE5, i, (core[1:-1], rest))
    return Decomposition(CASE6, i, (core, rest))


def decompose_inverse(word: str) -> Decomposition:
    """The unique case record of a uvu-avoiding path.

    Dispatch: Base words as in the forward direction; a leading h is CaseI;
    a leading uv must be followed by h (CaseII), because a following u
    would form the pattern uvu.  Otherwise the first-return prefix either
    ends in v (CaseIII, parts are its interior and the remainder) or ends
    in d, in which case the maximal u...d strip is peeled.  A stripped core
    that is primitive and ends in v without carrying a uuvv or uv suffix is
    CaseV (stored by its interior); every other core, including the empty
    one and those ending in uuvv or uv, is CaseIV.
    """
    blocks = first_return_blocks(word)
    if "uvu" in word:
        raise PathError("path contains the pattern uvu")
    if word in _BASE_WORDS:
        return Decomposition(BASE_INV, 0, (word,))
    prefix, rest = blocks[0], word[len(blocks[0]) :]
    if prefix == "h":
        return Decomposition(CASE_I, 0, (rest,))
    if prefix == "uv":  # a u after it would form uvu
        return Decomposition(CASE_II, 0, (rest[1:],))
    if prefix.endswith("v"):
        return Decomposition(CASE_III, 0, (prefix[1:-1], rest))
    j, core = _max_strip(prefix, "d", allow_empty_core=True)
    if j < 1:
        raise PathError("u/d strip of a d-ending primitive prefix must peel a layer")
    if (
        core
        and not core.endswith("uuvv")
        and not core.endswith("uv")
        and is_primitive(core)
    ):
        return Decomposition(CASE_V, j, (core[1:-1], rest))
    return Decomposition(CASE_IV, j, (core, rest))
