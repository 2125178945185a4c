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
word as it cuts it into blocks.  ``_check_avoids`` holds the rule that a
path must avoid a pattern, for the decompositions and for ``bijection``'s
maps; ``parse_pattern`` checks a pattern word, and ``_check_length`` a
path length, for ``enumeration``, ``formulas`` and ``bijection``'s
``fixed_points``.  Every public function checks its input; ``_heights``,
``_is_primitive`` and ``_max_strip`` assume a valid word.

Weights: an (a, b, c)-weighting assigns u -> 1, h -> a, v -> b, d -> c,
and the weight of a path is the product over its steps, i.e. the monomial
a^#h b^#v c^#d.

A nonempty path is *primitive* if it starts with u and returns to height
zero only at its very end.  The single step "h" is not primitive.  The
decompositions below factor a path at its first return to the axis and
then peel maximal layers of matching u...v (or u...d) pairs into a record
whose case fixes, in the one table ``_CASES``, its template, parts and
elevations.  They follow the case analysis of the pattern-swapping
bijection, which ``gmotzkin.bijection`` computes in one pass over matched
steps without them; ``verify``'s structural suite checks every record
against its path, and the tests' reference sigma maps by them.
"""

from __future__ import annotations

import sys
from collections import namedtuple

# Vertical displacement of each step kind.
RISE = {"u": 1, "d": -1, "h": 0, "v": -1}

# The step alphabet: ``word.lstrip(_STEPS)`` is empty exactly when every
# character of a str is a step, and otherwise starts at the first that is not.
_STEPS = "".join(RISE)

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
    """Raise PathError naming the first character of ``word`` outside udhv.

    A plain str over udhv passes with one C-speed test; anything else,
    a str subclass included, takes the checks that name the fault, where
    ``str.lstrip`` finds the first character that is no step."""
    if type(word) is str and not word.lstrip(_STEPS):
        return
    _check_str(word)
    rest = str.lstrip(word, _STEPS)
    if rest:
        raise PathError(f"illegal character {rest[0]!r} at position {len(word) - len(rest)}")


def _check_str(text: object) -> None:
    """Raise PathError naming the type of ``text`` unless it is a str."""
    if not isinstance(text, str):
        raise PathError(f"a word must be a str, not {type(text).__name__}")


def _check_avoids(word: str, pattern: str) -> None:
    """PathError for a non-str or a step outside udhv; then, if ``word``
    contains ``pattern``, for a word that is no path, else for the pattern.
    ``_check_steps``'s one-test happy path is inlined, saving a call."""
    if type(word) is not str or word.lstrip(_STEPS):
        _check_steps(word)
    if pattern in word:
        first_return_blocks(word)
        raise PathError(f"path contains the pattern {pattern}")


def _check_length(n: int) -> None:
    """Raise ValueError unless the length n is an int (no bool) in 0..sys.maxsize."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"length n must be an int, not {n!r}")
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > sys.maxsize:
        raise ValueError(f"length n must be at most sys.maxsize, not {n}")


def parse_pattern(text: str) -> str:
    """Validate a nonempty pattern word over the step alphabet."""
    _check_str(text)
    word = "".join(text.split())
    _check_steps(word)
    if not word:
        raise PathError("empty pattern")
    return word


def _heights(word: str) -> list[int]:
    """Running heights, one entry per prefix (len(word) + 1 values)."""
    out = [0]
    h = 0
    for ch in word:
        h += RISE[ch]
        out.append(h)
    return out


def _is_primitive(word: str) -> bool:
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


def _max_strip(word: str, close: str) -> tuple[int, str]:
    """Largest i with word == "u"*i + core + close*i, core valid at elevation i.

    The core must start and end at elevation i and never dip below it.  No
    i can exceed the run-length bound: the length of the leading u run and
    of the closing run.  Up to that bound the two runs fix the heights: the
    height is p at position p and at position len(word) - p for every p <=
    bound, since the word starts and ends at height 0.  For i <= bound the
    core therefore starts and ends at elevation i, and its heights within
    the two runs are at least i.  Only the heights from position bound to
    len(word) - bound, between the runs, can cap i, so the largest valid i
    is the least of them; it is at most hs[bound], which is bound.

    The core is empty only when the two runs fill the word, u^k close^k.
    ``decompose_forward`` passes close = v, and u^k v^k contains uvv for
    k >= 2 and is "uv" for k = 1, which it dispatches before the strip; so
    its cores are nonempty.  ``decompose_inverse`` takes the empty core of
    u^k d^k.
    """
    hs = _heights(word)
    u_run = len(word) - len(word.lstrip("u"))
    close_run = len(word) - len(word.rstrip(close))
    bound = min(u_run, close_run)
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

# Each case's template and elevations.  A record of elevation i reassembles
# to "u"*i + head + core + tail + close*i + rest, where parts is (rest,) or
# (core, rest), and i runs from least to most (None: no bound).  Only Case4
# and Case5 take every elevation; Case6, CaseIV and CaseV peel a layer.
_CASES = {
    #          head   tail close parts least most
    BASE:     ("",    "",  "",   1,    0,    0),
    CASE1:    ("h",   "",  "",   1,    0,    0),
    CASE2:    ("uvh", "",  "",   1,    0,    0),
    CASE3:    ("uv",  "",  "",   2,    0,    0),
    CASE4:    ("ud",  "",  "v",  1,    0,    None),
    CASE5:    ("u",   "d", "v",  2,    0,    None),
    CASE6:    ("",    "",  "v",  2,    1,    None),
    BASE_INV: ("",    "",  "",   1,    0,    0),
    CASE_I:   ("h",   "",  "",   1,    0,    0),
    CASE_II:  ("uvh", "",  "",   1,    0,    0),
    CASE_III: ("u",   "v", "",   2,    0,    0),
    CASE_IV:  ("",    "",  "d",  2,    1,    None),
    CASE_V:   ("u",   "v", "d",  2,    1,    None),
}

_BASE_WORDS = ("", "h", "uv")


class Decomposition(namedtuple("Decomposition", "case elevation parts")):
    """One canonical case record; ``reassemble`` restores the original word.

    ``case`` is one of the case names above.  ``elevation`` is the number of
    peeled u...v layers (Case4-Case6) or u...d layers (CaseIV, CaseV), and
    ``parts`` the subwords, a tuple of str in template order; ``reassemble``
    refuses a record whose parts or elevation ``_CASES`` denies its case.
    """

    __slots__ = ()

    def reassemble(self) -> str:
        c, i, p = self.case, self.elevation, self.parts
        if type(c) is not str or c not in _CASES:
            raise ValueError(f"unknown case {c!r}")
        head, tail, close, count, least, most = _CASES[c]
        if type(p) is not tuple:
            raise ValueError(f"parts must be a tuple, not {p!r}")
        if len(p) != count:
            raise ValueError(f"case {c} takes {count} part(s), got {len(p)}")
        if type(i) is not int or i < 0:
            raise ValueError(f"elevation must be an int >= 0, not {i!r}")
        if most is not None and i > most:
            raise ValueError(f"case {c} peels no layer, so its elevation must be 0, not {i}")
        if i < least:
            raise ValueError(f"case {c} peels a layer, so its elevation must be >= 1, not {i}")
        if type(p[0]) is not str or type(p[-1]) is not str:  # every case takes 1 or 2
            raise ValueError(f"parts must be str, not {p!r}")
        return "u" * i + head + (p[0] if count == 2 else "") + tail + close * i + p[-1]


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
    _check_avoids(word, "uvv")
    blocks = first_return_blocks(word)
    if word in _BASE_WORDS:
        return Decomposition(BASE, 0, (word,))
    prefix, rest = blocks[0], word[len(blocks[0]) :]
    if prefix == "h":
        return Decomposition(CASE1, 0, (rest,))
    if prefix == "uv":
        if rest[0] == "h":
            return Decomposition(CASE2, 0, (rest[1:],))
        return Decomposition(CASE3, 0, (blocks[1], rest[len(blocks[1]) :]))
    i, core = _max_strip(prefix, "v")
    if core == "ud":
        return Decomposition(CASE4, i, (rest,))
    if _is_primitive(core):
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
    _check_avoids(word, "uvu")
    blocks = first_return_blocks(word)
    if word in _BASE_WORDS:
        return Decomposition(BASE_INV, 0, (word,))
    prefix, rest = blocks[0], word[len(blocks[0]) :]
    if prefix == "h":
        return Decomposition(CASE_I, 0, (rest,))
    if prefix == "uv":  # a u after it would form uvu
        return Decomposition(CASE_II, 0, (rest[1:],))
    if prefix.endswith("v"):
        return Decomposition(CASE_III, 0, (prefix[1:-1], rest))
    j, core = _max_strip(prefix, "d")
    if j < 1:
        raise PathError("u/d strip of a d-ending primitive prefix must peel a layer")
    if (
        core
        and not core.endswith("uuvv")
        and not core.endswith("uv")
        and _is_primitive(core)
    ):
        return Decomposition(CASE_V, j, (core[1:-1], rest))
    return Decomposition(CASE_IV, j, (core, rest))
