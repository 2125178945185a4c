"""The pattern-swapping bijection sigma and its fixed points.

``sigma`` maps uvv-avoiding paths onto uvu-avoiding paths of the same
length, preserving the number of h steps and the quantity #v + 2*#d, so
weights are preserved once d is weighted b^2 (each d trades for a pair of
v drops).

A path is a sequence of first-return blocks, each "h" or primitive
(``paths.first_return_blocks``).  Every case of the paper's recursion ends
in sigma(Q') of the first-return remainder Q', and nothing before it reads
Q'.  So sigma is a homomorphism over units: blocks, with a "uv" block glued
to a u-block after it (Case3; Case1 and Case2 are the units h and uv
followed by the rest).  Each unit maps by its ``decompose_forward`` record:

  Base   h, uv                 -> itself
  Case3  uv Q''                -> u sigma(Q'') v
  Case4  u^i ud v^i            -> u^j uv d^j                      i = 2j-1
                                  u^(j+1) d^(j+1)                 i = 2j
  Case5  u^i u Q'' d v^i       -> u^j sigma(Q''uv) d^j            i = 2j-1
                                  u^(j+1) sigma(Q''uv) v d^j      i = 2j
  Case6  u^i Q'' v^i           -> u^j sigma(Q'') v d^(j-1)        i = 2j-1
                                  u^j sigma(Q'') d^j              i = 2j

``sigma_inv`` is a homomorphism over plain blocks (in a uvu-avoiding path a
"uv" block is followed by h or by nothing); each maps by its
``decompose_inverse`` record.  A u...v block u P'' v (CaseIII):

  P'' ends in uuvv             -> u inv(P''[:-4] uv) d
  P'' ends in uv, P'' != uv    -> u inv(P''[:-2]) d
  otherwise, R = inv(P'')      -> uv R if R is primitive, else u R v

The test is on the preimage R, not on P'': sigma can send a non-primitive
interior to a primitive image (sigma(uvud) = uudv).  A u...d block is
u^j core d^j with j >= 1 (CaseIV; CaseV, whose core is a primitive v-block
without those suffixes, takes the last row):

  core empty                   -> u^(2j-1) d v^(2j-2)
  core ends in uuvv            -> u^2j inv(core[:-4] uv) d v^(2j-1)
  core ends in uv (even "uv")  -> u^2j inv(core[:-2]) d v^(2j-1)
  otherwise                    -> u^2j inv(core) v^2j

Patterns.  A block ends on the axis and the next starts with u or h, so
uvv never straddles two blocks and each unit's decomposition rejects it.
uvu does straddle two ("uv" then a u-block, as in uvhuvud) where neither
contains it, so ``sigma_inv`` tests the whole word.

Nesting.  ``sigma`` and ``sigma_inv`` walk a path's units by a loop, so
its length costs no stack.  An interior (sigma(Q'') above) is shorter in
x-length than its unit, so the recursion into interiors ends, one stack
frame per nesting level.  The interior's units go through a plain for loop
in that frame: a helper or a comprehension would add a frame per level and
lower the nesting that fits under the recursion limit.  A path nested
deeper raises PathError naming its maximum height.

Fixed points.  ``is_fixed_by_structure`` reads sigma's fixed points off
three conditions on matched steps, in one pass over the word; it neither
recurses nor decomposes, so no nesting depth limits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .enumeration import AVOID_UVV, generate
from .paths import (
    BASE,
    BASE_INV,
    CASE3,
    CASE4,
    CASE5,
    CASE_III,
    CASE_IV,
    CASE_V,
    PathError,
    decompose_forward,
    decompose_inverse,
    first_return_blocks,
    heights,
    is_primitive,
)


def sigma(word: str) -> str:
    """Image of a uvv-avoiding path; raises PathError if the input has a uvv."""
    try:
        return "".join(map(_sigma, _units(word)))
    except RecursionError:
        raise _too_deep(word) from None


def sigma_inv(word: str) -> str:
    """Preimage of a uvu-avoiding path; raises PathError if the input has a uvu."""
    blocks = first_return_blocks(word)
    if "uvu" in word:
        raise PathError("path contains the pattern uvu")
    try:
        return "".join(map(_sigma_inv, blocks))
    except RecursionError:
        raise _too_deep(word) from None


def _units(word: str) -> list[str]:
    """The units of a path: its blocks, each "uv" glued to a u-block after it."""
    units: list[str] = []
    for block in first_return_blocks(word):
        if units and units[-1] == "uv" and block[0] == "u":
            units[-1] += block
        else:
            units.append(block)
    return units


def _too_deep(word: str) -> PathError:
    return PathError(f"path nests too deeply: maximum height {max(heights(word))}")


@lru_cache(maxsize=1 << 18)
def _sigma(unit: str) -> str:
    dec = decompose_forward(unit)
    case, i = dec.case, dec.elevation
    if case == BASE:
        return unit
    assert not dec.parts[-1]  # a unit leaves no first-return remainder
    if case == CASE4:
        if i % 2:
            j = (i + 1) // 2
            return "u" * j + "uv" + "d" * j
        j = i // 2
        return "u" * (j + 1) + "d" * (j + 1)
    inner = ""
    for part in _units(dec.parts[0] + "uv" if case == CASE5 else dec.parts[0]):
        inner += _sigma(part)
    if case == CASE3:
        assert is_primitive(inner) and inner != "uuvv"
        return "u" + inner + "v"
    if case == CASE5:
        assert inner.endswith(("uuvv", "uv"))
        assert not inner[: -4 if inner.endswith("uuvv") else -2].endswith("uv")
        if i % 2:
            j = (i + 1) // 2
            return "u" * j + inner + "d" * j
        j = i // 2
        return "u" * (j + 1) + inner + "v" + "d" * j
    # Case6
    assert not inner.endswith("uv") and not inner.endswith("uuvv")
    if i % 2:
        j = (i + 1) // 2
        return "u" * j + inner + "v" + "d" * (j - 1)
    j = i // 2
    return "u" * j + inner + "d" * j


@lru_cache(maxsize=1 << 18)
def _sigma_inv(block: str) -> str:
    dec = decompose_inverse(block)
    case, j, mid = dec.case, dec.elevation, dec.parts[0]
    if case == BASE_INV:
        return block
    assert not dec.parts[-1]  # a block leaves no first-return remainder
    if case == CASE_IV and not mid:
        return "u" * (2 * j - 1) + "d" + "v" * (2 * j - 2)
    if case == CASE_V:
        mid = "u" + mid + "v"
    # P'' (CaseIII) or the core (CaseIV) loses a uuvv or uv suffix; P'' = uv stays.
    peeled = mid.endswith(("uuvv", "uv")) and (mid != "uv" or case != CASE_III)
    if peeled:
        mid = mid[:-4] + "uv" if mid.endswith("uuvv") else mid[:-2]
    inner = ""
    for part in first_return_blocks(mid):
        inner += _sigma_inv(part)
    if case == CASE_III:
        if peeled:
            return "u" + inner + "d"
        return "uv" + inner if is_primitive(inner) else "u" + inner + "v"
    if peeled:
        return "u" * (2 * j) + inner + "d" + "v" * (2 * j - 1)
    return "u" * (2 * j) + inner + "v" * (2 * j)


def is_fixed_point(word: str) -> bool:
    """True iff sigma fixes the (uvv-avoiding) path."""
    return sigma(word) == word


CLASS_A = "A"  # not primitive, does not end with uv (the empty path included)
CLASS_B = "B"  # ends with uv
CLASS_C = "C"  # primitive, does not end with uv


def _classify(word: str) -> str:
    """Class A/B/C of a fixed point of sigma."""
    if word.endswith("uv"):
        return CLASS_B
    if is_primitive(word):
        return CLASS_C
    return CLASS_A


def is_fixed_by_structure(word: str) -> bool:
    """Fixed-point test by shape instead of by applying sigma.

    sigma maps a path unit by unit, so a uvv-avoiding path is fixed exactly
    when each unit is: h or uv (Base); ud (Case4 with no peeled layer); or
    u K v with K nonempty, fixed and in class A (Case6 with one peeled
    layer; K cannot end in uv, as u K v would contain uvv).  Every other
    unit moves: Case3 (uv glued to a u-block) maps to u sigma(Q'') v, Case4
    and Case6 with more layers or Case5 change the layer count or the last
    step.  Read on matched steps (a u and the first later step back to its
    height), the grammar becomes three local conditions:

      (1) no uvu: a uv glued to a u-block is Case3;
      (2) every d directly follows the u it closes: a block ending in d
          is ud, at any depth;
      (3) no v closes a pair that directly encloses another pair: the K
          of u K v is not primitive, so the v at q closing the u at p does
          not follow a step closing the u at p + 1.

    K's units obey the same conditions, so (1)-(3) hold at every depth.
    One left-to-right pass with a stack of open u positions checks them,
    at no cost in recursion.  Used to cross-validate the direct
    sigma(q) == q test; it never calls sigma, so the two tests stay
    independent.
    """
    first_return_blocks(word)
    if "uvv" in word:
        raise PathError("path contains the pattern uvv")
    if "uvu" in word:  # (1)
        return False
    opened: list[int] = []
    closed = -1  # the u that the previous step closed, if it closed one
    for q, step in enumerate(word):
        if step == "u":
            opened.append(q)
            closed = -1
        elif step == "h":
            closed = -1
        else:
            p = opened.pop()
            if step == "d" and p != q - 1:  # (2)
                return False
            if step == "v" and closed == p + 1:  # (3)
                return False
            closed = p
    return True


@dataclass(frozen=True)
class FixedPointCounts:
    """Counts of sigma's fixed points of one length, split by class."""

    f: int
    a: int
    b: int
    c: int
    paths: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.f != self.a + self.b + self.c:
            raise ValueError("class counts do not add up")


def fixed_points(n: int, include_paths: bool = False) -> FixedPointCounts:
    """Brute-force count (and optionally list) the fixed points of length n."""
    counts = {CLASS_A: 0, CLASS_B: 0, CLASS_C: 0}
    found: list[str] = []
    for word in generate(n, AVOID_UVV):
        if is_fixed_point(word):
            counts[_classify(word)] += 1
            if include_paths:
                found.append(word)
    return FixedPointCounts(
        f=counts[CLASS_A] + counts[CLASS_B] + counts[CLASS_C],
        a=counts[CLASS_A],
        b=counts[CLASS_B],
        c=counts[CLASS_C],
        paths=tuple(found) if include_paths else None,
    )
