"""The pattern-swapping bijection sigma and its fixed points.

``sigma`` maps uvv-avoiding paths onto uvu-avoiding paths of the same
length, preserving the number of h steps and the quantity #v + 2*#d, so
weights are preserved once d is weighted b^2 (each d trades for a pair of
v drops).  It recurses on the case record from ``decompose_forward``:

  Base            sigma fixes the empty path, "h" and "uv".
  Case1  h Q'                  -> h sigma(Q')
  Case2  uvh Q'                -> uvh sigma(Q')
  Case3  uv Q'' Q'             -> u sigma(Q'') v sigma(Q')
  Case4  u^i ud v^i Q'         -> u^j uv d^j sigma(Q')        i = 2j-1
                                  u^(j+1) d^(j+1) sigma(Q')   i = 2j
  Case5  u^i u Q'' d v^i Q'    -> u^j sigma(Q''uv) d^j sigma(Q')        i = 2j-1
                                  u^(j+1) sigma(Q''uv) v d^j sigma(Q')  i = 2j
  Case6  u^i Q'' v^i Q'        -> u^j sigma(Q'') v d^(j-1) sigma(Q')    i = 2j-1
                                  u^j sigma(Q'') d^j sigma(Q')          i = 2j

The inverse recurses on ``decompose_inverse``.  Cases I/II mirror 1/2.
For CaseIII (first-return prefix u P'' v, remainder P') the subcase is
chosen by suffix first, then primitivity:

  P'' ends in uuvv             -> u inv(P1 uv) d inv(P')   with P1 = P''[:-4]
  P'' ends in uv, P'' != uv    -> u inv(P2) d inv(P')      with P2 = P''[:-2]
  otherwise, R = inv(P''):
      R primitive              -> uv R inv(P')
      R not primitive          -> u R v inv(P')

The last distinction must look at the preimage R, not at P'' itself: the
forward map can send a non-primitive interior to a primitive image (for
example sigma(uvud) = uudv), so primitivity of P'' alone would misclassify
exactly those paths.  Since sigma sends primitive paths to primitive
paths, a non-primitive P'' always comes from Case6 and the recursive check
only matters in the primitive-image case.

For CaseIV (strip u^j core d^j, remainder P'):

  core empty                   -> u^(2j-1) d v^(2j-2) inv(P')
  core ends in uuvv            -> u^2j inv(core[:-4] uv) d v^(2j-1) inv(P')
  core ends in uv (even "uv")  -> u^2j inv(core[:-2]) d v^(2j-1) inv(P')
  otherwise                    -> u^2j inv(core) v^2j inv(P')

CaseV (core primitive ending in v without those suffixes) uses the same
layer formula as CaseIV's last branch; the recursion then re-splits the
core through CaseIII, which reproduces the peeled subcases exactly.

The recursion terminates because each recursive argument strictly shrinks
in x-length plus v-count, except the Case5 hop with i = 0 and empty Q',
whose argument Q''uv gains a trailing uv; that argument can never itself
be a Case5 hop of the same kind (its word ends in v, not d), so no chain
of equal-size calls forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NoReturn

from .enumeration import AVOID_UVV, generate
from .paths import (
    BASE,
    BASE_INV,
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CASE5,
    CASE6,
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_V,
    STEPS,
    PathError,
    decompose_forward,
    decompose_inverse,
    is_primitive,
    parse_word,
)


def sigma(word: str) -> str:
    """Image of a uvv-avoiding path; raises PathError if the input has a uvv."""
    if not STEPS.issuperset(word):
        _reject_step(word)
    try:
        return _sigma(word)
    except PathError:
        parse_word(word)  # a word that is no path fails with its step named
        raise


def sigma_inv(word: str) -> str:
    """Preimage of a uvu-avoiding path; raises PathError if the input has a uvu."""
    if not STEPS.issuperset(word):
        _reject_step(word)
    try:
        return _sigma_inv(word)
    except PathError:
        parse_word(word)
        raise


def _reject_step(word: str) -> NoReturn:
    """Raise PathError naming the first character of ``word`` outside udhv."""
    pos = next(i for i, ch in enumerate(word) if ch not in STEPS)
    raise PathError(f"illegal character {word[pos]!r} at position {pos}")


@lru_cache(maxsize=1 << 18)
def _sigma(word: str) -> str:
    dec = decompose_forward(word)
    case = dec.case
    if case == BASE:
        return word
    if case == CASE1:
        return "h" + _sigma(dec.parts[0])
    if case == CASE2:
        return "uvh" + _sigma(dec.parts[0])
    if case == CASE3:
        mid = _sigma(dec.parts[0])
        assert is_primitive(mid) and mid != "uuvv"
        return "u" + mid + "v" + _sigma(dec.parts[1])
    i = dec.elevation
    if case == CASE4:
        tail = _sigma(dec.parts[0])
        if i % 2:
            j = (i + 1) // 2
            return "u" * j + "uv" + "d" * j + tail
        j = i // 2
        return "u" * (j + 1) + "d" * (j + 1) + tail
    if case == CASE5:
        inner = _sigma(dec.parts[0] + "uv")
        tail = _sigma(dec.parts[1])
        assert inner.endswith("uuvv") or inner.endswith("uv")
        assert not (
            inner[:-4] if inner.endswith("uuvv") else inner[:-2]
        ).endswith("uv")
        if i % 2:
            j = (i + 1) // 2
            return "u" * j + inner + "d" * j + tail
        j = i // 2
        return "u" * (j + 1) + inner + "v" + "d" * j + tail
    # Case6
    inner = _sigma(dec.parts[0])
    tail = _sigma(dec.parts[1])
    assert not inner.endswith("uv") and not inner.endswith("uuvv")
    if i % 2:
        j = (i + 1) // 2
        return "u" * j + inner + "v" + "d" * (j - 1) + tail
    j = i // 2
    return "u" * j + inner + "d" * j + tail


@lru_cache(maxsize=1 << 18)
def _sigma_inv(word: str) -> str:
    dec = decompose_inverse(word)
    case = dec.case
    if case == BASE_INV:
        return word
    if case == CASE_I:
        return "h" + _sigma_inv(dec.parts[0])
    if case == CASE_II:
        return "uvh" + _sigma_inv(dec.parts[0])
    if case == CASE_III:
        mid, after = dec.parts
        tail = _sigma_inv(after)
        if mid.endswith("uuvv"):
            return "u" + _sigma_inv(mid[:-4] + "uv") + "d" + tail
        if mid.endswith("uv") and mid != "uv":
            return "u" + _sigma_inv(mid[:-2]) + "d" + tail
        inner = _sigma_inv(mid)
        if is_primitive(inner):
            return "uv" + inner + tail
        return "u" + inner + "v" + tail
    j = dec.elevation
    if case == CASE_IV:
        core, after = dec.parts
        tail = _sigma_inv(after)
        if not core:
            return "u" * (2 * j - 1) + "d" + "v" * (2 * j - 2) + tail
        if core.endswith("uuvv"):
            return "u" * (2 * j) + _sigma_inv(core[:-4] + "uv") + "d" + "v" * (2 * j - 1) + tail
        if core.endswith("uv"):
            return "u" * (2 * j) + _sigma_inv(core[:-2]) + "d" + "v" * (2 * j - 1) + tail
        return "u" * (2 * j) + _sigma_inv(core) + "v" * (2 * j) + tail
    assert case == CASE_V
    core = "u" + dec.parts[0] + "v"
    tail = _sigma_inv(dec.parts[1])
    return "u" * (2 * j) + _sigma_inv(core) + "v" * (2 * j) + tail


def is_fixed_point(word: str) -> bool:
    """True iff sigma fixes the (uvv-avoiding) path."""
    return _sigma(word) == word


CLASS_A = "A"  # not primitive, does not end with uv (the empty path included)
CLASS_B = "B"  # ends with uv
CLASS_C = "C"  # primitive, does not end with uv


def classify_fixed(word: str) -> str:
    """Class A/B/C of a fixed point of sigma."""
    if not is_fixed_point(word):
        raise PathError(f"{word!r} is not a fixed point")
    return _classify(word)


def _classify(word: str) -> str:
    if word.endswith("uv"):
        return CLASS_B
    if is_primitive(word):
        return CLASS_C
    return CLASS_A


@lru_cache(maxsize=1 << 18)
def is_fixed_by_structure(word: str) -> bool:
    """Fixed-point test by shape instead of by applying sigma.

    A uvv-avoiding path is fixed exactly when its decomposition is Case1,
    Case2, Case4 with no peeled layer, or Case6 with a single peeled layer,
    with all constituent parts recursively fixed (the Case6 interior then
    lies in class A: non-primitive and not ending in uv).  Used to
    cross-validate the direct sigma(q) == q test.  It has its own cache,
    sized as sigma's, and never calls sigma, so the two tests stay
    independent.
    """
    dec = decompose_forward(word)
    if dec.case == BASE:
        return True
    if dec.case in (CASE1, CASE2):
        return is_fixed_by_structure(dec.parts[0])
    if dec.case == CASE4:
        return dec.elevation == 0 and is_fixed_by_structure(dec.parts[0])
    if dec.case == CASE6:
        core, after = dec.parts
        return (
            dec.elevation == 1
            and not core.endswith("uv")
            and is_fixed_by_structure(core)
            and is_fixed_by_structure(after)
        )
    return False  # Case3 and Case5 never fix


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
