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
followed by the rest).  Each unit maps by its case of the paper's
decomposition (``paths.decompose_forward``):

  Base   h, uv                 -> itself
  Case3  uv Q''                -> u sigma(Q'') v
  Case4  u^i ud v^i            -> u^j uv d^j                      i = 2j-1
                                  u^(j+1) d^(j+1)                 i = 2j
  Case5  u^i u Q'' d v^i       -> u^j sigma(Q''uv) d^j            i = 2j-1
                                  u^(j+1) sigma(Q''uv) v d^j      i = 2j
  Case6  u^i Q'' v^i           -> u^j sigma(Q'') v d^(j-1)        i = 2j-1
                                  u^j sigma(Q'') d^j              i = 2j

So a Case5 unit with i layers maps as a Case6 unit with i + 1 layers over
Q''uv would, and two core shapes remain: ud and the rest.

``sigma_inv`` is a homomorphism over plain blocks (in a uvu-avoiding path a
"uv" block is followed by h or by nothing); each maps by its case of
``paths.decompose_inverse``.  A u...v block u P'' v (CaseIII):

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
uvv never straddles two blocks.  uvu does straddle two ("uv" then a
u-block, as in uvhuvud), and ``sigma_inv`` tests the whole word.

One pass.  Both maps read the word once with a stack of levels, one per
open u.  A d or v closing the u maps the block it ends into the parent
level, so nesting costs no recursion.  A level holding one block keeps its
peeled layers and core and, in ``sigma_inv``, whether its image is
primitive.  A ``sigma`` level flags a last lone uv (Case3); a ``sigma_inv``
level reads a last uv or uuvv block off its image, uv or uvuv.  ``sigma``
checks that no Case5 Q'' ends in uv and no Case6 Q'' in uv or uuvv, and
raises AssertionError otherwise, also under ``python -O``.

Fixed points.  sigma maps a path unit by unit, so a path is fixed exactly
when every unit is h, uv, ud or u K v with K a nonempty class-A fixed
point, and no uv is followed by a u.  ``_grammar(n)``, the grammar's one
encoding, builds the fixed points from it, shortest first and in step
order with no sort, and streams those of length n with their classes.
``fixed_points`` tests each streamed word with ``is_fixed_point`` (a word
that sigma moves raises AssertionError) and counts or lists them.
``verify``'s criterion 4 reads the stream word for word, in order and by
class, against the paths q with sigma(q) == q of its sweep over the whole
uvv class for n <= 10, so sigma runs once per path there.  No word comes
from the enumeration oracle, so this module imports no other route.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .paths import _check_avoids, _check_length, first_return_blocks, is_primitive


def sigma(word: str) -> str:
    """Image of a uvv-avoiding path; raises PathError if the input has a uvv."""
    _check_avoids(word, "uvv")
    # The open level: its unit images, a last lone "uv" block, its single block.
    units, lone_uv, only = [], False, None
    stack = []  # the levels around it
    try:
        for step in word:
            if step == "u":
                stack.append((units, lone_uv, only))
                units, lone_uv, only = [], False, None
                continue
            if step == "h":
                units.append("uvh" if lone_uv else "h")
                lone_uv, only = False, None
                continue
            parent = stack.pop()
            if not (units or lone_uv):  # ud (Case4), or uv
                block, image = ((0, None), "ud") if step == "d" else (None, "uv")
            elif only and step == "v":  # one more peeled layer
                block = (only[0] + 1, only[1])
                image = _image(*block)
            else:  # Case5 as Case6 one layer up over Q''uv, or Case6 with one layer
                inner = "".join(units)
                if step == "d":
                    if inner.endswith("uv"):
                        raise AssertionError(f"a Case5 Q'' ends in uv in {word}")
                    inner += "uuvv" if lone_uv else "uv"
                elif inner.endswith(("uv", "uuvv")):
                    raise AssertionError(f"a Case6 Q'' ends in uv or uuvv in {word}")
                block, image = (1, inner), "u" + inner + "v"
            units, lone_uv, only = parent
            if lone_uv:  # Case3
                units.append("u" + image + "v")
                lone_uv = False
            elif block:
                only = None if units else block
                units.append(image)
            else:
                lone_uv, only = True, None
    except IndexError:  # a step dips below the axis
        first_return_blocks(word)  # raises parse_word's message
        raise
    if stack:  # a u is left open
        first_return_blocks(word)  # raises parse_word's message
    return "".join(units) + ("uv" if lone_uv else "")


def _image(layers: int, core: str | None) -> str:
    """Image of ``layers`` u...v layers around ud (core None) or around Q'' -> ``core``."""
    j = (layers + 1) // 2
    if core is None:
        return "u" * j + "uv" + "d" * j if layers % 2 else "u" * (j + 1) + "d" * (j + 1)
    return "u" * j + core + ("v" + "d" * (j - 1) if layers % 2 else "d" * j)


def sigma_inv(word: str) -> str:
    """Preimage of a uvu-avoiding path; raises PathError if the input has a uvu."""
    _check_avoids(word, "uvu")
    # The open level: block images; its single block's u...d layers, primitive image.
    images, layers, primitive = [], None, False
    stack = []  # the levels around it
    try:
        for step in word:
            if step == "u":
                stack.append((images, layers, primitive))
                images, layers, primitive = [], None, False
                continue
            if step == "h":
                images.append("h")
                layers, primitive = None, False
                continue
            parent = stack.pop()
            if not images:  # ud (CaseIV), or uv
                block, image = ((1, "d", 0), "ud") if step == "d" else (None, "uv")
            else:
                inner, tail, last = "".join(images), "v", images[-1]
                # P'' or the core loses a uuvv or uv suffix; P'' = uv stays.
                if last == "uvuv":
                    inner, tail = inner[:-4] + "uv", "d"
                elif last == "uv" and (step == "d" or len(images) > 1):
                    inner, tail = inner[:-2], "d"
                if step == "v":  # CaseIII
                    block = None
                    image = "uv" + inner if primitive and tail == "v" else "u" + inner + tail
                else:  # CaseIV, CaseV
                    if layers:  # one more u...d layer
                        block = (layers[0] + 2, layers[1], layers[2] + 2)
                    else:
                        block = (2, inner + tail, 1)
                    image = "u" * block[0] + block[1] + "v" * block[2]
            images, layers, primitive = parent
            if images:
                layers, primitive = None, False
            else:  # only uv R is not primitive
                layers, primitive = block, image == "uv" or image[1] != "v"
            images.append(image)
    except IndexError:  # a step dips below the axis
        first_return_blocks(word)  # raises parse_word's message
        raise
    if stack:  # a u is left open
        first_return_blocks(word)  # raises parse_word's message
    return "".join(images)


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


class FixedPointCounts(namedtuple("FixedPointCounts", "a b c paths", defaults=(None,))):
    """Counts of sigma's fixed points of one length by class, as ints, and
    the fixed points as a tuple of str or None.  The classes split the
    fixed points, so their number ``f`` is a + b + c."""

    __slots__ = ()

    @property
    def f(self) -> int:
        return self.a + self.b + self.c


# the units other than u K v, by length, in step order; ud precedes uhv,
# the one u K v of length 2
_BASE_UNITS = {1: ("uv", "h"), 2: ("ud",)}
# u < d < h < v as characters that sort by code point
_STEP_ORDER = str.maketrans("udhv", "0123")


def fixed_points(n: int, include_paths: bool = False) -> FixedPointCounts:
    """Count (and optionally list) the fixed points of length n: the words
    of ``_grammar(n)``, each tested with ``is_fixed_point``.

    A word that sigma moves raises AssertionError naming it, also under
    ``python -O``.  That no fixed point is missed, and that the words are
    in order, distinct and rightly classed, rests on ``verify``'s criterion
    4: its sweep meets every uvv-avoiding path with n <= 10 and reads
    ``_grammar(n)`` in step with its walk.
    """
    if not isinstance(include_paths, bool):
        raise ValueError(f"include_paths must be a bool, not {include_paths!r}")
    _check_length(n)
    counts = {CLASS_A: 0, CLASS_B: 0, CLASS_C: 0}
    found: list[str] = []
    for word, cls in _grammar(n):
        if not is_fixed_point(word):
            raise AssertionError(f"sigma moves {word}, a word of the fixed-point grammar")
        counts[cls] += 1
        if include_paths:
            found.append(word)
    return FixedPointCounts(
        a=counts[CLASS_A],
        b=counts[CLASS_B],
        c=counts[CLASS_C],
        paths=tuple(found) if include_paths else None,
    )


def _grammar(n: int) -> Iterator[tuple[str, str]]:
    """The words of length n of the unit grammar of the module docstring,
    in step order, each with its class; n is a checked length.

    A fixed point of length m > 0 is a unit followed by a fixed point of
    the remaining length, its rest.  The units are h and uv (x-length 1),
    ud (x-length 2) and u K v for K a nonempty class-A fixed point, and the
    rest of a uv does not start with u.  One list per length m < n holds
    the words of that length; length n is streamed, not stored.

    Order.  Units are first-return blocks, so none is a proper prefix of
    another, and two words with different first units compare as those
    units do.  Merging the units of every length <= m in step order (u < d
    < h < v), each followed by its rests in order, therefore gives length
    m in ``generate``'s order: units are merged, words are never sorted.
    The units of one length come in step order, as their K do.  h, the one
    unit that does not start with u, comes last, so the rests allowed after
    uv, h and what follows it, are the tail of their length's list.  A
    word's class is read off its units: B if it ends in uv, C if it is one
    unit that starts with u, A otherwise.
    """
    if not n:
        yield "", CLASS_A
        return
    fixed = [[""]]  # fixed[m]: the words of length m, in step order
    kernels: list[list[str]] = [[]]  # kernels[m]: those in class A but "", the K of u K v
    units: list[tuple[str, int]] = []  # the units found so far and their lengths

    def built(m: int) -> Iterator[tuple[str, str]]:
        """The words of length m >= 1 in step order, each with its class."""
        for unit, k in units:
            rests = fixed[m - k]
            if unit == "uv" and k < m:  # the rest starts with h
                rests = rests[-len(fixed[m - k - 1]):]
            for rest in rests:
                word = unit + rest
                if word.endswith("uv"):
                    yield word, CLASS_B
                elif rest or unit == "h":  # not primitive
                    yield word, CLASS_A
                else:  # one unit that starts with u
                    yield word, CLASS_C

    for m in range(1, n + 1):
        new = [(unit, m) for unit in _BASE_UNITS.get(m, ())]
        new += [("u" + k + "v", m) for k in kernels[m - 1]]
        # two runs in step order, which sorted merges in one linear pass
        units = sorted(units + new, key=lambda pair: pair[0].translate(_STEP_ORDER))
        if m < n:
            fixed.append([])
            kernels.append([])
            for word, cls in built(m):
                fixed[m].append(word)
                if cls == CLASS_A:
                    kernels[m].append(word)
    yield from built(n)
