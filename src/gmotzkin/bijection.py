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
open u that holds a unit.  A u opens a pending level, held in a flag and
pushed only when the next step is u or h; a d or v right after it closes
the leaf unit ud or uv straight into the open level, with the updates that
closing an empty level would make, so no pushed level is empty when it
closes.  At n = 8, 2.1 of the 4.4 u's of a path are such leaves.  A d or v
closing any other u maps the block it ends into the parent level, so
nesting costs no recursion.  A ``sigma`` level holding one block
keeps its peeled layers and core, and every ``sigma`` level flags a last
lone uv (Case3).  A ``sigma_inv`` level keeps its block images and, while
it holds one block, whether its image is primitive; it reads a last uv or
uuvv block off its image, uv or uvuv.  A further u...d layer, j to j + 1
in the table above, adds uu in front and vv behind, and needs no state:
the single block's image is ud or starts with uu, so it never ends in uv
or uuvv, and the close that maps u core d to uu inv(core) vv for such a
core maps the layer to uu image vv.  ``sigma`` checks that no Case5 Q''
ends in uv and no Case6 Q'' in uv or uuvv, and raises AssertionError
otherwise, also under ``python -O``.  The public maps check their input
(``paths._check_avoids``) once and call these loops, ``_sigma`` and
``_sigma_inv``, which take a checked word.

Fixed points.  sigma maps a path unit by unit, so a path is fixed exactly
when every unit is h, uv, ud or u K v with K a nonempty class-A fixed
point, and no uv is followed by a u.  ``_grammar(n)``, the grammar's one
encoding, is a pushdown walk over step words: a level per open u holds the
class of what it has read, and four step rules keep each word in the
grammar.  u is refused right after a uv; d closes only an empty level (ud);
v closes an empty level (uv) or one whose K is in class A (u K v); h is
allowed while length remains.  Depth first in step order, the walk yields
each fixed point of length n once, in ``generate``'s order and with its
class, and holds O(n) words at a time.  ``fixed_points``, the one
fixed-point test, maps each streamed word through the core ``_sigma`` (a
word that sigma moves raises AssertionError) and counts or lists them:
every grammar word is a str over udhv with no uvv, so it passes
``sigma``'s input check, and the core is ``sigma`` there.  ``verify``'s
criterion 4 reads the stream word for word, in order and by class, against
the paths q with sigma(q) == q of its sweep over the whole uvv class for n
<= 10, so sigma runs once per path there.  No word comes from the
enumeration oracle, so this module imports no other route.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .paths import _check_avoids, _check_length, _is_primitive, first_return_blocks


def sigma(word: str) -> str:
    """Image of a uvv-avoiding path; raises PathError if the input has a uvv."""
    _check_avoids(word, "uvv")
    return _sigma(word)


def _sigma(word: str) -> str:
    """``sigma`` of a word that passed its input check."""
    # The open level: its unit images, a last lone "uv" block, its single block.
    units, lone_uv, only = [], False, None
    stack = []  # the levels around it
    opened = False  # a u read, whose level is pushed only if u or h follows
    try:
        for step in word:
            if step == "u":
                if opened:
                    stack.append((units, lone_uv, only))
                    units, lone_uv, only = [], False, None
                opened = True
                continue
            if opened:
                opened = False
                if step == "h":
                    stack.append((units, lone_uv, only))
                    units, lone_uv, only = ["h"], False, None
                elif lone_uv:  # Case3 over the leaf ud or uv
                    units.append("uudv" if step == "d" else "uuvv")
                    lone_uv = False
                elif step == "d":  # ud (Case4)
                    only = None if units else (0, None)
                    units.append("ud")
                else:  # uv
                    lone_uv, only = True, None
                continue
            if step == "h":
                units.append("uvh" if lone_uv else "h")
                lone_uv, only = False, None
                continue
            parent = stack.pop()
            if only and step == "v":  # one more peeled layer
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
            else:
                only = None if units else block
                units.append(image)
    except IndexError:  # a step dips below the axis
        first_return_blocks(word)  # raises parse_word's message
        raise
    if stack or opened:  # a u is left open
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
    return _sigma_inv(word)


def _sigma_inv(word: str) -> str:
    """``sigma_inv`` of a word that passed its input check."""
    # The open level: block images; whether its single block's image is primitive.
    images, primitive = [], False
    stack = []  # the block images of the levels around it
    opened = False  # a u read, whose level is pushed only if u or h follows
    try:
        for step in word:
            if step == "u":
                if opened:
                    stack.append(images)
                    images, primitive = [], False
                opened = True
                continue
            if opened:
                opened = False
                if step == "h":
                    stack.append(images)
                    images, primitive = ["h"], False
                else:  # ud (CaseIV), or uv: primitive
                    primitive = not images
                    images.append("u" + step)
                continue
            if step == "h":
                images.append("h")
                primitive = False
                continue
            parent = stack.pop()
            inner, tail, last = "".join(images), "v", images[-1]
            # P'' or the core loses a uuvv or uv suffix; P'' = uv stays.
            if last == "uvuv":
                inner, tail = inner[:-4] + "uv", "d"
            elif last == "uv" and (step == "d" or len(images) > 1):
                inner, tail = inner[:-2], "d"
            if step == "v":  # CaseIII
                image = "uv" + inner if primitive and tail == "v" else "u" + inner + tail
            else:  # CaseIV, CaseV; a further u...d layer adds uu...vv
                image = "uu" + inner + tail + "v"
            images = parent
            primitive = not images and image[1] != "v"  # only uv R is not primitive
            images.append(image)
    except IndexError:  # a step dips below the axis
        first_return_blocks(word)  # raises parse_word's message
        raise
    if stack or opened:  # a u is left open
        first_return_blocks(word)  # raises parse_word's message
    return "".join(images)


CLASS_A = "A"  # not primitive, does not end with uv (the empty path included)
CLASS_B = "B"  # ends with uv
CLASS_C = "C"  # primitive, does not end with uv


def _classify(word: str) -> str:
    """Class A/B/C of a fixed point of sigma."""
    if word.endswith("uv"):
        return CLASS_B
    if _is_primitive(word):
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


def fixed_points(n: int, include_paths: bool = False) -> FixedPointCounts:
    """Count (and optionally list) the fixed points of length n: the words
    of ``_grammar(n)``, each mapped by the core ``_sigma``.  The stream
    holds O(n) words at a time, so only a list of the paths grows with
    their number.

    The core is exact here: ``sigma`` checks its input with
    ``paths._check_avoids`` and then calls ``_sigma``, and every word that
    ``_grammar`` yields passes that check.  It is a str over udhv, and it
    has no uvv, since each uv in it is the unit uv and a v closes only an
    empty level or one whose K, in class A, does not end in uv.  So
    ``_sigma(word) == word`` exactly when ``sigma`` fixes the word.

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
        if _sigma(word) != word:
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

    A depth-first walk over step words, shaped like ``enumeration._walk``.
    There is a level for the path and one for each open u.  A level's
    ``read`` is the class of what it has read, as a fixed point, or None
    before its first unit: B if its last unit is uv, C if it is one unit
    that starts with u (its K would be primitive), A otherwise.  A stack
    entry is (word, length left, read, below): the top level's ``read``,
    and the levels under it as linked tuples (read, below, full), so
    ``below`` is None on the path's level; ``full`` says that every level
    from this one down to the path's level, that one left out, is nonempty.
    Four step rules make the grammar:

      u  is refused right after a uv (in class B);
      d  closes only an empty level, which makes the unit ud;
      v  closes an empty level (the unit uv), or a level whose K is in
         class A (the unit u K v);
      h  is allowed whenever length remains.

    u, d and h take one unit of length and v none.  A closed level reads
    its unit into the level below: uv makes it B, and ud or u K v makes it
    C if it was empty, A if not; an h makes a level A.  A word is yielded
    when no length is left and every u is closed, with the class of the
    path's level.  So it is a sequence of the units h, uv, ud and u K v in
    which no uv is followed by a u: a word of the grammar.  Each grammar
    word is reached along its own steps, since each of its prefixes obeys
    the rules, and once, since the walk is a tree over step words.
    Children are taken in step order (u < d < h < v: the u child is
    followed directly, the others pushed as v, h, d), and no yielded word
    is a prefix of another, so the words come in ``generate``'s order.

    With no length left only v can follow, and the forced v-run completes
    just when the top level is the path's, or is empty and sits directly on
    the path's level (uv), or is in class A over levels that are all full
    (each u K v leaves the level below in class A, and an empty one in C,
    which v may not close).  So a child that would have no length left is
    dropped before it is pushed unless its v-run completes: h and d with
    one unit left need the top level to be the path's or ``below`` to be
    full, and the u child needs the top level to be the path's.  Every
    entry with no length left then takes its v-run to the path's level and
    yields, so the walk meets no dead end there; the pruned subtrees held
    no word, so the stream is unchanged.  The stack holds at most three
    words per step of the current one: O(n) words.
    """
    stack = [("", n, None, None)]
    pop = stack.pop
    push = stack.append
    while stack:
        word, rem, read, below = pop()
        while rem:  # push the v, h and d children, then follow the u child
            if below:  # an open u; closed is the class below after ud or u K v
                closed = CLASS_A if below[0] else CLASS_C
                if read in (None, CLASS_A):  # uv, or u K v
                    push((word + "v", rem, closed if read else CLASS_B, below[1]))
            if rem > 1 or not below or below[2]:  # else their v-runs stop short
                push((word + "h", rem - 1, CLASS_A, below))
                if below and not read:  # ud
                    push((word + "d", rem - 1, closed, below[1]))
            if read == CLASS_B or rem == 1 and below:
                break  # the u child is refused, or its v-run would stop short
            word += "u"
            rem -= 1
            read, below = None, (read, below, not below or bool(read) and below[2])
        else:  # no length left: the forced v-run, which the pruning lets complete
            while below:
                word += "v"
                read, below = (CLASS_A if below[0] else CLASS_C) if read else CLASS_B, below[1]
            yield word, read or CLASS_A
