"""Exact arithmetic for path-weight bookkeeping.

Weights of G-Motzkin paths live in the polynomial ring Z[a, b, c]:
horizontal steps contribute a factor ``a``, vertical drops a factor ``b``
and diagonal down-steps a factor ``c`` (up-steps weigh 1).  Everything in
this module is exact integer arithmetic:

  Monomial    -- an exponent triple (ea, eb, ec) standing for a^ea b^eb c^ec.
  Polynomial  -- a finite map from Monomial to a nonzero int coefficient.
                 ``Polynomial(terms)`` checks input (a Mapping or None,
                 int exponents, none negative, and int coefficients, no
                 bools); results computed here come from
                 ``Polynomial._of``, which drops zero coefficients and
                 trusts the exponents, and so do the closed forms of
                 ``formulas``, whose docstrings show their exponents
                 nonnegative.  ``scaled`` multiplies by an int; the ring
                 has no division, since the closed forms divide by n + 1
                 in their integer rows before they build a polynomial.
  KroneckerCodec -- packs a homogeneous Polynomial into one int, so that a
                 product of polynomials is one product of ints; packing
                 and unpacking touch each term once.

Monomials are totally ordered lexicographically on (ea, eb, ec),
descending.  All textual and JSON output lists terms in that order, which
makes output byte-stable.  The JSON form of a polynomial is a list of term
records ``{"ea": int, "eb": int, "ec": int, "coeff": "<decimal string>"}``;
the coefficient travels as a decimal string so arbitrarily large values
survive JSON readers with fixed-width integers.

Series in a formal variable x are not held here: ``series`` gives each as
a tuple of Polynomial coefficients, x being the position in the tuple, not
a fourth ring variable.  ``substitute`` sends one variable to a
polynomial: each term, times the cached power of the replacement that it
needs, is added into one term map, with no polynomial built per term.
Generating functions are not solved here: ``series.solve`` computes the
root of D S = P + Q S^2 by a linear recurrence for R = D - 2QS on ints
packed by ``KroneckerCodec``, and certifies it by packing the result
anew.  Criterion 9 of ``verify`` checks the Gbar relation between solved
series on packed ints too, with one product of its own, not with the
solver's recurrence or rows; its linear relations need no packing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

Monomial = tuple[int, int, int]

_VAR_INDEX = {"a": 0, "b": 1, "c": 2}


class DivergenceError(ArithmeticError):
    """A series equation is not contractive, or its solution fails the check."""


class Polynomial:
    """An element of Z[a, b, c] in canonical form (no zero coefficients)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        if terms is None:
            terms = {}
        elif isinstance(terms, Mapping):
            terms = dict(terms)
        else:
            raise ValueError(f"terms must be a Mapping or None, not {terms!r}")
        for mono, coeff in terms.items():
            try:
                ea, eb, ec = mono
            except (TypeError, ValueError):
                raise ValueError(f"monomials must be exponent triples, not {mono!r}") from None
            if type(ea) is not int or type(eb) is not int or type(ec) is not int:
                raise ValueError(f"exponents must be ints, not {mono!r}")
            if ea < 0 or eb < 0 or ec < 0:
                raise ValueError("exponents must be nonnegative")
            if type(coeff) is not int:
                raise ValueError(f"coefficients must be ints, not {coeff!r} at {mono}")
        self._terms = Polynomial._of(terms)._terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(terms: dict[Monomial, int]) -> "Polynomial":
        """A result computed here, owning ``terms``: zeros dropped, exponents trusted."""
        res = Polynomial.__new__(Polynomial)
        res._terms = terms if all(terms.values()) else {m: c for m, c in terms.items() if c}
        return res

    @classmethod
    def const(cls, value: int) -> "Polynomial":
        return cls({(0, 0, 0): value})

    @classmethod
    def monomial(cls, ea: int, eb: int, ec: int, coeff: int = 1) -> "Polynomial":
        return cls({(ea, eb, ec): coeff})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical order: (ea, eb, ec) lexicographic, descending."""
        for mono in sorted(self._terms, reverse=True):
            yield mono, self._terms[mono]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == Polynomial._of({(0, 0, 0): other})._terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable mapping inside

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Polynomial._of(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({mono: -coeff for mono, coeff in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, int] = {}
        get = out.get
        right = other._terms.items()
        for (a1, b1, c1), k1 in self._terms.items():
            for (a2, b2, c2), k2 in right:
                mono = (a1 + a2, b1 + b2, c1 + c2)
                out[mono] = get(mono, 0) + k1 * k2
        return Polynomial._of(out)

    def scaled(self, k: int) -> "Polynomial":
        """The polynomial times the int k: the one way to scale; ValueError
        names a k that is a bool or no int."""
        if type(k) is not int:
            raise ValueError(f"scaled takes an int, not {k!r}")
        return Polynomial._of({mono: coeff * k for mono, coeff in self._terms.items()})

    # -- evaluation and substitution ----------------------------------------

    def norm(self) -> int:
        """The l1 norm: the sum of the coefficients' absolute values."""
        return sum(map(abs, self._terms.values()))

    def eval(self, va: int, vb: int, vc: int) -> int:
        """Exact value at an int point (a, b, c), negatives allowed; ValueError
        names a coordinate that is a bool or no int."""
        for v in (va, vb, vc):
            if type(v) is not int:
                raise ValueError(f"eval takes int coordinates, not {v!r}")
        total = 0
        for (ea, eb, ec), coeff in self._terms.items():
            total += coeff * va**ea * vb**eb * vc**ec
        return total

    def substitute(self, var: str, replacement: "Polynomial") -> "Polynomial":
        """Ring homomorphism sending ``var`` to ``replacement``, fixing the
        others; ValueError names a var that is none of "a", "b", "c" and a
        replacement that is no Polynomial."""
        idx = _VAR_INDEX.get(var) if isinstance(var, str) else None
        if idx is None:
            raise ValueError(f"unknown variable {var!r}, expected one of a, b, c")
        if not isinstance(replacement, Polynomial):
            raise ValueError(f"substitute takes a Polynomial replacement, not {replacement!r}")
        powers: list[Polynomial] = [ONE]
        out: dict[Monomial, int] = {}
        get = out.get
        for mono, coeff in self._terms.items():
            e = mono[idx]
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            rest = list(mono)
            rest[idx] = 0
            a1, b1, c1 = rest
            for (a2, b2, c2), k2 in powers[e]._terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = get(key, 0) + coeff * k2
        return Polynomial._of(out)

    # -- input/output --------------------------------------------------------

    def to_json_obj(self) -> list[dict[str, object]]:
        return [
            {"ea": ea, "eb": eb, "ec": ec, "coeff": str(coeff)}
            for (ea, eb, ec), coeff in self.terms()
        ]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for (ea, eb, ec), coeff in self.terms():
            factors = []
            for name, e in (("a", ea), ("b", eb), ("c", ec)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class KroneckerCodec:
    """Homogeneous polynomials packed into single ints (Kronecker substitution).

    Grade a and b by 1 and c by 2.  A polynomial homogeneous of degree e is
    determined by its value at a = 1, and ``pack`` evaluates that value at
    b = 2^width, c = 2^(width * stride): the coefficient of b^eb c^ec
    becomes the signed (balanced) digit in slot eb + stride * ec.  Packing
    is a ring homomorphism, so sums and products of packed ints are exact.
    ``pack_row`` packs a series row, its x^n coefficient at degree g n + shift.
    ``unpack`` recovers a polynomial of a given degree from its packed value
    only if every coefficient lies in [-2^(width-1), 2^(width-1)) and the
    degree is below the stride.  So the caller proves a bound on the
    |coefficients| of every value it packs, forms or unpacks, and the codec
    sets width = bound.bit_length() + 1, whose digits hold [-bound, bound].
    Every guard raises ValueError, also under ``python -O``: a negative
    bound, a coefficient that is not homogeneous of the stated degree or
    does not fit its slot, a degree that reaches the stride, and a value
    that leaves its slots or has a monomial with a negative a-exponent.
    Digits travel as binary strings, so both directions take time linear
    in the packed size: each digit is stored biased by 2^(width-1), and
    the bias of a run of slots is an int shifted off one cached value, not
    a string of zero digits parsed anew.  ``unpack`` reads only the slots
    that a value of its degree can fill, b^eb c^ec with eb <= degree -
    2 ec, and compares the rest of each row of slots (one power of c) with
    zero digits at once.
    """

    __slots__ = ("width", "stride", "_zero", "_format", "_bias_slots", "_bias_value")

    def __init__(self, bound: int, stride: int):
        for name, value in (("bound", bound), ("stride", stride)):
            if type(value) is not int:
                raise ValueError(f"a codec's {name} must be an int, not {value!r}")
        if bound < 0 or stride < 1:
            raise ValueError(f"a codec needs bound >= 0 and stride >= 1, not {bound}, {stride}")
        self.width = width = bound.bit_length() + 1
        self.stride = stride
        self._zero = "1" + "0" * (width - 1)  # the digit 0, biased by 2^(width-1)
        self._format = f"0{width}b"
        self._bias_slots = self._bias_value = 0

    def _bias(self, count: int) -> int:
        """2^(width-1) in each of ``count`` slots, the packed value of their
        biased zero digits: the low slots of one cached value, which grows
        by doubling, so its cost stays linear in the largest count asked."""
        if count > self._bias_slots:
            self._bias_slots = max(count, 2 * self._bias_slots)
            w = self.width
            repunit = ((1 << (w * self._bias_slots)) - 1) // ((1 << w) - 1)
            self._bias_value = repunit << (w - 1)
        return self._bias_value >> (self.width * (self._bias_slots - count))

    def _slots(self, degree: int) -> int:
        """The number of slots a value of this degree spans."""
        if degree < 0:
            return 0
        if degree >= self.stride:
            raise ValueError(f"degree {degree} does not fit stride {self.stride}")
        top_c = degree // 2
        return max(degree, self.stride * top_c + degree - 2 * top_c) + 1

    def pack(self, poly: Polynomial, degree: int) -> int:
        """The value of ``poly``, homogeneous of ``degree``, at a = 1,
        b = 2^width, c = 2^(width * stride)."""
        if not poly._terms:
            return 0
        count = self._slots(degree)
        half = 1 << (self.width - 1)
        digits = [self._zero] * count
        for (ea, eb, ec), coeff in poly._terms.items():
            if ea + eb + 2 * ec != degree:
                raise ValueError(f"{poly} is not homogeneous of degree {degree}")
            if not -half <= coeff < half:
                raise ValueError(f"coefficient {coeff} does not fit a {self.width}-bit slot")
            digits[eb + self.stride * ec] = format(coeff + half, self._format)
        digits.reverse()
        return int("".join(digits), 2) - self._bias(count)

    def pack_row(self, row: Iterable[Polynomial], g: int, shift: int) -> list[int]:
        """A row packed coefficientwise, its x^n coefficient at degree g n + shift."""
        return [self.pack(c, g * n + shift) for n, c in enumerate(row)]

    def unpack(self, value: int, degree: int) -> Polynomial:
        """The polynomial of ``degree`` whose packed value is ``value``.

        Only the slots of b^eb c^ec with eb + 2 ec <= degree are read; the
        rest of each row of slots (one power of c) is compared with zero
        digits at once, and a nonzero one is named."""
        count = self._slots(degree)
        if not count:
            if value:
                raise ValueError(f"nonzero value at negative degree {degree}")
            return Polynomial()
        w, stride, zero = self.width, self.stride, self._zero
        biased = value + self._bias(count)
        if biased < 0 or biased.bit_length() > w * count:
            raise ValueError(f"value leaves its {count} slots of {w} bits")
        bits = format(biased, f"0{w * count}b")
        half = 1 << (w - 1)
        terms: dict[Monomial, int] = {}
        for ec in range(degree // 2 + 1):
            top = degree - 2 * ec  # the largest eb in this row
            end = len(bits) - w * stride * ec  # slot b^0 c^ec ends here
            for eb in range(top + 1):
                digit = bits[end - w : end]
                end -= w
                if digit != zero:
                    terms[top - eb, eb, ec] = int(digit, 2) - half
            # the row's slots past eb = top, up to the row's or the value's end
            rest = min(stride * (ec + 1), count) - stride * ec - top - 1
            if rest > 0 and bits[end - w * rest : end] != zero * rest:
                eb = top + 1
                while bits[end - w : end] == zero:
                    end -= w
                    eb += 1
                raise ValueError(f"b^{eb} c^{ec} in a value of degree {degree}: a^{top - eb}")
        return Polynomial._of(terms)


ZERO = Polynomial()
ONE = Polynomial.const(1)
VAR_A = Polynomial.monomial(1, 0, 0)
VAR_B = Polynomial.monomial(0, 1, 0)
VAR_C = Polynomial.monomial(0, 0, 1)

