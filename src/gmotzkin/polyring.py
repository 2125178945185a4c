"""Exact arithmetic for path-weight bookkeeping.

Weights of G-Motzkin paths live in the polynomial ring Z[a, b, c]:
horizontal steps contribute a factor ``a``, vertical drops a factor ``b``
and diagonal down-steps a factor ``c`` (up-steps weigh 1).  Everything in
this module is exact integer arithmetic:

  Monomial    -- an exponent triple (ea, eb, ec) standing for a^ea b^eb c^ec.
  Polynomial  -- a finite map from Monomial to a nonzero int coefficient.
  PowerSeries -- a truncated series in a formal variable x whose
                 coefficients are Polynomials.

Monomials are totally ordered lexicographically on (ea, eb, ec),
descending.  All textual and JSON output lists terms in that order, which
makes output byte-stable.  The JSON form of a polynomial is a list of term
records ``{"ea": int, "eb": int, "ec": int, "coeff": "<decimal string>"}``;
the coefficient travels as a decimal string so arbitrarily large values
survive JSON readers with fixed-width integers.

The series variable x is structural (the position in the coefficient
list), not a fourth ring variable.  Series arithmetic never reads or
writes beyond the truncation order.  Products are formed by ``dot``, which
sums a run of polynomial products into one term map.  Generating functions
are not solved here: ``series.solve`` computes the root of D S = P + Q S^2
one coefficient at a time and checks it with the arithmetic of this module.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

Monomial = tuple[int, int, int]

_VAR_INDEX = {"a": 0, "b": 1, "c": 2}


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class DivergenceError(ArithmeticError):
    """A series equation is not contractive, or its solution fails the check."""


class Polynomial:
    """An element of Z[a, b, c] in canonical form (no zero coefficients)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self._terms[mono] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def const(cls, value: int) -> "Polynomial":
        return cls({(0, 0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        """The polynomial a, b or c."""
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}, expected one of a, b, c")
        exps = [0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls({(exps[0], exps[1], exps[2]): 1})

    @classmethod
    def monomial(cls, ea: int, eb: int, ec: int, coeff: int = 1) -> "Polynomial":
        if min(ea, eb, ec) < 0:
            raise ValueError("exponents must be nonnegative")
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
            return self._terms == Polynomial.const(other)._terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable mapping inside

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = Polynomial.__new__(Polynomial)
        res._terms = out
        return res

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Polynomial":
        res = Polynomial.__new__(Polynomial)
        res._terms = {mono: -coeff for mono, coeff in self._terms.items()}
        return res

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return dot(((self, other),))

    def __rmul__(self, other: int) -> "Polynomial":
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, k: int) -> "Polynomial":
        if k == 0:
            return Polynomial()
        res = Polynomial.__new__(Polynomial)
        res._terms = {mono: coeff * k for mono, coeff in self._terms.items()}
        return res

    def div_exact(self, k: int) -> "Polynomial":
        """Divide every coefficient by k, requiring exact divisibility."""
        if k == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        out = {}
        for mono, coeff in self._terms.items():
            q, r = divmod(coeff, k)
            if r:
                raise ValueError(f"coefficient {coeff} of {mono} not divisible by {k}")
            out[mono] = q
        res = Polynomial.__new__(Polynomial)
        res._terms = out
        return res

    # -- evaluation and substitution ----------------------------------------

    def eval(self, va: int, vb: int, vc: int) -> int:
        """Exact value at integer point (a, b, c); negatives allowed."""
        total = 0
        for (ea, eb, ec), coeff in self._terms.items():
            total += coeff * va**ea * vb**eb * vc**ec
        return total

    def substitute(self, var: str, replacement: "Polynomial") -> "Polynomial":
        """Ring homomorphism sending ``var`` to ``replacement``, fixing the others."""
        idx = _VAR_INDEX.get(var)
        if idx is None:
            raise ValueError(f"unknown variable {var!r}, expected one of a, b, c")
        powers: list[Polynomial] = [Polynomial.const(1)]
        result = Polynomial.zero()
        for mono, coeff in self._terms.items():
            e = mono[idx]
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            rest = list(mono)
            rest[idx] = 0
            result = result + Polynomial.monomial(rest[0], rest[1], rest[2], coeff) * powers[e]
        return result

    # -- input/output --------------------------------------------------------

    def to_json_obj(self) -> list[dict[str, object]]:
        return [
            {"ea": ea, "eb": eb, "ec": ec, "coeff": str(coeff)}
            for (ea, eb, ec), coeff in self.terms()
        ]

    @classmethod
    def from_json_obj(cls, obj: Iterable[Mapping[str, object]]) -> "Polynomial":
        terms: dict[Monomial, int] = {}
        for rec in obj:
            mono = (int(rec["ea"]), int(rec["eb"]), int(rec["ec"]))  # type: ignore[arg-type]
            terms[mono] = int(str(rec["coeff"]))
        return cls(terms)

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


def dot(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of p * q over ``pairs``, accumulated in a single term map."""
    out: dict[Monomial, int] = {}
    get = out.get
    for p, q in pairs:
        right = q._terms.items()
        for (a1, b1, c1), k1 in p._terms.items():
            for (a2, b2, c2), k2 in right:
                mono = (a1 + a2, b1 + b2, c1 + c2)
                out[mono] = get(mono, 0) + k1 * k2
    res = Polynomial.__new__(Polynomial)
    res._terms = {mono: coeff for mono, coeff in out.items() if coeff}
    return res


ZERO = Polynomial.zero()
ONE = Polynomial.const(1)
VAR_A = Polynomial.variable("a")
VAR_B = Polynomial.variable("b")
VAR_C = Polynomial.variable("c")


class PowerSeries:
    """A series sum(p_n x^n, n = 0..order) with Polynomial coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Polynomial]):
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Polynomial, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Polynomial:
        return self._coeffs[n]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([ZERO] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([ONE] + [ZERO] * order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        if order == 0:
            return cls([ZERO])
        return cls([ZERO, ONE] + [ZERO] * (order - 1))

    @classmethod
    def from_polys(cls, polys: Sequence[Polynomial], order: int) -> "PowerSeries":
        """Low-order coefficients from ``polys``, zero-padded or truncated to ``order``."""
        coeffs = list(polys[: order + 1])
        coeffs += [ZERO] * (order + 1 - len(coeffs))
        return cls(coeffs)

    @classmethod
    def from_ints(cls, values: Sequence[int], order: int) -> "PowerSeries":
        return cls.from_polys([Polynomial.const(v) for v in values], order)

    # -- structure ---------------------------------------------------------

    def truncated(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot truncate upwards")
        return PowerSeries(self._coeffs[: order + 1])

    def shift_up(self) -> "PowerSeries":
        """Multiply by x, growing the order by one."""
        return PowerSeries((ZERO,) + self._coeffs)

    def shift_down(self) -> "PowerSeries":
        """Divide by x; the constant coefficient must be zero."""
        if self._coeffs[0]:
            raise ValueError("cannot divide by x: nonzero constant term")
        if self.order == 0:
            raise ValueError("cannot divide by x: order 0")
        return PowerSeries(self._coeffs[1:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def _require_same_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_order(other)
        return PowerSeries([p + q for p, q in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_order(other)
        return PowerSeries([p - q for p, q in zip(self._coeffs, other._coeffs)])

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-p for p in self._coeffs])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_order(other)
        left = [(i, p) for i, p in enumerate(self._coeffs) if p]
        right = other._coeffs
        return PowerSeries(
            [dot((p, right[n - i]) for i, p in left if i <= n) for n in range(len(right))]
        )

    def scaled(self, factor: Polynomial | int) -> "PowerSeries":
        if isinstance(factor, int):
            factor = Polynomial.const(factor)
        return PowerSeries([p * factor for p in self._coeffs])

    # -- output --------------------------------------------------------------

    def evaluate(self, va: int, vb: int, vc: int) -> list[int]:
        """Coefficientwise integer evaluation at (a, b, c)."""
        return [p.eval(va, vb, vc) for p in self._coeffs]

    def __repr__(self) -> str:
        inner = ", ".join(str(p) for p in self._coeffs)
        return f"PowerSeries([{inner}])"
