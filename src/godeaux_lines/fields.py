"""Exact scalar arithmetic over prime fields F_p and over the rationals.

Every computation in this package is an exact identity, so there is no
floating point anywhere.  A field is represented by a small context object
(:class:`PrimeField` or :class:`RationalField`); the values themselves are
*raw* canonical representatives:

* ``F_p``  -- Python ints in ``[0, p)``;
* ``Q``    -- a Python int when the value is integral, otherwise a
  :class:`fractions.Fraction` (always reduced, positive denominator).

There is one scalar arithmetic: code computes with the values' own
``+ - *`` and reduces each result once with ``field.canonical``, and the
zero test of a canonical value is its falsiness.  Inversion is the one
operation the values cannot do themselves (``int / int`` is a float, which
``canonical`` refuses), so it goes through ``field.inv``.  Every public
constructor and entry point canonicalises what it is given, so every value
the package stores is canonical.  ``canonical`` accepts only exact scalars
(``int``, ``bool`` included, and ``Fraction``) and raises
:class:`FieldError` for anything else, so a float or a string is never
silently truncated.  The named operations on :class:`Field` (``add``,
``mul``, ``div``, ...) are written once over ``canonical`` for callers that
want them; the package itself does not use them.

Field objects are stateless and hashable and raw values are immutable, so
everything here is safe to share between concurrent tasks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union

Raw = Union[int, Fraction]

# largest prime modulus we accept; keeps residues inside machine-friendly ints
MAX_PRIME = 2**63


class FieldError(ArithmeticError):
    """Base class for exact-field arithmetic errors."""


class FieldDivisionError(FieldError, ZeroDivisionError):
    """Division or inversion by zero in a field."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for n < 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two concrete fields.

    A subclass supplies what really differs between fields: ``canonical``,
    ``inv``, ``random``, the scalar text and the spec.  The arithmetic below
    is written once over ``canonical``.
    """

    kind: str
    #: the whole text of a store scalar (ASCII digits and a sign, here)
    _SCALAR_TEXT = re.compile(r"[+-]?[0-9]+")

    def canonical(self, value) -> Raw:
        raise NotImplementedError

    def inv(self, a: Raw) -> Raw:
        raise NotImplementedError

    def add(self, a: Raw, b: Raw) -> Raw:
        return self.canonical(a + b)

    def sub(self, a: Raw, b: Raw) -> Raw:
        return self.canonical(a - b)

    def mul(self, a: Raw, b: Raw) -> Raw:
        return self.canonical(a * b)

    def neg(self, a: Raw) -> Raw:
        return self.canonical(-a)

    def div(self, a: Raw, b: Raw) -> Raw:
        return self.canonical(a * self.inv(b))

    def is_zero(self, a: Raw) -> bool:
        return not self.canonical(a)

    def random(self, rng) -> Raw:
        raise NotImplementedError

    def random_nonzero(self, rng) -> Raw:
        while True:
            a = self.random(rng)
            if a:
                return a

    def format_scalar(self, a: Raw) -> str:
        raise NotImplementedError

    def parse_scalar(self, text: str) -> Raw:
        raise NotImplementedError

    def _parse(self, text, convert):
        """``convert(text)`` for a store scalar: an int or a string that
        ``_SCALAR_TEXT`` matches whole; a JSON float or bool, and decimal,
        exponent, padded or underscored text, are not (so no text stands for
        a number far longer than itself).  Text with more digits than
        ``int`` converts (``sys.get_int_max_str_digits()``) or with a zero
        denominator is refused too."""
        if isinstance(text, str):
            if not self._SCALAR_TEXT.fullmatch(text):
                raise FieldError(f"{self} scalar text must match {self._SCALAR_TEXT.pattern}: {text[:40]!r}")
        elif isinstance(text, bool) or not isinstance(text, int):
            raise FieldError(f"scalar must be a string or an integer, not {text!r}")
        try:
            return convert(text)
        except ValueError as e:  # past the interpreter's digit limit
            raise FieldError(f"{self} scalar text: {e}") from None
        except ZeroDivisionError:  # "n/0"
            raise FieldError(f"{self} scalar text has a zero denominator: {text[:40]!r}") from None

    def to_spec(self) -> dict:
        raise NotImplementedError


class PrimeField(Field):
    """The prime field F_p, elements stored as residues in [0, p)."""

    kind = "prime"
    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_PRIME:
            raise FieldError(f"modulus out of range: {p!r}")
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p

    def canonical(self, value) -> int:
        if type(value) is int:  # the common case, without the ABC check below
            return value % self.p
        if isinstance(value, Fraction):
            return value.numerator * self.inv(value.denominator) % self.p
        if isinstance(value, int):  # bool and other int subclasses
            return value % self.p
        raise FieldError(f"{self} scalar must be an int or a Fraction, not {value!r}")

    def inv(self, a):
        if a % self.p == 0:
            raise FieldDivisionError(f"inverse of zero in {self}")
        return pow(a, -1, self.p)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def format_scalar(self, a) -> str:
        return str(self.canonical(a))

    def parse_scalar(self, text: str) -> int:
        return self._parse(text, int) % self.p

    def to_spec(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class RationalField(Field):
    """The rational numbers with arbitrary-precision reduced fractions."""

    kind = "rational"
    __slots__ = ()
    _SCALAR_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

    def canonical(self, value) -> Raw:
        if type(value) is int:  # integers stay Python ints
            return value
        if type(value) is not Fraction:  # bool, other int and Fraction subclasses
            if not isinstance(value, (int, Fraction)):
                raise FieldError(f"{self} scalar must be an int or a Fraction, not {value!r}")
            value = Fraction(value)
        # Fractions are always reduced; an integral one becomes its numerator
        return value.numerator if value.denominator == 1 else value

    def inv(self, a):
        a = self.canonical(a)
        if not a:
            raise FieldDivisionError("inverse of zero in Q")
        if a == 1 or a == -1:  # a unit stays an int
            return a
        return self.canonical(Fraction(a.denominator, a.numerator))

    def random(self, rng) -> Raw:
        return self.canonical(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))

    def format_scalar(self, a) -> str:
        return str(self.canonical(a))  # "n", or "n/d" in lowest terms

    def parse_scalar(self, text: str) -> Raw:
        return self.canonical(self._parse(text, Fraction))

    def to_spec(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


QQ = RationalField()

#: default prime moduli used throughout the test suite
DEFAULT_PRIMES = (31, 101, 10007, 32233)


def field_from_spec(spec) -> Field:
    """Build a field from a spec dict ({"kind": ..}) or a short string.

    Strings: ``"q"``/``"rational"`` for Q, ``"p<modulus>"`` or a bare
    decimal modulus for a prime field.  A spec that names no field raises
    :class:`FieldError`, whatever its shape; so does a modulus with more
    digits than ``int`` converts (``sys.get_int_max_str_digits()``).
    """
    if isinstance(spec, Field):
        return spec
    try:
        if isinstance(spec, dict):
            if spec.get("kind") == "rational":
                return QQ
            if spec.get("kind") == "prime":
                p = spec.get("p")
                if isinstance(p, str) and p.strip().isdecimal():
                    p = int(p)
                if not isinstance(p, int):
                    raise FieldError(f"prime field spec needs an integer modulus 'p': {spec!r}")
                return PrimeField(p)
            raise FieldError(f"unknown field spec {spec!r}")
        text = str(spec).strip().lower()
        if text in ("q", "qq", "rational"):
            return QQ
        digits = text[1:] if text.startswith("p") else text
        if digits.isdecimal():
            return PrimeField(int(digits))
    except ValueError as e:  # past the digit limit, converting or printing the modulus
        raise FieldError(f"field modulus: {e}") from None
    raise FieldError(f"cannot parse field {spec!r}")


def vector(field: Field, values: Iterable) -> tuple:
    """Canonicalise an iterable of scalars into a tuple of raw values."""
    return tuple(field.canonical(v) for v in values)
