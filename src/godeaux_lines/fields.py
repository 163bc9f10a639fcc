"""Exact scalar arithmetic over prime fields F_p and over the rationals.

Every computation in this package is an exact identity, so there is no
floating point anywhere.  A field is represented by a small context object
(:class:`PrimeField` or :class:`RationalField`) whose methods operate on
*raw* canonical representatives:

* ``F_p``  -- Python ints in ``[0, p)``;
* ``Q``    -- :class:`fractions.Fraction` (always reduced, positive
  denominator).

Raw values plus a field context are what the geometry and sampling code use
in hot loops.  :class:`FieldElement` wraps a raw value together with its
field and overloads the arithmetic operators for convenient use in tests
and user code; mixing elements of two different fields raises
:class:`MixedFieldError`.

Field objects are stateless and hashable, and elements are immutable, so
everything here is safe to share between concurrent tasks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Raw = Union[int, Fraction]

# largest prime modulus we accept; keeps residues inside machine-friendly ints
MAX_PRIME = 2**63


class FieldError(ArithmeticError):
    """Base class for exact-field arithmetic errors."""


class MixedFieldError(FieldError):
    """Two operands belong to different fields."""


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

    Subclasses implement exact ``add/sub/mul/neg/inv/div/eq`` on raw
    canonical representatives, plus canonicalisation, text encoding and
    seeded random sampling.
    """

    kind: str

    def element(self, value) -> "FieldElement":
        return FieldElement(self, self.canonical(value))

    def canonical(self, value) -> Raw:
        raise NotImplementedError

    def zero(self) -> Raw:
        raise NotImplementedError

    def one(self) -> Raw:
        raise NotImplementedError

    def add(self, a: Raw, b: Raw) -> Raw:
        raise NotImplementedError

    def sub(self, a: Raw, b: Raw) -> Raw:
        raise NotImplementedError

    def mul(self, a: Raw, b: Raw) -> Raw:
        raise NotImplementedError

    def neg(self, a: Raw) -> Raw:
        raise NotImplementedError

    def inv(self, a: Raw) -> Raw:
        raise NotImplementedError

    def div(self, a: Raw, b: Raw) -> Raw:
        if self.is_zero(b):
            raise FieldDivisionError(f"division by zero in {self}")
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Raw) -> bool:
        raise NotImplementedError

    def random(self, rng) -> Raw:
        raise NotImplementedError

    def random_nonzero(self, rng) -> Raw:
        while True:
            a = self.random(rng)
            if not self.is_zero(a):
                return a

    def format_scalar(self, a: Raw) -> str:
        raise NotImplementedError

    def parse_scalar(self, text: str) -> Raw:
        raise NotImplementedError

    @staticmethod
    def _scalar_text(text):
        """A store scalar is a string or an int; a JSON float or bool is not."""
        if isinstance(text, bool) or not isinstance(text, (str, int)):
            raise FieldError(f"scalar must be a string or an integer, not {text!r}")
        return text

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
            if value.denominator == 1:
                return value.numerator % self.p
            return self.div(value.numerator % self.p, value.denominator % self.p)
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFieldError(f"{value.field} value in {self}")
            return value.value
        return int(value) % self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldDivisionError(f"inverse of zero in {self}")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def format_scalar(self, a) -> str:
        return str(a % self.p)

    def parse_scalar(self, text: str) -> int:
        return int(self._scalar_text(text)) % self.p

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

    def canonical(self, value) -> Fraction:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFieldError(f"{value.field} value in {self}")
            return value.value
        return Fraction(value)

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def format_scalar(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse_scalar(self, text: str) -> Fraction:
        return Fraction(self._scalar_text(text))

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
    :class:`FieldError`, whatever its shape.
    """
    if isinstance(spec, Field):
        return spec
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
    if text.startswith("p") and text[1:].isdecimal():
        return PrimeField(int(text[1:]))
    if text.isdecimal():
        return PrimeField(int(text))
    raise FieldError(f"cannot parse field {spec!r}")


class FieldElement:
    """A raw scalar boxed together with its field; immutable.

    Supports ``+ - * / ==`` against elements of the same field and plain
    integers.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: Raw):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> Raw:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFieldError(f"mixing {self.field} and {other.field}")
            return other.value
        if isinstance(other, int):
            return self.field.canonical(other)
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.value, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.value, b))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(b, self.value))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.value, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.value, b))

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(b, self.value))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def __eq__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self.value == b

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"{self.field}({self.field.format_scalar(self.value)})"


def vector(field: Field, values: Iterable) -> tuple:
    """Canonicalise an iterable of scalars into a tuple of raw values."""
    return tuple(field.canonical(v) for v in values)
