import random
from fractions import Fraction

import pytest

from godeaux_lines.fields import (
    DEFAULT_PRIMES,
    FieldDivisionError,
    FieldError,
    PrimeField,
    QQ,
    field_from_spec,
    is_prime,
)


def test_f7_product():
    F = PrimeField(7)
    assert F.mul(3, 5) == 1


def test_rational_sum():
    assert QQ.add(Fraction(2, 3), Fraction(1, 6)) == Fraction(5, 6)


def test_f31_inverse():
    F = PrimeField(31)
    assert F.inv(2) == 16
    assert F.mul(2, 16) == 1


def test_default_primes_are_prime():
    for p in DEFAULT_PRIMES:
        PrimeField(p)  # construction runs the primality test


@pytest.mark.parametrize("n", [1, 4, 9, 32231, 32233 * 3, 2**20])
def test_composites_rejected(n):
    assert not is_prime(n)
    with pytest.raises(FieldError):
        PrimeField(n)


def test_modulus_range():
    with pytest.raises(FieldError):
        PrimeField(2**63 + 9)  # too large even if prime


@pytest.mark.parametrize("p", [31, 101, 10007, 32233])
def test_division_round_trip_prime(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(1000):
        x, y = F.random(rng), F.random_nonzero(rng)
        assert F.mul(F.mul(x, y), F.inv(y)) == x


def test_division_round_trip_rational():
    rng = random.Random(5)
    for _ in range(1000):
        x, y = QQ.random(rng), QQ.random(rng)
        if QQ.is_zero(y):
            continue
        assert QQ.mul(QQ.mul(x, y), QQ.inv(y)) == x


def test_canonical_idempotent():
    F = PrimeField(101)
    for x in (-5, 0, 100, 12345):
        once = F.canonical(x)
        assert F.canonical(once) == once
    q = QQ.canonical(Fraction(4, -6))
    assert q == Fraction(-2, 3) and q.denominator > 0
    assert QQ.canonical(q) == q


def test_field_axioms_random():
    F = PrimeField(10007)
    rng = random.Random(1)
    for _ in range(300):
        a, b, c = (F.random(rng) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


def test_division_by_zero():
    F = PrimeField(31)
    with pytest.raises(FieldDivisionError):
        F.inv(0)
    with pytest.raises(FieldDivisionError):
        F.div(3, 0)
    with pytest.raises(FieldDivisionError):
        QQ.inv(Fraction(0))


@pytest.mark.parametrize("field", [PrimeField(31), QQ])
@pytest.mark.parametrize("value", [1.9, 0.1, 1.0, "5", None])
def test_canonical_rejects_inexact_scalars(field, value):
    # a float or a string is not truncated or parsed into a field value
    with pytest.raises(FieldError):
        field.canonical(value)


def test_rational_canonical_accepts_ints_bools_and_fractions():
    assert QQ.canonical(True) == Fraction(1)
    assert QQ.canonical(-3) == Fraction(-3)
    assert QQ.canonical(Fraction(4, 6)) == Fraction(2, 3)


def test_scalar_text_round_trip():
    F = PrimeField(10007)
    assert F.parse_scalar(F.format_scalar(1234)) == 1234
    assert QQ.format_scalar(Fraction(-3, 4)) == "-3/4"
    assert QQ.parse_scalar("-3/4") == Fraction(-3, 4)
    assert QQ.format_scalar(Fraction(7)) == "7"


@pytest.mark.parametrize("field", [PrimeField(31), QQ])
@pytest.mark.parametrize("value", [1.9, 1.0, 0.0, True, False, None, [1], Fraction(1, 2)])
def test_parse_scalar_rejects_non_text_scalars(field, value):
    # a JSON float or bool in a store row must not be coerced to a scalar
    with pytest.raises(FieldError):
        field.parse_scalar(value)


def test_parse_scalar_accepts_strings_and_ints():
    F = PrimeField(31)
    assert F.parse_scalar(33) == 2
    assert F.parse_scalar("-1") == 30
    assert QQ.parse_scalar(-7) == Fraction(-7)
    assert QQ.parse_scalar("5/10") == Fraction(1, 2)


def test_field_from_spec():
    assert field_from_spec("p31") == PrimeField(31)
    assert field_from_spec("q") == QQ
    assert field_from_spec({"kind": "prime", "p": 101}) == PrimeField(101)
    assert field_from_spec({"kind": "rational"}) == QQ
    with pytest.raises(FieldError):
        field_from_spec("nonsense")


@pytest.mark.parametrize("spec", [
    {"kind": "prime"},
    {"kind": "prime", "p": "x"},
    {"kind": "prime", "p": None},
    {"kind": "prime", "p": [1]},
    {"kind": "prime", "p": 31.5},
    {"kind": "prime", "p": 32},
    {"kind": "complex"},
    "p\u00b2",
    "\u00b2",
])
def test_field_from_spec_bad_specs_raise_field_error(spec):
    with pytest.raises(FieldError):
        field_from_spec(spec)


def test_field_from_spec_decimal_string_modulus():
    assert field_from_spec({"kind": "prime", "p": "31"}) == PrimeField(31)


def _canonical_oracle(F, value):
    """PrimeField.canonical without its plain-int fast path."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator % F.p
        return F.div(value.numerator % F.p, value.denominator % F.p)
    return int(value) % F.p


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as err:
        return "error", type(err)
    return type(value), value


@pytest.mark.parametrize("p", [2, 3, 31, 10007, 2**61 - 1])
def test_prime_canonical_matches_oracle(p):
    F = PrimeField(p)
    values = [0, 1, -1, -5, p - 1, p, p + 3, -p, 3 * p + 2, 2**100, -(2**100), True, False]
    values += [Fraction(n, 1) for n in (0, 7, -7, p, 2**100)]
    values += [Fraction(2, 3), Fraction(-5, 7), Fraction(1, p), Fraction(p + 1, 2 * p)]
    kinds = set()
    for value in values:
        got = _outcome(F.canonical, value)
        assert got == _outcome(_canonical_oracle, F, value), value
        kinds.add(got[1] if got[0] == "error" else got[0])
    assert {int, FieldDivisionError} <= kinds
