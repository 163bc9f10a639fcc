import random
import sys
import time
from fractions import Fraction

import pytest

from conftest import poly_eval
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


@pytest.mark.parametrize("field, shape", [
    (PrimeField(31), "{}"), (PrimeField(31), "-{}"), (QQ, "{}"), (QQ, "-{}"), (QQ, "1/{}"),
])
def test_parse_scalar_past_the_digit_limit_is_field_error(field, shape):
    # text that passes the scalar pattern but has more digits than int()
    # converts is refused with a FieldError, not an untyped ValueError
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(FieldError):
        field.parse_scalar(shape.format(digits))


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_parse_scalar_zero_denominator_is_field_error(text):
    with pytest.raises(FieldError):
        QQ.parse_scalar(text)


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


@pytest.mark.parametrize("spec", [
    "p" + "1" * 5000,
    "1" * 5000,
    {"kind": "prime", "p": "1" * 5000},
    {"kind": "prime", "p": 10 ** 5000},
], ids=["p-text", "bare-text", "dict-text", "dict-int"])
def test_field_from_spec_modulus_past_the_int_digit_limit_is_field_error(spec):
    # int() and repr() refuse such a modulus with a ValueError; the spec
    # reader turns it into the typed error
    with pytest.raises(FieldError, match="digit"):
        field_from_spec(spec)


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


def test_field_ops_are_written_once_on_field():
    # the concrete fields differ only in canonical, inv, random, text and spec
    shared = {"add", "sub", "mul", "neg", "div", "is_zero"}
    assert not shared & set(vars(PrimeField)) and not shared & set(vars(type(QQ)))
    for F in (PrimeField(7), QQ):
        a, b = F.canonical(3), F.canonical(5)
        assert (F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a)) == tuple(
            F.canonical(x) for x in (a + b, a - b, a * b, -a))
        assert F.mul(F.div(a, b), b) == a and F.is_zero(F.sub(a, a))
        # 0 and 1 are the raw ints in both fields
        assert [(x, type(x)) for x in map(F.canonical, (0, 1))] == [(0, int), (1, int)]


@pytest.mark.parametrize("field", [PrimeField(31), QQ], ids=str)
@pytest.mark.parametrize("text", [
    "1e400", "1.5", "1_000", " 7 ", "7 ", "\t7", "7\n", "", "+", "-", "1e3", "-2E-2",
    "0x1f", "inf", "nan", "1/2/3", "/2", "1/", "1/-2", "٣", "７",
])
def test_parse_scalar_rejects_non_integer_text(field, text):
    # only ASCII [+-]digits (and /digits over Q) are store scalars
    with pytest.raises(FieldError):
        field.parse_scalar(text)


def test_parse_scalar_rejects_fraction_text_over_fp():
    with pytest.raises(FieldError):
        PrimeField(31).parse_scalar("1/2")
    assert QQ.parse_scalar("+6/4") == Fraction(3, 2)


@pytest.mark.parametrize("field", [PrimeField(31), QQ], ids=str)
def test_parse_scalar_rejects_huge_exponent_quickly(field):
    # Fraction("1e1000000000") would build a numerator of billions of bits
    start = time.perf_counter()
    with pytest.raises(FieldError):
        field.parse_scalar("1e1000000000")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(31), PrimeField(2**61 - 1), QQ], ids=str)
def test_format_scalar_round_trips(field):
    rng = random.Random(17)
    values = [field.random(rng) for _ in range(300)]
    if field is QQ:
        values += [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in range(300)]
    for x in values:
        assert field.parse_scalar(field.format_scalar(x)) == x


def test_format_scalar_writes_the_canonical_value():
    # a value that is not canonical is written as the scalar it stands for,
    # and a float is refused, as by canonical
    F = PrimeField(31)
    assert [F.format_scalar(x) for x in (-1, 33, Fraction(1, 2), True)] == ["30", "2", "16", "1"]
    assert [QQ.format_scalar(x) for x in (Fraction(6, 3), Fraction(4, -6), True)] == ["2", "-2/3", "1"]
    for field in (F, QQ):
        with pytest.raises(FieldError):
            field.format_scalar(0.5)


# ----------------------------------------------------------------------
# the scalar form over Q: an int exactly when the value is integral, a
# reduced Fraction otherwise, never a float


def _assert_rational_form(x):
    assert type(x) in (int, Fraction), repr(x)
    assert (type(x) is int) == (Fraction(x).denominator == 1), repr(x)
    if type(x) is Fraction:
        assert Fraction(x.numerator, x.denominator) == x and x.denominator > 1


def _rational_samples(rng, n):
    """Ints, integral and proper Fractions (some unreduced or with a negative
    denominator), bools and big values, as a Q computation meets them."""
    out = [0, 1, -1, True, False, Fraction(0), Fraction(6, 3), Fraction(-4, -2), 10**40,
           Fraction(10**40, 3)]
    for _ in range(n):
        num, den = rng.randint(-60, 60), rng.choice((1, -1, 2, -3, 4, 7, 12))
        out += [num, Fraction(num, den), Fraction(num * den, den)]
    return out


def test_rational_scalars_are_ints_exactly_when_integral():
    from godeaux_lines.linalg import nullspace, rref, sparse_nullspace
    from godeaux_lines.pencil import BinaryForm, binary_roots
    from godeaux_lines.polynomials import Poly, VarTable

    rng = random.Random(2039)
    values = _rational_samples(rng, 100)
    for x in values:
        c = QQ.canonical(x)
        _assert_rational_form(c)
        assert c == x
        assert QQ.parse_scalar(QQ.format_scalar(x)) == c
        _assert_rational_form(QQ.parse_scalar(QQ.format_scalar(x)))
        if x:
            inv = QQ.inv(x)
            _assert_rational_form(inv)
            assert inv * x == 1
    assert type(QQ.inv(-1)) is int and type(QQ.inv(Fraction(1))) is int
    assert type(QQ.inv(Fraction(1, 3))) is int and type(QQ.inv(3)) is Fraction
    assert [type(QQ.parse_scalar(t)) for t in ("6/3", "-4", "0/5", "1/2")] == [int, int, int, Fraction]
    # random keeps its stream: the value of Fraction(randint, randint)
    a, b = random.Random(5), random.Random(5)
    for _ in range(300):
        x = QQ.random(a)
        _assert_rational_form(x)
        assert x == Fraction(b.randint(-30, 30), b.randint(1, 12))

    vt = VarTable(("x", "y"))
    p = Poly(vt, QQ, {(1, 0): Fraction(3, 2), (0, 1): Fraction(4, 2), (0, 0): 5})
    q = Poly(vt, QQ, {(1, 0): Fraction(2, 3), (0, 0): Fraction(-1, 2)})
    for poly in (p, q, p * q, p + q, p - q, p ** 3, p.scale(Fraction(2, 3))):
        for c in poly.terms.values():
            _assert_rational_form(c)
    _assert_rational_form(poly_eval(p * q, [Fraction(1, 2), 3]))

    f = BinaryForm(QQ, 2, (Fraction(4, 2), 3, Fraction(1, 2)))
    g = BinaryForm(QQ, 1, (Fraction(2, 3), Fraction(-6, 3)))
    for form in (f, g, f * g, -f, f + f):
        for c in form.coeffs:
            _assert_rational_form(c)

    # (s - 2t)(s + t)(3s - t)(s + 3t) and (2s - 3t)^2 t: integral and proper roots
    lin = lambda a, b: BinaryForm(QQ, 1, (a, b))
    quartic = lin(1, -2) * lin(1, 1) * lin(3, -1) * lin(1, 3)
    cubic = lin(2, -3) * lin(2, -3) * lin(0, 1)
    for form in (quartic, cubic):
        for (s, t), _ in binary_roots(form):
            _assert_rational_form(s)
            _assert_rational_form(t)
    assert [st for st, _ in binary_roots(quartic)] == [(-1, 1), (Fraction(1, 3), 1), (2, 1), (-3, 1)]
    assert binary_roots(cubic) == [((1, 0), 1), ((Fraction(3, 2), 1), 2)]

    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        reduced, _ = rref(QQ, rows)
        kernel = nullspace(QQ, rows, ncols)
        sparse = sparse_nullspace(QQ, [dict(enumerate(r)) for r in rows], ncols)
        assert sparse == kernel
        for x in [x for row in reduced for x in row] + [x for vec in kernel for x in vec]:
            _assert_rational_form(x)
