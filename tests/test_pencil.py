import math
import random
from fractions import Fraction

import pytest

from conftest import poly_eval
from godeaux_lines.families import sample_component_line, z3_line, z5_line
from godeaux_lines.fields import PrimeField, QQ, is_prime
from godeaux_lines.geometry import GeometryError, ROW_TRIPLES, LineA, a_matrix_values
from godeaux_lines.linalg import nullspace, rank
from godeaux_lines.pencil import (
    BinaryForm,
    _divisors,
    _gcd,
    _mulmod,
    _pow_linear,
    _trim,
    binary_gcd,
    binary_roots,
    degeneration_profile,
    graded_kernel_basis,
    linear_form,
)
from godeaux_lines.polynomials import Poly, PolyMatrix, PolynomialError, VarTable
from godeaux_lines.sampling import STRATEGIES, sample_line
from godeaux_lines.strata import TORSION_SPACES


# ----------------------------------------------------------------------
# binary forms


def test_zero_form_has_degree_tag(f31):
    z = BinaryForm.zero(f31, 3)
    assert z.is_zero() and z.degree == 3


def form_value(f, s, t):
    """f at (s, t), term by term."""
    d = f.degree
    return f.field.canonical(sum(c * s ** (d - k) * t ** k for k, c in enumerate(f.coeffs)))


def test_form_arithmetic(f31):
    f = linear_form(f31, 1, 2)
    g = linear_form(f31, 3, 4)
    assert str(f * g) == "3*s^2 + 10*s*t + 8*t^2"
    assert form_value(f * g, 1, 1) == 21
    assert (f + g).coeffs == (4, 6)


def test_binary_gcd_strips_and_normalizes(f31):
    s, t = linear_form(f31, 1, 0), linear_form(f31, 0, 1)
    common = linear_form(f31, 2, 6)
    f = common * s * s
    g = common * t * linear_form(f31, 5, 1)
    h = binary_gcd([f, g])
    assert str(h) == "s + 3*t"  # monic
    assert binary_gcd([BinaryForm.zero(f31, 2), f]).coeffs == binary_gcd([f]).coeffs


def test_binary_gcd_of_zero_forms_is_tagged_zero(f31):
    g = binary_gcd([BinaryForm.zero(f31, 2), BinaryForm.zero(f31, 4)])
    assert g.is_zero()


def test_roots_over_prime_field(f31):
    f = linear_form(f31, 1, 28) * linear_form(f31, 1, 28) * linear_form(f31, 0, 1)
    roots = dict(binary_roots(f))
    # s + 28 t has root s/t = 3; the t factor adds (1:0)
    assert roots[(3, 1)] == 2
    assert roots[(1, 0)] == 1


def scan_roots(f):
    """Oracle: evaluate at every point of P^1(F_p); same list contract."""
    F = f.field
    t_mult = next(k for k, c in enumerate(f.coeffs) if c)
    roots = [((1, 0), t_mult)] if t_mult else []
    for x in range(F.p):
        m = 0
        g = f
        while g.degree and form_value(g, x, 1) == 0:
            # divide the dehomogenized part by (x - root): synthetic division
            q, acc = [], 0
            for c in g.coeffs:
                acc = F.add(F.mul(acc, x), c)
                q.append(acc)
            g = BinaryForm(F, g.degree - 1, q[:-1])
            m += 1
        if m:
            roots.append(((x, 1), m))
    return roots


def random_irreducible_quadratic(F, rng):
    while True:
        b, c = F.random(rng), F.random(rng)
        if all((x * x + b * x + c) % F.p for x in range(F.p)):
            return BinaryForm(F, 2, (1, b, c))


def random_factored_form(F, rng):
    """A random form of degree 1..6 from linear factors (often repeated),
    irreducible quadratics and powers of t."""
    p = F.p
    target = rng.randint(1, 6)
    f = None
    pool = []
    while f is None or f.degree < target:
        kind = rng.random()
        if kind < 0.2:
            factor = linear_form(F, 0, 1)  # t: a root at (1:0)
        elif kind < 0.4 and (f is None or f.degree + 2 <= target):
            factor = random_irreducible_quadratic(F, rng)
        elif kind < 0.7 and pool:
            factor = rng.choice(pool)  # a repeated linear factor
        else:
            factor = linear_form(F, rng.randrange(1, p), rng.randrange(p))
            pool.append(factor)
        f = factor if f is None else f * factor
    return f * BinaryForm(F, 0, (rng.randrange(1, p),))


SMALL_PRIMES = [p for p in range(2, 102) if is_prime(p)]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_prime_field_roots_match_p1_scan(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(30):
        f = random_factored_form(F, rng)
        assert binary_roots(f) == scan_roots(f), f
    for _ in range(30):
        d = rng.randint(1, 6)
        f = BinaryForm(F, d, [rng.randrange(p) for _ in range(d + 1)])
        if not f.is_zero():
            assert binary_roots(f) == scan_roots(f), f


@pytest.mark.parametrize("p", [3, 31, 10007, 2**61 - 1])
def test_pow_linear_matches_mulmod_by_x_plus_a(p):
    # each multiply by x + a is one pass over the coefficients; square-and-
    # multiply through _mulmod(F, out, [a, 1], f) must give the same list,
    # for monic moduli of degree 1 to 8 (sparse ones included), a = 0, 1,
    # p - 1 or random, and exponents from 0 to (p - 1) / 2 and past it
    F = PrimeField(p)
    rng = random.Random(p)

    def oracle(a, e, f):
        out = [1]
        for bit in bin(e)[2:]:
            out = _mulmod(F, out, out, f)
            if bit == "1":
                out = _mulmod(F, out, [a, 1], f)
        return out

    for degree in range(1, 9):
        for _ in range(40):
            f = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(degree)] + [1]
            a = rng.choice((0, 1, p - 1, rng.randrange(p)))
            for e in (0, 1, 2, 3, (p - 1) // 2, rng.randrange(1, 10**6)):
                assert _pow_linear(F, a, e, f) == oracle(a, e, f), (f, a, e)


def test_roots_of_linear_forms_closed_form(f31):
    assert binary_roots(linear_form(f31, 2, 6)) == [((28, 1), 1)]
    assert binary_roots(linear_form(f31, 0, 5)) == [((1, 0), 1)]
    assert binary_roots(linear_form(f31, 7, 0)) == [((0, 1), 1)]


@pytest.mark.parametrize("p", [100003, 1000003, 2**31 - 1, 2**61 - 1])
def test_roots_over_large_prime_fields(p):
    F = PrimeField(p)
    rng = random.Random(p)
    r1, r2, r3 = sorted(rng.sample(range(p), 3))
    lin = lambda r: linear_form(F, 1, F.neg(r))
    # x^2 - n for a non-residue n is irreducible
    n = next(n for n in range(2, 100) if pow(n, (p - 1) // 2, p) == p - 1)
    quad = BinaryForm(F, 2, (1, 0, F.neg(n)))
    t = linear_form(F, 0, 1)
    f = lin(r2) * lin(r1) * lin(r2) * quad * t * t * lin(r3) * BinaryForm(F, 0, (5,))
    assert binary_roots(f) == [((1, 0), 2), ((r1, 1), 1), ((r2, 1), 2), ((r3, 1), 1)]
    assert binary_roots(quad) == []


def test_roots_over_rationals():
    from fractions import Fraction

    f = linear_form(QQ, 2, -3) * linear_form(QQ, 1, 5) * linear_form(QQ, 1, 0)
    roots = dict(binary_roots(f))
    assert roots[(Fraction(3, 2), Fraction(1))] == 1
    assert roots[(Fraction(-5), Fraction(1))] == 1
    assert roots[(Fraction(0), Fraction(1))] == 1
    # the documented order: the rational root theorem's, not ascending
    g = (linear_form(QQ, 1, -2) * linear_form(QQ, 1, 1)
         * linear_form(QQ, 3, -1) * linear_form(QQ, 1, 3))
    assert [st[0] for st, _ in binary_roots(g)] == [-1, Fraction(1, 3), 2, -3]


# ----------------------------------------------------------------------
# the earlier univariate toolkit (high power of s first, field methods),
# kept as the oracle for binary_gcd, binary_roots, _gcd and str


def old_dehomogenize(f: BinaryForm):
    """Coefficients of f(x, 1) as a high-to-low list, trimmed."""
    F = f.field
    coeffs = list(f.coeffs)
    while coeffs and F.is_zero(coeffs[0]):
        coeffs.pop(0)
    return coeffs


def old_poly_mod(field, a, b):
    a = list(a)
    db, lb = len(b) - 1, b[0]
    inv = field.inv(lb)
    while len(a) - 1 >= db and a:
        if field.is_zero(a[0]):
            a.pop(0)
            continue
        f = field.mul(a[0], inv)
        for i in range(db + 1):
            a[i] = field.sub(a[i], field.mul(f, b[i]))
        a.pop(0)
    while a and field.is_zero(a[0]):
        a.pop(0)
    return a


def old_poly_gcd(field, a, b):
    while b:
        a, b = b, old_poly_mod(field, a, b)
    return a


def old_eval_poly(field, coeffs, x):
    acc = 0
    for c in coeffs:
        acc = field.add(field.mul(acc, x), c)
    return acc


def old_multiplicity(field, coeffs, x):
    m = 0
    while True:
        q = []
        acc = 0
        for c in coeffs:
            acc = field.add(field.mul(acc, x), c)
            q.append(acc)
        if not field.is_zero(q[-1]):
            return m
        m += 1
        coeffs = q[:-1]
        if not coeffs:
            return m


def old_binary_gcd(forms):
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return BinaryForm.zero(forms[0].field, 0)
    F = nonzero[0].field
    t_mult = min(
        next(k for k, c in enumerate(f.coeffs) if not F.is_zero(c)) for f in nonzero
    )
    g = None
    for f in nonzero:
        u = old_dehomogenize(f)
        g = u if g is None else old_poly_gcd(F, g, u)
        if len(g) == 1:
            break
    e = len(g) - 1
    ghom = [0] * (e + t_mult + 1)
    inv = F.inv(g[0])  # monic: the first nonzero coefficient becomes 1
    for j, c in enumerate(g):
        ghom[t_mult + j] = F.mul(inv, c)
    return BinaryForm(F, e + t_mult, ghom)


def old_rational_roots(F, coeffs):
    den_lcm = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * den_lcm) for c in coeffs]
    zero_mult = 0
    while ints and ints[-1] == 0:
        ints.pop()
        zero_mult += 1
    out = []
    if zero_mult:
        out.append(((Fraction(0), Fraction(1)), zero_mult))
    if len(ints) <= 1:
        return out
    lead, trail = abs(ints[0]), abs(ints[-1])
    for num in _divisors(trail):
        for den in _divisors(lead):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if old_eval_poly(F, ints, cand) == 0:
                    if all(r != cand for (r, _), _ in out):
                        out.append(((cand, Fraction(1)), old_multiplicity(F, ints, cand)))
    return out


def old_distinct_root_count(F, u):
    """deg gcd(u, x^p - x) for the high-first u over F_p: x^p mod u by
    square-and-multiply with a schoolbook product."""
    def mulmod(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = F.add(prod[i + j], F.mul(x, y))
        return old_poly_mod(F, prod, u)

    xp = [1]
    for bit in bin(F.p)[2:]:
        xp = mulmod(xp, xp) if xp else []
        if bit == "1":
            xp = mulmod(xp, [1, 0]) if xp else []
    diff = list(xp)
    while len(diff) < 2:
        diff.insert(0, 0)
    diff[-2] = F.sub(diff[-2], 1)
    while diff and F.is_zero(diff[0]):
        diff.pop(0)
    return len(old_poly_gcd(F, u, diff)) - 1


def old_roots(f, candidates):
    """binary_roots as the parent computed it: (1:0) first, then the finite
    roots among ``candidates`` in their order (every x for F_p, sorted),
    or the rational root theorem's roots over Q."""
    F = f.field
    t_mult = next(k for k, c in enumerate(f.coeffs) if not F.is_zero(c))
    roots = [((1, 0), t_mult)] if t_mult else []
    u = old_dehomogenize(f)
    if len(u) == 1:
        return roots
    if F == QQ:
        return roots + old_rational_roots(F, u)
    for x in candidates:
        if F.is_zero(old_eval_poly(F, u, x)):
            roots.append(((x, 1), old_multiplicity(F, u, x)))
    return roots


def old_str(f: BinaryForm):
    F = f.field
    parts = []
    for k, c in enumerate(f.coeffs):
        if F.is_zero(c):
            continue
        mono = []
        if f.degree - k:
            mono.append("s" if f.degree - k == 1 else f"s^{f.degree - k}")
        if k:
            mono.append("t" if k == 1 else f"t^{k}")
        cs = F.format_scalar(c)
        if mono and cs == "1":
            parts.append("*".join(mono))
        elif mono and cs == "-1":
            parts.append("-" + "*".join(mono))
        elif mono:
            parts.append(cs + "*" + "*".join(mono))
        else:
            parts.append(cs)
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


ORACLE_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(31), PrimeField(99991),
                 PrimeField(2**61 - 1), QQ]


def nonzero_scalar(F, rng):
    if F == QQ:
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.choice((1, 2, 3)))
    return rng.randrange(1, F.p)


def random_oracle_form(F, rng, pool):
    """A zero form, a constant, a pure power of s or of t, a form with one
    nonzero coefficient, a dense random form, or a product of linear
    factors with repeats; the roots of those factors go into ``pool``."""
    kind = rng.randrange(7)
    d = rng.randint(1, 6)
    if kind == 0:
        return BinaryForm.zero(F, rng.randint(0, 6))
    if kind == 1:
        return BinaryForm(F, 0, (nonzero_scalar(F, rng),))
    if kind in (2, 3):
        coeffs = [0] * (d + 1)
        coeffs[rng.choice((0, d)) if kind == 2 else rng.randint(0, d)] = nonzero_scalar(F, rng)
        return BinaryForm(F, d, coeffs)
    if kind == 4:
        zero_share = rng.random()
        return BinaryForm(F, d, [
            0 if rng.random() < zero_share else nonzero_scalar(F, rng) for _ in range(d + 1)
        ])
    f = BinaryForm(F, 0, (nonzero_scalar(F, rng),))
    for _ in range(d):
        if rng.random() < 0.15:
            factor = linear_form(F, 0, 1)  # t: a root at (1:0)
        else:
            if pool and rng.random() < 0.5:
                root = rng.choice(pool)  # a repeated root
            else:
                root = nonzero_scalar(F, rng) if rng.random() < 0.8 else 0
                pool.append(root)
            a = rng.choice((1, 2, 3)) if F == QQ else nonzero_scalar(F, rng)
            factor = linear_form(F, a, F.neg(F.mul(a, root)))
        f = f * factor
    return f


def oracle_candidates(F, got, pool):
    """Every x of a small F_p; else the pool's roots and those reported."""
    if F == QQ:
        return None
    if F.p <= 31:
        return range(F.p)
    return sorted(set(pool) | {st[0] for st, _ in got if st[1] == 1})


@pytest.mark.parametrize("F", ORACLE_FIELDS, ids=str)
def test_roots_and_text_match_the_earlier_toolkit(F):
    rng = random.Random(str(F))
    pool = []
    kinds = set()
    for _ in range(250):
        f = random_oracle_form(F, rng, pool)
        assert str(f) == old_str(f)
        if f.is_zero():
            with pytest.raises(ValueError):
                binary_roots(f)
            kinds.add("zero")
            continue
        got = binary_roots(f)
        assert got == old_roots(f, oracle_candidates(F, got, pool)), f
        u = old_dehomogenize(f)
        if F != QQ and F.p > 31 and len(u) > 1:
            # the candidates hold every root: count them independently
            assert sum(st[1] == 1 for st, _ in got) == old_distinct_root_count(F, u), f
        kinds.add("constant" if f.degree == 0 else "root" if got else "rootless")
        kinds.update("repeated" for _, m in got if m > 1)
    assert kinds >= {"zero", "constant", "root", "repeated"}


@pytest.mark.parametrize("F", ORACLE_FIELDS, ids=str)
def test_binary_gcd_matches_the_earlier_toolkit(F):
    rng = random.Random(str(F))
    pool = []
    degrees = set()
    for _ in range(150):
        common = random_oracle_form(F, rng, pool)
        if common.is_zero():
            common = BinaryForm(F, 0, (1,))
        forms = []
        for _ in range(rng.randint(1, 4)):
            f = random_oracle_form(F, rng, pool)
            forms.append(f * common if rng.random() < 0.7 else f)
        got, want = binary_gcd(forms), old_binary_gcd(forms)
        assert (got.degree, got.coeffs) == (want.degree, want.coeffs), forms
        degrees.add(min(got.degree, 2))
    assert degrees == {0, 1, 2}


def test_gcd_over_q_matches_the_earlier_toolkit():
    rng = random.Random(3)
    pool = []
    for _ in range(200):
        common = random_oracle_form(QQ, rng, pool)
        a, b = (random_oracle_form(QQ, rng, pool) * common for _ in range(2))
        if a.is_zero():
            continue
        low = lambda f: _trim(list(reversed(f.coeffs)))
        want = old_poly_gcd(QQ, old_dehomogenize(a), old_dehomogenize(b))
        inv = QQ.inv(want[0])
        assert _gcd(QQ, low(a), low(b)) == [c * inv for c in reversed(want)]


# ----------------------------------------------------------------------
# the l1 restriction: the skew blocks the oracle works on


ST = VarTable(("s", "t"))


def st_form(F, a, b) -> Poly:
    """The linear form a*s + b*t as a polynomial over (s, t)."""
    return Poly(ST, F, {(1, 0): F.canonical(a), (0, 1): F.canonical(b)})


def skew_block(r0: Poly, r1: Poly, r2: Poly) -> PolyMatrix:
    """[[0, r2, -r1], [-r2, 0, r0], [r1, -r0, 0]]: (r0, r1, r2)^t is in its kernel."""
    z = Poly.zero(ST, r0.field)
    return PolyMatrix(ST, r0.field, [[z, r2, -r1], [-r2, z, r0], [r1, -r0, z]])


def l1_blocks(line: LineA) -> list:
    """The four 3x3 skew blocks of the a-row matrix restricted to the line."""
    return [
        skew_block(*(st_form(line.field, *line.restrict_coordinate(j)) for j in triple))
        for triple in ROW_TRIPLES
    ]


def restrict_l1(line: LineA) -> PolyMatrix:
    """The 12x12 block-diagonal skew matrix of the line (four 3x3 blocks)."""
    F = line.field
    z = Poly.zero(ST, F)
    entries = [[z for _ in range(12)] for _ in range(12)]
    for b, block in enumerate(l1_blocks(line)):
        for i in range(3):
            for j in range(3):
                entries[3 * b + i][3 * b + j] = block.entries[i][j]
    return PolyMatrix(ST, F, entries)


def evaluate(M: PolyMatrix, s, t) -> list:
    """The matrix of values of M's entries at (s, t)."""
    return [[poly_eval(p, (s, t)) for p in row] for row in M.entries]


def test_restrict_l1_block_structure(generic_line, f31):
    M = restrict_l1(generic_line)
    assert M.nrows == M.ncols == 12
    for i in range(12):
        assert M.entries[i][i].is_zero()
        for j in range(12):
            if i // 3 != j // 3:
                assert M.entries[i][j].is_zero()
            assert M.entries[i][j] == -M.entries[j][i]


def test_restrict_l1_evaluation_matches_a_matrix(generic_line, f31):
    # at (s, t) = (1, 0) the blocks are built from the first Stiefel row
    blocks = l1_blocks(generic_line)
    avals = a_matrix_values(generic_line.rows[0])
    triples = [
        (avals[0][0], avals[0][1], avals[0][3]),
        (avals[1][0], avals[1][2], avals[1][4]),
        (avals[2][1], avals[2][2], avals[2][5]),
        (avals[3][3], avals[3][4], avals[3][5]),
    ]
    for block, (r0, r1, r2) in zip(blocks, triples):
        expect = [[0, r2, f31.neg(r1)], [f31.neg(r2), 0, r0], [r1, f31.neg(r0), 0]]
        assert evaluate(block, 1, 0) == expect


def test_generic_blocks_have_rank_2(generic_line, f31):
    for block in l1_blocks(generic_line):
        for st in ((1, 0), (0, 1), (1, 1)):
            assert rank(f31, evaluate(block, *st)) == 2


def test_z5_blocks_single_entry_patterns(z5_example, f31):
    # restricted rows are (0, t, 0), (s, 0, 0), (0, 0, s), (0, t, 0) patterned
    seen = []
    for triple in ROW_TRIPLES:
        forms = [z5_example.restrict_coordinate(j) for j in triple]
        seen.append(tuple((a, b) for a, b in forms))
    assert seen == [
        ((0, 0), (0, 1), (0, 0)),
        ((1, 0), (0, 0), (0, 0)),
        ((0, 0), (0, 0), (1, 0)),
        ((0, 0), (0, 1), (0, 0)),
    ]


# ----------------------------------------------------------------------
# graded kernels


def test_single_skew_block_kernel_is_radial(f31):
    r = (st_form(f31, 1, 2), st_form(f31, 3, 4), st_form(f31, 5, 11))
    block = skew_block(*r)
    gens = graded_kernel_basis(block, 3)
    assert [d for d, _ in gens] == [1]
    vec = gens[0][1]
    assert all(f.is_zero() for f in block.apply(vec))
    # proportional to (r0, r1, r2)
    lam = f31.div(vec[0].terms[(1, 0)], r[0].terms[(1, 0)])
    for f, expect in zip(vec, r):
        assert f == expect.scale(lam)


def test_generic_line_degrees_1111(generic_line, f31):
    M = restrict_l1(generic_line)
    gens = graded_kernel_basis(M, 2)
    assert sorted(d for d, _ in gens) == [1, 1, 1, 1]
    for d, vec in gens:
        assert all(f.is_zero() for f in M.apply(vec))
    # evaluation-rank oracle at 3 parameter values: kernel dim 4 pointwise
    for st in ((1, 0), (0, 1), (1, 5)):
        assert len(nullspace(f31, evaluate(M, *st), 12)) == 4


def test_z5_line_degrees_0000(z5_example):
    M = restrict_l1(z5_example)
    gens = graded_kernel_basis(M, 2)
    assert sorted(d for d, _ in gens) == [0, 0, 0, 0]


def test_zero_matrix_standard_basis(f31):
    z = Poly.zero(ST, f31)
    M = PolyMatrix(ST, f31, [[z] * 3 for _ in range(3)])
    gens = graded_kernel_basis(M, 2)
    assert [d for d, _ in gens] == [0, 0, 0]
    flat = [[poly_eval(f, (0, 0)) for f in vec] for _, vec in gens]
    assert flat == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_graded_kernel_needs_forms_of_one_degree(f31):
    s, t = st_form(f31, 1, 0), st_form(f31, 0, 1)
    with pytest.raises(PolynomialError):
        graded_kernel_basis(PolyMatrix(ST, f31, [[s, t * t]]))
    with pytest.raises(PolynomialError):
        graded_kernel_basis(PolyMatrix(ST, f31, [[s, s + Poly.constant(ST, f31, 1)]]))
    xyz = VarTable(("x", "y", "z"))
    with pytest.raises(PolynomialError):
        graded_kernel_basis(PolyMatrix(xyz, f31, [[Poly.variable(xyz, f31, "x")]]))


def test_kernel_generators_annihilate_exactly(two_hyp_line):
    M = restrict_l1(two_hyp_line)
    for d, vec in graded_kernel_basis(M, 2):
        assert all(f.is_zero() for f in M.apply(vec))


# ----------------------------------------------------------------------
# degeneration profiles


def test_generic_profile(generic_line):
    prof = degeneration_profile(generic_line)
    assert prof.degree_sequence == (1, 1, 1, 1)
    assert prof.rank_drop_points == ()


def test_z5_profile(z5_example):
    prof = degeneration_profile(z5_example)
    assert prof.degree_sequence == (0, 0, 0, 0)
    assert sorted(prof.rank_drop_points) == sorted(
        (((1, 0), 0), ((0, 1), 1), ((0, 1), 2), ((1, 0), 3))
    )


def test_z3_profile_recomputed(f31):
    # exact recomputation: at u=(1,1,1,1), w=(1,2), z=(1,1) the restricted
    # row triples are (s+t,4t,-4t), (s,4t,-4t), (-2t,2t,s), (-2t,2t,s+8t);
    # every triple has trivial gcd, so the degrees stay (1,1,1,1)
    line = z3_line(f31, (1, 1, 1, 1), (1, 2), (1, 1))
    expected_triples = [
        ((1, 1), (0, 4), (0, -4 % 31)),
        ((1, 0), (0, 4), (0, -4 % 31)),
        ((0, -2 % 31), (0, 2), (1, 0)),
        ((0, -2 % 31), (0, 2), (1, 8)),
    ]
    seen = [
        tuple(line.restrict_coordinate(j) for j in triple) for triple in ROW_TRIPLES
    ]
    assert seen == expected_triples
    prof = degeneration_profile(line)
    assert prof.degree_sequence == (1, 1, 1, 1)
    assert prof.rank_drop_points == ()


def test_degree_sequence_gl2_invariant(z5_example, generic_line, two_hyp_line):
    for line in (z5_example, generic_line, two_hyp_line):
        prof = degeneration_profile(line)
        moved = degeneration_profile(line.transformed(((1, 4), (2, 9))))
        assert prof.degree_sequence == moved.degree_sequence
        assert len(prof.rank_drop_points) == len(moved.rank_drop_points)


def test_interpolation_consistency(hyp_line, generic_line, z5_example, f31):
    # away from rank-drop points the numeric kernel dimension equals the
    # span of the evaluated graded generators; at rank-drop points the
    # numeric fiber can only jump up
    for line in (hyp_line, generic_line, z5_example):
        M = restrict_l1(line)
        gens = graded_kernel_basis(M, 2)
        drops = {root for root, _ in degeneration_profile(line).rank_drop_points}
        for st in ((1, 0), (0, 1), (2, 3), (1, 7), (1, 1)):
            numeric = len(nullspace(f31, evaluate(M, *st), 12))
            evaluated = [[poly_eval(f, st) for f in vec] for _, vec in gens]
            pointwise = rank(f31, evaluated)
            s, t = st  # (s : t) as the roots are normalized: t = 1, or (1, 0)
            if ((f31.canonical(s * f31.inv(t)), 1) if t else (1, 0)) in drops:
                assert pointwise <= numeric
            else:
                assert pointwise == numeric


def oracle_profile(line):
    """Block degrees from the graded-kernel solve, drop points from the
    roots of the row forms' GCD: the general machinery the closed form in
    :func:`degeneration_profile` replaces."""
    F = line.field
    degrees, drops = [], []
    for b, triple in enumerate(ROW_TRIPLES):
        pairs = [line.restrict_coordinate(j) for j in triple]
        block = skew_block(*(st_form(F, *ab) for ab in pairs))
        degrees.append(tuple(d for d, _ in graded_kernel_basis(block)))
        g = binary_gcd([linear_form(F, *ab) for ab in pairs])
        if g.is_zero():
            drops.append((None, b))
        else:
            drops += [(root, b) for root, _ in binary_roots(g)]
    return tuple(degrees), tuple(drops)


def random_reparametrization(line, rng):
    F = line.field
    draw = (lambda: rng.randint(-9, 9)) if F == QQ else (lambda: rng.randrange(F.p))
    while True:
        try:
            return line.transformed(((draw(), draw()), (draw(), draw())))
        except GeometryError:
            continue  # singular matrix


def oracle_lines():
    rng = random.Random(20)
    f13, f31 = PrimeField(13), PrimeField(31)
    lines = []
    for F in (f31, QQ):
        lines += [z5_line(F, *(int(i != k) for i in range(4))) for k in range(4)]
    lines += [z5_line(f31, *(f31.random_nonzero(rng) for _ in range(4))) for _ in range(4)]
    lines += [z5_line(QQ, *(rng.randint(1, 9) for _ in range(4))) for _ in range(2)]
    lines += [z3_line(QQ, [rng.randint(1, 5) for _ in range(4)], [1, 2], [3, 1]) for _ in range(2)]
    for p in (3, 5, 7, 31):
        F = PrimeField(p)
        lines += [z5_line(F, *(F.random_nonzero(rng) for _ in range(4))) for _ in range(2)]
        for a, b in ((0, 1), (1, 2), (0, 2)):
            lines += [sample_component_line(F, TORSION_SPACES[a], TORSION_SPACES[b], rng)
                      for _ in range(2)]
    lines += [sample_line(strategy, f13, seed) for strategy in STRATEGIES for seed in range(6)]
    return lines + [random_reparametrization(line, rng) for line in lines]


def test_profile_matches_graded_kernel_oracle():
    lines = oracle_lines()
    assert len(lines) >= 100
    patterns = set()
    for line in lines:
        prof = degeneration_profile(line)
        assert (prof.block_degrees, prof.rank_drop_points) == oracle_profile(line), line
        patterns.update(prof.block_degrees)
    assert patterns == {(1,), (0,), (0, 0, 0)}
