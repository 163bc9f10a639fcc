"""Binary forms, their GCDs and roots, and the degeneration profile of a line.

Restricting the twelve a-coordinates to a line turns every a-linear matrix
into a matrix of binary forms in the line parameters (s : t).  Each row of
the a-matrix gives a triple r = (r0, r1, r2) of linear forms (ROW_TRIPLES)
and with it the 3x3 skew block

    [[ 0,   r2, -r1],
     [-r2,  0,   r0],
     [ r1, -r0,  0 ]]

whose kernel over k[s, t] is generated by r / gcd(r).  So the block's
kernel degrees are read off the row forms in closed form
(:func:`degeneration_profile`): (1,) when the three forms have no common
root, (0,) when they share one (the point where the block's rank drops),
and (0, 0, 0) when all three vanish identically.  A generic line gives
(1,) for every block.

:func:`graded_kernel_basis` finds the graded kernel generators of any
matrix of binary forms, given as a :class:`~godeaux_lines.polynomials.PolyMatrix`
over (s, t), from one bounded-degree kernel solve; the package itself does
not call it, and the tests use it as the oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Sequence

from .fields import Field, PrimeField, RationalField
from .geometry import GeometryError, LineA, ROW_TRIPLES, line_in_q
from .linalg import rank
from .polynomials import Poly, PolyMatrix, PolynomialError, _format_terms, bounded_degree_kernel


class BinaryForm:
    """A homogeneous form in (s, t): coeffs[k] multiplies s^(d-k) t^k.

    The zero form carries an explicit degree tag so matrices stay
    degree-homogeneous.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: Field, degree: int, coeffs):
        coeffs = tuple(map(field.canonical, coeffs))
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("BinaryForm is immutable")

    @classmethod
    def zero(cls, field: Field, degree: int) -> "BinaryForm":
        return cls(field, degree, (0,) * (degree + 1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if other.degree != self.degree or other.field != self.field:
            raise ValueError("binary form addition needs matching degree and field")
        return BinaryForm(self.field, self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.field, self.degree, [-c for c in self.coeffs])

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        return BinaryForm(self.field, self.degree + other.degree, _mul(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and other.field == self.field
            and other.degree == self.degree
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.degree, self.coeffs))

    def __str__(self):
        F, d = self.field, self.degree
        return _format_terms(F, (
            (c, (("s", d - k), ("t", k))) for k, c in enumerate(self.coeffs) if c
        ))

    def __repr__(self):
        return f"BinaryForm({self})"


def linear_form(field: Field, s_coeff, t_coeff) -> BinaryForm:
    return BinaryForm(field, 1, (s_coeff, t_coeff))


#: what :func:`_common_root` returns when every form is identically zero
ALL_ZERO = "all forms zero"


def _common_root(field: Field, forms):
    """The common root in P^1 of linear forms a*s + b*t given as (a, b) pairs.

    Returns the root normalized as :func:`binary_roots` gives it (t = 1,
    or (1, 0)), None when the forms have no common root, and ALL_ZERO
    when every form vanishes identically.
    """
    nonzero = [(a, b) for a, b in forms if a or b]
    if not nonzero:
        return ALL_ZERO
    a, b = nonzero[0]
    root = (field.canonical(-b * field.inv(a)), 1) if a else (1, 0)  # (-b : a)
    for a, b in nonzero[1:]:
        if field.canonical(root[0] * a + root[1] * b):
            return None
    return root


# ----------------------------------------------------------------------
# binary forms as univariate polynomials, one toolkit for every field
#
# A nonzero form f is read in the chart t = 1 as f(x, 1), a list of canonical
# coefficients, low power first, ending in a nonzero one ([] is zero); the
# power of t dividing f, its root at (1:0), is tracked apart.  The helpers
# compute with the values' own + - * and reduce each output with F.canonical.


def binary_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """GCD of binary forms, monic; the zero form (degree 0 tag) if all are zero.

    Finite roots are handled by a univariate Euclid in the t = 1 chart; the
    common power of t (the root at (1:0)) is tracked separately.
    """
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return BinaryForm.zero(forms[0].field, 0)
    F = nonzero[0].field
    t_mult = min(next(k for k, c in enumerate(f.coeffs) if c) for f in nonzero)
    g = []
    for f in nonzero:
        g = _gcd(F, _trim(list(reversed(f.coeffs))), g)
        if len(g) == 1:
            break
    return BinaryForm(F, len(g) - 1 + t_mult, [0] * t_mult + g[::-1])


def binary_roots(f: BinaryForm):
    """Roots of a nonzero binary form over its field, with multiplicities.

    Returns a list of ((s, t), multiplicity) with (s, t) normalized to
    t = 1 or (1, 0), the root (1:0) first.  Over F_p (any prime p < 2^63)
    the finite roots follow in ascending order, found exactly in time
    polynomial in log p (:func:`_fp_roots`) and each re-verified by exact
    evaluation before it is emitted.  Over the rationals they follow in the
    order the rational root theorem tries its candidates
    (:func:`_rational_roots`): 0 first, then n/d and -n/d for the divisors
    n of the lowest nonzero coefficient and d of the leading one
    (denominators cleared), by n, then d.  So (s - 2t)(s + t)(3s - t)(s + 3t)
    gives -1, 1/3, 2, -3.
    """
    if f.is_zero():
        raise ValueError("the zero form has no well-defined root list")
    F = f.field
    roots = []
    t_mult = next(k for k, c in enumerate(f.coeffs) if c)
    if t_mult:
        roots.append(((1, 0), t_mult))
    u = _trim(list(reversed(f.coeffs)))
    if len(u) == 1:
        return roots
    if isinstance(F, PrimeField):
        for x in _fp_roots(F, u):
            m = _multiplicity(F, u, x)
            if not m:
                raise ArithmeticError(f"root finder emitted a non-root {x} over {F}")
            roots.append(((x, 1), m))
    elif isinstance(F, RationalField):
        roots.extend(_rational_roots(F, u))
    else:
        raise ValueError(f"root finding not implemented over {F}")
    return roots


def _fp_roots(F: PrimeField, u):
    """The distinct roots in F_p of a nonconstant polynomial, ascending.

    A linear polynomial gives its root in closed form.  Otherwise the
    product of the distinct linear factors, gcd(f, x^p - x), is taken by
    modular powering and split by :func:`_split_linear` (Cantor-Zassenhaus;
    von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).  The
    powering passes through h = x^((p - 1)/2) mod f (x^p = h^2 x), which
    the split reuses.
    """
    p = F.p
    f = _monic(F, u)
    h = None
    if len(f) > 2:
        h = _pow_linear(F, 0, p // 2, f)  # x^((p - 1)/2) for odd p
        xp = _mulmod(F, _mulmod(F, h, h, f), [0, 1] if p % 2 else [1], f)
        f = _gcd(F, f, _sub(F, xp, [0, 1]))
    return sorted(_split_linear(F, f, h))


def _split_linear(F: PrimeField, g, h=None):
    """Roots of a monic product g of distinct linear factors over F_p.

    g is split by gcd(g, (x + a)^((p - 1)/2) - 1) for a = 0, 1, 2, ...;
    for two distinct roots some a < p puts them on different sides, so
    the loop ends.  ``h``, when given, is x^((p - 1)/2) modulo a multiple
    of g and stands in for the a = 0 power.  Over F_2, g divides x^2 + x
    and ``h`` is not used.
    """
    p = F.p
    if len(g) <= 2:
        return [F.canonical(-g[0])] if len(g) == 2 else []
    if p == 2:
        return [0, 1]
    for a in count():
        if a == 0 and h is not None:
            t = _divmod(F, h, g)[1]
        else:
            t = _pow_linear(F, a, (p - 1) // 2, g)
        d = _gcd(F, g, _sub(F, t, [1]))
        if 1 < len(d) < len(g):
            return _split_linear(F, d, h) + _split_linear(F, _divmod(F, g, d)[0], h)


def _rational_roots(F: RationalField, coeffs):
    den_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den_lcm) for c in coeffs]
    zero_mult = next(k for k, c in enumerate(ints) if c)
    ints = ints[zero_mult:]
    out = []
    if zero_mult:
        out.append(((0, 1), zero_mult))
    if len(ints) <= 1:
        return out
    lead, trail = abs(ints[-1]), abs(ints[0])
    for num in _divisors(trail):
        for den in _divisors(lead):
            for cand in (F.canonical(Fraction(num, den)), F.canonical(Fraction(-num, den))):
                if all(r != cand for (r, _), _ in out):
                    m = _multiplicity(F, ints, cand)
                    if m:
                        out.append(((cand, 1), m))
    return out


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _multiplicity(F: Field, a, x):
    """How often x is a root of the nonzero a: synthetic divisions by (x - root)."""
    red = F.canonical
    m = 0
    while True:
        acc = 0
        q = []
        for c in reversed(a):
            acc = red(acc * x + c)
            q.append(acc)
        if q.pop():
            return m
        m += 1
        a = q[::-1]


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _monic(F: Field, a):
    red = F.canonical
    inv = F.inv(a[-1])
    return [red(c * inv) for c in a]


def _sub(F: Field, a, b):
    red = F.canonical
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = red(out[i] - c)
    return _trim(out)


def _divmod(F: Field, a, f):
    """Quotient and remainder of a by the monic f."""
    red = F.canonical
    n = len(f) - 1
    r = list(a)
    q = [0] * max(len(r) - n, 0)
    for k in range(len(r) - n - 1, -1, -1):
        c = red(r[k + n])
        if c:
            q[k] = c
            for i in range(n):
                r[k + i] -= c * f[i]
    return _trim(q), _trim([red(c) for c in r[:n]])


def _mul(a, b):
    """The product of two coefficient lists, unreduced."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                prod[k] += x * y
    return prod


def _mulmod(F: Field, a, b, f):
    """a * b modulo the monic f of degree n >= 1, for a, b of degree < n."""
    red = F.canonical
    n = len(f) - 1
    prod = _mul(a, b)
    for k in range(len(prod) - n - 1, -1, -1):
        c = red(prod.pop())
        if c:
            for i in range(n):
                prod[k + i] -= c * f[i]
    return _trim([red(c) for c in prod])


def _pow_linear(F: Field, a, e, f):
    """(x + a)^e modulo the monic f, by square-and-multiply; times x + a is
    one pass: a shift, a multiply-add per coefficient, one reduction step."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod(F, out, out, f)
        if bit == "1":
            c = out[-1] if len(out) == len(f) - 1 else 0  # the x^n coefficient of x out
            out = _trim([F.canonical(u + a * v - c * w) for u, v, w in zip([0] + out, out + [0], f)])
    return out


def _gcd(F: Field, a, b):
    """Monic GCD of a (nonzero) and b."""
    while b:
        b = _monic(F, b)
        a, b = b, _divmod(F, a, b)[1]
    return _monic(F, a)


# ----------------------------------------------------------------------
# graded kernel bases


def graded_kernel_basis(M: PolyMatrix, max_degree: int = 4):
    """Minimal generators (degree by degree) of the graded kernel of M.

    M is a :class:`PolyMatrix` over the variables (s, t) whose entries are
    forms of one degree.  One field basis of the kernel vectors of degree
    at most ``max_degree`` comes from
    :func:`~godeaux_lines.polynomials.bounded_degree_kernel`; since M is
    homogeneous, the degree-d parts of those vectors span its degree-d
    kernel.  A degree-d part is kept as a generator when it is independent
    of the generators kept so far, including all (s, t)-multiples of the
    lower-degree ones.  Returns a list of (degree, tuple of Poly); every
    generator satisfies M v = 0 identically.
    """
    if M.vars.nvars != 2:
        raise PolynomialError("graded kernels need a matrix of binary forms")
    if len({sum(e) for row in M.entries for p in row for e in p.terms}) > 1:
        raise PolynomialError("entries must be forms of one degree")
    F = M.field
    parts = [[] for _ in range(max_degree + 1)]  # per degree, the nonzero parts
    for vec in bounded_degree_kernel(M, max_degree):
        split = [[{} for _ in vec] for _ in parts]
        for slot, p in enumerate(vec):
            for e, c in p.terms.items():
                split[sum(e)][slot][e] = c
        for d, terms in enumerate(split):
            if any(terms):
                parts[d].append(tuple(Poly(M.vars, F, t) for t in terms))
    gens = []
    for d, candidates in enumerate(parts):
        base = [_flat(F, vec, d, j) for dg, vec in gens for j in range(d - dg + 1)]
        r0 = rank(F, base)
        if r0 == len(candidates):
            continue  # the multiples already span the degree-d kernel
        for vec in candidates:
            cand = base + [_flat(F, vec, d)]
            r1 = rank(F, cand)
            if r1 > r0:
                gens.append((d, vec))
                base, r0 = cand, r1
    return gens


def _flat(F: Field, vec, d: int, shift: int = 0) -> list:
    """The coefficients of t^shift * s^k * vec, read as forms of degree d
    (k fills the degree up): the coefficient of s^(d - i) t^i of entry
    ``slot`` goes to position slot * (d + 1) + i."""
    out = [0] * (len(vec) * (d + 1))
    for slot, p in enumerate(vec):
        for (_, b), c in p.terms.items():
            out[slot * (d + 1) + b + shift] = c
    return out


@dataclass(frozen=True)
class DegenerationProfile:
    """Per-block kernel degrees and rank-drop points of the l1 pencil."""

    block_degrees: tuple
    rank_drop_points: tuple  # ((s, t), block_index)

    @property
    def degree_sequence(self) -> tuple:
        return tuple(sorted(d for block in self.block_degrees for d in block))


def degeneration_profile(line: LineA) -> DegenerationProfile:
    """Kernel degrees per skew block plus the points where a block dies.

    Block b belongs to a-matrix row b.  Its kernel over k[s, t] is
    generated by the row forms divided by their GCD, so its degrees are
    (1,) when the three linear forms have no common root, (0,) when they
    share one, which is then the block's rank-drop point, and (0, 0, 0)
    when all three vanish identically; the drop point of such a block is
    recorded as None (the whole line).
    """
    if not line_in_q(line):
        raise GeometryError("degeneration_profile needs a line inside Q")
    return _degeneration_profile(line)


def _degeneration_profile(line: LineA) -> DegenerationProfile:
    block_degrees = []
    drops = []
    for b, triple in enumerate(ROW_TRIPLES):
        root = _common_root(line.field, [line.restrict_coordinate(j) for j in triple])
        if root is None:
            block_degrees.append((1,))
        elif root is ALL_ZERO:
            block_degrees.append((0, 0, 0))
            drops.append((None, b))
        else:
            block_degrees.append((0,))
            drops.append((root, b))
    return DegenerationProfile(tuple(block_degrees), tuple(drops))
