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

:func:`graded_kernel_basis` solves for the graded kernel generators of any
:class:`PencilMatrix`, degree by degree; the package itself does not call
it, and the tests use it as the oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Sequence

from .fields import Field, PrimeField, RationalField
from .geometry import GeometryError, LineA, ROW_TRIPLES, line_in_q
from .linalg import nullspace, rank


class BinaryForm:
    """A homogeneous form in (s, t): coeffs[k] multiplies s^(d-k) t^k.

    The zero form carries an explicit degree tag so matrices stay
    degree-homogeneous.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: Field, degree: int, coeffs):
        coeffs = tuple(field.canonical(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("BinaryForm is immutable")

    @classmethod
    def zero(cls, field: Field, degree: int) -> "BinaryForm":
        return cls(field, degree, (field.zero(),) * (degree + 1))

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def eval(self, s, t):
        F = self.field
        s, t = F.canonical(s), F.canonical(t)
        acc = F.zero()
        sp = [F.one()]
        tp = [F.one()]
        for _ in range(self.degree):
            sp.append(F.mul(sp[-1], s))
            tp.append(F.mul(tp[-1], t))
        for k, c in enumerate(self.coeffs):
            if not F.is_zero(c):
                acc = F.add(acc, F.mul(c, F.mul(sp[self.degree - k], tp[k])))
        return acc

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if other.degree != self.degree or other.field != self.field:
            raise ValueError("binary form addition needs matching degree and field")
        F = self.field
        return BinaryForm(F, self.degree, tuple(F.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "BinaryForm":
        F = self.field
        return BinaryForm(F, self.degree, tuple(F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-other)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        F = self.field
        d = self.degree + other.degree
        out = [F.zero()] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if not F.is_zero(b):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return BinaryForm(F, d, out)

    def scale(self, c) -> "BinaryForm":
        F = self.field
        c = F.canonical(c)
        return BinaryForm(F, self.degree, tuple(F.mul(c, x) for x in self.coeffs))

    def monic(self) -> "BinaryForm":
        """Rescale so the first nonzero coefficient is 1 (zero form unchanged)."""
        F = self.field
        for c in self.coeffs:
            if not F.is_zero(c):
                return self.scale(F.inv(c))
        return self

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
        F = self.field
        parts = []
        for k, c in enumerate(self.coeffs):
            if F.is_zero(c):
                continue
            mono = []
            if self.degree - k:
                mono.append("s" if self.degree - k == 1 else f"s^{self.degree - k}")
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

    def __repr__(self):
        return f"BinaryForm({self})"


def linear_form(field: Field, s_coeff, t_coeff) -> BinaryForm:
    return BinaryForm(field, 1, (s_coeff, t_coeff))


def _pp1(field: Field, s, t):
    """Canonical representative of (s : t): t = 1, or (1, 0)."""
    if field.is_zero(t):
        return (field.one(), field.zero())
    inv = field.inv(t)
    return (field.mul(s, inv), field.one())


#: what :func:`_common_root` returns when every form is identically zero
ALL_ZERO = "all forms zero"


def _common_root(field: Field, forms):
    """The common root in P^1 of linear forms a*s + b*t given as (a, b) pairs.

    Returns the root normalized as :func:`binary_roots` gives it (t = 1,
    or (1, 0)), None when the forms have no common root, and ALL_ZERO
    when every form vanishes identically.
    """
    nonzero = [(a, b) for a, b in forms if not (field.is_zero(a) and field.is_zero(b))]
    if not nonzero:
        return ALL_ZERO
    a, b = nonzero[0]
    root = _pp1(field, field.neg(b), a)
    for a, b in nonzero[1:]:
        if not field.is_zero(field.add(field.mul(root[0], a), field.mul(root[1], b))):
            return None
    return root


# ----------------------------------------------------------------------
# univariate helpers (coefficient lists, high power of s first)


def _dehomogenize(f: BinaryForm):
    """Coefficients of f(x, 1) as a high-to-low list, trimmed."""
    F = f.field
    coeffs = list(f.coeffs)
    while coeffs and F.is_zero(coeffs[0]):
        coeffs.pop(0)
    return coeffs


def _poly_mod(field: Field, a, b):
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


def _poly_gcd(field: Field, a, b):
    while b:
        a, b = b, _poly_mod(field, a, b)
    return a


def binary_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """GCD of binary forms, monic; the zero form (degree 0 tag) if all are zero.

    Finite roots are handled by a univariate Euclid in the t = 1 chart; the
    common power of t (the root at (1:0)) is tracked separately.
    """
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return BinaryForm.zero(forms[0].field, 0)
    F = nonzero[0].field
    t_mult = min(
        next(k for k, c in enumerate(f.coeffs) if not F.is_zero(c)) for f in nonzero
    )
    g = None
    for f in nonzero:
        u = _dehomogenize(f)
        g = u if g is None else _poly_gcd(F, g, u)
        if len(g) == 1:
            break
    e = len(g) - 1
    ghom = [F.zero()] * (e + t_mult + 1)
    for j, c in enumerate(g):
        ghom[t_mult + j] = c
    return BinaryForm(F, e + t_mult, ghom).monic()


def binary_roots(f: BinaryForm):
    """Roots of a nonzero binary form over its field, with multiplicities.

    Returns a list of ((s, t), multiplicity) with (s, t) normalized to
    t = 1 or (1, 0): the root (1:0) first, then the finite roots in
    ascending order.  Over F_p (any prime p < 2^63) the roots are found
    exactly in time polynomial in log p (:func:`_fp_roots`); over the
    rationals the candidates come from the rational root theorem applied
    to the dehomogenization.  Every finite root is re-verified by exact
    evaluation before it is emitted.
    """
    if f.is_zero():
        raise ValueError("the zero form has no well-defined root list")
    F = f.field
    roots = []
    t_mult = next(k for k, c in enumerate(f.coeffs) if not F.is_zero(c))
    if t_mult:
        roots.append(((F.one(), F.zero()), t_mult))
    u = _dehomogenize(f)
    if len(u) == 1:
        return roots
    if isinstance(F, PrimeField):
        for x in _fp_roots(u, F.p):
            m = _multiplicity(F, u, x)
            if not m:
                raise ArithmeticError(f"root finder emitted a non-root {x} over {F}")
            roots.append(((x, F.one()), m))
    elif isinstance(F, RationalField):
        roots.extend(_rational_roots(F, u))
    else:
        raise ValueError(f"root finding not implemented over {F}")
    return roots


# ----------------------------------------------------------------------
# roots over F_p (raw ints, coefficient lists low power first)


def _fp_roots(u, p):
    """The distinct roots in F_p of a nonconstant polynomial, ascending.

    ``u`` lists the coefficients high power first.  A linear polynomial
    gives its root in closed form.  Otherwise the product of the distinct
    linear factors, gcd(f, x^p - x), is taken by modular powering and
    split by :func:`_split_linear` (Cantor-Zassenhaus; von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 14).  The powering passes
    through h = x^((p - 1)/2) mod f (x^p = h^2 x), which the split reuses.
    """
    f = _monic([c % p for c in reversed(u)], p)
    h = None
    if len(f) > 2:
        h = _pow_linear(0, p // 2, f, p)  # x^((p - 1)/2) for odd p
        xp = _mulmod(_mulmod(h, h, f, p), [0, 1] if p % 2 else [1], f, p)
        f = _gcd(f, _sub(xp, [0, 1], p), p)
    return sorted(_split_linear(f, p, h))


def _split_linear(g, p, h=None):
    """Roots of a monic product g of distinct linear factors over F_p.

    g is split by gcd(g, (x + a)^((p - 1)/2) - 1) for a = 0, 1, 2, ...;
    for two distinct roots some a < p puts them on different sides, so
    the loop ends.  ``h``, when given, is x^((p - 1)/2) modulo a multiple
    of g and stands in for the a = 0 power.  Over F_2, g divides x^2 + x
    and ``h`` is not used.
    """
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    if p == 2:
        return [0, 1]
    for a in count():
        if a == 0 and h is not None:
            t = _divmod(h, g, p)[1]
        else:
            t = _pow_linear(a, (p - 1) // 2, g, p)
        d = _gcd(g, _sub(t, [1], p), p)
        if 1 < len(d) < len(g):
            return _split_linear(d, p, h) + _split_linear(_divmod(g, d, p)[0], p, h)


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _sub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _divmod(a, f, p):
    """Quotient and remainder of a by the monic f."""
    n = len(f) - 1
    r = list(a)
    q = [0] * max(len(r) - n, 0)
    for k in range(len(r) - n - 1, -1, -1):
        c = r[k + n]
        if c:
            q[k] = c
            for i in range(n):
                r[k + i] = (r[k + i] - c * f[i]) % p
    return _trim(q), _trim(r[:n])


def _mulmod(a, b, f, p):
    """a * b modulo the monic f of degree n >= 1, for a, b of degree < n."""
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for k, y in enumerate(b, i):
            prod[k] += x * y
    for k in range(len(prod) - n - 1, -1, -1):
        c = prod.pop() % p
        if c:
            for i in range(n):
                prod[k + i] -= c * f[i]
    return _trim([c % p for c in prod])


def _pow_linear(a, e, f, p):
    """(x + a)^e modulo the monic f, by square-and-multiply."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(out, [a, 1], f, p)
    return out


def _gcd(a, b, p):
    """Monic GCD of a (nonzero) and b."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _eval_poly(field: Field, coeffs, x):
    acc = field.zero()
    for c in coeffs:
        acc = field.add(field.mul(acc, x), c)
    return acc


def _multiplicity(field: Field, coeffs, x):
    m = 0
    while True:
        q = []
        acc = field.zero()
        for c in coeffs:
            acc = field.add(field.mul(acc, x), c)
            q.append(acc)
        if not field.is_zero(q[-1]):
            return m
        m += 1
        coeffs = q[:-1]
        if not coeffs:
            return m


def _rational_roots(F: RationalField, coeffs):
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
                if _eval_poly(F, ints, cand) == 0:
                    if all(r != cand for (r, _), _ in out):
                        out.append(((cand, Fraction(1)), _multiplicity(F, ints, cand)))
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


# ----------------------------------------------------------------------
# matrices of binary forms


class PencilMatrix:
    """A matrix of binary forms sharing one degree (degree-homogeneous)."""

    __slots__ = ("field", "degree", "entries", "nrows", "ncols")

    def __init__(self, field: Field, degree: int, entries):
        self.field = field
        self.degree = degree
        self.entries = [list(row) for row in entries]
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            for f in row:
                if f.field != field or f.degree != degree:
                    raise ValueError("entries must share field and degree")

    def eval(self, s, t):
        return [[f.eval(s, t) for f in row] for row in self.entries]

    def apply(self, vec: Sequence[BinaryForm]):
        out = []
        for row in self.entries:
            acc = None
            for f, v in zip(row, vec):
                term = f * v
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def __repr__(self):
        return f"PencilMatrix({self.nrows}x{self.ncols}, degree {self.degree})"


# ----------------------------------------------------------------------
# graded kernel bases


def _degree_kernel(M: PencilMatrix, d: int):
    """Nullspace vectors with entries of homogeneous degree d, as flat tuples."""
    F = M.field
    ncols = M.ncols * (d + 1)
    rows = []
    for r in range(M.nrows):
        for k in range(d + M.degree + 1):
            row = [F.zero()] * ncols
            nontrivial = False
            for j in range(M.ncols):
                f = M.entries[r][j]
                for a, c in enumerate(f.coeffs):
                    b = k - a
                    if 0 <= b <= d and not F.is_zero(c):
                        row[j * (d + 1) + b] = F.add(row[j * (d + 1) + b], c)
                        nontrivial = True
            if nontrivial:
                rows.append(row)
    if not rows:
        return [tuple(F.one() if i == j else F.zero() for i in range(ncols)) for j in range(ncols)]
    return nullspace(F, rows, ncols)


def _shift(vec, d_from: int, d_to: int, ncols: int, field: Field):
    """All monomial multiples of a degree-d_from vector inside degree d_to."""
    k = d_to - d_from
    out = []
    for j in range(k + 1):
        flat = [field.zero()] * (ncols * (d_to + 1))
        for slot in range(ncols):
            for a in range(d_from + 1):
                c = vec[slot * (d_from + 1) + a]
                flat[slot * (d_to + 1) + a + j] = c
        out.append(tuple(flat))
    return out


def graded_kernel_basis(M: PencilMatrix, max_degree: int = 4):
    """Minimal generators (degree by degree) of the graded kernel of M.

    At each degree d the new generators are exact nullspace solutions that
    are independent of all (s, t)-multiples of lower-degree generators.
    Returns a list of (degree, vector-of-BinaryForm); every generator
    satisfies M v = 0 identically.
    """
    F = M.field
    gens = []
    for d in range(max_degree + 1):
        null = _degree_kernel(M, d)
        if not null:
            continue
        old = []
        for dg, flat in gens:
            old.extend(_shift(flat, dg, d, M.ncols, F))
        base = [list(v) for v in old]
        r0 = rank(F, base) if base else 0
        for vec in null:
            cand = base + [list(vec)]
            r1 = rank(F, cand)
            if r1 > r0:
                gens.append((d, tuple(vec)))
                base = cand
                r0 = r1
    out = []
    for d, flat in gens:
        forms = []
        for slot in range(M.ncols):
            forms.append(BinaryForm(F, d, flat[slot * (d + 1): (slot + 1) * (d + 1)]))
        out.append((d, tuple(forms)))
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
