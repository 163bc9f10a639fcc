"""Seeded samplers for lines inside Q.

All strategies follow the same two-step recipe: pick a first point p on Q (randomly, on a torsion
P^3, or on the hyperelliptic locus via its parametrization), then pick a second point in the
tangent cone Q n T_p Q.  Because Q is cut out by quadrics, the connecting line then lies inside Q.

The searches are exact and run over a prime field, seeded and deterministic: a sampler owns a
private random stream, so equal (strategy, field, seed) always return the identical line.  Every
draw costs one trial: a first point, a two-torsion line, a partner draw that fails or succeeds.
First points and two-torsion lines draw through ``randrange``, and so does a T01|23 torsion partner,
one of the p^2 (3p - 2) common zeros of two binomials (:func:`_solved_draws`).  The other partner
searches draw the same values a block at a time through :mod:`draws` and test all of a block's draws
at once: the two-hyp test decides acceptance, the tangent-cone test makes most rejections.  They
charge the rejected draws' trials in one step and leave the stream where the one-draw loop stops.
Each strategy re-verifies its promise through the classifier (:func:`_fulfils`), after turning down
unclassified a candidate with too many rank-3 ends (:func:`sample_line`), and retries otherwise; a
trial budget guards termination, and after :class:`BudgetExhausted` the stream's state is
unspecified.  Each record's provenance names these rules' :data:`SAMPLER_VERSION`.

Strategies: ``generic``, ``torsion`` (one named torsion P^3), ``two-torsion`` (a pair of them),
``hyp`` (one hyperelliptic point), ``two-hyp`` (two hyperelliptic points).  README's notes on the
searches give each one's measured reach in p.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import combinations, count
from operator import mul
from typing import Optional, Sequence

from .draws import _BlockDraws
from .families import hyp_evaluate, sample_component_line
from .fields import Field, PrimeField
from .geometry import (
    GeometryError,
    LineA,
    PointA,
    ROW_TRIPLES as _ROW_TRIPLES,
    jacobian_at,
    jacobian_rank,
    line_in_q,
    polarization_value,
    quadric_value,
    tangent_space,
)
from .linalg import nullspace
from .pencil import _gcd, _trim
from .strata import TORSION_SPACES, FiberReport, TorsionSpace, classify_line, rank_a

STRATEGIES = ("generic", "torsion", "two-torsion", "hyp", "two-hyp")

#: the provenance's ``"sampler"``, which fixes the lines a seed draws and what a trial is: 1 (no
#: key) charged p trials for a failed tangent-cone draw, 2 one per draw, 3 solves T01|23 partners
SAMPLER_VERSION = 3

#: largest modulus the searches accept (a draw may scan all of F_p)
MAX_BRUTE_FORCE_MODULUS = 1_000_000

#: candidate lines :func:`sample_line` draws before it gives up
_MAX_RETRIES = 200

#: the products c_j c_l (j <= l) of the five draw coefficients, in table order
_PAIRS = [(j, l) for j in range(5) for l in range(j, 5)]


class SamplingError(ValueError):
    pass


class BudgetExhausted(SamplingError):
    def __init__(self, strategy: str, trials: int):
        self.strategy = strategy
        self.trials = trials
        super().__init__(f"search budget exhausted for {strategy} after {trials} trials")


class FieldTooLarge(SamplingError):
    pass


class _Budget:
    __slots__ = ("strategy", "limit", "used")

    def __init__(self, strategy: str, limit: int):
        self.strategy = strategy
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1):
        """Use n trials, one per draw (a solved T01|23 partner draw too); over the limit, raise
        where the n single trials would have, with ``used`` one past the limit.  So a bulk charge (a
        run of rejected draws) raises exactly when some prefix of its single charges would, with the
        same count; the search's stream is then left unspecified."""
        if self.used + n > self.limit:
            self.used = max(self.used, self.limit) + 1
            raise BudgetExhausted(self.strategy, self.used)
        self.used += n


def _require_search_field(field: Field) -> int:
    if not isinstance(field, PrimeField):
        raise SamplingError("brute-force search strategies need a prime field")
    if field.p == 2:
        raise SamplingError("search strategies need an odd prime field")
    if field.p > MAX_BRUTE_FORCE_MODULUS:
        raise FieldTooLarge(
            f"modulus {field.p} exceeds the brute-force cutoff {MAX_BRUTE_FORCE_MODULUS}"
        )
    return field.p


# ----------------------------------------------------------------------
# step 1: points on Q


def random_q_point(field: PrimeField, rng, budget: _Budget) -> PointA:
    """A point of Q: q_0, q_1 and q_2 solved exactly mod p, q_3 by rejection."""
    p = _require_search_field(field)
    while True:
        budget.spend()
        a32, a31, a30, a23, a21, a20 = [rng.randrange(p) for _ in range(6)]
        a13 = rng.randrange(1, p)
        a03 = rng.randrange(1, p)
        a01 = rng.randrange(p)
        inv13 = pow(a13, -1, p)
        inv03 = pow(a03, -1, p)
        a10 = (a01 * a03 - a30 * a31) * inv13 % p
        a12 = (a21 * a23 - a31 * a32) * inv13 % p
        a02 = (a30 * a32 - a20 * a23) * inv03 % p
        if (a01 * a02 - a10 * a12 + a20 * a21) % p:
            continue
        coords = (a32, a31, a30, a23, a21, a20, a13, a12, a10, a03, a02, a01)
        point = PointA(field, coords)
        if jacobian_rank(point) != 4:
            continue
        return point


# ----------------------------------------------------------------------
# step 2: a partner in the tangent cone


def tangent_cone_partner(field: PrimeField, point: PointA, rng, budget: _Budget) -> PointA:
    """A point w of Q n T_p Q not proportional to p.

    Works in an explicit complement of p inside T_p Q, read off the kernel basis with no
    elimination (:func:`_tangent_complement`): with the first two complement directions (u, v)
    free, each draw fixes the remaining five coefficients (the part R of w = x u + y v + R), and
    the search runs over the u-coefficient x in ascending order, solving q_0 = 0 as an exact
    quadratic in the v-coefficient y and testing q_1..q_3 on the at most two roots.  Each draw
    costs one trial, whether it fails or yields a partner.  Where q_0(x, .) is identically zero,
    only y = 0 and y = 1 are tried (:func:`_solve_quadratic`), so a partner at that x can be
    missed; the stored bytes depend on this.

    Before that scan, a draw gets an exact certificate.  The combinations sum k_i q_i(w), k in the
    left kernel K of the 4x3 matrix of quadratic parts [q_i(u), B_i(u, v), q_i(v)], are
    affine-linear in (x, y), and every solution lies on their common zero set: when it is empty,
    the draw fails; when it forces x to one value x0, only x0 is tried; when it is a line, the
    quadrics restricted to it must share a factor (:func:`_share_a_factor`), else the draw fails.
    So the trial count, the stream state and the returned point are those of the plain scan of the
    same draws; after :class:`BudgetExhausted` only the stream is not.

    At T01|23 torsion points two combinations are free of x and y, and each draw is one of their
    p^2 (3p - 2) common zeros (:func:`_solved_draws`), where rejection kept about one draw in p^2.
    Elsewhere the block draws (:class:`_BlockDraws`) reject most failing draws a block at a time,
    their trials charged in one step per yield: at generic and hyp points by a pair of the
    quadrics on the line (:func:`_coprime_on_line`).  A draw gets its tables from packed ints
    (:func:`_packed`) and must make every combination free of x and y vanish.
    """
    p = _require_search_field(field)
    u, v, *rest = _tangent_complement(point)

    qu = [quadric_value(field, i, u) for i in range(4)]
    qv = [quadric_value(field, i, v) for i in range(4)]
    buv = [polarization_value(field, i, u, v) for i in range(4)]
    # q_i(R), B_i(u, R) and B_i(v, R) as forms in the five draw coefficients:
    # gram[i] lists q_i(r_j) and B_i(r_j, r_l) in the order of the products
    # c_j c_l (j <= l) that the draw forms
    gram = [[quadric_value(field, i, rest[j]) if j == l else polarization_value(field, i, rest[j], rest[l])
             for j, l in _PAIRS] for i in range(4)]
    bu = [[polarization_value(field, i, u, r) for r in rest] for i in range(4)]
    bv = [[polarization_value(field, i, v, r) for r in rest] for i in range(4)]
    # sum k_i q_i(w) = a x + b y + c for k in the kernel: those free of x and
    # y as sparse (j, l, coeff) terms of c_j c_l, the others as dense vectors
    free, mixed = [], []
    kernel = nullspace(field, [qu, buv, qv], 4)
    for k in kernel:
        a, b, c = ([sum(map(mul, k, col)) % p for col in zip(*table)] for table in (bu, bv, gram))
        if any(a) or any(b):
            mixed.append((a, b, c))
        else:
            free.append([(j, l, t) for (j, l), t in zip(_PAIRS, c) if t])
    # one packed int per draw coefficient (resp. product c_j c_l), slots for a and b of
    # each mixed combination, B_i(u, R), B_i(v, R) (resp. c of each, q_i(R))
    n = len(mixed)
    width, linear, quadratic = _packed(
        p, [t for a, b, _ in mixed for t in (a, b)] + bu + bv, [c for _, _, c in mixed] + gram
    )
    mask = (1 << width) - 1

    on_line = n == 1 and not free and any(mixed[0][1])  # a line in (x, y) for all but 1 draw in p
    keep = _coprime_on_line(p, kernel[0], mixed[0], bu, bv, gram, qu, buv, qv) if on_line else None
    draws = _BlockDraws(rng, p, 5, keep)
    try:
        for coeffs, skipped in _solved_draws(p, free, rng) or draws:
            budget.spend(skipped + (coeffs is not None))
            if coeffs is None:
                continue
            if any(sum(t * coeffs[j] * coeffs[l] for j, l, t in terms) % p for terms in free):
                continue
            lin, quad = _dot(coeffs, linear, quadratic)
            solutions = _affine_solutions(p, (
                ((lin >> 2 * m * width & mask) % p, (lin >> (2 * m + 1) * width & mask) % p,
                 (quad >> m * width & mask) % p)
                for m in range(n)
            ))
            if solutions is None:
                continue
            x0, line = solutions  # the line y = alpha x + beta is alpha x - y + beta = 0
            lin >>= 2 * n * width
            quad >>= n * width
            bur = [(lin >> i * width & mask) % p for i in range(4)]
            bvr = [(lin >> (4 + i) * width & mask) % p for i in range(4)]
            qr = [(quad >> i * width & mask) % p for i in range(4)]
            if line and not _share_a_factor(field, (line[0], -1, line[1]), qu, buv, qv, bur, bvr, qr):
                continue
            for x in range(p) if x0 is None else (x0,):
                B = (x * buv[0] + bvr[0]) % p
                C = (x * x * qu[0] + x * bur[0] + qr[0]) % p
                for y in _solve_quadratic(p, qv[0], B, C):
                    if any(
                        (y * y * qv[i] + y * (x * buv[i] + bvr[i]) + x * x * qu[i] + x * bur[i] + qr[i]) % p
                        for i in (1, 2, 3)
                    ):
                        continue
                    w = tuple(
                        (x * u[k] + y * v[k] + sum(c * r[k] for c, r in zip(coeffs, rest))) % p
                        for k in range(12)
                    )
                    if any(w):
                        partner = PointA(field, w)
                        if not partner.on_quadric_intersection():
                            raise SamplingError("tangent cone scan left Q")
                        return partner
    finally:
        draws.sync()


def _solved_draws(p, free, rng):
    """Endless ``(draw, 0)`` where the free combinations are t c_j c_l + t' c_m c_n and s c_j c_l +
    s' c_m c_o (j, l, m, n, o distinct), else None.  One ``rng.randrange(p^2 (3p - 2))`` picks
    each draw, once each of their common zeros in F_p^5: p^2 (p - 1) with c_m != 0, c_j and c_l
    free, c_n and c_o solved; then (2p - 1) p^2 with c_m = c_j c_l = 0, c_n and c_o free.  So a
    draw is distributed as the first draw that rejection keeps."""
    try:  # two binomials with one monomial c_j c_l in common, the others with one factor c_m
        f, g = ({(j, l): t for j, l, t in terms} for terms in free)
        ((j, l),), (mn,), (mo,) = f.keys() & g.keys(), f.keys() - g.keys(), g.keys() - f.keys()
        (m,) = set(mn) & set(mo)
    except ValueError:
        return None
    n, o, tn, to = sum(mn) - m, sum(mo) - m, -f[j, l] * pow(f[mn], -1, p), -g[j, l] * pow(g[mo], -1, p)
    if len({j, l, m, n, o}) < 5:
        return None

    def draw(i):  # i = (k p + a) p + b
        k, a, b, c = i // (p * p), i // p % p, i % p, [0] * 5
        if k < p - 1:
            inv = pow(k + 1, -1, p)
            c[j], c[l], c[m], c[n], c[o] = a, b, k + 1, tn * a * b * inv % p, to * a * b * inv % p
        elif k < 2 * p - 1:
            c[j], c[n], c[o] = k - p + 1, a, b
        else:
            c[l], c[n], c[o] = k - 2 * p + 2, a, b
        return c
    return ((draw(rng.randrange(p * p * (3 * p - 2))), 0) for _ in count())


def _coprime_on_line(p, k, mixed, bu, bv, gram, qu, buv, qv):
    """The column test where K is one mixed combination sum k_i q_i = a x + b y + c: per draw,
    whether q_i and q_j restricted to the draw's line have resultant 0, as they do where b = 0 (both
    multiples of (a x + c)^2; the loop solves for x); no other draw has a solution.  (i, j) is the
    first pair not holding the support of k: on every line, a pair holding it is dependent and has
    resultant 0.  Tables are summed for the whole block on ints packing a column each, a draw per
    32-bit slot (64-bit for p > 653): no sum reaches 15 p^3, so none carries."""
    i, j = next(pair for pair in combinations(range(4), 2) if any(k[m] for m in range(4) if m not in pair))
    (qu0, qu1), (buv0, buv1), (qv0, qv1) = (qu[i], qu[j]), (buv[i], buv[j]), (qv[i], qv[j])
    linear, quadratic = (*mixed[:2], bu[i], bv[i], bu[j], bv[j]), (mixed[2], gram[i], gram[j])
    code = "I" if 15 * p ** 3 < 1 << 32 else "Q"

    def sums(tables, columns):
        packed = [int.from_bytes(array(code, col).tobytes(), sys.byteorder) for col in columns]
        size = len(columns[0]) * array(code).itemsize
        return [array(code, sum(map(mul, t, packed)).to_bytes(size, sys.byteorder)) for t in tables]

    def keep(*columns):
        products = [list(map(mul, columns[m], columns[n])) for m, n in _PAIRS]
        flags = []
        for a, b, u0, v0, u1, v1, c, r0, r1 in zip(*sums(linear, columns), *sums(quadratic, products)):
            line = (a, b, c)
            flags.append(not _coprime(p, _restriction(p, line, qu0, buv0, qv0, u0, v0, r0),
                                      _restriction(p, line, qu1, buv1, qv1, u1, v1, r1)))
        return flags
    return keep


def _packed(p: int, linear_tables, quadratic_tables):
    """``(width, linear, quadratic)``: column j of each list of tables packed into one int, table n
    in the bits [n width, (n + 1) width), for :func:`_dot`.  The entries are residues mod p, so a
    linear slot sums 5 products below p^2 and a quadratic one 15 products below p^3; with
    15 p^3 < 2^width no slot carries into the next."""
    width = (15 * p ** 3).bit_length()

    def pack(tables):
        return [sum(t[j] << n * width for n, t in enumerate(tables)) for j in range(len(tables[0]))]

    return width, pack(linear_tables), pack(quadratic_tables)


def _dot(coeffs, linear, q):
    """The draw's tables in two products: ``(lin, quad)`` hold in each slot the dot product of
    ``coeffs`` with a linear table, resp. of the products c_j c_l (j <= l, in that order) with a
    quadratic table ``q``, unreduced."""
    c0, c1, c2, c3, c4 = coeffs
    return (
        c0 * linear[0] + c1 * linear[1] + c2 * linear[2] + c3 * linear[3] + c4 * linear[4],
        c0 * (c0 * q[0] + c1 * q[1] + c2 * q[2] + c3 * q[3] + c4 * q[4])
        + c1 * (c1 * q[5] + c2 * q[6] + c3 * q[7] + c4 * q[8])
        + c2 * (c2 * q[9] + c3 * q[10] + c4 * q[11])
        + c3 * (c3 * q[12] + c4 * q[13])
        + c4 * c4 * q[14],
    )


def _tangent_complement(point: PointA) -> list:
    """Seven vectors completing p to a basis of T_p Q, in kernel-basis order.

    :func:`geometry.tangent_space` returns ``nullspace``'s basis: e_f, for free column f, has 1 at f
    and 0 at the other free columns, and its last nonzero entry is at f (pivot row c holds column f
    only when c < f).  So p = sum p[f] e_f, and dropping e_f for the last f with p[f] != 0 leaves a
    complement of p.  Euler's identity B_i(p, p) = 2 q_i(p) = 0 puts p in T_p Q, so such an f
    exists.
    """
    basis = tangent_space(point)
    if len(basis) != 8:
        raise SamplingError("tangent cone search needs a smooth point (rank-4 Jacobian)")
    free = [max(k for k, c in enumerate(vec) if c) for vec in basis]
    last = max((n for n, f in enumerate(free) if point.coords[f]), default=None)
    if last is None:
        raise SamplingError("could not complete a tangent basis")
    return basis[:last] + basis[last + 1:]


def _affine_solutions(p, eqs):
    """The common zeros (x, y) over F_p of the equations a x + b y + c = 0.

    None when there are none; else ``(x0, None)`` when they force x = x0, ``(None, (alpha, beta))``
    for the line y = alpha x + beta, and ``(None, None)`` when every equation vanishes identically.
    The answer depends only on the set of zeros, not on the order of ``eqs``; they are read one at a
    time, and none past the first inconsistent one.
    """
    line = x0 = None
    for a, b, c in eqs:
        if line is not None:
            # y = alpha x + beta substituted: the equation is in x only
            a, b, c = (a + b * line[0]) % p, 0, (c + b * line[1]) % p
        if b:
            inv = pow(-b, -1, p)
            line = (a * inv % p, c * inv % p)
        elif x0 is not None:
            if (a * x0 + c) % p:
                return None
        elif a:
            x0 = -c * pow(a, -1, p) % p
        elif c:
            return None
    if x0 is not None:
        return x0, None
    return None, line


def _share_a_factor(field: PrimeField, line, qu, buv, qv, bur, bvr, qr) -> bool:
    """Whether the q_i(x u + y v + R), restricted to the line a x + b y + c = 0 (b != 0), have a
    nonconstant common factor over F_p or all vanish; when they do not, no x on the line solves the
    draw.  (For b = 0 every restriction is a multiple of (a x + c)^2, and the answer is True.)

    A pair of restrictions (:func:`_restriction`) with a nonzero resultant settles the draw (a zero
    form has resultant 0 with every form); only when every pair resultant vanishes does the gcd of
    all four decide.
    """
    p = field.p
    seen = [_restriction(p, line, *tables) for tables in zip(qu, buv, qv, bur, bvr, qr)]
    if any(_coprime(p, f, g) for i, f in enumerate(seen) for g in seen[i + 1:]):
        return False
    common = None
    for f in seen:
        f = _trim(list(f))
        if f:
            common = f if common is None else _gcd(field, common, f)
            if len(common) == 1:
                return False
    return True


def _restriction(p, line, qu, buv, qv, bur, bvr, qr):
    """(f0, f1, f2) of b^2 q(x u + y v + R) = f2 x^2 + f1 x + f0 on the line a x + b y + c = 0, from
    q(u), B(u, v), q(v), B(u, R), B(v, R), q(R) (all may be unreduced): b y = -(a x + c) is
    substituted without inverting b."""
    a, b, c = line
    aa, ab, bb, ac, bc, cc = a * a % p, a * b % p, b * b % p, 2 * a * c % p, b * c % p, c * c % p
    return ((qv * cc - bvr * bc + qr * bb) % p, (qv * ac - buv * bc + bur * bb - bvr * ab) % p,
            (qu * bb - buv * ab + qv * aa) % p)


def _coprime(p, f, g) -> bool:
    """Whether binary quadratics f2 x^2 + f1 x z + f0 z^2 and g share no root in P^1 (resultant != 0)."""
    (f0, f1, f2), (g0, g1, g2) = f, g
    return ((f2 * g0 - f0 * g2) ** 2 - (f2 * g1 - f1 * g2) * (f1 * g0 - f0 * g1)) % p != 0


def _sqrt_mod(d, p):
    """A square root of d in [0, p) modulo the odd prime p, or None for a non-residue.

    Of the two roots r and p - r it returns the smaller, except (p + 1)/2 for the square of
    (p - 1)/2; the order of the roots that :func:`_solve_quadratic` tries, and so the sampled lines,
    rest on it.
    """
    if d == 0:
        return 0
    if p % 4 == 3:
        r = pow(d, (p + 1) // 4, p)
        if r * r % p != d:
            return None
    else:
        if pow(d, (p - 1) // 2, p) != 1:
            return None
        # Tonelli-Shanks: p - 1 = q 2^s with q odd, z a non-residue
        q, s = p - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, r, t, m = pow(z, q, p), pow(d, (q + 1) // 2, p), pow(d, q, p), s
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            c, r, t, m = b * b % p, r * b % p, t * b * b % p, i
    r = min(r, p - r)
    return (p + 1) // 2 if r == (p - 1) // 2 else r


def _solve_quadratic(p, A, B, C):
    """Roots of A y^2 + B y + C over F_p (p odd); () when there are none.

    When the quadratic is identically zero every y is a root, but only (0, 1) is returned: the scan
    of :func:`tangent_cone_partner` then tries y = 0 and y = 1 at that x and can miss a partner
    there.  The plain-scan oracle does the same, and the seeded stores depend on it.
    """
    if A == 0:
        if B == 0:
            return (0, 1) if C == 0 else ()
        return ((-C) * pow(B, -1, p) % p,)
    disc = (B * B - 4 * A * C) % p
    r = _sqrt_mod(disc, p)
    if r is None:
        return ()
    inv2a = pow(2 * A, -1, p)
    y1 = (-B + r) * inv2a % p
    if r == 0:
        return (y1,)
    return (y1, (-B - r) * inv2a % p)


# ----------------------------------------------------------------------
# two hyperelliptic endpoints (codimension-4 rejection)


def _two_hyp_test(p, lam, general_position):
    """The column test of :func:`_two_hyp_partner`: per draw of the 10 parameters, whether
    l_k . coords = 0 for the rows l_k of the Jacobian ``lam`` at p (and with ``general_position``,
    no a-matrix row vanishes).

    l_0, the gradient of q_0 = a12 a13 - a21 a23 + a31 a32, is zero off six coordinates that in
    ``HYP_FACTORED`` carry v0^2 D (D = x1 w1 - x0 w0): so l_0 . coords is v0^2 D times a short sum
    s, tested first.  Where v0 D = 0 only a30, a20, a10 survive,
    F (-w0 w1 y0 z1, w0 W y1 z1, -w1 W y1 z0) with F = v1^2 w0 w1 W x0 x1 X y1 z1: F = 0 is the
    base locus (else a20 != 0), l_k . coords is F times l_k's entries 2, 5, 8 against that triple,
    and row 0 vanishes.  Only where s alone vanishes is the point built.
    """
    l0, *rest = lam
    a, b, c, d, e, f = l0[0], l0[1], l0[7], l0[4], l0[3], l0[6]

    def accepts(params):
        v0, v1, w0, w1, x0, x1, y0, y1, z0, z1 = params
        if v0 * (x1 * w1 - x0 * w0) % p:
            coords = hyp_evaluate(params, p.__rmod__)  # x -> x % p
            return coords is not None and not any(sum(map(mul, l, coords)) % p for l in rest) and not (
                general_position and any(all(coords[j] == 0 for j in t) for t in _ROW_TRIPLES))
        W = w0 + w1
        if general_position or not v1 * w0 * w1 * W * x0 * x1 * (x0 + x1) * y1 * z1 % p:
            return False
        return not any((l[5] * w0 * W * y1 * z1 - l[2] * w0 * w1 * y0 * z1 - l[8] * w1 * W * y1 * z0) % p
                       for l in rest)

    def keep(*columns):
        return [
            not v * (X1 * W1 - X0 * W0) * (
                (X0 + X1) * (Y0 * Y1 * (a * X1 * Z1 * Z1 + b * X0 * Z0 * Z0)
                             + Y1 * Y1 * Z0 * (c * X1 * Z1 - d * X0 * Z0))
                - X0 * X1 * Y0 * Y0 * Z1 * (e * Z1 + f * Z0)
            ) % p and accepts(params)
            for params in zip(*columns)
            for v, _, W0, W1, X0, X1, Y0, Y1, Z0, Z1 in (params,)
        ]

    return keep


def _two_hyp_partner(
    field: PrimeField, point: PointA, rng, budget: _Budget, cap: int, general_position: bool = False
):
    """A second hyperelliptic-parametrization point inside T_p Q, by rejection.

    Each draw of the 10 parameters costs one trial and must satisfy the four tangency forms
    l_k . coords = 0 (k = 0..3, the rows of the Jacobian at p).  The block draws (:class:`_BlockDraws`)
    decide that in their column test (:func:`_two_hyp_test`), which builds all 12 coordinates for
    about 1 draw in p.  The draws stop after ``cap``, with the stream just after the last one, as in
    the one-draw loop (unspecified where the budget runs out first).

    The locus carries distinguished degenerate partners (one a-matrix row vanishes at them) that the
    rejection hits far more often than general ones; ``general_position`` skips those.  Returns None
    after ``cap`` trials so the caller can redraw the first endpoint.
    """
    p = field.p  # sample_line checked it
    lam = [[int(x) for x in row] for row in jacobian_at(field, point.coords)]
    draws = _BlockDraws(rng, p, 10, _two_hyp_test(p, lam, general_position), cap)
    try:
        for params, skipped in draws:
            budget.spend(skipped + (params is not None))
            if params is not None:
                return PointA(field, hyp_evaluate(params, p.__rmod__))
    finally:
        draws.sync()
    return None


# ----------------------------------------------------------------------
# strategy driver


def _random_hyp_point(field: PrimeField, rng, budget: _Budget) -> PointA:
    p = field.p  # sample_line checked it
    while True:
        budget.spend()
        coords = hyp_evaluate([rng.randrange(p) for _ in range(10)], p.__rmod__)  # x -> x % p
        if coords is None:
            continue
        point = PointA(field, coords)
        if rank_a(point) == 3 and jacobian_rank(point) == 4:
            return point


def sample_line(
    strategy: str, field: Field, seed: int, budget: int = 10_000_000,
    space: Optional[TorsionSpace] = None, spaces: Optional[Sequence[TorsionSpace]] = None,
    general_position: bool = False,
) -> LineA:
    """Sample one line of Q; deterministic in (strategy, field, seed).

    Every returned line satisfies line_in_q exactly and its classifier report shows the strategy's
    promise (:func:`_fulfils`): empty special loci for ``generic``; exactly one torsion
    intersection on the named space for ``torsion``; two torsion intersections for ``two-torsion``;
    exactly one (resp. two) rank-3 minor-GCD roots for ``hyp`` (resp. ``two-hyp``).
    ``general_position`` additionally forces a two-hyp line to be a general member of its family
    (no row-vanishing point, kernel degrees (1, 1, 1, 1)); such lines are about 65x rarer in the
    rejection search (p = 31, seeds 0-9: a median of 293,971 trials against 4,417).  A candidate
    through the first point p and its partner w with more rank-3 ends than it promises rank-3 roots
    is rejected unclassified where p + w has rank 4: all 15 minors vanish at a rank-3 end, so it is
    a root of their GCD, nonzero as a minor is nonzero at p + w, and :func:`strata.classify_line`
    would list it among ``hyperelliptic_roots``.  Without that witness (every minor may vanish on
    the line, as on some accepted torsion lines) the candidate is classified; the rule runs after
    the partner search, so draws, trials and lines are unchanged.  Each draw costs one trial (first
    points, partners, two-torsion lines) and ``provenance["trials"]`` counts them; a T01|23 torsion
    partner draw is solved, one of p^2 (3p - 2) common zeros of two binomials, where rejection kept
    one draw in about p^2.  The provenance's ``"sampler"`` is :data:`SAMPLER_VERSION`.  Raises
    :class:`BudgetExhausted` when the trial budget runs out, and every other :class:`SamplingError`
    (bad arguments: a ``seed`` or ``budget`` that is not an int, or is a bool, a negative ``seed``,
    a ``field`` that is not a :class:`Field`, a ``space`` or member of ``spaces`` that is not a
    :class:`TorsionSpace` (a name is not one), ``space``, ``spaces`` or ``general_position`` given
    to a strategy that does not take it, and others) before the first draw.
    """
    if strategy not in STRATEGIES:
        raise SamplingError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    for name, value in (("seed", seed), ("budget", budget)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SamplingError(f"{name} must be an int, not {type(value).__name__}")
    if budget < 1:
        raise SamplingError(f"budget {budget} is below 1; no trial can run")
    if seed < 0:
        raise SamplingError(f"seed {seed} is below 0; random.Random would draw seed {-seed}'s values")
    for name, value, owner in (
        ("space", space is not None, "torsion"),
        ("spaces", spaces is not None, "two-torsion"),
        ("general_position", general_position, "two-hyp"),
    ):
        if value and strategy != owner:
            raise SamplingError(f"{name} applies to the {owner} strategy only, not to {strategy}")
    home = pair = None
    if strategy == "two-torsion":
        pair = tuple(spaces) if spaces else (TORSION_SPACES[0], TORSION_SPACES[1])
        if len(pair) != 2 or pair[0] == pair[1]:
            raise SamplingError("two-torsion needs two distinct torsion spaces")
    else:
        _require_search_field(field)
        if strategy == "torsion":
            home = space if space is not None else TORSION_SPACES[0]
    named = (home,) if home is not None else pair or ()
    if not isinstance(field, Field) or not all(isinstance(sp, TorsionSpace) for sp in named):
        raise SamplingError("field must be a Field, and space and spaces TorsionSpaces (see torsion_space)")
    rng = random.Random(seed)
    tracker = _Budget(strategy, budget)
    for _ in range(_MAX_RETRIES):
        try:
            if strategy == "two-torsion":
                tracker.spend()
                line = sample_component_line(field, pair[0], pair[1], rng)
            else:
                if strategy == "generic":
                    p_pt = random_q_point(field, rng, tracker)
                elif strategy == "torsion":
                    tracker.spend()
                    p_pt = home.random_point(field, rng)
                else:
                    p_pt = _random_hyp_point(field, rng, tracker)
                if strategy == "two-hyp":
                    cap = max(1000, budget // 20)
                    w = _two_hyp_partner(field, p_pt, rng, tracker, cap, general_position)
                    if w is None:
                        continue
                else:
                    w = tangent_cone_partner(field, p_pt, rng, tracker)
                line = LineA(field, p_pt.coords, w.coords)
        except GeometryError:
            continue
        if not line_in_q(line):
            continue
        ends = 0 if strategy == "two-torsion" else (rank_a(p_pt) == 3) + (rank_a(w) == 3)
        if ends > _RANK3_ROOTS.get(strategy, 0) and rank_a(line.point_at(1, 1)) == 4:
            continue  # each rank-3 end is a root of the nonzero minor GCD: too many rank-3 roots
        report = classify_line(line)
        if _fulfils(strategy, report, home, pair, general_position):
            provenance = {
                "strategy": strategy,
                "seed": seed,
                "trials": tracker.used,
                "field": field.to_spec(),
                "sampler": SAMPLER_VERSION,
            }
            data = report.to_json()
            if home is not None:
                provenance["space"] = home.name
            if pair is not None:
                provenance["spaces"] = [s.name for s in pair]
            if strategy in ("torsion", "two-torsion"):
                provenance["certificate"] = {"torsion_points": data["torsion_points"]}
            if strategy in ("hyp", "two-hyp"):
                provenance["certificate"] = {
                    "rank3_roots": [r["point"] for r in data["hyperelliptic_roots"]]
                }
            return LineA(field, line.rows[0], line.rows[1], provenance=provenance)
    raise BudgetExhausted(strategy, tracker.used)


#: rank-3 minor-GCD roots each strategy promises; the others promise none
_RANK3_ROOTS = {"hyp": 1, "two-hyp": 2}


def _fulfils(strategy: str, report: FiberReport, home, pair, general_position: bool) -> bool:
    """Whether the report keeps the strategy's promise (see :func:`sample_line`).

    One rule for every strategy: torsion points on exactly its target spaces (``home`` for torsion,
    ``pair`` for two-torsion, none otherwise), as many rank-3 roots as :data:`_RANK3_ROOTS` names,
    no torsion space containing the line and no excluded flag.  On a classified line the containment
    test never decides alone: a line inside a torsion space meets no other one (their survivor sets
    are disjoint) and has every minor zero, so it has no torsion point and no rank-3 root.  A
    generic line must also be generic, and a general-position two-hyp line must have kernel degrees
    (1, 1, 1, 1), which also rule out every row-vanishing point.
    """
    targets = {"torsion": (home,), "two-torsion": pair}.get(strategy, ())
    return (
        sorted(sp.name for _, sp in report.torsion_points) == sorted(sp.name for sp in targets)
        and len(report.hyperelliptic_roots) == _RANK3_ROOTS.get(strategy, 0)
        and not report.torsion_containments
        and not report.excluded_flag
        and (strategy != "generic" or report.is_generic)
        and not (strategy == "two-hyp" and general_position and report.kernel_degrees != (1, 1, 1, 1))
    )
