"""The ambient P^11 of a-coordinates and the four Pfaffian quadrics.

Twelve coordinates a_ij (i != j, 0 <= i,j <= 3) are kept in the fixed order

    (a32, a31, a30, a23, a21, a20, a13, a12, a10, a03, a02, a01)

and assemble into the 4x6 a-matrix

    ( a01  a02  0    a03  0    0   )
    ( a10  0    a12  0    a13  0   )
    ( 0    a20  a21  0    0    a23 )
    ( 0    0    0    a30  a31  a32 )

whose rank strata drive all fiber classification.  The quadrics

    q0 = a12*a13 - a21*a23 + a31*a32
    q1 = a02*a03 - a30*a32 + a20*a23
    q2 = a10*a13 - a01*a03 + a30*a31
    q3 = a01*a02 - a10*a12 + a20*a21

are the 4x4 Pfaffians of the canonical skew matrices returned by
:func:`canonical_skew_matrices`, and Q = V(q0..q3) is the complete
intersection whose lines this package constructs and classifies.  The
quadric system is written once: q_i and its polarization B_i are functions
of 12-vectors that use the values' own ``+ - *``, so the same code runs on
field scalars (points, lines) and on polynomials (symbolic certificates).
A line is stored as a full-rank 2x12 Stiefel matrix; two Stiefel matrices
are the same line exactly when their row spans agree.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional

from .fields import Field, vector
from .linalg import nullspace, rank, rref
from .polynomials import Poly, VarTable

#: coordinate order of P^11 (index 0 is a32, index 11 is a01)
ORDER = ("a32", "a31", "a30", "a23", "a21", "a20", "a13", "a12", "a10", "a03", "a02", "a01")

AIDX = {name: i for i, name in enumerate(ORDER)}

#: q_i as signed index pairs into ORDER, one triple of monomials per quadric
QUADRIC_TERMS = (
    ((1, AIDX["a12"], AIDX["a13"]), (-1, AIDX["a21"], AIDX["a23"]), (1, AIDX["a31"], AIDX["a32"])),
    ((1, AIDX["a02"], AIDX["a03"]), (-1, AIDX["a30"], AIDX["a32"]), (1, AIDX["a20"], AIDX["a23"])),
    ((1, AIDX["a10"], AIDX["a13"]), (-1, AIDX["a01"], AIDX["a03"]), (1, AIDX["a30"], AIDX["a31"])),
    ((1, AIDX["a01"], AIDX["a02"]), (-1, AIDX["a10"], AIDX["a12"]), (1, AIDX["a20"], AIDX["a21"])),
)

#: the 4x6 a-matrix zero pattern, entries as ORDER indices (None = structural zero)
A_PATTERN = (
    (AIDX["a01"], AIDX["a02"], None, AIDX["a03"], None, None),
    (AIDX["a10"], None, AIDX["a12"], None, AIDX["a13"], None),
    (None, AIDX["a20"], AIDX["a21"], None, None, AIDX["a23"]),
    (None, None, None, AIDX["a30"], AIDX["a31"], AIDX["a32"]),
)

#: the three nonzero entries of each a-matrix row, in column order
ROW_TRIPLES = tuple(tuple(j for j in row if j is not None) for row in A_PATTERN)

#: the K4 forms' two monomials each (:func:`_k4_forms`), as ORDER indices along closed walks
_walk = lambda *w: tuple(AIDX[f"a{u}{v}"] for u, v in zip(w, w[1:]))
_K4_TRIANGLES = tuple((_walk(i, j, k, i), _walk(i, k, j, i)) for i, j, k in combinations(range(4), 3))[::-1]
_K4_CYCLES = tuple((_walk(0, k, j, l, 0), _walk(0, l, j, k, 0)) for j, k, l in ((1, 2, 3), (2, 1, 3), (3, 1, 2)))


class GeometryError(ValueError):
    pass


# ----------------------------------------------------------------------
# the quadric system, on any ring


def _quadric(i: int, x):
    """q_i(x) = a*b - c*d + e*f, the Pfaffian read off ``QUADRIC_TERMS``.

    ``x`` holds 12 values of one ring: residues, rationals or ``Poly``s.
    The result is left unreduced; a field value needs ``field.canonical``.
    """
    (_, a, b), (_, c, d), (_, e, f) = QUADRIC_TERMS[i]
    return x[a] * x[b] - x[c] * x[d] + x[e] * x[f]


def _polarization(i: int, x, y):
    """B_i(x, y) = q_i(x+y) - q_i(x) - q_i(y), as the explicit cross terms."""
    (_, a, b), (_, c, d), (_, e, f) = QUADRIC_TERMS[i]
    return (x[a] * y[b] + x[b] * y[a]) - (x[c] * y[d] + x[d] * y[c]) + (x[e] * y[f] + x[f] * y[e])


def _k4_forms(x, cycles=_K4_CYCLES) -> list:
    """T_0..T_3, C_01|23, C_02|13, C_03|12 at 12 values of one ring, unreduced: the a-matrix weights K4's
    incidence matrix (row l is vertex l), and each maximal minor is +-a_lm T_l, T_l = a_ij a_jk a_ki +
    a_ik a_kj a_ji round the triangle without l, or +-C_ij|kl = a_ik a_kj a_jl a_li - a_il a_lj a_jk a_ki."""
    t = [x[a] * x[b] * x[c] + x[d] * x[e] * x[f] for (a, b, c), (d, e, f) in _K4_TRIANGLES]
    return t + [x[a] * x[b] * x[c] * x[d] - x[e] * x[f] * x[g] * x[h] for (a, b, c, d), (e, f, g, h) in cycles]


def _line_conditions(r0, r1):
    """The twelve conditions for the line through r0 and r1 to lie in Q, in
    the order q_i(r0), q_i(r1), B_i(r0, r1) for i = 0..3; unreduced."""
    for i in range(4):
        yield _quadric(i, r0)
        yield _quadric(i, r1)
        yield _polarization(i, r0, r1)


def quadrics_vanish_on(support) -> bool:
    """Whether q0..q3 vanish identically on the coordinate subspace where
    every a-coordinate outside ``support`` (ORDER indices) is zero.

    There q_i keeps exactly its terms c a_u a_v with u and v both in the
    support.  The terms of each q_i sit on distinct index pairs, so no two
    of them cancel: the quadrics vanish there exactly when no term has both
    ends in the support.  The same reading decides a line whose two rows
    hold distinct variables on supports A and B (zeros elsewhere): a term
    with both ends in A u B leaves p_u p_v in q_i(row0), q_u q_v in
    q_i(row1), or p_u q_v or p_v q_u in B_i(row0, row1), and these
    monomials are distinct across the terms too, so the line lies in Q
    identically exactly when A u B passes.
    """
    support = set(support)
    return not [u for terms in QUADRIC_TERMS for _, u, v in terms if u in support and v in support]


def quadric_value(field: Field, i: int, coords):
    """q_i evaluated at a raw 12-vector."""
    return field.canonical(_quadric(i, coords))


def polarization_value(field: Field, i: int, p, q):
    """B_i(p, q) at two raw 12-vectors."""
    return field.canonical(_polarization(i, p, q))


def a_matrix_values(coords):
    """The 4x6 a-matrix at a raw 12-vector."""
    return [[0 if j is None else coords[j] for j in row] for row in A_PATTERN]


def a_matrix_rank(field: Field, coords) -> int:
    """Exact rank of the a-matrix at a raw 12-vector, eliminated if a coordinate is 0.  Else rows 1-3 hold
    a10, a20, a30 alone at vertex 0's edges, so it is 3, or 4 where some T_l is not 0: with r_uv = a_uv/a_vu,
    T_l = 0 makes a triangle's r-product -1, so a 4-cycle's (two triangles sharing an edge) is +1 and C is 0."""
    if all(map(field.canonical, coords)):
        return 3 + any(map(field.canonical, _k4_forms(coords, ())))
    return rank(field, a_matrix_values(coords))


# ----------------------------------------------------------------------
# symbolic quadrics and canonical skew matrices


def a_vartable() -> VarTable:
    return VarTable(ORDER)


def quadrics(field: Field) -> list:
    """The four quadrics as sparse polynomials over the a-coordinates."""
    vt = a_vartable()
    x = [Poly.variable(vt, field, name) for name in ORDER]
    return [_quadric(i, x) for i in range(4)]


def pfaffian4(M):
    """Pfaffian m01*m23 - m02*m13 + m03*m12 of a 4x4 skew matrix.

    Entries are :class:`Poly` objects (constant ones for a numeric matrix);
    skew symmetry is checked exactly.
    """
    if len(M) != 4 or any(len(row) != 4 for row in M):
        raise GeometryError("pfaffian4 needs a 4x4 matrix")
    for i in range(4):
        if not M[i][i].is_zero():
            raise GeometryError("nonzero diagonal in skew matrix")
        for j in range(i + 1, 4):
            if not (M[i][j] + M[j][i]).is_zero():
                raise GeometryError("matrix is not skew-symmetric")
    return M[0][1] * M[2][3] - M[0][2] * M[1][3] + M[0][3] * M[1][2]


def det4(M):
    """Permutation-expansion determinant of a 4x4 matrix (the Pfaffian oracle,
    and the quartic minors of the a-matrix along a line)."""
    acc = None
    for perm in permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = M[0][perm[0]] * M[1][perm[1]] * M[2][perm[2]] * M[3][perm[3]]
        term = term if sign > 0 else -term
        acc = term if acc is None else acc + term
    return acc


def canonical_skew_matrices(field: Field) -> list:
    """Skew matrices M_i with Pf(M_i) = q_i.

    The three monomials of each quadric fill the Pfaffian slots
    (m01, m23), (m02, m13), (m03, m12) in print order.
    """
    vt = a_vartable()
    zero = Poly.zero(vt, field)
    out = []
    for terms in QUADRIC_TERMS:
        (_, u1, v1), (_, u2, v2), (_, u3, v3) = terms
        var = lambda k: Poly.variable(vt, field, ORDER[k])
        m = [[zero for _ in range(4)] for _ in range(4)]
        m[0][1], m[2][3] = var(u1), var(v1)
        m[0][2], m[1][3] = var(u2), var(v2)
        m[0][3], m[1][2] = var(u3), var(v3)
        for i in range(4):
            for j in range(i + 1, 4):
                m[j][i] = -m[i][j]
        out.append(m)
    return out


# ----------------------------------------------------------------------
# points and lines


class PointA:
    """A projective point of P^11 in the 12 a-coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        coords = vector(field, coords)
        if len(coords) != 12:
            raise GeometryError("a point of P^11 needs 12 coordinates")
        if not any(coords):
            raise GeometryError("the zero vector is not a projective point")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("PointA is immutable")

    def normalized(self) -> tuple:
        """Coordinates rescaled so the first nonzero entry is 1."""
        F = self.field
        inv = F.inv(next(c for c in self.coords if c))
        return tuple(F.canonical(inv * c) for c in self.coords)

    def on_quadric_intersection(self) -> bool:
        return not any(quadric_value(self.field, i, self.coords) for i in range(4))

    def __eq__(self, other):
        return (
            isinstance(other, PointA)
            and other.field == self.field
            and other.normalized() == self.normalized()
        )

    def __hash__(self):
        return hash((self.field, self.normalized()))

    def __repr__(self):
        F = self.field
        return "PointA(" + ", ".join(F.format_scalar(c) for c in self.coords) + ")"


class LineA:
    """A line in P^11 as a full-rank 2x12 Stiefel matrix.

    Two values are equal exactly when their row spans agree.  ``provenance``
    is optional bookkeeping from the sampler and does not take part in
    equality.
    """

    __slots__ = ("field", "rows", "provenance")

    def __init__(self, field: Field, row0, row1, provenance: Optional[dict] = None):
        r0 = vector(field, row0)
        r1 = vector(field, row1)
        if len(r0) != 12 or len(r1) != 12:
            raise GeometryError("Stiefel rows must have 12 entries")
        if rank(field, [r0, r1]) != 2:
            raise GeometryError("Stiefel matrix is rank deficient")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", (r0, r1))
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, *_):
        raise AttributeError("LineA is immutable")

    def span_canonical(self) -> tuple:
        reduced, _ = rref(self.field, [list(self.rows[0]), list(self.rows[1])])
        return tuple(tuple(r) for r in reduced)

    def point_at(self, s, t) -> PointA:
        """The point s*row0 + t*row1; (s, t) = (0, 0) is rejected."""
        F = self.field
        s, t = F.canonical(s), F.canonical(t)
        if not (s or t):
            raise GeometryError("(0, 0) does not name a point of the line")
        return PointA(F, [s * a + t * b for a, b in zip(*self.rows)])

    def transformed(self, mat2) -> "LineA":
        """Row change of basis by an invertible 2x2 matrix (same line)."""
        F = self.field
        (a, b), (c, d) = mat2
        a, b, c, d = (F.canonical(x) for x in (a, b, c, d))
        if not F.canonical(a * d - b * c):
            raise GeometryError("singular reparametrization")
        r0 = [a * x + b * y for x, y in zip(*self.rows)]
        r1 = [c * x + d * y for x, y in zip(*self.rows)]
        return LineA(F, r0, r1, provenance=self.provenance)

    def restrict_coordinate(self, j: int) -> tuple:
        """Coordinate j of s*row0 + t*row1 as the linear form (s-coeff, t-coeff)."""
        return (self.rows[0][j], self.rows[1][j])

    def __eq__(self, other):
        return (
            isinstance(other, LineA)
            and other.field == self.field
            and other.span_canonical() == self.span_canonical()
        )

    def __hash__(self):
        return hash((self.field, self.span_canonical()))

    def __repr__(self):
        F = self.field
        fmt = lambda row: "[" + ", ".join(F.format_scalar(c) for c in row) + "]"
        return f"LineA({fmt(self.rows[0])}, {fmt(self.rows[1])})"

    # -- JSON (the line-store wire format) ------------------------------

    def to_json(self) -> dict:
        F = self.field
        data = {
            "field": F.to_spec(),
            "order": "a32..a01",
            "rows": [[F.format_scalar(c) for c in row] for row in self.rows],
        }
        if self.provenance is not None:
            data["provenance"] = self.provenance
        return data

    @classmethod
    def from_json(cls, data: dict) -> "LineA":
        """Parse the wire format; a malformed shape or scalar raises GeometryError."""
        from .fields import FieldError, field_from_spec

        if not isinstance(data, dict):
            raise GeometryError("a line must be a JSON object")
        if data.get("order", "a32..a01") != "a32..a01":
            raise GeometryError(f"unknown coordinate order {data.get('order')!r}")
        rows = data.get("rows")
        if not (isinstance(rows, list) and len(rows) == 2
                and all(isinstance(r, list) for r in rows)):
            raise GeometryError("rows must be a list of two lists")
        try:
            F = field_from_spec(data.get("field"))
            r0 = [F.parse_scalar(x) for x in rows[0]]
            r1 = [F.parse_scalar(x) for x in rows[1]]
        except (FieldError, TypeError, ValueError) as e:
            raise GeometryError(f"malformed line: {e}") from None
        return cls(F, r0, r1, provenance=data.get("provenance"))


def line_in_q(line: LineA) -> bool:
    """Whether the line lies in Q: q_i and the polarization vanish at both rows."""
    red = line.field.canonical
    return not any(red(v) for v in _line_conditions(*line.rows))


# ----------------------------------------------------------------------
# tangent spaces


def jacobian_at(field: Field, coords):
    """The 4x12 Jacobian of (q0..q3) at a raw 12-vector."""
    rows = []
    for terms in QUADRIC_TERMS:
        row = [0] * 12
        for s, u, v in terms:
            row[u] += s * coords[v]
            row[v] += s * coords[u]
        rows.append([field.canonical(c) for c in row])
    return rows


def tangent_space(p: PointA) -> list:
    """Basis of {v : B_i(p, v) = 0 for all i}, i.e. the kernel of the Jacobian.

    Requires p in Q; at a smooth point the basis has 8 vectors (a P^7).
    """
    if not p.on_quadric_intersection():
        raise GeometryError("tangent_space needs a point on Q")
    return nullspace(p.field, jacobian_at(p.field, p.coords), 12)


def jacobian_rank(p: PointA) -> int:
    return rank(p.field, jacobian_at(p.field, p.coords))
