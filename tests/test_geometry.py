import random

import pytest

from conftest import component_rows, coords_from
from godeaux_lines.fields import FieldError, PrimeField, QQ
from godeaux_lines.geometry import (
    GeometryError,
    LineA,
    ORDER,
    PointA,
    QUADRIC_TERMS,
    _line_conditions,
    _quadric,
    a_vartable,
    canonical_skew_matrices,
    det4,
    jacobian_at,
    jacobian_rank,
    line_in_q,
    pfaffian4,
    polarization_value,
    quadric_value,
    quadrics,
    quadrics_vanish_on,
    tangent_space,
)
from godeaux_lines.polynomials import Poly, VarTable


def constant(field, c):
    return Poly.constant(VarTable(()), field, c)


def random_skew(field, rng):
    M = [[constant(field, 0)] * 4 for _ in range(4)]
    slots = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for i, j in slots:
        M[i][j] = constant(field, field.random(rng))
        M[j][i] = -M[i][j]
    return M


# ----------------------------------------------------------------------
# Pfaffians


def test_pfaffian_unit():
    F = PrimeField(31)
    z, one = constant(F, 0), constant(F, 1)
    M = [[z] * 4 for _ in range(4)]
    M[0][1], M[1][0] = one, -one
    M[2][3], M[3][2] = one, -one
    assert pfaffian4(M) == one


@pytest.mark.parametrize("field_name", ["p101", "q"])
def test_pfaffian_squares_to_determinant(field_name):
    from godeaux_lines.fields import field_from_spec

    field = field_from_spec(field_name)
    rng = random.Random(17)
    for _ in range(100):
        M = random_skew(field, rng)
        pf = pfaffian4(M)
        assert pf * pf == det4(M)


def test_pfaffian_rejects_non_skew():
    F = PrimeField(31)
    M = [[constant(F, 1)] * 4 for _ in range(4)]
    with pytest.raises(GeometryError):
        pfaffian4(M)


def test_canonical_skew_matrices_give_quadrics():
    qs = quadrics(QQ)
    for M, q in zip(canonical_skew_matrices(QQ), qs):
        assert pfaffian4(M) == q


# ----------------------------------------------------------------------
# quadrics and polarization


def test_q3_at_unit_point(f31):
    coords = coords_from(f31, a01=1, a02=1)
    assert quadric_value(f31, 3, coords) == 1


def test_all_quadrics_vanish_at_two_survivor_point(f31):
    coords = coords_from(f31, a23=1, a10=1)
    assert all(f31.is_zero(quadric_value(f31, i, coords)) for i in range(4))


def test_quadrics_vanish_symbolically_on_t0213():
    from godeaux_lines.polynomials import Poly
    from godeaux_lines.strata import torsion_space
    from godeaux_lines.geometry import a_vartable

    space = torsion_space("T02|13")
    vt = a_vartable()
    images = [
        Poly.variable(vt, QQ, ORDER[i]) if i in space.survivors else Poly.zero(vt, QQ)
        for i in range(12)
    ]
    for q in quadrics(QQ):
        assert q.compose(images).is_zero()


def test_polarization_diagonal_identity(f101):
    rng = random.Random(3)
    for _ in range(20):
        coords = [f101.random(rng) for _ in range(12)]
        p = PointA(f101, coords)
        for i in range(4):
            left = polarization_value(f101, i, p.coords, p.coords)
            right = f101.mul(2, quadric_value(f101, i, p.coords))
            assert left == right


def test_polarization_against_gradient(f101):
    rng = random.Random(4)
    coords = [f101.random(rng) for _ in range(12)]
    grad = jacobian_at(f101, coords)
    for k in range(12):
        unit = [0] * 12
        unit[k] = 1
        for i in range(4):
            assert polarization_value(f101, i, coords, unit) == grad[i][k]


def test_z5_endpoints_polarize_to_zero(f31):
    p = PointA(f31, coords_from(f31, a23=1, a10=1))
    q = PointA(f31, coords_from(f31, a31=1, a02=1))
    for i in range(4):
        assert f31.is_zero(polarization_value(f31, i, p.coords, q.coords))


# ----------------------------------------------------------------------
# lines


def test_z5_example_line_in_q(z5_example):
    assert line_in_q(z5_example)


def test_random_line_not_in_q(f31):
    rng = random.Random(0)
    line = LineA(
        f31,
        [f31.random(rng) for _ in range(12)],
        [f31.random(rng) for _ in range(12)],
    )
    assert not line_in_q(line)


def three_point_oracle(line):
    """A binary quadric vanishing at (1:0), (1:1), (1:2) is zero."""
    F = line.field
    for t in (0, 1, 2):
        point = [
            F.add(a, F.mul(F.canonical(t), b))
            for a, b in zip(line.rows[0], line.rows[1])
        ]
        if not all(F.is_zero(quadric_value(F, i, point)) for i in range(4)):
            return False
    # the oracle must also see the second row itself
    return all(F.is_zero(quadric_value(F, i, line.rows[1])) for i in range(4))


def test_line_in_q_agrees_with_three_point_oracle(f31, generic_line, z5_example):
    rng = random.Random(12)
    bad = LineA(
        f31,
        [f31.random(rng) for _ in range(12)],
        [f31.random(rng) for _ in range(12)],
    )
    for line in (generic_line, z5_example, bad):
        assert line_in_q(line) == three_point_oracle(line)


def test_point_at(z5_example, f31):
    assert z5_example.point_at(1, 0) == PointA(f31, z5_example.rows[0])
    assert z5_example.point_at(0, 1) == PointA(f31, z5_example.rows[1])
    mid = z5_example.point_at(1, 1)
    assert mid == PointA(f31, coords_from(f31, a23=1, a10=1, a31=1, a02=1))
    with pytest.raises(GeometryError):
        z5_example.point_at(0, 0)


def test_line_equality_up_to_row_span(z5_example, f31):
    transformed = z5_example.transformed(((1, 1), (2, 1)))
    assert transformed == z5_example
    assert hash(transformed) == hash(z5_example)
    other = LineA(f31, coords_from(f31, a23=1), coords_from(f31, a10=1))
    assert other != z5_example


def test_stiefel_rank_enforced(f31):
    row = coords_from(f31, a23=1, a10=2)
    with pytest.raises(GeometryError):
        LineA(f31, row, [f31.mul(5, c) for c in row])


def test_line_rejects_float_rows(f31):
    # a float entry is refused, never truncated to an int
    row1 = coords_from(f31, a10=1)
    with pytest.raises(FieldError):
        LineA(f31, [1.9] + [0] * 11, row1)


def test_line_json_round_trip(generic_line):
    data = generic_line.to_json()
    back = LineA.from_json(data)
    assert back == generic_line
    assert back.to_json() == data


@pytest.mark.parametrize("key", ("rows", "field"))
def test_line_json_without_rows_or_field_is_a_geometry_error(generic_line, key):
    data = {k: v for k, v in generic_line.to_json().items() if k != key}
    with pytest.raises(GeometryError):
        LineA.from_json(data)


# ----------------------------------------------------------------------
# tangent spaces


def test_tangent_space_at_smooth_point(generic_line, f31):
    p = generic_line.point_at(1, 0)
    basis = tangent_space(p)
    assert len(basis) == 8
    for v in basis:
        for i in range(4):
            assert f31.is_zero(polarization_value(f31, i, p.coords, v))


def test_point_in_own_tangent_space(generic_line, f31):
    p = generic_line.point_at(2, 3)
    for i in range(4):
        assert f31.is_zero(polarization_value(f31, i, p.coords, p.coords))


def test_tangent_space_requires_point_on_q(f31):
    p = PointA(f31, coords_from(f31, a01=1, a02=1))  # q3 = 1 there
    with pytest.raises(GeometryError):
        tangent_space(p)


def test_tangent_space_at_torsion_point_contains_space(f31):
    from godeaux_lines.strata import TORSION_SPACES

    space = TORSION_SPACES[0]
    rng = random.Random(6)
    p = space.random_point(f31, rng)
    assert jacobian_rank(p) == 4
    for j in space.survivors:
        unit = [0] * 12
        unit[j] = 1
        for i in range(4):
            assert f31.is_zero(polarization_value(f31, i, p.coords, unit))


def test_sampled_line_points_on_q(generic_line, f31):
    rng = random.Random(2)
    for _ in range(5):
        s, t = f31.random(rng), f31.random(rng)
        if f31.is_zero(s) and f31.is_zero(t):
            continue
        point = generic_line.point_at(s, t)
        assert point.on_quadric_intersection()


def test_line_in_q_invariant_under_gl2(generic_line, z5_example):
    for line in (generic_line, z5_example):
        assert line_in_q(line.transformed(((2, 5), (1, 3))))
        assert line_in_q(line.transformed(((0, 1), (1, 0))))


# ----------------------------------------------------------------------
# the quadric system written once, against the field-method and
# ``Poly.compose`` paths it replaced (kept here as oracles)

ORACLE_FIELDS = (PrimeField(31), PrimeField(10007), QQ)


def _oracle_quadric_value(field, i, coords):
    acc = 0
    for s, u, v in QUADRIC_TERMS[i]:
        t = field.mul(coords[u], coords[v])
        acc = field.add(acc, t) if s > 0 else field.sub(acc, t)
    return acc


def _oracle_polarization_value(field, i, p, q):
    acc = 0
    for s, u, v in QUADRIC_TERMS[i]:
        t = field.add(field.mul(p[u], q[v]), field.mul(p[v], q[u]))
        acc = field.add(acc, t) if s > 0 else field.sub(acc, t)
    return acc


def _oracle_line_in_q(field, r0, r1):
    return all(
        field.is_zero(_oracle_quadric_value(field, i, r0))
        and field.is_zero(_oracle_quadric_value(field, i, r1))
        and field.is_zero(_oracle_polarization_value(field, i, r0, r1))
        for i in range(4)
    )


def _oracle_quadrics(field):
    """The quadrics summed monomial by monomial from QUADRIC_TERMS."""
    vt = a_vartable()
    out = []
    for terms in QUADRIC_TERMS:
        p = Poly.zero(vt, field)
        for s, u, v in terms:
            e = [0] * 12
            e[u] += 1
            e[v] += 1
            p = p + Poly.monomial(vt, field, e, s)
        out.append(p)
    return out


def _oracle_conditions(r0, r1):
    """q_i(r0), q_i(r1) and B_i(r0, r1) = q_i(r0+r1) - q_i(r0) - q_i(r1),
    each by ``Poly.compose``, in the order line_in_q reads them."""
    qs = _oracle_quadrics(r0[0].field)
    both = [a + b for a, b in zip(r0, r1)]
    out = []
    for q in qs:
        q0, q1 = q.compose(r0), q.compose(r1)
        out += [q0, q1, q.compose(both) - q0 - q1]
    return out


def _oracle_vector(field, rng, killed=()):
    """12 seeded values, zero often, and zero at the ``killed`` indices."""
    return [
        0 if k in killed else field.canonical(rng.choice((0, 0, 1, -1, field.random(rng))))
        for k in range(12)
    ]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_quadric_values_match_field_method_oracle(field):
    from godeaux_lines.linalg import rank
    from godeaux_lines.strata import TORSION_SPACES

    rng = random.Random(29)
    outcomes = set()
    for n in range(300):
        # every third pair spans a line inside a torsion P^3, so inside Q
        killed = TORSION_SPACES[n % 9 // 3].killed if n % 3 == 0 else ()
        x, y = _oracle_vector(field, rng, killed), _oracle_vector(field, rng, killed)
        for i in range(4):
            assert quadric_value(field, i, x) == _oracle_quadric_value(field, i, x)
            assert polarization_value(field, i, x, y) == _oracle_polarization_value(field, i, x, y)
        if rank(field, [x, y]) == 2:
            verdict = line_in_q(LineA(field, x, y))
            assert verdict == _oracle_line_in_q(field, x, y)
            outcomes.add(verdict)
    assert outcomes == {True, False}


@pytest.mark.parametrize("field", (QQ, PrimeField(31)), ids=str)
def test_quadrics_match_monomial_oracle(field):
    assert str(quadrics(field)) == str(_oracle_quadrics(field))
    assert quadrics(field) == _oracle_quadrics(field)


_QQ_VARIABLES = tuple(Poly.variable(a_vartable(), QQ, name) for name in ORDER)


def _inclusion(support) -> list:
    """The substitution over Q that keeps the coordinates in ``support``
    and kills the others."""
    return [v if i in support else Poly.zero(v.vars, QQ) for i, v in enumerate(_QQ_VARIABLES)]


def test_support_rule_matches_quadrics_on_every_coordinate_subspace():
    # the rule against the quadrics expanded on the inclusion of each of the
    # 4,096 coordinate subsets
    verdicts = []
    for mask in range(1 << 12):
        support = [j for j in range(12) if mask >> j & 1]
        expected = all(_quadric(i, _inclusion(support)).is_zero() for i in range(4))
        assert quadrics_vanish_on(support) == expected, support
        verdicts.append(expected)
    assert len(verdicts) == 4096 and 0 < verdicts.count(True) < 4096


def _a_matrix_rank_inputs():
    """(field, raw 12-vector) pairs: all 4,096 vectors over F_2 and all 4,096
    of entries +-1 over F_3 (none zero); seeded vectors over F_3, F_5 and
    F_31 with about one zero coordinate in four, and over F_31 again with
    each entry any representative of its residue (31 and -62 among the
    zeros); rational vectors with zeros, and points of the hyperelliptic
    parametrization over Q (rank 3, with no zero coordinate where no atom
    vanishes)."""
    from fractions import Fraction
    from itertools import product

    from godeaux_lines.families import hyp_evaluate

    F2, F3, F31 = PrimeField(2), PrimeField(3), PrimeField(31)
    yield from ((F2, list(x)) for x in product((0, 1), repeat=12))
    yield from ((F3, list(x)) for x in product((1, 2), repeat=12))
    rng = random.Random(35)
    draw = lambda F: 0 if rng.random() < 0.25 else F.random_nonzero(rng)
    for F in (F3, PrimeField(5), F31):
        yield from ((F, [draw(F) for _ in range(12)]) for _ in range(600))
    yield from ((F31, [draw(F31) + 31 * rng.randint(-2, 2) for _ in range(12)]) for _ in range(200))
    for _ in range(300):
        yield QQ, [0 if rng.random() < 0.25 else Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
                   for _ in range(12)]
    for _ in range(100):
        coords = hyp_evaluate([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(10)], QQ.canonical)
        if coords is not None:
            yield QQ, list(coords)


def test_a_matrix_rank_matches_elimination_oracle(monkeypatch):
    # a_matrix_rank against linalg.rank of the 4x6 a-matrix; a spy on the
    # elimination a_matrix_rank falls back on shows that it runs exactly
    # when some coordinate is 0, and where none is, both answers of the K4
    # forms (3 and 4) occur, over F_p and over Q
    import godeaux_lines.geometry as geometry
    from godeaux_lines.geometry import a_matrix_rank, a_matrix_values
    from godeaux_lines.linalg import rank

    eliminated = []
    monkeypatch.setattr(geometry, "rank", lambda field, rows: eliminated.append(rows) or rank(field, rows))
    by_path = {True: set(), False: set()}
    for field, x in _a_matrix_rank_inputs():
        expected = rank(field, a_matrix_values(x))
        calls = len(eliminated)
        assert a_matrix_rank(field, x) == expected, (field, x)
        has_zero = 0 in map(field.canonical, x)
        assert len(eliminated) - calls == has_zero, (field, x)
        by_path[has_zero].add((field.to_spec()["kind"], expected))
    assert {r for _, r in by_path[True]} == {0, 1, 2, 3, 4}
    assert by_path[False] == {(kind, r) for kind in ("prime", "rational") for r in (3, 4)}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_balanced_k4_triangles_balance_every_cycle(p):
    # a_matrix_rank reads only T_0..T_3 where no coordinate is 0; that is
    # exact because there the four T's vanishing forces the three C's to.
    # Each monomial of a form walks each of its edges uv (u < v) once, as a_uv
    # or a_vu, so a form is the product of its edges' a_vu times the form at
    # a_vu = 1, a_uv = a_uv/a_vu: the (p-1)^6 such vectors cover every case.
    from itertools import combinations, product

    from godeaux_lines.geometry import AIDX, _k4_forms, a_matrix_rank, a_matrix_values
    from godeaux_lines.linalg import rank

    F = PrimeField(p)
    upper = [AIDX[f"a{u}{v}"] for u, v in combinations(range(4), 2)]
    balanced = 0
    for ratios in product(range(1, p), repeat=6):
        x = [1] * 12
        for j, r in zip(upper, ratios):
            x[j] = r
        forms = [F.canonical(f) for f in _k4_forms(x)]
        if not any(forms[:4]):
            assert not any(forms[4:]), x
            assert a_matrix_rank(F, x) == rank(F, a_matrix_values(x)) == 3
            balanced += 1
    # the ratios on vertex 0's three edges are free, and the three triangles
    # through vertex 0 fix the others (triangle 123 is their product): 8, 64, 216
    assert balanced == (p - 1) ** 3


def test_pull_backs_match_compose_oracle():
    from godeaux_lines.families import (
        _Z5_EXAMPLE,
        _z3_rows,
        Z3_PARAM_NAMES,
        hyp_components,
    )
    from godeaux_lines.strata import TORSION_SPACES

    comps = list(hyp_components())
    # the components and a copy with one term's sign flipped, which leaves Q
    e, c = next(iter(comps[0].terms.items()))
    broken = [comps[0] - Poly.monomial(comps[0].vars, QQ, e, 2 * c)] + comps[1:]
    images = [comps, broken] + [_inclusion(space.survivors) for space in TORSION_SPACES]
    residuals = []
    for image in images:
        got = [_quadric(i, image) for i in range(4)]
        expected = [q.compose(image) for q in _oracle_quadrics(QQ)]
        assert got == expected
        residuals += got
    assert any(not r.is_zero() for r in residuals)

    vt = VarTable(Z3_PARAM_NAMES)
    z3 = _z3_rows([Poly.variable(vt, QQ, n) for n in Z3_PARAM_NAMES], Poly.zero(vt, QQ))
    rows = [
        component_rows(*_Z5_EXAMPLE),
        component_rows((0, 1), (2, 3)),  # not a component: its lines leave Q
        z3,
        (z3[0], z3[1][::-1]),  # reversed second row, off Q
    ]
    conditions = []
    for r0, r1 in rows:
        got = list(_line_conditions(r0, r1))
        assert got == _oracle_conditions(r0, r1)
        conditions += got
    assert any(not v.is_zero() for v in conditions)
