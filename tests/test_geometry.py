import random

import pytest

from conftest import coords_from
from godeaux_lines.fields import FieldError, PrimeField, QQ
from godeaux_lines.geometry import (
    GeometryError,
    LineA,
    ORDER,
    PointA,
    canonical_skew_matrices,
    det4,
    jacobian_at,
    jacobian_rank,
    line_in_q,
    pfaffian4,
    polarization,
    polarization_value,
    quadric_value,
    quadrics,
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
            left = polarization(i, p, p)
            right = f101.mul(2, quadric_value(f101, i, p.coords))
            assert left == right


def test_polarization_against_gradient(f101):
    rng = random.Random(4)
    coords = [f101.random(rng) for _ in range(12)]
    grad = jacobian_at(f101, coords)
    for k in range(12):
        unit = [f101.zero()] * 12
        unit[k] = f101.one()
        for i in range(4):
            assert polarization_value(f101, i, coords, unit) == grad[i][k]


def test_z5_endpoints_polarize_to_zero(f31):
    p = PointA(f31, coords_from(f31, a23=1, a10=1))
    q = PointA(f31, coords_from(f31, a31=1, a02=1))
    for i in range(4):
        assert f31.is_zero(polarization(i, p, q))


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
        unit = [f31.zero()] * 12
        unit[j] = f31.one()
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
