import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import kernel_equations, map_field, poly_eval
from godeaux_lines.families import (HYP_FACTORED, _hyp_atoms, _hyp_jacobian_rank, _hyp_rank_table,
                                    hyp_components)
from godeaux_lines.fields import FieldError, PrimeField, QQ
from godeaux_lines.geometry import AIDX, ORDER, a_vartable, quadrics
from godeaux_lines.linalg import nullspace, rank
from godeaux_lines.polynomials import (
    Poly,
    PolyMatrix,
    PolynomialError,
    VarTable,
    _grlex_key,
    bounded_degree_kernel,
    monomials_up_to,
)


def xyz(field=QQ):
    vt = VarTable(("x", "y", "z"))
    return vt, [Poly.variable(vt, field, n) for n in vt.names]


def random_poly(vt, field, rng, max_terms=4, max_total_degree=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            e = tuple(rng.randint(0, 2) for _ in vt.names)
            if sum(e) <= max_total_degree:
                break
        terms[e] = field.canonical(rng.randint(-9, 9))
    return Poly(vt, field, terms)


# ----------------------------------------------------------------------
# evaluation


def test_eval_simple():
    vt, (x, y, z) = xyz()
    f = x * y - z * z
    assert QQ.is_zero(poly_eval(f, [1, 1, 1]))
    assert poly_eval(f, [2, 3, 1]) == 5


def test_eval_quadric_unit_point():
    q0 = quadrics(QQ)[0]
    point = [0] * 12
    point[AIDX["a12"]] = 1
    point[AIDX["a13"]] = 1
    assert poly_eval(q0, point) == 1


def test_eval_symbolic_torsion_point():
    # q0 vanishes identically on the survivor span of T01|23
    from godeaux_lines.strata import TORSION_SPACES

    q0 = quadrics(QQ)[0]
    vt = a_vartable()
    space = TORSION_SPACES[0]
    images = [
        Poly.variable(vt, QQ, ORDER[i]) if i in space.survivors else Poly.zero(vt, QQ)
        for i in range(12)
    ]
    assert q0.compose(images).is_zero()


def test_eval_length_mismatch():
    vt, (x, y, z) = xyz()
    with pytest.raises(PolynomialError):
        poly_eval(x + y, [1, 2])


def _eval_oracle(f, point):
    """The earlier evaluator, one field call per product and sum, kept as
    an oracle for :func:`conftest.poly_eval`."""
    F = f.field
    point = [F.canonical(x) for x in point]
    acc = 0
    powers = {}
    for e, c in f.terms.items():
        t = c
        for i, k in enumerate(e):
            if k:
                pw = powers.get((i, k))
                if pw is None:
                    pw = point[i]
                    for _ in range(k - 1):
                        pw = F.mul(pw, point[i])
                    powers[(i, k)] = pw
                t = F.mul(t, pw)
        acc = F.add(acc, t)
    return acc


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(31), PrimeField(2**61 - 1), QQ])
def test_eval_matches_field_call_oracle(field):
    from fractions import Fraction

    rng = random.Random(f"eval-{field}")
    vt = VarTable(("w", "x", "y", "z"))
    big = 10**20
    polys = [Poly.zero(vt, field), Poly.constant(vt, field, 0),
             Poly.constant(vt, field, 1), Poly.constant(vt, field, -big)]
    for _ in range(60):
        terms = {tuple(rng.randint(0, 4) for _ in range(4)): field.canonical(rng.randint(-big, big))
                 for _ in range(rng.randint(1, 8))}
        polys.append(Poly(vt, field, terms))
    for _ in range(5):
        point = [rng.randint(-big, big) for _ in range(4)]
        if field == QQ:
            point[0] = Fraction(rng.randint(-big, big), rng.randint(1, big))
        want = [_eval_oracle(f, point) for f in polys]
        got = [poly_eval(f, point) for f in polys]
        assert got == want and list(map(type, got)) == list(map(type, want))
    with pytest.raises(PolynomialError):
        poly_eval(polys[-1], point[:3])


# ----------------------------------------------------------------------
# composition


def test_compose_square_of_sum():
    vt, (x, y, z) = xyz()
    st = VarTable(("s", "t"))
    s = Poly.variable(st, QQ, "s")
    t = Poly.variable(st, QQ, "t")
    zero = Poly.zero(st, QQ)
    g = (x * x).compose([s + t, zero, zero])
    assert g == s * s + s * t.scale(2) + t * t


def test_compose_quadrics_with_hyp_parametrization():
    from godeaux_lines.families import hyp_components

    comps = list(hyp_components())
    for q in quadrics(QQ):
        assert q.compose(comps).is_zero()


def test_compose_quadric_with_z5_family_map():
    # the full line map (p0, p1, q0, q1, s, t) -> s*row0 + t*row1
    vt = VarTable(("p0", "p1", "q0", "q1", "s", "t"))
    var = {n: Poly.variable(vt, QQ, n) for n in vt.names}
    zero = Poly.zero(vt, QQ)
    images = [zero] * 12
    images[AIDX["a23"]] = var["s"] * var["p0"]
    images[AIDX["a10"]] = var["s"] * var["p1"]
    images[AIDX["a31"]] = var["t"] * var["q0"]
    images[AIDX["a02"]] = var["t"] * var["q1"]
    for q in quadrics(QQ):
        assert q.compose(images).is_zero()


def test_compose_count_mismatch():
    vt, (x, y, z) = xyz()
    with pytest.raises(PolynomialError):
        x.compose([x, y])


# ----------------------------------------------------------------------
# Jacobians: the closed forms against a symbolic oracle


def diff(f, name):
    """The partial derivative of f by one variable, term by term: the
    symbolic oracle for the closed-form Jacobians."""
    i = f.vars.index(name)
    F = f.field
    out = {}
    for e, c in f.terms.items():
        if e[i]:
            ee = list(e)
            ee[i] -= 1
            out[tuple(ee)] = F.mul(c, F.canonical(e[i]))
    return Poly(f.vars, F, out)


def jacobian(fs):
    """The matrix of partial derivatives d f_i / d x_j, by :func:`diff`."""
    return [[diff(f, name) for name in f.vars.names] for f in fs]


def test_jacobian_simple():
    vt, (x, y, z) = xyz()
    J = jacobian([x * y, x * x * y - z.scale(3)])
    assert J[0][0] == y
    assert J[0][1] == x
    assert J[0][2].is_zero()
    assert J[1] == [(x * y).scale(2), x * x, Poly.constant(vt, QQ, -3)]


def test_jacobian_of_quadrics_rank_4_on_q(f31, generic_line):
    # the closed form geometry.jacobian_at against the symbolic oracle,
    # and exact row reduction at sampled points of Q
    from godeaux_lines.geometry import jacobian_at

    J = jacobian([map_field(q, f31) for q in quadrics(QQ)])
    for st in ((1, 0), (0, 1), (1, 1), (1, 2)):
        coords = list(generic_line.point_at(*st).coords)
        values = [[poly_eval(d, coords) for d in row] for row in J]
        assert values == jacobian_at(f31, coords)
        assert rank(f31, values) == 4


def _hyp_jacobian(field, params):
    """The oracle: the 12x10 Jacobian of the parametrization at canonical
    ``params``, by the product rule over the atoms of ``HYP_FACTORED`` (an
    atom's partial derivatives are constants or single parameters).  The
    derivative of sign * f_1 ... f_n, f_k = atom^e, by the atom of f_k is the
    prefix sign * f_1 ... f_(k-1) times e atom^(e-1) times the suffix
    f_(k+1) ... f_n: exact where an atom vanishes, free of division."""
    reduce = field.canonical
    w0, w1, x0, x1 = params[2:6]
    atoms = _hyp_atoms(params, reduce)
    # per atom, {parameter index: partial of the atom by that parameter}
    partials = [{j: 1} for j in range(10)] + [
        {2: -x0, 3: x1, 4: -w0, 5: w1},  # D = x1*w1 - x0*w0
        {4: 1, 5: 1},  # X = x1 + x0
        {2: 1, 3: 1},  # W = w1 + w0
    ]
    rows = []
    for sign, exps in HYP_FACTORED:
        factors = [(k, e, atoms[k]) for k, e in enumerate(exps) if e]
        prefix = [sign]  # prefix[n]: sign times the first n powers
        for _, e, a in factors:
            prefix.append(prefix[-1] * a ** e)
        suffix = 1  # the product of the powers after the current one
        row = [0] * 10
        for n in range(len(factors) - 1, -1, -1):
            k, e, a = factors[n]
            d = prefix[n] * suffix * e * a ** (e - 1)
            for j, da in partials[k].items():
                row[j] += d * da
            suffix *= a ** e
        rows.append([reduce(c) for c in row])
    return rows


def _generic_hyp_atoms(field, rng):
    """The atoms at seeded parameters, redrawn until none vanishes."""
    while True:
        atoms = _hyp_atoms([field.random(rng) for _ in range(10)], field.canonical)
        if 0 not in atoms:
            return atoms


def test_jacobian_of_hyp_parametrization_rank_6(f10007):
    # the rank verify hyp-param certifies, against the product-rule oracle;
    # the constant columns v0, v1, y0, y1, z0, z1 have rank 4 (v0 + v1 =
    # y0 + y1 = z0 + z1 = 2 in every row), so 8 checks combine the rows, and
    # their sums of the w0, w1, x0, x1, D, X, W exponents have rank 5: each
    # point ranks 5 rows of 4
    rank_table = _hyp_rank_table(f10007)
    assert (rank_table[0], len(rank_table[1])) == (4, 5)
    for p in (5, 7, 31, 10007):
        # the table's rows span the rows of the 8 checks: here the checks are
        # the left kernel of the constant block, read off the transpose
        F = PrimeField(p)
        constant = [[exps[j] for j in (0, 1, 6, 7, 8, 9)] for _, exps in HYP_FACTORED]
        checks = nullspace(F, [list(col) for col in zip(*constant)], 12)
        check_rows = [[sum(y * exps[k] for y, (_, exps) in zip(vec, HYP_FACTORED))
                       for k in (2, 3, 4, 5, 10, 11, 12)] for vec in checks]
        rank_c, rows = _hyp_rank_table(F)
        table_rows = [list(e) + list(dxw) for e, dxw in rows]
        assert (rank_c, len(checks)) == (4, 8)
        assert rank(F, table_rows) == len(table_rows) == rank(F, check_rows) == rank(F, table_rows + check_rows)
    rng = random.Random(9)
    for _ in range(3):
        atoms = _generic_hyp_atoms(f10007, rng)
        assert _hyp_jacobian_rank(f10007, rank_table, atoms) == 6
        assert rank(f10007, _hyp_jacobian(f10007, atoms[:10])) == 6


def test_hyp_rank_table_kernel_is_the_two_euler_vectors():
    # over Q the constant block C has rank 4, and the kernel of the checks'
    # exponent sums K over (w0, w1, x0, x1, D, X, W) is spanned by the x- and
    # w-Euler vectors (D = x1 w1 - x0 w0 has degree 1 in both, X = x1 + x0 in
    # x, W = w1 + w0 in w).  A point's 7x4 block B sends the gradings
    # (0, 0, 1, 1) and (1, 1, 0, 0) of (w0, w1, x0, x1) to these vectors
    # (Euler's identity on each atom), so K B has rank at most 2 and the
    # Jacobian at most 4 + 2 = 6: the bound verify hyp-param proves from its
    # five gradings
    rank_c, rows = _hyp_rank_table(QQ)
    K = [list(e) + list(dxw) for e, dxw in rows]
    euler = [(0, 0, 1, 1, 1, 1, 0), (1, 1, 0, 0, 1, 0, 1)]
    assert rank_c == 4 and rank(QQ, K) == 5 == 7 - len(nullspace(QQ, K, 7))
    assert rank(QQ, euler) == 2
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in K for v in euler)
    # the same two vectors are in the kernel of the 8 checks' sums before reduction
    constant = [[exps[j] for j in (0, 1, 6, 7, 8, 9)] for _, exps in HYP_FACTORED]
    checks = nullspace(QQ, [list(col) for col in zip(*constant)], 12)
    assert len(checks) == 12 - rank_c == 8
    for vec in checks:
        row = [sum(y * exps[k] for y, (_, exps) in zip(vec, HYP_FACTORED)) for k in (2, 3, 4, 5, 10, 11, 12)]
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for v in euler)


@pytest.mark.parametrize("field, points", [(PrimeField(10007), 120), (QQ, 4)], ids=["F_10007", "Q"])
def test_hyp_jacobian_matches_symbolic_derivative(field, points):
    symbolic = jacobian([map_field(c, field) for c in hyp_components()])
    rng = random.Random(f"jacobian-{field}")
    # the base locus and a zero atom (v0 = 0, D = X = W = 0) included
    specials = [[0] * 10, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [1, 2, 3, -3, 2, -2, 1, 1, 1, 1],
                [1, 2, 3, 3, 5, 5, 1, 1, 1, 1]]
    for params in specials + [[field.random(rng) for _ in range(10)] for _ in range(points)]:
        params = [field.canonical(x) for x in params]
        want = [[poly_eval(d, params) for d in row] for row in symbolic]
        assert _hyp_jacobian(field, params) == want


@pytest.mark.parametrize("p", (5, 7, 31, 10007))
def test_hyp_jacobian_rank_matches_symbolic_jacobian(p):
    # at seeded points where no atom vanishes, the rank read off the
    # exponent table is the rank of the symbolic Jacobian (a sign flipped in
    # one of its D, X, W terms reads 7 at every such point over F_31)
    field = PrimeField(p)
    symbolic = jacobian([map_field(c, field) for c in hyp_components()])
    rank_table = _hyp_rank_table(field)
    rng = random.Random(f"hyp-rank-{p}")
    for _ in range(300):
        atoms = _generic_hyp_atoms(field, rng)
        want = rank(field, [[poly_eval(d, atoms[:10]) for d in row] for row in symbolic])
        assert _hyp_jacobian_rank(field, rank_table, atoms) == want


# ----------------------------------------------------------------------
# multigrading


def test_multihomogeneous_bilinear():
    vt = VarTable(
        ("x0", "x1", "y0", "y1"),
        {"x0": (1, 0), "x1": (1, 0), "y0": (0, 1), "y1": (0, 1)},
    )
    x0, x1, y0, y1 = (Poly.variable(vt, QQ, n) for n in vt.names)
    ok, deg = (x0 * y1 + x1 * y0).is_multihomogeneous()
    assert ok and deg == (1, 1)
    ok, offending = (x0 + y0).is_multihomogeneous()
    assert not ok and len(offending) == 2


def test_hyp_components_multidegree():
    from godeaux_lines.families import HYP_MULTIDEGREE, hyp_components

    for comp in hyp_components():
        ok, deg = comp.is_multihomogeneous()
        assert ok and deg == HYP_MULTIDEGREE


def test_multihomogeneous_product_degrees_add():
    vt = VarTable(
        ("x0", "x1", "y0", "y1"),
        {"x0": (1, 0), "x1": (1, 0), "y0": (0, 1), "y1": (0, 1)},
    )
    x0, x1, y0, y1 = (Poly.variable(vt, QQ, n) for n in vt.names)
    f = x0 * y1 + x1 * y0
    g = x0 * x1
    okf, degf = f.is_multihomogeneous()
    okg, degg = g.is_multihomogeneous()
    okfg, degfg = (f * g).is_multihomogeneous()
    assert okf and okg and okfg
    assert degfg == tuple(a + b for a, b in zip(degf, degg))


def _multihomogeneous_oracle(f):
    """The earlier check, kept as an oracle: every term's multidegree by a
    loop over the grading, scanned in graded-lex order from the first."""
    def degree(e):
        out = [0] * len(f.vars.grading[0])
        for k, g in zip(e, f.vars.grading):
            for i, gi in enumerate(g):
                out[i] += k * gi
        return tuple(out)

    expts = sorted(f.terms, key=_grlex_key)
    if not expts:
        return True, None
    for e in expts[1:]:
        if degree(e) != degree(expts[0]):
            return False, (expts[0], e)
    return True, degree(expts[0])


def test_multihomogeneous_matches_sorted_scan_oracle():
    # seeded sums of monomials over a table with a zero and a negative grade:
    # one multidegree (graded pieces of random polynomials), and mixed ones,
    # whose first offending pair in graded-lex order must be the oracle's
    vt = VarTable(("x0", "x1", "y0", "y1", "t"),
                  {"x0": (1, 0, 2), "x1": (1, 0, 0), "y0": (0, 1, 1), "y1": (0, 1, -1), "t": (0, 0, 0)})
    rng = random.Random(12)
    outcomes = set()
    for _ in range(400):
        f = random_poly(vt, QQ, rng, max_terms=rng.randint(1, 8))
        if f.terms and rng.random() < 0.5:  # keep the terms of one multidegree
            deg = vt.multidegree(rng.choice(list(f.terms)))
            f = Poly(vt, QQ, {e: c for e, c in f.terms.items() if vt.multidegree(e) == deg})
        got = f.is_multihomogeneous()
        assert got == _multihomogeneous_oracle(f), f
        outcomes.add(got[0])
    assert outcomes == {True, False}
    assert Poly.zero(vt, QQ).is_multihomogeneous() == (True, None)
    with pytest.raises(PolynomialError):
        Poly.zero(VarTable(("x",)), QQ).is_multihomogeneous()


# ----------------------------------------------------------------------
# bounded-degree kernels


def test_kernel_of_identity_empty():
    vt, (x, y, z) = xyz()
    one = Poly.constant(vt, QQ, 1)
    zero = Poly.zero(vt, QQ)
    I3 = PolyMatrix(vt, QQ, [[one if i == j else zero for j in range(3)] for i in range(3)])
    assert bounded_degree_kernel(I3, 2) == []


def test_kernel_of_skew_matrix_contains_radial_vector():
    vt, (a, b, c) = (lambda vt, vs: (vt, vs))(*xyz())
    vt = VarTable(("a", "b", "c"))
    a, b, c = (Poly.variable(vt, QQ, n) for n in vt.names)
    zero = Poly.zero(vt, QQ)
    M = PolyMatrix(vt, QQ, [[zero, a, b], [-a, zero, c], [-b, -c, zero]])
    basis = bounded_degree_kernel(M, 1)
    assert basis
    for vec in basis:
        assert all(p.is_zero() for p in M.apply(vec))
    # (c, -b, a) lies in the returned span, as coefficient vectors
    monos = monomials_up_to(vt, 1)
    midx = {m: i for i, m in enumerate(monos)}

    def flat(vec):
        out = [0] * (3 * len(monos))
        for slot, p in enumerate(vec):
            for e, coeff in p.terms.items():
                out[slot * len(monos) + midx[e]] = coeff
        return tuple(out)

    target = flat([c, -b, a])
    span = [flat(v) for v in basis]
    assert rank(QQ, span + [target]) == rank(QQ, span)


def test_kernel_of_scroll_system_rank_2(f10007):
    # 1-dim solution space at multidegree (0,1,1), 7-dim below (2,1,1):
    # 6 shifts of the first generator plus one genuinely new generator
    from godeaux_lines.families import _para_v2_system

    M = _para_v2_system()
    Mp = PolyMatrix(M.vars, f10007, [[map_field(p, f10007) for p in row] for row in M.entries])
    small = bounded_degree_kernel(Mp, (0, 1, 1))
    big = bounded_degree_kernel(Mp, (2, 1, 1))
    assert len(small) == 1
    assert len(big) == 7
    for vec in small + big:
        assert all(p.is_zero() for p in Mp.apply(vec))


def _monomials_oracle(vt, bound):
    """Every exponent tuple with each exponent at most 4, filtered by the
    bound and sorted in graded-lex order."""
    grading = vt.grading if not isinstance(bound, int) else ((1,),) * vt.nvars
    bound = (bound,) if isinstance(bound, int) else bound
    return sorted((e for e in product(range(5), repeat=vt.nvars)
                   if all(sum(k * g[i] for k, g in zip(e, grading)) <= b for i, b in enumerate(bound))),
                  key=_grlex_key)


def test_monomial_table_is_built_once_per_bound():
    from godeaux_lines.families import PARA_V2_GRADING, PARA_V2_VARS

    graded = VarTable(PARA_V2_VARS, PARA_V2_GRADING)
    for vt, bound in ((graded, (0, 1, 1)), (graded, (2, 1, 1)), (graded, (2, 0, 0)),
                      (VarTable(("s", "t")), 4), (VarTable(("x", "y", "z")), 2)):
        table = monomials_up_to(vt, bound)
        assert list(table) == _monomials_oracle(vt, bound)
        assert monomials_up_to(VarTable(vt.names, vt.grading and dict(zip(vt.names, vt.grading))), bound) is table


def _bounded_degree_kernel_oracle(M, bound):
    """The earlier solver, kept as an oracle: the whole system, one-entry
    equations included, with one tuple key per term and monomial and sums of
    repeated entries (``kernel_equations``), and Poly canonicalising every
    coefficient of every slot again."""
    vt, F = M.vars, M.field
    monos = _monomials_oracle(vt, bound)
    nmono = len(monos)
    basis = nullspace(F, kernel_equations(M, monos), M.ncols * nmono)
    return [[Poly(vt, F, {m: vec[slot * nmono + i] for i, m in enumerate(monos)}) for slot in range(M.ncols)]
            for vec in basis]


def _kernel_inputs():
    """The para-v2 system at both certificate bounds and two more, over Q
    and F_10007, then 60 seeded matrices of binary forms of one degree, as
    graded_kernel_basis takes them: half skew 3x3 blocks (a kernel vector of
    the forms' degree), half random, some entries zero."""
    from godeaux_lines.families import _para_v2_system

    M = _para_v2_system()
    for F in (QQ, PrimeField(10007)):
        Mf = PolyMatrix(M.vars, F, [[map_field(p, F) for p in row] for row in M.entries])
        for bound in ((0, 1, 1), (2, 1, 1), (1, 1, 1), (2, 2, 2)):
            yield Mf, bound
    st = VarTable(("s", "t"))
    rng = random.Random(7)
    for _ in range(60):
        F = rng.choice((QQ, PrimeField(13), PrimeField(31)))
        d = rng.randint(1, 2)

        def form():
            if rng.random() < 0.2:
                return Poly.zero(st, F)
            return Poly(st, F, {(d - j, j): rng.randint(-5, 5) for j in range(d + 1)})

        if rng.random() < 0.5:
            a, b, c = form(), form(), form()
            z = Poly.zero(st, F)
            rows = [[z, c, -b], [-c, z, a], [b, -a, z]]
        else:
            n = rng.randint(2, 4)
            rows = [[form() for _ in range(n)] for _ in range(rng.randint(1, 3))]
        yield PolyMatrix(st, F, rows), rng.randint(1, 4)


def test_bounded_degree_kernel_matches_tuple_key_oracle():
    # the same vectors in the same order, each Poly's terms in the same order
    nonempty = 0
    for M, bound in _kernel_inputs():
        got = bounded_degree_kernel(M, bound)
        want = _bounded_degree_kernel_oracle(M, bound)
        assert [[list(p.terms.items()) for p in v] for v in got] == \
            [[list(p.terms.items()) for p in v] for v in want], (M, bound)
        nonempty += bool(got)
    assert nonempty >= 40


def test_kernel_renumbering_edge_cases(monkeypatch):
    # against the whole-system oracle: a zero column (its unknowns are in no
    # equation and stay free), equations that all have one entry, and
    # multi-entry equations that the one-entry ones empty or leave one entry of
    import godeaux_lines.polynomials as polynomials

    vt, (x, y, z) = xyz()
    zero = Poly.zero(vt, QQ)
    solved = []
    real = polynomials.nullspace

    def recording(field, rows, ncols):
        rows = [dict(r) for r in rows]
        solved.append(rows)
        return real(field, rows, ncols)

    monkeypatch.setattr(polynomials, "nullspace", recording)
    cases = {
        "zero column": [[x, zero, y]],
        "one entry each": [[x, zero], [y * z, zero]],
        "emptied": [[x, y], [x, zero], [zero, y]],
        "left one entry": [[x, y], [x, zero]],
    }
    for name, entries in cases.items():
        for bound in (1, 2):
            M = PolyMatrix(vt, QQ, entries)
            got = bounded_degree_kernel(M, bound)
            want = _bounded_degree_kernel_oracle(M, bound)
            assert [[list(p.terms.items()) for p in v] for v in got] == \
                [[list(p.terms.items()) for p in v] for v in want], (name, bound)
            rows = solved[-1]
            if name == "zero column":  # one free vector per monomial of the zero slot
                assert sum(not (v[0].terms or v[2].terms) for v in got) == len(monomials_up_to(vt, bound))
            elif name == "one entry each":  # nothing left to solve; slot 1 is free
                assert rows == [] and len(got) == len(monomials_up_to(vt, bound))
            elif name == "emptied":
                assert {} in rows and got == []
            else:
                assert any(len(row) == 1 for row in rows) and got == []


# ----------------------------------------------------------------------
# ring properties


def test_ring_axioms_random():
    vt = VarTable(("x1", "x2", "x3", "x4", "x5", "x6"))
    F = PrimeField(101)
    rng = random.Random(4)
    for _ in range(500):
        f, g, h = (random_poly(vt, F, rng) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_zero_operand_still_checks_table_and_field(op):
    # the zero short-cuts come after the table and field checks
    apply = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}[op]
    vt, (x, y, z) = xyz()
    other_vt = VarTable(("x", "y", "z"))  # equal names, another table object
    F = PrimeField(31)
    for a, b in ((Poly.zero(vt, QQ), x), (x, Poly.zero(vt, QQ))):
        assert apply(a, b).vars is vt  # same table, same field: no error
    for zero in (Poly.zero(VarTable(("x", "y")), QQ), Poly.zero(VarTable(("u", "v", "w")), QQ)):
        for a, b in ((zero, x), (x, zero)):
            with pytest.raises(PolynomialError):
                apply(a, b)
    for zero in (Poly.zero(vt, F), Poly.zero(other_vt, F)):
        for a, b in ((zero, x), (x, zero)):
            with pytest.raises(FieldError):
                apply(a, b)
    # an equal table or an equal field that is another object still passes
    assert apply(Poly.zero(other_vt, QQ), x).vars == vt
    assert apply(Poly.zero(vt, PrimeField(31)), Poly.variable(vt, F, "x")).field == F


def test_scalar_subtraction_on_either_side():
    # Poly - c lifts c to a constant polynomial; c - Poly negates and adds
    vt, (x, y, z) = xyz()
    assert (x - 3).terms == {(1, 0, 0): 1, (0, 0, 0): -3}
    assert (3 - x).terms == {(0, 0, 0): 3, (1, 0, 0): -1}
    assert x - Fraction(1, 2) == -(Fraction(1, 2) - x)
    F = PrimeField(7)
    u = Poly.variable(VarTable(("u",)), F, "u")
    assert (u - 10).terms == {(1,): 1, (0,): 4} and (10 - u).terms == {(0,): 3, (1,): 6}
    assert 1 - Poly.constant(u.vars, F, 1) == 0


def test_zero_operand_results():
    vt, (x, y, z) = xyz()
    zero = Poly.zero(vt, QQ)
    p = x * y - 3 * z + 2
    for got in (zero + p, p + zero, p - zero, sum([zero, p], zero)):
        assert got == p and got.vars is vt and str(got) == str(p)
    assert zero - p == -p
    for got in (p * zero, zero * p, zero * zero):
        assert got.is_zero() and got.vars is vt and got.field is QQ
    # the result is p itself; arithmetic on it later leaves p as it was
    q = zero + p
    assert q is p and (q + x) != p and str(p) == "x*y - 3*z + 2"


def plain_row_times(field, vt, row, vec):
    """sum_j row[j] * vec[j] term by term, with no Poly arithmetic."""
    terms = {}
    for entry, slot in zip(row, vec):
        for e1, c1 in entry.terms.items():
            for e2, c2 in slot.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
    return Poly(vt, field, terms)


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=str)
def test_poly_matrix_apply_matches_plain_sum(field):
    # PolyMatrix.apply skips products with a zero entry or a zero slot; the
    # oracle multiplies and adds every one of them
    vt = VarTable(("x", "y", "z", "w"))
    rng = random.Random(33)
    zero = Poly.zero(vt, field)
    sparse = lambda share: random_poly(vt, field, rng) if rng.random() < share else zero
    for _ in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[sparse(0.4) for _ in range(ncols)] for _ in range(nrows)]
        rows[rng.randrange(nrows)] = [zero] * ncols  # a zero row
        vec = [sparse(0.6) for _ in range(ncols)]
        vec[rng.randrange(ncols)] = zero  # a zero slot
        got = PolyMatrix(vt, field, rows).apply(vec)
        want = [sum((e * v for e, v in zip(row, vec)), zero) for row in rows]
        assert got == want == [plain_row_times(field, vt, row, vec) for row in rows]
        assert [str(r) for r in got] == [str(r) for r in want]
        assert all(r.vars is vt and r.field is field for r in got)


def test_eval_commutes_with_compose():
    vt = VarTable(("x", "y"))
    st = VarTable(("s", "t"))
    F = PrimeField(101)
    rng = random.Random(8)
    for _ in range(200):
        f = random_poly(vt, F, rng)
        images = [random_poly(st, F, rng) for _ in range(2)]
        point = [F.random(rng), F.random(rng)]
        direct = poly_eval(f.compose(images), point)
        indirect = poly_eval(f, [poly_eval(g, point) for g in images])
        assert direct == indirect


def test_poly_equality_with_a_non_scalar_is_false():
    vt = VarTable(())
    for field in (QQ, PrimeField(31)):
        zero, one = Poly.zero(vt, field), Poly.constant(vt, field, 1)
        for other in ("x", None, [0], 1.5):
            assert (zero == other) is False and (one != other) is True
        assert zero == 0 and one == 1
    assert (Poly.constant(vt, PrimeField(31), 1) == Fraction(1, 31)) is False


def test_poly_equal_to_a_scalar_hashes_like_it():
    vt = VarTable(())
    others = (0, 1, 32, Fraction(1, 31), True, 1.5, "x", None)
    for field in (QQ, PrimeField(31)):
        for c in (0, 1, Fraction(1, 31) if field == QQ else 30):
            poly = Poly.constant(vt, field, c)
            for other in others:
                if poly == other:
                    assert hash(poly) == hash(other), (field, c, other)
                    assert other in {poly} and len({poly, other}) == 1
    one = Poly.constant(vt, PrimeField(31), 1)
    assert one == 1 and one != 32 and 1 in {one}


def test_poly_constructor_canonicalises_coefficients():
    vt = VarTable(("x",))
    F = PrimeField(31)
    p, q = Poly(vt, F, {(1,): 33}), Poly(vt, F, {(1,): 2})
    assert p == q and hash(p) == hash(q) and str(p) == "2*x" and p.terms == {(1,): 2}
    assert Poly(vt, F, {(1,): 31, (0,): -62}).is_zero()
    assert Poly(vt, F, {(1,): Fraction(1, 2)}) == Poly(vt, F, {(1,): 16})
    assert type(Poly(vt, QQ, {(1,): 3}).terms[(1,)]) is int
    assert type(Poly(vt, QQ, {(1,): Fraction(6, 2)}).terms[(1,)]) is int
    assert Poly(vt, QQ, {(1,): Fraction(1, 2)}).terms[(1,)] == Fraction(1, 2)
    assert type(Poly(vt, QQ, {(1,): Fraction(1, 2)}).terms[(1,)]) is Fraction
    for field in (F, QQ):
        with pytest.raises(FieldError):
            Poly(vt, field, {(1,): 1.5})


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(31), PrimeField(10007)], ids=str)
def test_poly_of_noncanonical_terms_equals_poly_of_reductions(field):
    vt = VarTable(("x", "y", "z"))
    rng = random.Random(3)
    p = field.p
    for _ in range(200):
        poly = random_poly(vt, field, rng)
        noisy = {e: c + p * rng.randint(-10**6, 10**6) for e, c in poly.terms.items()}
        noisy.update({e: Fraction(c * 3 + p, 3) for e, c in poly.terms.items() if rng.random() < 0.3 and p != 3})
        noisy[(3, 3, 3)] = p * rng.randint(-5, 5)  # a zero in disguise
        got = Poly(vt, field, noisy)
        assert got.terms == poly.terms and hash(got) == hash(poly) and str(got) == str(poly)
        point = [field.random(rng) for _ in range(3)]
        assert poly_eval(got, point) == poly_eval(poly, point)


def test_vartable_validation():
    with pytest.raises(PolynomialError):
        VarTable(("x", "x"))
    with pytest.raises(PolynomialError):
        VarTable(("x", "y"), {"x": (1, 0)})


def test_text_form_deterministic():
    vt = VarTable(("a32", "w0"))
    f = Poly.monomial(vt, QQ, (2, 1), -3) + Poly.monomial(vt, QQ, (0, 1), 1)
    assert str(f) == "-3*a32^2*w0 + w0"


def _old_poly_str(poly):
    """The oracle: the text form as Poly.__str__ built it on its own."""
    if not poly.terms:
        return "0"
    F = poly.field
    parts = []
    for e in sorted(poly.terms, key=_grlex_key):
        c = poly.terms[e]
        factors = []
        for name, k in zip(poly.vars.names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        cs = F.format_scalar(c)
        if factors and cs == "1":
            body = "*".join(factors)
        elif factors and cs == "-1":
            body = "-" + "*".join(factors)
        elif factors:
            body = cs + "*" + "*".join(factors)
        else:
            body = cs
        parts.append(body)
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(31), PrimeField(2**61 - 1), QQ])
def test_text_form_matches_oracle(field):
    from fractions import Fraction

    rng = random.Random(f"str-{field}")
    dens = (1, 1, 2) if field == QQ else (1,)
    vt = VarTable(("a32", "w0", "x"))
    polys = [Poly.zero(vt, field), Poly.constant(vt, field, 1), Poly.constant(vt, field, -1),
             Poly.constant(vt, field, Fraction(-7, 3) if field == QQ else 5)]
    for _ in range(80):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(3)):
                field.canonical(Fraction(rng.choice((-1, 1, rng.randint(-9, 9))), rng.choice(dens)))
            for _ in range(rng.randint(1, 5))
        }
        polys.append(Poly(vt, field, terms))
    for f in polys:
        assert str(f) == _old_poly_str(f)
