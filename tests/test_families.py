import math
import random
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

import godeaux_lines.families as fam
from conftest import component_rows, map_field, poly_eval
from godeaux_lines.families import (
    BaseLocusError,
    FamilyError,
    HYP_MULTIDEGREE,
    hyp_components,
    hyp_evaluate,
    hyp_point,
    sample_component_line,
    verify_hyp_param,
    verify_para_v2,
    verify_z3_kernel,
    verify_z3_line,
    verify_z5_family,
    z3_line,
    z5_component_counts,
    z5_line,
)
from godeaux_lines.fields import QQ, PrimeField
from godeaux_lines.geometry import (
    AIDX,
    GeometryError,
    LineA,
    PointA,
    _k4_forms,
    a_matrix_rank,
    a_matrix_values,
    line_in_q,
    quadric_value,
    quadrics,
)
from godeaux_lines.linalg import rank
from godeaux_lines.polynomials import Poly, PolyMatrix, VarTable
from godeaux_lines.strata import TORSION_SPACES, classify_line, rank_a, torsion_intersections

WORKED_PARAMS = (1, 1, 1, 2, 1, 1, 1, 1, 1, 1)
WORKED_POINT = (2, 2, -24, -1, -2, 36, -1, 2, -72, -2, 6, -12)
ORACLE_FIELDS = (PrimeField(31), PrimeField(10007), QQ)


def _params(field, rng, n):
    """n seeded parameters, zero often enough to reach degenerate values."""
    return [rng.choice((0, 0, 1, -1, field.random(rng))) for _ in range(n)]


def _rows_or_error(build):
    try:
        return build().rows
    except (GeometryError, FamilyError) as e:
        return type(e)


# ----------------------------------------------------------------------
# hyperelliptic parametrization


def test_worked_image_point():
    p = hyp_point(QQ, WORKED_PARAMS)
    assert tuple(Fraction(c) for c in p.coords) == tuple(Fraction(c) for c in WORKED_POINT)
    # all four quadrics vanish: q0 = -2-2+4, q1 = -12+48-36, q2 = 72-24-48, q3 = -72+144-72
    assert p.on_quadric_intersection()
    assert rank_a(p) == 3


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=str)
def test_hyp_evaluate_matches_expanded_components(field):
    # the factored evaluator against the expanded polynomials, with zeros
    # frequent enough to hit vanishing atoms and the base locus; it is also
    # HYP_FACTORED's signed products of the atoms _hyp_atoms computes
    comps = [map_field(c, field) for c in hyp_components()]
    rng = random.Random(17)
    seen_base = False
    for _ in range(300):
        params = [field.canonical(rng.choice((0, 0, 1, -1, field.random(rng)))) for _ in range(10)]
        expected = tuple(poly_eval(c, params) for c in comps)
        got = hyp_evaluate(params, field.canonical)
        atoms = fam._hyp_atoms(params, field.canonical)
        products = tuple(field.canonical(sign * math.prod(a**e for a, e in zip(atoms, exps)))
                         for sign, exps in fam.HYP_FACTORED)
        assert (products if any(products) else None) == got
        if any(expected):
            assert got == expected
        else:
            assert got is None
            seen_base = True
    assert seen_base


def _oracle_hyp_components(field):
    """The oracle: each component multiplied out atom by atom from HYP_FACTORED."""
    vt = VarTable(fam.HYP_PARAM_NAMES, fam.HYP_GRADING)
    var = {n: Poly.variable(vt, field, n) for n in fam.HYP_PARAM_NAMES}
    atoms = dict(var)
    atoms["D"] = var["x1"] * var["w1"] - var["x0"] * var["w0"]
    atoms["X"] = var["x1"] + var["x0"]
    atoms["W"] = var["w1"] + var["w0"]
    comps = []
    for sign, exps in fam.HYP_FACTORED:
        p = Poly.constant(vt, field, sign)
        for name, e in zip(fam._ATOM_NAMES, exps):
            for _ in range(e):
                p = p * atoms[name]
        comps.append(p)
    return comps


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_hyp_components_match_atom_by_atom_oracle(field):
    comps = [map_field(c, field) for c in hyp_components()]
    oracle = _oracle_hyp_components(field)
    assert [str(c) for c in comps] == [str(c) for c in oracle]
    assert list(comps) == oracle


def test_base_locus_reported():
    # x1 w1 = x0 w0 and v1 = 0 kills every component
    with pytest.raises(BaseLocusError) as err:
        hyp_point(QQ, (1, 0, 1, 1, 1, 1, 1, 1, 1, 1))
    assert "v1" in err.value.vanishing_factors
    assert "x1*w1-x0*w0" in err.value.vanishing_factors


def test_image_points_on_q_over_f10007(f10007):
    rng = random.Random(77)
    for _ in range(10):
        coords = None
        while coords is None:  # resample off the base locus
            coords = hyp_evaluate([f10007.random(rng) for _ in range(10)], f10007.canonical)
        p = PointA(f10007, coords)
        assert p.on_quadric_intersection()
        for i in range(4):
            assert f10007.is_zero(quadric_value(f10007, i, p.coords))


def test_verify_hyp_param_passes():
    cert = verify_hyp_param(seed=5)
    assert cert.passed
    by_name = {c.name: c for c in cert.checks}
    assert by_name["quadrics-pull-back-to-zero"].passed
    assert by_name["jacobian-rank-6"].passed
    assert by_name["image-rank-a-3"].passed
    assert by_name["components-multihomogeneous"].passed


@pytest.mark.parametrize("seed", (133, 173, 255, 358, 378, 444, 469, 484, 557, 575))
def test_verify_hyp_param_resamples_vanishing_factors(seed):
    # seeds whose first 20 draws held a vanishing factor of HYP_FACTORED,
    # when the certificate ranked 20 points; of them only 173's first draw
    # has one (the redraw is pinned by the test below)
    assert verify_hyp_param(seed=seed).passed


def _hyp_param_spy(monkeypatch):
    """The 13 atoms of each point ``verify_hyp_param`` draws, and of each
    point whose Jacobian rank it reads; the components are built first."""
    hyp_components()
    draws, ranked = [], []
    atoms, jacobian_rank = fam._hyp_atoms, fam._hyp_jacobian_rank
    monkeypatch.setattr(fam, "_hyp_atoms", lambda params, reduce: draws.append(atoms(params, reduce)) or draws[-1])
    monkeypatch.setattr(fam, "_hyp_jacobian_rank", lambda F, table, a: ranked.append(a) or jacobian_rank(F, table, a))
    return draws, ranked


def test_verify_hyp_param_samples_one_point(monkeypatch):
    # check (ii) ranks the Jacobian at one drawn point; check (iii) evaluates
    # the parametrization at no point
    draws, ranked = _hyp_param_spy(monkeypatch)

    def no_evaluation(*args):
        raise AssertionError("verify_hyp_param evaluated the parametrization at a point")

    monkeypatch.setattr(fam, "hyp_evaluate", no_evaluation)
    assert verify_hyp_param(seed=5).passed
    assert len(draws) == 1 and ranked == draws


@pytest.mark.parametrize("seed", (173, 1607, 1936, 2277, 3078))
def test_verify_hyp_param_redraws_a_point_with_a_vanishing_atom(monkeypatch, seed):
    # each seed's first draw has an atom that is 0 mod 10007, where the
    # exponent table does not give the Jacobian's rank: the certificate
    # draws again, and ranks only its first draw with no zero atom
    draws, ranked = _hyp_param_spy(monkeypatch)
    assert verify_hyp_param(seed=seed).passed
    assert len(draws) >= 2 and all(0 in atoms for atoms in draws[:-1])
    assert 0 not in draws[-1] and ranked == draws[-1:]


def _no_hyp_param_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("verify_hyp_param worked on a bad seed")

    monkeypatch.setattr(fam, "random", SimpleNamespace(Random=no_work))
    monkeypatch.setattr(fam, "hyp_components", no_work)


@pytest.mark.parametrize("seed", (-1, -5))
def test_verify_hyp_param_rejects_a_negative_seed(monkeypatch, seed):
    # random.Random(-5) would draw seed 5's points: a typed error, raised
    # before the certificate draws or computes anything
    _no_hyp_param_work(monkeypatch)
    with pytest.raises(FamilyError, match=f"seed {seed} is below 0"):
        verify_hyp_param(seed=seed)


@pytest.mark.parametrize("seed", (True, 1.5, "3", None))
def test_verify_hyp_param_rejects_a_seed_that_is_not_an_int(monkeypatch, seed):
    # True would draw seed 1's points, "3" and None fail untyped: a typed
    # error, raised before the certificate draws or computes anything
    _no_hyp_param_work(monkeypatch)
    with pytest.raises(FamilyError, match=f"seed must be an int, not {type(seed).__name__}"):
        verify_hyp_param(seed=seed)


def _with_entry(table, i, entry) -> tuple:
    """A copy of a ``HYP_FACTORED`` table with entry ``i`` replaced."""
    return table[:i] + (entry,) + table[i + 1:]


@pytest.mark.parametrize("target, key, check", [
    ("_hyp_jacobian_rank", "jacobian_failures", "jacobian-rank-6"),
    ("HYP_FACTORED", "rank_a_failures", "image-rank-a-3"),
])
def test_verify_hyp_param_records_every_failing_point(monkeypatch, target, key, check):
    # the Jacobian's rank reads 2, or a10's sign is flipped in a copy of
    # HYP_FACTORED: each failure is recorded, and only its check fails.  The
    # one recorded point is the one the passing certificate draws; the
    # recorded forms are those with a10 or a01 in their monomials: T_2 and
    # T_3 (the triangles on edge 01) and the two 4-cycles through it, each
    # now twice one of its monomials
    draws, _ = _hyp_param_spy(monkeypatch)
    assert verify_hyp_param(seed=5).passed
    monkeypatch.undo()
    sign, exps = fam.HYP_FACTORED[AIDX["a10"]]
    flipped = _with_entry(fam.HYP_FACTORED, AIDX["a10"], (-sign, exps))
    monkeypatch.setattr(fam, target, flipped if target == "HYP_FACTORED" else lambda *args: 2)
    cert = verify_hyp_param(seed=5)
    assert [c.name for c in cert.checks if not c.passed] == [check]
    assert list(cert.data) == [key]
    if target == "HYP_FACTORED":
        assert [f["form"] for f in cert.data[key]] == [2, 3, 5, 6]
        assert all(f["value"].lstrip("-").startswith("2*") for f in cert.data[key])
    else:
        assert cert.data[key] == [{"params": [str(x) for x in draws[0][:10]], "rank": 2}]


def test_image_rank_identity_fails_every_single_mutation(monkeypatch):
    # one coordinate of a copy of HYP_FACTORED with its sign flipped, or its
    # exponent of one atom raised by 1: 24 tables, and in each some K4 form
    # no longer cancels, so check (iii) fails, and it alone (the components
    # and the rank table were built from the true table)
    assert verify_hyp_param(seed=5).passed
    real = fam.HYP_FACTORED
    for i, (sign, exps) in enumerate(real):
        for entry in ((-sign, exps), (sign, exps[:i] + (exps[i] + 1,) + exps[i + 1:])):
            monkeypatch.setattr(fam, "HYP_FACTORED", _with_entry(real, i, entry))
            cert = verify_hyp_param(seed=5)
            assert [c.name for c in cert.checks if not c.passed] == ["image-rank-a-3"], (i, entry)
            assert cert.data["rank_a_failures"], (i, entry)
    # a10 and a01 both 0 keep every K4 form 0 (each monomial pair holds
    # both or neither), but a10 a20 a30 is then 0 and the check still fails
    zeroed = _with_entry(_with_entry(real, AIDX["a10"], (0, real[AIDX["a10"]][1])),
                         AIDX["a01"], (0, real[AIDX["a01"]][1]))
    monkeypatch.setattr(fam, "HYP_FACTORED", zeroed)
    cert = verify_hyp_param(seed=5)
    assert [c.name for c in cert.checks if not c.passed] == ["image-rank-a-3"] and cert.data == {}
    assert cert.checks[3].detail.endswith("K4 forms vanish in the 13 atoms; a10*a20*a30 = 0")


@pytest.mark.parametrize("p", (31, 10007))
def test_image_rank_identity_agrees_with_a_matrix_rank(p):
    # the identity (every K4 form of the image vanishes, and a10 a20 a30 is
    # a signed monomial) gives rank 3 where no atom vanishes and at most 3 on
    # the whole image; a_matrix_rank and the elimination read the same at
    # seeded image points, a third of them with one parameter set to 0
    F = PrimeField(p)
    rng = random.Random(f"image-rank-{p}")
    ranks = {True: set(), False: set()}
    for n in range(400):
        params = [F.random(rng) for _ in range(10)]
        if n % 3 == 0:
            params[rng.randrange(10)] = 0
        atoms = fam._hyp_atoms(params, F.canonical)
        coords = hyp_evaluate(params, F.canonical)
        if coords is None:
            continue
        assert not any(map(F.canonical, _k4_forms(coords)))
        r = a_matrix_rank(F, coords)
        assert r == rank(F, a_matrix_values(coords)) and r <= 3
        ranks[0 not in atoms].add(r)
    assert ranks[True] == {3} and len(ranks[False]) > 1


def test_verify_hyp_param_needs_homogeneous_components(monkeypatch):
    # a constant added to a32's component: it is not multihomogeneous, so
    # the Euler bound on the Jacobian's rank fails with check (iv), though
    # the drawn point still ranks 6 (the pull-back fails too)
    comps = hyp_components()
    monkeypatch.setattr(fam, "hyp_components", lambda: (comps[0] + 1,) + comps[1:])
    cert = verify_hyp_param(seed=5)
    failed = [c.name for c in cert.checks if not c.passed]
    assert failed == ["quadrics-pull-back-to-zero", "components-multihomogeneous", "jacobian-rank-6"]
    assert cert.data == {}


def test_verify_hyp_param_needs_five_independent_gradings(monkeypatch):
    # a grading table whose last grading repeats the fourth has rank 4: the
    # Euler fields then bound the Jacobian's rank by 7 only, and check (ii)
    # fails alone (the components were built with the true grading)
    hyp_components()
    monkeypatch.setattr(fam, "HYP_GRADING", {n: g[:4] + g[3:4] for n, g in fam.HYP_GRADING.items()})
    cert = verify_hyp_param(seed=5)
    assert [c.name for c in cert.checks if not c.passed] == ["jacobian-rank-6"]
    assert "4 independent gradings; 6 at 1 point" in cert.checks[2].detail


def test_verifier_detects_mutation():
    # flipping the sign of one expanded term must break the pullback identity
    comps = list(hyp_components())
    broken = comps[0]
    e, c = next(iter(broken.terms.items()))
    from godeaux_lines.polynomials import Poly

    mutated = broken + Poly.monomial(broken.vars, QQ, e, QQ.mul(Fraction(-2), c))
    images = [mutated] + comps[1:]
    residuals = [q.compose(images) for q in quadrics(QQ)]
    assert any(not r.is_zero() for r in residuals)


def test_components_checksum_guard():
    import godeaux_lines.families as fam

    assert len(fam.HYP_CHECKSUM) == 64
    comps = hyp_components()
    assert len(comps) == 12
    for c in comps:
        ok, deg = c.is_multihomogeneous()
        assert ok and deg == HYP_MULTIDEGREE


# ----------------------------------------------------------------------
# two-torsion families


def test_z5_symbolic_certificate():
    cert = verify_z5_family()
    assert cert.passed


def test_z5_line_values(f31):
    line = z5_line(f31, 2, 3, 5, 7)
    assert line_in_q(line)
    assert len(torsion_intersections(line)) == 2


def _oracle_z5_line(F, p0, p1, q0, q1):
    """The oracle: the example member with its four coordinates placed by hand."""
    r0 = [0] * 12
    r1 = [0] * 12
    r0[AIDX["a23"]], r0[AIDX["a10"]] = F.canonical(p0), F.canonical(p1)
    r1[AIDX["a31"]], r1[AIDX["a02"]] = F.canonical(q0), F.canonical(q1)
    return LineA(F, r0, r1)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_z5_line_matches_oracle(field):
    rng = random.Random(51)
    outcomes = set()
    for _ in range(300):
        params = _params(field, rng, 4)
        got = _rows_or_error(lambda: z5_line(field, *params))
        assert got == _rows_or_error(lambda: _oracle_z5_line(field, *params))
        outcomes.add(got if isinstance(got, type) else "line")
    assert outcomes == {GeometryError, "line"}


def test_component_counts_all_pairs():
    for a in range(3):
        for b in range(3):
            if a == b:
                with pytest.raises(FamilyError):
                    z5_component_counts(TORSION_SPACES[a], TORSION_SPACES[b])
                continue
            census = z5_component_counts(TORSION_SPACES[a], TORSION_SPACES[b])
            assert census.counts == {"P1xP1": 6, "P0xP2": 4, "P2xP0": 4}
            assert sum(census.counts.values()) == 14


def test_example_family_among_components():
    census = z5_component_counts(TORSION_SPACES[0], TORSION_SPACES[1])
    marked = [c for c in census.components if c.is_example_family]
    assert len(marked) == 1
    comp = marked[0]
    assert comp.kind == "P1xP1"
    assert set(comp.a_survivors) == {AIDX["a23"], AIDX["a10"]}
    assert set(comp.b_survivors) == {AIDX["a31"], AIDX["a02"]}


def test_p1xp1_components_pairwise_distinct():
    census = z5_component_counts(TORSION_SPACES[0], TORSION_SPACES[2])
    supports = {
        (c.a_survivors, c.b_survivors)
        for c in census.components
        if c.kind == "P1xP1"
    }
    assert len(supports) == 6


def test_all_components_verified_in_q():
    # the census raises rather than list a component whose lines leave Q;
    # each listed one also passes the symbolic proof on its rows
    for a, b in ((0, 1), (0, 2), (1, 2)):
        census = z5_component_counts(TORSION_SPACES[a], TORSION_SPACES[b])
        assert all(_symbolic_verdict(c.a_survivors, c.b_survivors) for c in census.components)


def _symbolic_verdict(a_surv, b_surv):
    from godeaux_lines.certificates import Certificate

    return fam._symbolic_line_in_q(Certificate("oracle"), *component_rows(a_surv, b_surv))


def test_support_rule_matches_symbolic_proof():
    # every subset pair of the survivors of every ordered torsion pair, then
    # seeded random supports that overlap
    from itertools import chain, combinations

    subsets = lambda xs: list(chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1)))
    verdicts = []
    for sa in TORSION_SPACES:
        for sb in TORSION_SPACES:
            if sa == sb:
                continue
            for a_surv in subsets(sa.survivors):
                for b_surv in subsets(sb.survivors):
                    verdict = fam.quadrics_vanish_on(a_surv + b_surv)
                    assert verdict == _symbolic_verdict(a_surv, b_surv), (a_surv, b_surv)
                    verdicts.append(verdict)
    assert len(verdicts) == 6 * 256 and 0 < verdicts.count(True) < len(verdicts)
    rng = random.Random(1536)
    overlapping = 0
    for _ in range(400):
        a_surv = tuple(sorted(rng.sample(range(12), rng.randint(0, 5))))
        b_surv = tuple(sorted(rng.sample(range(12), rng.randint(0, 5))))
        overlapping += bool(set(a_surv) & set(b_surv))
        assert fam.quadrics_vanish_on(a_surv + b_surv) == _symbolic_verdict(a_surv, b_surv)
    assert overlapping > 100


def test_census_proves_every_cover(monkeypatch):
    # all 14 covers of a pair go through the support rule on each call, and a
    # cover holding both ends of a quadric term in one row stops the census
    proved = []
    rule = fam.quadrics_vanish_on

    def counted(support):
        proved.append(support)
        return rule(support)

    monkeypatch.setattr(fam, "quadrics_vanish_on", counted)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        z5_component_counts(TORSION_SPACES[a], TORSION_SPACES[b])
    assert len(set(proved)) == len(proved) == 42

    covers = fam._matching_covers
    _, u, v = fam.QUADRIC_TERMS[0][0]  # a12 * a13 is a term of q_0

    def with_bad_cover(space_a, space_b):
        edges, found = covers(space_a, space_b)
        return edges, found + [("P1xP1", tuple(sorted((u, v))), ())]

    monkeypatch.setattr(fam, "_matching_covers", with_bad_cover)
    assert not _symbolic_verdict(tuple(sorted((u, v))), ())
    with pytest.raises(FamilyError, match="not inside Q"):
        z5_component_counts(TORSION_SPACES[0], TORSION_SPACES[1])


def test_component_edges_form_matching():
    census = z5_component_counts(TORSION_SPACES[1], TORSION_SPACES[2])
    a_sides = [a for a, _ in census.edges]
    b_sides = [b for _, b in census.edges]
    assert sorted(a_sides) == sorted(TORSION_SPACES[1].survivors)
    assert sorted(b_sides) == sorted(TORSION_SPACES[2].survivors)


def test_sample_component_line(f31):
    rng = random.Random(4)
    line = sample_component_line(f31, TORSION_SPACES[0], TORSION_SPACES[2], rng)
    assert line_in_q(line)
    report = classify_line(line)
    assert {sp.name for _, sp in report.torsion_points} == {"T01|23", "T03|12"}


# ----------------------------------------------------------------------
# the one-torsion parametrization


def test_z3_symbolic_certificate():
    cert = verify_z3_line()
    assert cert.passed


def test_z3_numeric_instance(f31):
    line = z3_line(f31, (1, 1, 1, 1), (1, 2), (1, 1))
    assert line_in_q(line)
    report = classify_line(line)
    assert len(report.torsion_points) == 1
    assert report.torsion_points[0][1].name == "T01|23"


def test_z3_more_numeric_instances(f31, f101):
    rng = random.Random(10)
    produced = 0
    while produced < 5:
        u = [f101.random_nonzero(rng) for _ in range(4)]
        w = [f101.random_nonzero(rng) for _ in range(2)]
        z = [f101.random_nonzero(rng) for _ in range(2)]
        try:
            line = z3_line(f101, u, w, z)
        except GeometryError:
            continue
        produced += 1
        points = torsion_intersections(line)
        assert len(points) == 1 and points[0][1].name == "T01|23"


def _oracle_z3_rows(vt, field):
    """The oracle: the rows as symbolic polynomials, to be evaluated by Poly.eval."""
    var = {n: Poly.variable(vt, field, n) for n in fam.Z3_PARAM_NAMES}
    u0, u1, u2, u3 = (var[n] for n in ("u0", "u1", "u2", "u3"))
    w0, w1, z0, z1 = (var[n] for n in ("w0", "w1", "z0", "z1"))
    zero = Poly.zero(vt, field)
    row0 = [zero] * 12
    row0[AIDX["a32"]] = u0
    row0[AIDX["a23"]] = u1
    row0[AIDX["a10"]] = u2
    row0[AIDX["a01"]] = u3
    row1 = [zero] * 12
    row1[AIDX["a32"]] = u0 * u0 * u1 * w1 ** 3 * z1
    row1[AIDX["a31"]] = u1 * u3 * u3 * w0 * w0 * w1 * z1
    row1[AIDX["a30"]] = -(u1 * u2 * u2 * w0 * w0 * w1 * z1)
    row1[AIDX["a21"]] = u0 * u3 * u3 * w0 * w0 * w1 * z1
    row1[AIDX["a20"]] = -(u0 * u2 * u2 * w0 * w0 * w1 * z1)
    row1[AIDX["a13"]] = -(u1 * u1 * u3 * w0 * w1 * w1 * z1)
    row1[AIDX["a12"]] = u0 * u0 * u3 * w0 * w1 * w1 * z1
    row1[AIDX["a10"]] = u2 * z0 - u2 * u2 * u3 * w0 ** 3 * z1
    row1[AIDX["a03"]] = -(u1 * u1 * u2 * w0 * w1 * w1 * z1)
    row1[AIDX["a02"]] = u0 * u0 * u2 * w0 * w1 * w1 * z1
    row1[AIDX["a01"]] = u3 * z0
    return row0, row1


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_z3_line_matches_symbolic_oracle(field):
    row0, row1 = _oracle_z3_rows(VarTable(fam.Z3_PARAM_NAMES), field)

    def oracle(params):
        params = [field.canonical(x) for x in params]
        line = LineA(field, [poly_eval(p, params) for p in row0], [poly_eval(p, params) for p in row1])
        if not line_in_q(line):
            raise FamilyError("left Q")
        return line

    rng = random.Random(33)
    outcomes = set()
    for _ in range(300):
        params = _params(field, rng, 8)
        got = _rows_or_error(lambda: z3_line(field, params[:4], params[4:6], params[6:]))
        assert got == _rows_or_error(lambda: oracle(params))
        outcomes.add(got if isinstance(got, type) else "line")
    assert outcomes == {GeometryError, "line"}


def test_z3_degenerate_parameters_rejected(f31):
    # u = (1,0,0,0), w = (0,1), z = (1,0): the second row vanishes entirely
    with pytest.raises(GeometryError):
        z3_line(f31, (1, 0, 0, 0), (0, 1), (1, 0))


def test_z3_kernel_certificate():
    cert = verify_z3_kernel()
    assert cert.passed
    by_name = {c.name: c for c in cert.checks}
    assert by_name["row1-direct"].passed
    assert by_name["row2-direct"].passed
    assert by_name["zero-vector-in-kernel"].passed
    # the direct reading does not validate the third tabulated row; the
    # search finds the convention reading kernel columns 5,6 as (v67, v45)
    assert cert.data["row3_direct_ok"] is False
    assert cert.data["validating_convention"] == {
        "last_two_unknowns": ["v67", "v45"],
        "signs": [1, 1],
    }


@pytest.mark.parametrize("change, reading", [
    # columns 5 and 6 negated: the swapped reading with both signs flipped
    (lambda row: row[:4] + [-row[4], -row[5]], (["v67", "v45"], [-1, -1])),
    # columns 5 and 6 exchanged: the direct reading
    (lambda row: row[:4] + [row[5], row[4]], (["v45", "v67"], [1, 1])),
])
def test_z3_kernel_search_reports_the_reading_that_validates(monkeypatch, change, reading):
    # tabulated rows that another reading validates: the search finds that one
    real = fam._z3_reference_kernel_rows
    monkeypatch.setattr(fam, "_z3_reference_kernel_rows", lambda *args: [change(row) for row in real(*args)])
    cert = verify_z3_kernel()
    assert cert.passed
    last_two, signs = reading
    assert cert.data["validating_convention"] == {"last_two_unknowns": last_two, "signs": signs}


@pytest.mark.parametrize("row, col", [(2, 5), (0, 0)])
def test_z3_kernel_search_fails_when_no_reading_validates(monkeypatch, row, col):
    # one tabulated entry doubled: no reading validates, and the residuals
    # the certificate records (products with a zero entry skipped) are the
    # plain sums of every product
    real = fam._z3_reference_kernel_rows

    def changed(*args):
        rows = real(*args)
        rows[row][col] = rows[row][col].scale(2)
        return rows

    monkeypatch.setattr(fam, "_z3_reference_kernel_rows", changed)
    cert = verify_z3_kernel()
    assert not cert.passed
    by_name = {c.name: c for c in cert.checks}
    search = by_name["all-rows-under-some-convention"]
    assert not search.passed and search.detail.endswith("none found")
    assert cert.data["validating_convention"] is None
    vt = VarTable(("u0", "u1", "u2", "u3", "w0", "w1"))
    zero = Poly.zero(vt, QQ)
    var = [Poly.variable(vt, QQ, n) for n in vt.names]
    system = fam._z3_kernel_system(*var, zero)
    oracle = [[str(sum((e * v for e, v in zip(eq, vec)), zero)) for eq in system]
              for vec in changed(*var, zero)]
    assert cert.data["direct_reading_residuals"] == oracle
    assert any(text != "0" for text in oracle[row])


def _z3_convention_oracle(reference):
    """The first reading of the kernel rows ``reference`` that validates all
    of them, every row applied under every convention, as the search ran
    before it reused the direct residuals; None if none does."""
    vt = VarTable(("u0", "u1", "u2", "u3", "w0", "w1"))
    zero = Poly.zero(vt, QQ)
    system = fam._z3_kernel_system(*(Poly.variable(vt, QQ, n) for n in vt.names), zero)
    for swap, s5, s6 in product((False, True), (1, -1), (1, -1)):
        c5, c6 = (5, 4) if swap else (4, 5)
        readings = [row[:4] + [row[c5].scale(s5), row[c6].scale(s6)] for row in reference]
        if all(sum((e * v for e, v in zip(eq, vec)), zero).is_zero() for eq in system for vec in readings):
            return {"last_two_unknowns": ["v67", "v45"] if swap else ["v45", "v67"], "signs": [s5, s6]}
    return None


@pytest.mark.parametrize("change, applies", [
    (lambda rows: rows, 8),  # 3 direct, the zero vector, row 3 under conventions 2-5
    (lambda rows: [row[:4] + [row[5], row[4]] for row in rows], 4),  # the direct reading validates
    (lambda rows: [[p.scale(2) for p in rows[2]], rows[1], rows[2]], 9),  # row 1 moves too
    (lambda rows: [rows[0], rows[1], rows[2][:4] + [rows[2][4].scale(3), rows[2][5]]], 11),  # none
])
def test_z3_kernel_search_applies_only_the_rows_that_move(monkeypatch, change, applies):
    # rows zero in columns 5, 6 keep their direct residuals under every
    # convention, and the first convention is the direct reading: the search
    # finds the reading that applying every row under every convention finds
    import godeaux_lines.polynomials as polynomials

    real_rows, real_apply = fam._z3_reference_kernel_rows, polynomials.PolyMatrix.apply
    calls = []
    monkeypatch.setattr(fam, "_z3_reference_kernel_rows", lambda *args: change(real_rows(*args)))
    monkeypatch.setattr(polynomials.PolyMatrix, "apply", lambda self, vec: calls.append(1) or real_apply(self, vec))
    cert = verify_z3_kernel()
    vt = VarTable(("u0", "u1", "u2", "u3", "w0", "w1"))
    reference = change(real_rows(*(Poly.variable(vt, QQ, n) for n in vt.names), Poly.zero(vt, QQ)))
    assert cert.data["validating_convention"] == _z3_convention_oracle(reference)
    assert len(calls) == applies
    assert (cert.data["validating_convention"] is None) == (applies == 11)  # the last case finds none


# ----------------------------------------------------------------------
# the determinantal scroll system


def test_para_v2_certificate():
    cert = verify_para_v2()
    assert cert.passed
    by_name = {c.name: c for c in cert.checks}
    assert by_name["det1-vanishes"].passed
    assert by_name["det2-vanishes"].passed
    assert by_name["bounded-kernel-dimension-7"].passed


def test_para_v2_stops_without_one_first_generator(monkeypatch):
    # no kernel vector at (0,1,1): the certificate fails its first check and
    # stops, before the (2,1,1) solve and the determinants
    bounds = []
    real = fam.bounded_degree_kernel
    monkeypatch.setattr(fam, "bounded_degree_kernel", lambda M, b: bounds.append(b) or real(M, b)[:0])
    cert = verify_para_v2()
    assert not cert.passed
    assert [(c.name, c.passed, c.detail) for c in cert.checks] == [
        ("one-generator-at-(0,1,1)", False, "found 0 kernel vectors")]
    assert bounds == [(0, 1, 1)] and cert.data == {}


def test_para_v2_stops_without_a_second_generator(monkeypatch):
    # a (2,1,1) kernel holding only n1's multiples by the six w-monomials of
    # degree <= 2: no second generator, so the certificate stops there,
    # before the substitution and the determinants
    real = fam.bounded_degree_kernel

    def kernel(M, bound):
        if bound != (2, 1, 1):
            return real(M, bound)
        (n1,) = real(M, (0, 1, 1))
        w_monos = [Poly.monomial(M.vars, QQ, e) for e in fam.monomials_up_to(M.vars, (2, 0, 0))]
        return [[m * p for p in n1] for m in w_monos]

    monkeypatch.setattr(fam, "bounded_degree_kernel", kernel)
    cert = verify_para_v2()
    assert [(c.name, c.passed) for c in cert.checks] == [
        ("one-generator-at-(0,1,1)", True),
        ("bounded-kernel-dimension-7", False),
        ("second-generator-found", False),
    ]
    assert cert.data == {}


def test_para_v2_perturbed_fails(monkeypatch):
    # the certificate must catch a wrong system: w0 z1 becomes (w0 + w1) z1
    M = fam._para_v2_system()
    w1, z1 = (Poly.variable(M.vars, QQ, n) for n in ("w1", "z1"))
    rows = [list(row) for row in M.entries]
    rows[3][3] = rows[3][3] + w1 * z1
    monkeypatch.setattr(fam, "_para_v2_system", lambda: PolyMatrix(M.vars, QQ, rows))
    cert = verify_para_v2()
    assert not cert.passed
    # the failing determinant is printed in (v0, v1, w0, .., z1), as the
    # kernel vectors composed into that table gave it
    assert [(c.name, c.detail) for c in cert.checks if not c.passed] == [
        ("det2-vanishes", "v0*v1*w0*w1^2*y0*y1*z0*z1 - v0*v1*w1^3*y0*y1*z0*z1")]
