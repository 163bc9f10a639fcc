import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import compose, coords_from
from godeaux_lines.families import sample_component_line, z5_line
from godeaux_lines.fields import PrimeField, QQ
from godeaux_lines.geometry import AIDX, LineA, ORDER, PointA, line_in_q
from godeaux_lines.pencil import BinaryForm
from godeaux_lines.sampling import sample_line, tangent_cone_partner, _Budget, _fulfils
from godeaux_lines.strata import (
    IDENTITY_SYMMETRY,
    MinorRoot,
    StrataError,
    TORSION_SPACES,
    classify_line,
    hyperelliptic_points,
    quadric_symmetries,
    rank_a,
    row_vanishing_points,
    symmetry_fixes_quadrics,
    torsion_containments,
    torsion_intersections,
    torsion_space,
    verify_symmetries,
    verify_torsion_spaces,
    _PERM_INDEX,
    _torsion_table,
)

#: the worked image point of the hyperelliptic parametrization
HYP_WORKED_POINT = (2, 2, -24, -1, -2, 36, -1, 2, -72, -2, 6, -12)


# ----------------------------------------------------------------------
# torsion spaces


def test_t0123_killed_set():
    killed = sorted(ORDER[i] for i in torsion_space("T01|23").killed)
    assert killed == sorted(["a31", "a30", "a21", "a20", "a13", "a12", "a03", "a02"])


def test_three_spaces_partition_coordinates():
    seen = set()
    for sp in TORSION_SPACES:
        assert len(sp.survivors) == 4 and len(sp.killed) == 8
        seen.update(sp.survivors)
    assert seen == set(range(12))


def test_verify_torsion_spaces_certificate():
    cert = verify_torsion_spaces()
    assert cert.passed


def test_torsion_spaces_rest_on_the_support_rule(monkeypatch):
    # q_0 given one term a01 * a10 with both ends among T01|23's survivors:
    # the rule then rejects the space, and its construction and certificate fail
    import godeaux_lines.geometry as geometry
    import godeaux_lines.strata as strata

    extra = (1, AIDX["a01"], AIDX["a10"])
    terms = (geometry.QUADRIC_TERMS[0] + (extra,),) + geometry.QUADRIC_TERMS[1:]
    monkeypatch.setattr(geometry, "QUADRIC_TERMS", terms)
    with pytest.raises(StrataError, match=r"T01\|23"):
        strata._build_torsion_space((0, 1), (2, 3))
    strata._build_torsion_space((0, 2), (1, 3))  # a01 and a10 are killed there
    checks = {c.name: c.passed for c in verify_torsion_spaces().checks}
    assert not checks["quadrics-vanish-on-T01|23"] and checks["quadrics-vanish-on-T02|13"]


# ----------------------------------------------------------------------
# rank stratification


def test_rank_generic_point_is_4(generic_line):
    assert rank_a(generic_line.point_at(1, 0)) == 4
    assert rank_a(generic_line.point_at(3, 7)) == 4


def test_rank_torsion_point_is_2(f31):
    rng = random.Random(1)
    for sp in TORSION_SPACES:
        assert rank_a(sp.random_point(f31, rng)) == 2


def test_rank_hyp_worked_point_is_3():
    p = PointA(QQ, [Fraction(c) for c in HYP_WORKED_POINT])
    assert p.on_quadric_intersection()
    assert rank_a(p) == 3


def test_rank_invariant_under_rescaling(f31):
    rng = random.Random(2)
    coords = coords_from(f31, a23=1, a10=4, a32=9, a01=12)
    p = PointA(f31, coords)
    scaled = PointA(f31, [f31.mul(7, c) for c in coords])
    assert rank_a(p) == rank_a(scaled)


# ----------------------------------------------------------------------
# torsion intersections


def test_z5_example_torsion_intersections(z5_example):
    points = torsion_intersections(z5_example)
    assert len(points) == 2
    spaces = {sp.name for _, sp in points}
    assert spaces == {"T01|23", "T02|13"}
    by_space = {sp.name: st for st, sp in points}
    assert by_space["T01|23"] == (1, 0)
    assert by_space["T02|13"] == (0, 1)


def test_z3_numeric_instance_single_torsion_point(f31):
    from godeaux_lines.families import z3_line

    line = z3_line(f31, (1, 1, 1, 1), (1, 2), (1, 1))
    points = torsion_intersections(line)
    assert len(points) == 1
    assert points[0][1].name == "T01|23"
    assert points[0][0] == (1, 0)


def test_generic_line_no_torsion(generic_line):
    assert torsion_intersections(generic_line) == []
    assert torsion_containments(generic_line) == []


def test_line_inside_torsion_space_reported_as_containment(f31):
    line = LineA(f31, coords_from(f31, a32=1, a01=1), coords_from(f31, a23=1, a10=1))
    assert torsion_containments(line) == [torsion_space("T01|23")]
    assert torsion_intersections(line) == []


def test_detectors_reject_lines_outside_q(f31):
    rng = random.Random(0)
    line = LineA(
        f31,
        [f31.random(rng) for _ in range(12)],
        [f31.random(rng) for _ in range(12)],
    )
    with pytest.raises(StrataError):
        torsion_intersections(line)
    with pytest.raises(StrataError):
        classify_line(line)


# ----------------------------------------------------------------------
# hyperelliptic points and the minor GCD


def test_quartic_minors_are_k4_forms():
    # the a-matrix is a weighted incidence matrix of K4: column c is an edge
    # {i, j} holding a_ij in row i and a_ji in row j, and a minor keeps four
    # of the six edges.  If the two dropped edges share the vertex l, the kept
    # ones are the triangle on the other vertices i, j, k and a pendant edge
    # {l, m}: the minor is +-a_lm T_l, T_l = a_ij a_jk a_ki + a_ik a_kj a_ji.
    # If they are a perfect matching {ij|kl}, the kept ones are the 4-cycle
    # i-k-j-l: the minor is +-C_ij|kl = a_ik a_kj a_jl a_li - a_il a_lj a_jk a_ki.
    # Every entry is a bare variable, so each monomial has the sign of the
    # one permutation that picks it; the expected sign is read off the first
    # monomial and the second must follow.  The forms, T_0..T_3 and then the
    # C's named with 0 in the first pair, are geometry._k4_forms at the variables.
    from collections import Counter
    from itertools import combinations

    from godeaux_lines.geometry import A_PATTERN, _k4_forms, a_vartable, det4
    from godeaux_lines.polynomials import Poly

    vt = a_vartable()
    var = [Poly.variable(vt, QQ, name) for name in ORDER]
    a = lambda i, j: var[AIDX[f"a{i}{j}"]]
    matrix = [[Poly.zero(vt, QQ) if j is None else var[j] for j in row] for row in A_PATTERN]
    edges = [frozenset(r for r in range(4) if A_PATTERN[r][c] is not None) for c in range(6)]
    for c, (i, j) in enumerate(map(sorted, edges)):
        assert (ORDER[A_PATTERN[i][c]], ORDER[A_PATTERN[j][c]]) == (f"a{i}{j}", f"a{j}{i}")

    def sign(cols, picks):
        """The sign of the permutation taking row r to the column of edge picks[r]."""
        perm = [cols.index(edges.index(frozenset(picks[r]))) for r in range(4)]
        return (-1) ** sum(perm[x] > perm[y] for x, y in combinations(range(4), 2))

    kinds, matchings, forms = Counter(), set(), {}
    for cols in combinations(range(6), 4):
        minor = det4([[row[c] for c in cols] for row in matrix])
        first, second = (edges[c] for c in range(6) if c not in cols)
        if first & second:
            (l,) = first & second
            (m,) = set(range(4)) - first - second
            i, j, k = sorted(set(range(4)) - {l})
            picks = {l: (l, m), i: (i, j), j: (j, k), k: (k, i)}
            forms[l] = a(i, j) * a(j, k) * a(k, i) + a(i, k) * a(k, j) * a(j, i)
            form = a(l, m) * forms[l]
            kinds["triangle"] += 1
        else:
            (i, j), (k, l) = sorted(map(sorted, (first, second)))
            picks = {i: (i, k), k: (k, j), j: (j, l), l: (l, i)}
            form = forms[3 + j] = a(i, k) * a(k, j) * a(j, l) * a(l, i) - a(i, l) * a(l, j) * a(j, k) * a(k, i)
            kinds["cycle"] += 1
            matchings.add(frozenset((first, second)))
        assert len(minor.terms) == 2
        assert minor == form.scale(sign(cols, picks)), cols
    assert kinds == {"triangle": 12, "cycle": 3}
    assert _k4_forms(var) == [forms[n] for n in range(7)]
    # the three 4-cycles are named by the partitions that name the torsion spaces
    assert matchings == {frozenset(map(frozenset, sp.partition)) for sp in TORSION_SPACES}


def test_generic_line_trivial_gcd(generic_line):
    result = hyperelliptic_points(generic_line)
    assert result.gcd.degree == 0 and not result.gcd.is_zero()
    assert result.roots == ()


def test_hyp_line_one_rank3_root(hyp_line):
    result = hyperelliptic_points(hyp_line)
    rank3 = [r for r in result.roots if r.rank == 3]
    assert len(rank3) == 1


def test_two_hyp_line_two_rank3_roots(two_hyp_line):
    result = hyperelliptic_points(two_hyp_line)
    rank3 = [r for r in result.roots if r.rank == 3]
    assert len(rank3) == 2
    assert len({r.point for r in rank3}) == 2


def test_gcd_roots_match_exhaustive_scan(hyp_line, two_hyp_line, generic_line, f31):
    # oracle: scan all of P^1(F_31) for points where the a-matrix drops rank
    for line in (generic_line, hyp_line, two_hyp_line):
        result = hyperelliptic_points(line)
        reported = {r.point for r in result.roots}
        scanned = set()
        for x in range(31):
            if rank_a(line.point_at(x, 1)) <= 3:
                scanned.add((x, 1))
        if rank_a(line.point_at(1, 0)) <= 3:
            scanned.add((1, 0))
        assert reported == scanned


def test_gcd_root_of_full_rank_is_rejected(hyp_line, monkeypatch):
    # a root's rank is its certificate: rank 4 means some minor survives there
    import godeaux_lines.strata as strata

    assert hyperelliptic_points(hyp_line).roots
    monkeypatch.setattr(strata, "rank_a", lambda point: 4)
    with pytest.raises(StrataError):
        hyperelliptic_points(hyp_line)


def test_z5_example_gcd_and_low_rank_roots(z5_example):
    result = hyperelliptic_points(z5_example)
    # restricted a-matrix has a single nonzero 4x4 minor ~ s^2 t^2
    assert str(result.gcd) == "s^2*t^2"
    assert all(r.rank == 2 for r in result.roots)
    assert {r.point for r in result.roots} == {(1, 0), (0, 1)}
    assert all(r.multiplicity == 2 for r in result.roots)


# ----------------------------------------------------------------------
# row vanishing


def test_generic_line_no_row_vanishing(generic_line):
    points, contained = row_vanishing_points(generic_line)
    assert points == [] and contained == []


def test_row_zero_construction(f31):
    # a line through a point with a01 = a02 = a03 = 0 sees row 0 vanish there
    rng = random.Random(33)
    p = PointA(f31, coords_from(f31, a32=3, a23=5, a10=2))
    budget = _Budget("test", 10_000_000)
    w = tangent_cone_partner(f31, p, rng, budget)
    line = LineA(f31, p.coords, w.coords)
    points, _ = row_vanishing_points(line)
    assert ((1, 0), 0) in points


def test_z5_example_row_vanishing_recomputed(z5_example):
    # exact recomputation: restricted rows are (0,t,0), (s,0,0), (0,0,s),
    # (0,t,0)-patterned, so each row vanishes at one of the two torsion points
    points, contained = row_vanishing_points(z5_example)
    assert contained == []
    assert sorted(points) == sorted(
        [((1, 0), 0), ((0, 1), 1), ((0, 1), 2), ((1, 0), 3)]
    )


# ----------------------------------------------------------------------
# classification


def test_classify_z5_example(z5_example):
    report = classify_line(z5_example)
    assert len(report.torsion_points) == 2
    assert {sp.name for _, sp in report.torsion_points} == {"T01|23", "T02|13"}
    assert report.hyperelliptic_roots == ()
    assert not report.excluded_flag
    assert report.kernel_degrees == (0, 0, 0, 0)
    assert not report.is_generic


def test_classify_generic(generic_line):
    report = classify_line(generic_line)
    assert report.is_generic
    assert report.kernel_degrees == (1, 1, 1, 1)
    assert report.minor_gcd.degree == 0
    assert report.row_vanishing == ()


def test_classify_torsion_strategy_line(f31):
    line = sample_line("torsion", f31, seed=7)
    report = classify_line(line)
    assert len(report.torsion_points) == 1
    assert report.torsion_points[0][1].name == "T01|23"
    assert report.hyperelliptic_roots == ()


def test_classify_invariant_under_gl2(z5_example, hyp_line, f31):
    for line in (z5_example, hyp_line):
        report = classify_line(line)
        moved = line.transformed(((3, 1), (5, 2)))
        report2 = classify_line(moved)
        as_points = lambda rep, line_: {
            (line_.point_at(*st), sp.name) for st, sp in rep.torsion_points
        }
        assert as_points(report, line) == as_points(report2, moved)
        hyp1 = {line.point_at(*r.point) for r in report.hyperelliptic_roots}
        hyp2 = {moved.point_at(*r.point) for r in report2.hyperelliptic_roots}
        assert hyp1 == hyp2
        assert report.kernel_degrees == report2.kernel_degrees
        assert report.minor_gcd.degree == report2.minor_gcd.degree


def test_classify_over_rationals():
    # the whole pipeline, including rational root finding, over Q
    from godeaux_lines.families import z3_line, z5_line

    line = z5_line(QQ, 1, 1, 1, 1)
    report = classify_line(line)
    assert {sp.name for _, sp in report.torsion_points} == {"T01|23", "T02|13"}
    assert str(report.minor_gcd) == "s^2*t^2"
    assert report.kernel_degrees == (0, 0, 0, 0)

    line3 = z3_line(QQ, (1, 1, 1, 1), (1, 2), (1, 1))
    report3 = classify_line(line3)
    assert len(report3.torsion_points) == 1
    assert report3.kernel_degrees == (1, 1, 1, 1)


def test_report_json_shape(z5_example):
    payload = classify_line(z5_example).to_json()
    assert payload["torsion_points"] == [
        {"point": "(1:0)", "space": "T01|23"},
        {"point": "(0:1)", "space": "T02|13"},
    ]
    assert payload["minor_gcd"] == "s^2*t^2"
    assert payload["excluded"] is False
    assert payload["kernel_degrees"] == [0, 0, 0, 0]


def test_classify_checks_line_in_q_once(z5_example, hyp_line, monkeypatch):
    import godeaux_lines.pencil as pencil
    import godeaux_lines.strata as strata

    calls = []

    def counting(line):
        calls.append(line)
        return line_in_q(line)

    monkeypatch.setattr(strata, "line_in_q", counting)
    monkeypatch.setattr(pencil, "line_in_q", counting)
    for line in (z5_example, hyp_line):
        calls.clear()
        classify_line(line)
        assert len(calls) == 1


def test_classify_twice_checks_line_in_q_each_time(z5_example, monkeypatch):
    # the second call reuses the first report but still checks the line
    import godeaux_lines.pencil as pencil
    import godeaux_lines.strata as strata

    calls = []

    def counting(line):
        calls.append(line)
        return line_in_q(line)

    monkeypatch.setattr(strata, "line_in_q", counting)
    monkeypatch.setattr(pencil, "line_in_q", counting)
    for _ in range(2):
        calls.clear()
        classify_line(z5_example)
        assert len(calls) == 1


def _fresh_json(line, monkeypatch):
    """The report of a line classified with no report kept from before."""
    import godeaux_lines.strata as strata

    monkeypatch.setattr(strata, "_last_report", (None, None))
    return classify_line(line).to_json()


def test_classify_reuse_matches_fresh_reports(z5_example, hyp_line, monkeypatch):
    fresh = {id(line): _fresh_json(line, monkeypatch) for line in (z5_example, hyp_line)}
    assert classify_line(z5_example).to_json() == fresh[id(z5_example)]
    for line in (z5_example, hyp_line, z5_example, z5_example):
        assert classify_line(line).to_json() == fresh[id(line)]


def test_classify_reuse_returns_the_callers_line(f31):
    line = sample_line("hyp", f31, 3)
    bare = LineA(f31, *line.rows)
    assert classify_line(bare).line is bare
    report = classify_line(line)
    assert report.line is line
    assert report.to_json()["line"]["provenance"] == line.provenance


def test_classify_reuse_keys_on_the_field(monkeypatch):
    # the same raw rows lie in Q over both primes, with different roots
    a = z5_line(PrimeField(31), 1, 2, 3, 5).transformed(((1, 1), (1, 2)))
    b = LineA(PrimeField(37), *a.rows)
    assert a.rows == b.rows
    want_a, want_b = _fresh_json(a, monkeypatch), _fresh_json(b, monkeypatch)
    assert want_a["torsion_points"] != want_b["torsion_points"]
    for line, want in ((a, want_a), (b, want_b), (a, want_a)):
        report = classify_line(line)
        assert report.line.field == line.field
        assert report.to_json() == want


def test_classify_reuse_across_threads(z5_example, hyp_line, monkeypatch):
    # threads that alternate two lines replace the kept report under each
    # other; every report must still be the one of the caller's line
    import sys
    import threading

    want = {id(line): _fresh_json(line, monkeypatch) for line in (z5_example, hyp_line)}
    wrong = []

    def work(lines):
        for line in lines * 3:
            if classify_line(line).to_json() != want[id(line)]:
                wrong.append(line)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(order,))
            for order in [(z5_example, z5_example, hyp_line), (hyp_line, hyp_line, z5_example)] * 2
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


# ----------------------------------------------------------------------
# large prime fields: root finding is exact for every p < 2^63


def assert_torsion_pair(line, pair):
    report = classify_line(line)
    assert sorted(sp.name for _, sp in report.torsion_points) == sorted(
        sp.name for sp in pair
    )
    for root, space in report.torsion_points:
        assert space.contains(line.point_at(*root))
    assert report.hyperelliptic_roots == ()
    assert not report.excluded_flag


LARGE_PRIMES = [100003, 1000003, 2**31 - 1, 2**61 - 1]


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_classify_z5_line_over_large_prime(p):
    F = PrimeField(p)
    rng = random.Random(p)
    line = z5_line(F, *(F.random_nonzero(rng) for _ in range(4)))
    for moved in (line, line.transformed(((2, 1), (1, 1)))):
        assert_torsion_pair(moved, TORSION_SPACES[:2])


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_classify_two_torsion_component_line_over_large_prime(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for b in (1, 2):
        pair = (TORSION_SPACES[0], TORSION_SPACES[b])
        line = sample_component_line(F, *pair, rng)
        assert_torsion_pair(line.transformed(((3, 1), (1, 2))), pair)


# ----------------------------------------------------------------------
# quadric symmetries


@pytest.fixture(scope="module")
def symmetry_group():
    return quadric_symmetries()


def test_identity_in_group(symmetry_group):
    assert any(
        e.perm == IDENTITY_SYMMETRY.perm and e.signs == IDENTITY_SYMMETRY.signs
        for e in symmetry_group.elements
    )


def test_group_order(symmetry_group):
    # 16 sign vectors per coordinate permutation: 8 independent GF(2)
    # constraints on 12 sign unknowns, realized for all 24 permutations
    assert symmetry_group.order == 384
    perms = {e.perm for e in symmetry_group.elements}
    assert len(perms) == 24


def torsion_permutation(e):
    """The permutation of the three torsion spaces (as indices) that e's coordinate permutation induces."""
    return _torsion_table()[_PERM_INDEX[e.perm]]


def test_torsion_action_transitive(symmetry_group):
    assert symmetry_group.torsion_transitive
    images = {torsion_permutation(e) for e in symmetry_group.elements}
    assert len(images) == 6  # the full permutation action on three spaces


def test_transposition_01_realized(symmetry_group):
    assert any(e.perm == (1, 0, 2, 3) for e in symmetry_group.elements)


def test_elements_fix_quadric_set_exactly(symmetry_group):
    for e in symmetry_group.generators:
        assert symmetry_fixes_quadrics(e)


def _closure(gens):
    """The group generated by ``gens`` as (perm, signs) keys, found breadth
    first from the identity with every generator; the library's earlier
    closure, kept as an oracle."""
    from godeaux_lines.strata import IDENTITY_SYMMETRY

    key = lambda e: (e.perm, e.signs)
    have = {key(IDENTITY_SYMMETRY)}
    frontier = [IDENTITY_SYMMETRY]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = compose(g, a)
                if key(c) not in have:
                    have.add(key(c))
                    nxt.append(c)
        frontier = nxt
    return have


def test_generators_generate(symmetry_group):
    assert len(_closure(symmetry_group.generators)) == symmetry_group.order


def test_group_is_built_with_few_compositions(monkeypatch):
    # growing the group by whole cosets composes about once per element;
    # a closure over every generator at every step took 2,688 compositions.
    # The closure composes int codes (strata._compose); SignedPermutation
    # has no composition of its own (conftest.compose is the tests' oracle).
    import godeaux_lines.strata as strata
    from godeaux_lines.strata import SignedPermutation

    calls = []
    real = strata._compose

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(strata, "_compose", counted)
    assert not hasattr(SignedPermutation, "compose")
    assert quadric_symmetries().order == 384
    assert 0 < len(calls) <= 2 * 384


def _code(e):
    """The closure's int code of a signed permutation: the index of its
    permutation in sorted order, shifted past a 12-bit mask of its -1 signs."""
    from itertools import permutations

    return list(permutations(range(4))).index(e.perm) << 12 | sum(1 << k for k, s in enumerate(e.signs) if s < 0)


def test_code_composition_matches_signed_permutation_compose(symmetry_group):
    # every pair of a seeded sample of group elements and of signed
    # permutations with random signs (not symmetries), both orders
    from itertools import permutations

    from godeaux_lines.strata import SignedPermutation, _compose

    rng = random.Random(31)
    cases = rng.sample(symmetry_group.elements, 40)
    cases += [SignedPermutation(perm, tuple(rng.choice((1, -1)) for _ in range(12)))
              for perm in permutations(range(4))]
    for a in cases:
        for b in cases:
            assert _compose(_code(a), _code(b)) == _code(compose(a, b))


def test_symmetry_certificate():
    cert = verify_symmetries()
    assert cert.passed
    assert cert.data["order"] == 384


def test_symmetry_certificate_reads_torsion_images_once(monkeypatch, symmetry_group):
    # quadric_symmetries reads the torsion images once and keeps them on the
    # group; the certificate reports them from there
    import godeaux_lines.strata as strata

    calls = []
    real = strata._torsion_images
    monkeypatch.setattr(strata, "_torsion_images", lambda elements: calls.append(1) or real(elements))
    cert = verify_symmetries()
    assert len(calls) == 1
    assert cert.data["torsion_images"] == list(symmetry_group.torsion_images)
    assert symmetry_group.torsion_images == tuple(sorted(
        {torsion_permutation(e) for e in symmetry_group.elements}))


def _symmetries_for_perm_oracle(perm):
    """The earlier per-permutation sign solve, kept as an oracle: the sign
    system of ``perm`` with its right-hand side in column 16, eliminated on
    its own; the solutions are the kernel vectors whose last coordinate is
    1, in order of their kernel-basis bits."""
    from godeaux_lines.geometry import QUADRIC_TERMS
    from godeaux_lines.linalg import sparse_nullspace
    from godeaux_lines.strata import SignedPermutation, _MONO_SIGN

    tau = SignedPermutation(perm, (1,) * 12).tau
    rows = []
    for m, terms in enumerate(QUADRIC_TERMS):
        target = perm[m]
        for s, u, v in terms:
            s_target = _MONO_SIGN[target].get(1 << tau[u] | 1 << tau[v])
            if s_target is None:
                return []
            rows.append({u: 1, v: 1, 12 + m: 1, 16: 0 if s * s_target > 0 else 1})
    kernel = sparse_nullspace(PrimeField(2), rows, 17)
    kernel = [sum(x << k for k, x in enumerate(vec)) for vec in kernel]  # as bitmasks
    out = []
    for bits in range(1 << len(kernel)):
        x = 0
        for i, vec in enumerate(kernel):
            if bits >> i & 1:
                x ^= vec
        if x >> 16 & 1:
            out.append(SignedPermutation(perm, tuple(-1 if x >> k & 1 else 1 for k in range(12))))
    return out


def _sign_solutions_by_perm():
    """The sign search's answer as SignedPermutations, by permutation."""
    from itertools import permutations

    from godeaux_lines.strata import SignedPermutation, _sign_solutions

    perms = list(permutations(range(4)))
    return {
        perms[i]: [SignedPermutation(perms[i], tuple(-1 if s >> k & 1 else 1 for k in range(12)))
                   for s in masks]
        for i, (_, masks) in _sign_solutions().items()
    }


def test_sign_solver_complete_against_brute_force():
    # for every permutation, enumerate all 2^12 sign vectors directly and
    # compare with the shared elimination's solution set
    from itertools import permutations, product

    from godeaux_lines.strata import SignedPermutation

    by_perm = _sign_solutions_by_perm()
    for perm in permutations(range(4)):
        solved = [e.signs for e in by_perm[perm]]
        brute = set()
        for bits in product((1, -1), repeat=12):
            if symmetry_fixes_quadrics(SignedPermutation(perm, bits)):
                brute.add(bits)
        assert set(solved) == brute
        assert len(solved) == len(brute) == 16


def test_every_element_is_certified(monkeypatch):
    # quadric_symmetries certifies all 384 elements on each call: given the
    # sign search's answer with any one element's mask changed in one bit (a
    # non-symmetry), every call rejects it; the answer as found passes
    import godeaux_lines.strata as strata

    found = strata._sign_solutions()
    assert sum(len(masks) for _, masks in found.values()) == 384
    for i, (ct, masks) in found.items():
        for j in range(len(masks)):
            tampered = {**found, i: (ct, masks[:j] + [masks[j] ^ 1 << (i + j) % 12] + masks[j + 1:])}
            monkeypatch.setattr(strata, "_sign_solutions", lambda answer=tampered: answer)
            with pytest.raises(StrataError, match="non-symmetry"):
                quadric_symmetries()
    monkeypatch.setattr(strata, "_sign_solutions", lambda: found)
    assert quadric_symmetries().order == 384


def test_parity_table_matches_bit_counts():
    # entry s of strata._parities(), bit i: the parity of s over the bits in
    # just one monomial of pair i (each quadric's first term against its
    # second, then its third), counted directly
    import godeaux_lines.strata as strata
    from godeaux_lines.geometry import QUADRIC_TERMS

    monos = [[1 << u | 1 << v for _, u, v in terms] for terms in QUADRIC_TERMS]
    assert [len(m) for m in monos] == [3] * 4
    conditions = [m[0] ^ m[j] for m in monos for j in (1, 2)]
    table = strata._parities()
    assert len(table) == 4096
    for s in range(4096):
        assert table[s] == sum((bin(s & c).count("1") % 2) << i for i, c in enumerate(conditions))


def test_torsion_table_matches_partition_images():
    # each permutation's entry: the index of the torsion space to which it
    # sends each space's partition of {0, 1, 2, 3} into pairs
    from itertools import permutations

    import godeaux_lines.strata as strata

    keys = [{frozenset(pair) for pair in sp.partition} for sp in TORSION_SPACES]
    table = strata._torsion_table()
    assert len(table) == 24
    for perm, image in zip(permutations(range(4)), table):
        assert image == tuple(keys.index({frozenset(perm[i] for i in pair) for pair in key}) for key in keys)


def _index_map_oracle(e):
    """The earlier string-built index map, kept as an oracle."""
    from godeaux_lines.geometry import AIDX

    return tuple(AIDX[f"a{e.perm[int(n[1])]}{e.perm[int(n[2])]}"] for n in ORDER)


def _fixes_quadrics_oracle(e, qs, variables):
    """The earlier check by polynomial composition over Q, kept as an
    oracle: substitute a_k -> sign_k * a_tau(k) into every quadric."""
    tau = _index_map_oracle(e)
    images = [variables[tau[k]].scale(e.signs[k]) for k in range(12)]
    for m, q in enumerate(qs):
        img = q.compose(images)
        target = qs[e.perm[m]]
        if not (img == target or img == -target):
            return False
    return True


def test_index_map_matches_string_oracle():
    from itertools import permutations

    from godeaux_lines.strata import SignedPermutation

    for perm in permutations(range(4)):
        e = SignedPermutation(perm, (1,) * 12)
        assert e.tau == _index_map_oracle(e)


def test_symmetry_check_matches_composition_oracle(symmetry_group):
    # every element, every element with one sign flipped, and 64 seeded
    # random sign vectors per permutation
    from itertools import permutations

    from godeaux_lines.geometry import a_vartable, quadrics
    from godeaux_lines.polynomials import Poly
    from godeaux_lines.strata import SignedPermutation

    qs = quadrics(QQ)
    variables = [Poly.variable(a_vartable(), QQ, name) for name in ORDER]
    cases = list(symmetry_group.elements)
    for e in symmetry_group.elements:
        for k in range(12):
            signs = list(e.signs)
            signs[k] = -signs[k]
            cases.append(SignedPermutation(e.perm, tuple(signs)))
    rng = random.Random(384)
    for perm in permutations(range(4)):
        for _ in range(64):
            cases.append(SignedPermutation(perm, tuple(rng.choice((1, -1)) for _ in range(12))))
    verdicts = [symmetry_fixes_quadrics(e) for e in cases]
    assert verdicts == [_fixes_quadrics_oracle(e, qs, variables) for e in cases]
    assert verdicts.count(True) >= 384 and verdicts.count(False) >= 384 * 12


def test_symmetry_check_requires_the_relabeled_monomials_in_the_target(monkeypatch):
    # every permutation sends q_m's monomials into q_(perm m), so the check
    # that they land there is reached with a changed target: q_0 as three
    # monomials it does not have (a32 a01, a31 a02, a30 a03, signs as q_0's),
    # which no sign can match; the other quadrics still match
    import godeaux_lines.strata as strata

    targets = list(strata._MONO_SIGN)
    targets[0] = {1 << 0 | 1 << 11: 1, 1 << 1 | 1 << 10: -1, 1 << 2 | 1 << 9: 1}
    assert not set(targets[0]) & set(strata._MONO_SIGN[0])
    monkeypatch.setattr(strata, "_MONO_SIGN", targets)
    assert not symmetry_fixes_quadrics(IDENTITY_SYMMETRY)


def _generating_subset_oracle(elements):
    """The earlier generator search, rebuilding the closure from the
    identity after every new generator; kept as an oracle."""
    gens = []
    have = _closure(gens)
    for e in elements:
        if (e.perm, e.signs) in have:
            continue
        gens.append(e)
        have = _closure(gens)
        if len(have) == len(elements):
            break
    return gens


def test_generating_subset_matches_rebuild_oracle(symmetry_group):
    # the full group, the stabilizer of T01|23 and the sign-only subgroup,
    # each sorted and in three shuffled orders
    from godeaux_lines.strata import _generating_subset

    full = list(symmetry_group.elements)
    assert list(symmetry_group.generators) == _generating_subset_oracle(full)
    stabilizer = [e for e in full if torsion_permutation(e)[0] == 0]
    signs_only = [e for e in full if e.perm == (0, 1, 2, 3)]
    assert (len(stabilizer), len(signs_only)) == (128, 16)
    for elements in (full, stabilizer, signs_only):
        assert _generating_subset(elements) == _generating_subset_oracle(elements)
        for seed in range(3):
            shuffled = elements[:]
            random.Random(seed).shuffle(shuffled)
            assert _generating_subset(shuffled) == _generating_subset_oracle(shuffled)


def _solve_gf2(rows, ncols):
    """The earlier bitmask GF(2) solver, kept as an oracle: all solutions
    of the (bitmask, rhs) rows, in order of their free-column bits."""
    pivots = {}
    for mask, rhs in rows:
        while mask:
            low = mask & (-mask)
            c = low.bit_length() - 1
            if c in pivots:
                pm, pr = pivots[c]
                mask ^= pm
                rhs ^= pr
            else:
                pivots[c] = (mask, rhs)
                break
        else:
            if rhs:
                return []
    free = [c for c in range(ncols) if c not in pivots]
    sols = []
    for bits in range(1 << len(free)):
        x = 0
        for i, c in enumerate(free):
            if bits >> i & 1:
                x |= 1 << c
        for c in sorted(pivots, reverse=True):
            mask, rhs = pivots[c]
            val = rhs ^ bin(mask & x & ~(1 << c)).count("1") % 2
            if val:
                x |= 1 << c
        sols.append(x)
    return sols


def test_sign_solver_matches_bitmask_oracle():
    # the per-permutation sign system, solved over PrimeField(2), gives the
    # bitmask oracle's sign vectors in the oracle's order; the shared
    # elimination gives the same sets, each element with its own index map
    from itertools import permutations

    from godeaux_lines.geometry import QUADRIC_TERMS
    from godeaux_lines.strata import SignedPermutation, _MONO_SIGN

    by_perm = _sign_solutions_by_perm()
    for perm in permutations(range(4)):
        tau = SignedPermutation(perm, (1,) * 12).tau
        rows = []
        for m, terms in enumerate(QUADRIC_TERMS):
            for s, u, v in terms:
                s_target = _MONO_SIGN[perm[m]][1 << tau[u] | 1 << tau[v]]
                rows.append(((1 << u) | (1 << v) | (1 << (12 + m)), 0 if s * s_target > 0 else 1))
        want = [tuple(-1 if x >> k & 1 else 1 for k in range(12)) for x in _solve_gf2(rows, 16)]
        got = _symmetries_for_perm_oracle(perm)
        assert [e.signs for e in got] == want
        assert all(e.perm == perm for e in got)
        assert len(want) == 16
        assert sorted(e.signs for e in by_perm[perm]) == sorted(want)
        assert all(e.tau == _index_map_oracle(e) for e in by_perm[perm])


def excluded_line(field):
    """Rows a10 + a02 and a30 + a20 + a12 + a01, found by a scan of Q(F_3):
    the minor GCD t^4 has its one root (1:0) at a-matrix rank 2 on no
    torsion space, so the line is excluded."""
    r0, r1 = [0] * 12, [0] * 12
    for name in ("a10", "a02"):
        r0[AIDX[name]] = 1
    for name in ("a30", "a20", "a12", "a01"):
        r1[AIDX[name]] = 1
    return LineA(field, r0, r1)


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(31), QQ], ids=str)
def test_excluded_line_report(field):
    data = classify_line(excluded_line(field)).to_json()
    assert data["excluded"] is True and data["generic"] is False
    assert data["minor_gcd"] == "t^4" and data["all_minors_vanish"] is False
    assert data["low_rank_roots"] == [{"point": "(1:0)", "rank": 2, "multiplicity": 4, "space": None}]
    assert data["hyperelliptic_roots"] == [] and data["torsion_points"] == []
    assert data["torsion_containments"] == []


@pytest.mark.parametrize("field", [PrimeField(31), QQ], ids=str)
def test_excluded_flag_alone_rejects_hyp_and_two_hyp(field):
    # with one or two rank-3 roots grafted on, only the excluded flag keeps
    # the report from fulfilling the hyp and two-hyp strategies
    report = classify_line(excluded_line(field))
    one, two = (MinorRoot((field.canonical(s), 1), 3, 1) for s in (2, 5))
    for strategy, roots in (("hyp", (one,)), ("two-hyp", (one, two))):
        grafted = replace(report, hyperelliptic_roots=roots)
        assert _fulfils(strategy, grafted, None, None, False) is False
        assert _fulfils(strategy, replace(grafted, excluded_flag=False), None, None, False) is True


# ----------------------------------------------------------------------
# Q lines given with denominators: the minors run on integer rows


def _golden_q_lines():
    import json
    import pathlib

    path = pathlib.Path(__file__).resolve().parent / "data" / "golden_classify.jsonl"
    records = [json.loads(text) for text in path.read_text().splitlines()]
    return [LineA.from_json(r["line"]) for r in records
            if "line" in r and r["line"]["field"] == {"kind": "rational"}]


def test_rescaled_q_line_classifies_like_the_integral_line(monkeypatch):
    # both rows times one lambda name the same line with the same (s:t), so
    # the report is the same apart from "line"; the minors are still formed
    # on integer rows, lambda^4 times those of the given rows
    from godeaux_lines import strata
    from godeaux_lines.families import z3_line

    lines = _golden_q_lines() + [
        z5_line(QQ, 1, 1, 1, 1), z3_line(QQ, (1, 1, 1, 1), (1, 2), (1, 1)), excluded_line(QQ),
    ]
    assert len(lines) >= 9 and all(type(c) is int for line in lines for row in line.rows for c in row)
    real, seen = strata.quartic_minors, []

    def recording(line, scale=1):
        minors = real(line, scale)
        seen.append({type(c) for m in minors for c in m.coeffs})
        return minors

    monkeypatch.setattr(strata, "quartic_minors", recording)
    for line in lines:
        want = classify_line(line).to_json()
        line_json = want.pop("line")
        for lam in (Fraction(3, 77), Fraction(-5, 12)):
            scaled = LineA(QQ, [lam * c for c in line.rows[0]], [lam * c for c in line.rows[1]])
            got = classify_line(scaled).to_json()
            assert got.pop("line") != line_json
            assert got == want
            assert real(scaled) == [BinaryForm(QQ, 4, [lam ** 4 * c for c in m.coeffs]) for m in real(line)]
    assert seen and all(kinds <= {int} for kinds in seen)
