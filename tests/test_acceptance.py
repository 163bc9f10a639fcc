"""Acceptance criteria, one test per criterion, one printed line each.

Run as ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Every expected value here is either trivial arithmetic, verified against
the worked constants, or recomputed by an independent oracle inside the
test (determinant expansion, exhaustive P^1 scans, three-point quadric
interpolation).
"""

import random
import time
from fractions import Fraction

from godeaux_lines.cli import main
from godeaux_lines.families import (
    hyp_components,
    hyp_point,
    verify_hyp_param,
    verify_para_v2,
    verify_z3_line,
    verify_z5_family,
    z5_component_counts,
)
from godeaux_lines.fields import PrimeField, QQ, field_from_spec
from godeaux_lines.geometry import (
    canonical_skew_matrices,
    det4,
    pfaffian4,
    quadric_value,
    quadrics,
)
from godeaux_lines.pencil import degeneration_profile
from godeaux_lines.polynomials import Poly, VarTable
from godeaux_lines.sampling import sample_line
from godeaux_lines.strata import (
    TORSION_SPACES,
    classify_line,
    verify_torsion_spaces,
)

F31 = PrimeField(31)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_skew(field, rng):
    """A seeded 4x4 skew matrix of constant polynomials."""
    constant = lambda c: Poly.constant(VarTable(()), field, c)
    M = [[constant(0)] * 4 for _ in range(4)]
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        M[i][j] = constant(field.random(rng))
        M[j][i] = -M[i][j]
    return M


def test_criterion_01_pfaffian_identities():
    t0 = time.perf_counter()
    ok = True
    for field_name in ("p101", "q"):
        field = field_from_spec(field_name)
        rng = random.Random(101)
        for _ in range(100):
            M = random_skew(field, rng)
            pf = pfaffian4(M)
            ok = ok and (pf * pf == det4(M))
    qs = quadrics(QQ)
    ok = ok and all(
        pfaffian4(M) == q for M, q in zip(canonical_skew_matrices(QQ), qs)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"pfaffian^2 = det (200 matrices) and Pf(M_i) = q_i in {elapsed:.2f}s")


def test_criterion_02_torsion_spaces():
    t0 = time.perf_counter()
    cert = verify_torsion_spaces()
    elapsed = time.perf_counter() - t0
    ok = cert.passed and elapsed < 1.0
    report(2, ok, f"quadrics vanish on 3 torsion P^3s, expected killed set, in {elapsed:.2f}s")


def test_criterion_03_hyperelliptic_parametrization():
    t0 = time.perf_counter()
    symbolic_ok = all(q.compose(list(hyp_components())).is_zero() for q in quadrics(QQ))
    symbolic_elapsed = time.perf_counter() - t0
    cert = verify_hyp_param(seed=2024)
    by_name = {c.name: c for c in cert.checks}
    worked = hyp_point(QQ, (1, 1, 1, 2, 1, 1, 1, 1, 1, 1))
    expected = [Fraction(c) for c in (2, 2, -24, -1, -2, 36, -1, 2, -72, -2, 6, -12)]
    lead = next(c for c in expected if c != 0)
    got = worked.normalized()
    want = tuple(c / lead for c in expected)
    ok = (
        symbolic_ok
        and symbolic_elapsed < 30.0
        and by_name["jacobian-rank-6"].passed
        and by_name["image-rank-a-3"].passed
        and got == want
    )
    report(
        3,
        ok,
        "q_i o phi = 0 over Q in "
        f"{symbolic_elapsed:.2f}s; rank 6 Jacobian and rank-3 a-matrix at 20 "
        "F_10007 points; worked image point matches up to scalar",
    )


def test_criterion_04_z5_family(z5_example):
    cert = verify_z5_family()
    rep = classify_line(z5_example)
    spaces = {sp.name for _, sp in rep.torsion_points}
    ok = (
        cert.passed
        and len(rep.torsion_points) == 2
        and len(spaces) == 2
        and rep.hyperelliptic_roots == ()
    )
    report(4, ok, f"symbolic 4-parameter identity; example line meets {sorted(spaces)}, no hyperelliptic roots")


def test_criterion_05_component_counts():
    t0 = time.perf_counter()
    expected = {"P1xP1": 6, "P0xP2": 4, "P2xP0": 4}
    ok = True
    example_seen = False
    for a in range(3):
        for b in range(a + 1, 3):
            census = z5_component_counts(TORSION_SPACES[a], TORSION_SPACES[b])
            ok = ok and census.counts == expected
            example_seen = example_seen or any(
                c.is_example_family for c in census.components
            )
    elapsed = time.perf_counter() - t0
    ok = ok and example_seen and elapsed < 1.0
    report(5, ok, f"all 3 pairs split 6/4/4 with the example family present, in {elapsed:.2f}s")


def test_criterion_06_z3_parametrization():
    from godeaux_lines.families import z3_line
    from godeaux_lines.strata import torsion_intersections

    t0 = time.perf_counter()
    cert = verify_z3_line()
    elapsed = time.perf_counter() - t0
    ok = cert.passed and elapsed < 60.0
    rng = random.Random(66)
    F101 = PrimeField(101)
    checked = 0
    while checked < 5:
        params = (
            [F101.random_nonzero(rng) for _ in range(4)],
            [F101.random_nonzero(rng) for _ in range(2)],
            [F101.random_nonzero(rng) for _ in range(2)],
        )
        try:
            line = z3_line(F101, *params)
        except Exception:
            continue
        checked += 1
        points = torsion_intersections(line)
        ok = ok and len(points) == 1 and points[0][1].name == "T01|23"
    report(6, ok, f"symbolic 8-parameter identity in {elapsed:.2f}s; 5 numeric instances meet exactly T01|23")


def test_criterion_07_para_v2():
    cert = verify_para_v2()
    by_name = {c.name: c for c in cert.checks}
    ok = cert.passed and by_name["det1-vanishes"].passed and by_name["det2-vanishes"].passed
    report(7, ok, "both defining determinants vanish under the rank-2 kernel parametrization")


def three_point_oracle(line):
    F = line.field
    for t in (0, 1, 2):
        point = [
            F.add(a, F.mul(F.canonical(t), b))
            for a, b in zip(line.rows[0], line.rows[1])
        ]
        if not all(F.is_zero(quadric_value(F, i, point)) for i in range(4)):
            return False
    return all(F.is_zero(quadric_value(F, i, line.rows[1])) for i in range(4))


def test_criterion_08_generic_sampler():
    t0 = time.perf_counter()
    ok = True
    for seed in range(50):
        line = sample_line("generic", F31, seed=seed)
        rep = classify_line(line)
        ok = ok and three_point_oracle(line)
        ok = ok and rep.torsion_points == () and rep.torsion_containments == ()
        ok = ok and rep.row_vanishing == () and rep.row_containments == ()
        ok = ok and str(rep.minor_gcd) == "1"
        ok = ok and rep.kernel_degrees == (1, 1, 1, 1)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(8, ok, f"50 seeded F_31 lines generic in every detector, in {elapsed:.1f}s")


def test_criterion_09_hyperelliptic_lines():
    ok = True
    for seed in range(10):
        line = sample_line("hyp", F31, seed=seed)
        rep = classify_line(line)
        ok = ok and len(rep.hyperelliptic_roots) == 1
    for seed in range(10):
        line = sample_line("two-hyp", F31, seed=seed)
        rep = classify_line(line)
        ok = ok and len(rep.hyperelliptic_roots) == 2
    report(9, ok, "10 one-hyperelliptic and 10 two-hyperelliptic lines, zero failures")


def test_criterion_10_pencil_degeneration(z5_example):
    generic = sample_line("generic", F31, seed=1)
    degenerate = degeneration_profile(z5_example).degree_sequence
    baseline = degeneration_profile(generic).degree_sequence
    ok = degenerate == (0, 0, 0, 0) and baseline == (1, 1, 1, 1)
    report(10, ok, f"kernel degrees {degenerate} on the torsion family vs {baseline} generic")


def test_criterion_11_determinism(tmp_path):
    ok = True
    for strategy in ("generic", "two-torsion", "hyp"):
        a = tmp_path / f"{strategy}-a.jsonl"
        b = tmp_path / f"{strategy}-b.jsonl"
        args = ["sample", "--strategy", strategy, "--field", "p31", "--seed", "99",
                "--count", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
        ra, rb = tmp_path / f"{strategy}-ra.jsonl", tmp_path / f"{strategy}-rb.jsonl"
        assert main(["classify", "--in", str(a), "--out", str(ra)]) == 0
        assert main(["classify", "--in", str(b), "--out", str(rb)]) == 0
        ok = ok and ra.read_bytes() == rb.read_bytes()
    report(11, ok, "byte-identical stores and classification reports on repeated seeded runs")
