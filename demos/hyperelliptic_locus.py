"""The hyperelliptic locus: parametrization, certificates, special lines.

The locus of rank-3 points of the a-matrix inside Q admits an explicit
12-component polynomial parametrization.  This demo evaluates it, runs the
full verification certificate, and builds lines whose minor GCD has exactly
one or exactly two rank-3 roots.

Run:  python demos/hyperelliptic_locus.py
"""

from godeaux_lines import (
    PrimeField,
    QQ,
    classify_line,
    hyp_components,
    hyp_point,
    rank_a,
    sample_line,
    verify_hyp_param,
)


def main():
    print("=== The 12-component parametrization ===")
    comps = hyp_components()
    print("first component (a32):", comps[0])
    print("every component is multihomogeneous of multidegree (2, 5, 3, 2, 2)")

    print("\nWorked evaluation at (v,w,x,y,z) = ((1,1),(1,2),(1,1),(1,1),(1,1)):")
    point = hyp_point(QQ, (1, 1, 1, 2, 1, 1, 1, 1, 1, 1))
    print("  image:", [QQ.format_scalar(c) for c in point.coords])
    print("  on Q:", point.on_quadric_intersection(), " a-matrix rank:", rank_a(point))

    print("\n=== Verification certificate ===")
    cert = verify_hyp_param(seed=1)
    for check in cert.checks:
        print(f"  [{'ok' if check.passed else 'FAIL'}] {check.name}  {check.detail}")
    assert cert.passed

    print("\n=== Lines with hyperelliptic fibers over F_31 ===")
    F31 = PrimeField(31)
    one = sample_line("hyp", F31, seed=0)
    rep = classify_line(one)
    print("  through-hyp line: minor gcd =", rep.minor_gcd)
    print("  rank-3 roots:", [(r.point, r.rank) for r in rep.hyperelliptic_roots])

    two = sample_line("two-hyp", F31, seed=0)
    rep2 = classify_line(two)
    print("  through-two-hyp line: minor gcd =", rep2.minor_gcd)
    print("  rank-3 roots:", [(r.point, r.rank) for r in rep2.hyperelliptic_roots])
    print("  (a 6-dimensional family of surfaces with two hyperelliptic fibers")
    print("   sits behind lines of this kind)")


if __name__ == "__main__":
    main()
