"""Torsion line families: the three P^3's, the component census, kernels.

Lines producing torsion fibers must meet one or two of the three coordinate
P^3's on which all four quadrics vanish.  This demo prints the census of
the two-torsion line locus (14 components per pair, split 6/4/4), the
example family, the one-torsion parametrization, and the kernel
identity behind it.

Run:  python demos/torsion_families.py
"""

from godeaux_lines import (
    ORDER,
    PrimeField,
    TORSION_SPACES,
    classify_line,
    degeneration_profile,
    quadric_symmetries,
    verify_z3_kernel,
    z3_line,
    z5_component_counts,
    z5_line,
)


def main():
    print("=== The three torsion P^3's ===")
    for sp in TORSION_SPACES:
        print(f"  {sp.name}: survivors {[ORDER[i] for i in sp.survivors]}")

    print("\n=== Census of lines through two torsion spaces ===")
    census = z5_component_counts(TORSION_SPACES[0], TORSION_SPACES[1])
    print("  pair:", census.pair)
    print("  matching edges (p-coordinate, q-coordinate):")
    for a, b in census.edges:
        print(f"    {ORDER[a]} * {ORDER[b]}")
    print("  component counts:", census.counts, " total:", sum(census.counts.values()))
    for comp in census.components:
        if comp.is_example_family:
            print(
                "  example family:",
                comp.kind,
                [ORDER[i] for i in comp.a_survivors],
                "x",
                [ORDER[i] for i in comp.b_survivors],
            )

    print("\n=== The example two-torsion line over F_31 ===")
    F31 = PrimeField(31)
    line = z5_line(F31, 1, 1, 1, 1)
    rep = classify_line(line)
    print("  torsion intersections:", [(st, sp.name) for st, sp in rep.torsion_points])
    print("  minor gcd:", rep.minor_gcd, " hyperelliptic roots:", len(rep.hyperelliptic_roots))
    prof = degeneration_profile(line)
    print("  pencil kernel degrees:", prof.degree_sequence, "(generic lines give (1, 1, 1, 1))")

    print("\n=== The one-torsion parametrized line ===")
    line3 = z3_line(F31, (1, 1, 1, 1), (1, 2), (1, 1))
    rep3 = classify_line(line3)
    print("  torsion intersections:", [(st, sp.name) for st, sp in rep3.torsion_points])
    print("  minor gcd:", rep3.minor_gcd)

    print("\n=== Kernel identity behind the parametrization ===")
    cert = verify_z3_kernel()
    print("  all rows validated:", cert.passed)
    print("  convention:", cert.data["validating_convention"])

    print("\n=== Symmetries of the quadric set ===")
    group = quadric_symmetries()
    print(f"  signed coordinate permutations fixing {{q0..q3}}: order {group.order}")
    print("  induced action on the three torsion spaces is transitive:",
          group.torsion_transitive)


if __name__ == "__main__":
    main()
