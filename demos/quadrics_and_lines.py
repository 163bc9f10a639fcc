"""Tour of the ambient geometry: quadrics, Pfaffians, and lines in Q.

Run:  python demos/quadrics_and_lines.py
"""

import random

from godeaux_lines import (
    ORDER,
    Poly,
    PrimeField,
    QQ,
    canonical_skew_matrices,
    line_in_q,
    pfaffian4,
    quadrics,
    sample_line,
    tangent_space,
    VarTable,
)
from godeaux_lines.geometry import det4


def main():
    print("=== The four Pfaffian quadrics in the 12 a-coordinates ===")
    print("coordinate order:", ", ".join(ORDER))
    qs = quadrics(QQ)
    for i, q in enumerate(qs):
        print(f"  q{i} = {q}")

    print("\nEach quadric is the Pfaffian of a 4x4 skew matrix:")
    for i, (M, q) in enumerate(zip(canonical_skew_matrices(QQ), qs)):
        assert pfaffian4(M) == q
        print(f"  Pf(M{i}) == q{i}  verified")

    print("\nPfaffian sanity: Pf(M)^2 = det(M) on random skew matrices over F_101")
    F101 = PrimeField(101)
    rng = random.Random(0)
    scalars = VarTable(())  # no variables: the entries are constant polynomials
    for _ in range(5):
        M = [[Poly.constant(scalars, F101, 0)] * 4 for _ in range(4)]
        for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            M[a][b] = Poly.constant(scalars, F101, rng.randrange(101))
            M[b][a] = -M[a][b]
        pf = pfaffian4(M)
        assert pf * pf == det4(M)
    print("  5 random matrices checked")

    print("\n=== Sampling a line inside Q = V(q0..q3) over F_31 ===")
    F31 = PrimeField(31)
    line = sample_line("generic", F31, seed=2024)
    print("  Stiefel rows:")
    for row in line.rows:
        print("   ", [F31.format_scalar(c) for c in row])
    print("  search trials:", line.provenance["trials"])
    print("  line_in_q:", line_in_q(line))

    p = line.point_at(1, 0)
    basis = tangent_space(p)
    print(f"  tangent space at the first row: {len(basis)} basis vectors (a P^7)")
    print("  both rows, their span, and every point s*row0 + t*row1 lie on Q")


if __name__ == "__main__":
    main()
