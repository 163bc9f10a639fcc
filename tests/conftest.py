from operator import mul

import pytest

from godeaux_lines.fields import PrimeField, QQ
from godeaux_lines.families import z5_line
from godeaux_lines.geometry import AIDX
from godeaux_lines.polynomials import Poly, PolynomialError, VarTable


@pytest.fixture(scope="session")
def f31():
    return PrimeField(31)


@pytest.fixture(scope="session")
def f101():
    return PrimeField(101)


@pytest.fixture(scope="session")
def f10007():
    return PrimeField(10007)


@pytest.fixture(scope="session")
def qq():
    return QQ


@pytest.fixture(scope="session")
def z5_example(f31):
    """The example two-torsion line with all four parameters 1."""
    return z5_line(f31, 1, 1, 1, 1)


@pytest.fixture(scope="session")
def generic_line(f31):
    from godeaux_lines.sampling import sample_line

    return sample_line("generic", f31, seed=42)


@pytest.fixture(scope="session")
def hyp_line(f31):
    from godeaux_lines.sampling import sample_line

    return sample_line("hyp", f31, seed=11)


@pytest.fixture(scope="session")
def two_hyp_line(f31):
    from godeaux_lines.sampling import sample_line

    return sample_line("two-hyp", f31, seed=11)


def coords_from(field, **named):
    """A 12-vector with the named a-coordinates set, the rest zero."""
    out = [0] * 12
    for name, value in named.items():
        out[AIDX[name]] = field.canonical(value)
    return out


def component_rows(a_surv, b_surv):
    """Two rows of ``Poly`` variables: p0.. at the ORDER indices ``a_surv``,
    q0.. at ``b_surv``, zero elsewhere; the line family of a two-torsion
    component as polynomials in its free parameters."""
    names = tuple(f"p{k}" for k in range(len(a_surv))) + tuple(f"q{k}" for k in range(len(b_surv)))
    vt = VarTable(names)
    var = iter(Poly.variable(vt, QQ, n) for n in names)
    rows = [[Poly.zero(vt, QQ)] * 12, [Poly.zero(vt, QQ)] * 12]
    for row, surv in zip(rows, (a_surv, b_surv)):
        for idx in surv:
            row[idx] = next(var)
    return rows


def map_field(f, field):
    """The Poly ``f`` with its coefficients read in another field (e.g.
    Q -> F_p).  No library module changes the field of a Poly; the tests do."""
    return Poly(f.vars, field, f.terms)


def compose(a, b):
    """The signed permutation a after b (b applied first), composed as objects.
    The library composes only int codes (``strata._compose``); the tests
    check those against this."""
    from godeaux_lines.strata import SignedPermutation

    perm = tuple(map(a.perm.__getitem__, b.perm))
    return SignedPermutation(perm, tuple(map(mul, b.signs, map(a.signs.__getitem__, b.tau))))


def kernel_equations(M, monos):
    """The linear system :func:`bounded_degree_kernel` solves for ``M`` over the
    exponent tuples ``monos``, every equation kept: one {column: coefficient}
    row per matrix row and product exponent, columns slot-major, in the
    order the terms and monomials are met."""
    equations: dict = {}
    for r in range(M.nrows):
        for slot in range(M.ncols):
            for e_c, coeff in M.entries[r][slot].terms.items():
                for i, m in enumerate(monos):
                    row = equations.setdefault((r, tuple(a + b for a, b in zip(e_c, m))), {})
                    col = slot * len(monos) + i
                    row[col] = row.get(col, 0) + coeff
    return list(equations.values())


def poly_eval(f, point):
    """Exact value of the Poly ``f`` at a sequence of raw scalars, one per
    variable: native * and + per term, one reduction per power and one at
    the end.  No library module evaluates a Poly; the tests do."""
    F = f.field
    point = [F.canonical(x) for x in point]
    if len(point) != f.vars.nvars:
        raise PolynomialError(f"expected {f.vars.nvars} coordinates, got {len(point)}")
    acc = 0
    powers: dict = {}
    for e, c in f.terms.items():
        t = c
        for i, k in enumerate(e):
            if k:
                pw = powers.get((i, k))
                if pw is None:
                    pw = powers[(i, k)] = F.canonical(point[i] ** k)
                t = t * pw
        acc += t
    return F.canonical(acc)
