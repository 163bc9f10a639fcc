"""Explicitly parametrized line families on Q, with symbolic verifiers.

Four constructions are built in:

* the hyperelliptic-locus parametrization: a 12-component polynomial map
  from (a Hirzebruch surface) x (three P^1 factors) whose image consists of
  rank-3 points of Q (:func:`hyp_point`, :func:`verify_hyp_param`);
* the two-torsion line family supported on a pair of torsion P^3's, with
  its full component census (:func:`z5_line`, :func:`z5_component_counts`);
* the one-torsion line parametrization with first row in T01|23
  (:func:`z3_line`, :func:`verify_z3_line`) and the kernel identity behind
  it (:func:`verify_z3_kernel`);
* the determinantal system of the scroll model with its rank-2 kernel
  parametrization (:func:`verify_para_v2`).

Each family formula is written once, as a function of its parameters that
works on any ring: field scalars give points and lines, ``Poly`` variables
give the polynomials the symbolic certificates check.  The hyperelliptic
components are defined in one table and locked by a SHA-256 checksum of
their canonical text; the verifiers, not the table, are the trust anchor.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

from .certificates import Certificate
from .fields import Field, PrimeField, QQ
from .geometry import (AIDX, LineA, PointA, QUADRIC_TERMS, _k4_forms, _line_conditions, _quadric,
                       line_in_q, quadrics_vanish_on)
from .linalg import _gauss_jordan, _reduce, rank, rref, solver
from .polynomials import Poly, PolyMatrix, VarTable, bounded_degree_kernel, monomials_up_to
from .strata import TORSION_SPACES, TorsionSpace


class FamilyError(ValueError):
    pass


class BaseLocusError(FamilyError):
    """The parametrization is undefined here: every component vanished."""

    def __init__(self, vanishing_factors):
        self.vanishing_factors = tuple(vanishing_factors)
        super().__init__(
            "parameters lie in the base locus (vanishing factors: "
            + ", ".join(vanishing_factors) + ")"
        )


# ----------------------------------------------------------------------
# the hyperelliptic-locus parametrization
#
# Parameters (v0, v1, w0, w1, x0, x1, y0, y1, z0, z1); abbreviations
# D = x1*w1 - x0*w0, X = x1 + x0, W = w1 + w0.  Components are listed in
# the fixed a-coordinate order (a32 .. a01) as (sign, atom exponents).

HYP_PARAM_NAMES = ("v0", "v1", "w0", "w1", "x0", "x1", "y0", "y1", "z0", "z1")

HYP_GRADING = {
    "v0": (1, 2, 0, 0, 0),
    "v1": (1, 0, 0, 0, 0),
    "w0": (0, 1, 0, 0, 0),
    "w1": (0, 1, 0, 0, 0),
    "x0": (0, 0, 1, 0, 0),
    "x1": (0, 0, 1, 0, 0),
    "y0": (0, 0, 0, 1, 0),
    "y1": (0, 0, 0, 1, 0),
    "z0": (0, 0, 0, 0, 1),
    "z1": (0, 0, 0, 0, 1),
}

#: common multidegree of every component under HYP_GRADING
HYP_MULTIDEGREE = (2, 5, 3, 2, 2)

_ATOM_NAMES = HYP_PARAM_NAMES + ("D", "X", "W")


def _exps(**kw) -> tuple:
    return tuple(kw.get(name, 0) for name in _ATOM_NAMES)


HYP_FACTORED = (
    (+1, _exps(v0=2, D=1, x1=1, X=1, y0=1, y1=1, z1=2)),                # a32
    (+1, _exps(v0=2, D=1, x0=1, X=1, y0=1, y1=1, z0=2)),                # a31
    (-1, _exps(v1=2, w0=2, w1=2, W=1, x0=1, x1=1, X=1, y0=1, y1=1, z1=2)),  # a30
    (-1, _exps(v0=2, D=1, x0=1, x1=1, y0=2, z1=2)),                     # a23
    (-1, _exps(v0=2, D=1, x0=1, X=1, y1=2, z0=2)),                      # a21
    (+1, _exps(v1=2, w0=2, w1=1, W=2, x0=1, x1=1, X=1, y1=2, z1=2)),    # a20
    (-1, _exps(v0=2, D=1, x0=1, x1=1, y0=2, z0=1, z1=1)),               # a13
    (+1, _exps(v0=2, D=1, x1=1, X=1, y1=2, z0=1, z1=1)),                # a12
    (-1, _exps(v1=2, w0=1, w1=2, W=2, x0=1, x1=1, X=1, y1=2, z0=1, z1=1)),  # a10
    (-1, _exps(v0=1, v1=1, w0=1, w1=1, D=1, x0=1, x1=1, y0=2, z1=2)),   # a03
    (+1, _exps(v0=1, v1=1, w0=1, W=1, D=1, x1=1, X=1, y1=2, z1=2)),     # a02
    (-1, _exps(v0=1, v1=1, w1=1, W=1, D=1, x0=1, X=1, y1=2, z0=2)),     # a01
)

#: SHA-256 of the canonical expanded text of the 12 components over Q
HYP_CHECKSUM = "8b6ed0eec8f63444a29ece81ee66056652a97372102fb23cd3b5e386c9dd444d"


@functools.cache
def hyp_components() -> tuple:
    """The 12 components as expanded polynomials over Q, checked against
    ``HYP_CHECKSUM`` and built once; their coefficients read mod p give them over F_p."""
    vt = VarTable(HYP_PARAM_NAMES, HYP_GRADING)
    comps = hyp_evaluate([Poly.variable(vt, QQ, n) for n in HYP_PARAM_NAMES], lambda p: p)
    digest = hashlib.sha256("\n".join(str(c) for c in comps).encode()).hexdigest()
    if digest != HYP_CHECKSUM:
        raise FamilyError(f"hyperelliptic components corrupted (sha256 {digest})")
    return comps


def _hyp_atoms(params: Sequence, reduce) -> tuple:
    """The 13 atoms of ``HYP_FACTORED``: the parameters, then D, X and W."""
    _, _, w0, w1, x0, x1, _, _, _, _ = params
    return (*params, reduce(x1 * w1 - x0 * w0), reduce(x1 + x0), reduce(w1 + w0))


def hyp_evaluate(params: Sequence, reduce) -> Optional[tuple]:
    """The one evaluator of ``HYP_FACTORED``, and the samplers' hot path:
    atoms first, then one short product per component.

    ``params`` are canonical scalars of a field, and ``reduce`` maps sums
    and products of them to canonical scalars again: ``field.canonical``
    for any field, or plain ``x % p`` on residues mod p; or ``Poly``
    variables with the identity.  None when every component vanishes.
    """
    atoms = _hyp_atoms(params, reduce)
    coords = []
    for sign, factors in _hyp_factors():
        acc = sign
        for k, e in factors:
            a = atoms[k]
            if a == 0:
                acc = 0
                break
            acc *= a if e == 1 else a * a
        coords.append(reduce(acc))
    return tuple(coords) if any(coords) else None


@functools.cache
def _hyp_factors() -> tuple:
    """``HYP_FACTORED`` as (sign, (atom index, exponent) for each exponent > 0), built once."""
    return tuple((sign, tuple((k, e) for k, e in enumerate(exps) if e)) for sign, exps in HYP_FACTORED)


@functools.cache
def _hyp_rank_table(field: Field):
    """``(rank C, rows)`` for :func:`_hyp_jacobian_rank`, built once per field.

    Where no atom vanishes, dc_i/dp_j = c_i sum_k e_ik (da_k/dp_j) / a_k
    (exponents e_ik of ``HYP_FACTORED``).  Scaling row i by 1/c_i and column
    j by p_j gives e_ij plus terms of D, X, W, which are 0 off the columns
    w0, w1, x0, x1; the other six are a constant block C, so rank J = rank C
    + rank L V for the point's block V and the checks L of C.  L V = K B
    for K, L's sums of the exponents of w0, w1, x0, x1, D, X, W, and the
    point's 7x4 block B; rank K B = rank K_r B for the row basis K_r of K
    (rank 5 over F_10007, of 8 checks) that the table's rows hold.
    """
    _, _, checks = solver(field, [[exps[j] for j in (0, 1, 6, 7, 8, 9)] for _, exps in HYP_FACTORED], 6)
    K = [[sum(v * HYP_FACTORED[r][1][k] for r, v in c.items()) for k in (2, 3, 4, 5, 10, 11, 12)]
         for c in checks]
    return 12 - len(checks), tuple((tuple(row[:4]), tuple(row[4:])) for row in rref(field, K)[0])


def _hyp_jacobian_rank(field: Field, rank_table, atoms) -> int:
    """The Jacobian's rank where none of the 13 canonical ``atoms`` vanishes:
    rank C plus the rank of K_r B times D X W (no inverse needed)."""
    rank_c, rows = rank_table
    _, _, w0, w1, x0, x1, _, _, _, _, D, X, W = atoms
    # p_j (da/dp_j) / a times D X W on the columns w0, w1, x0, x1: a = D on
    # (w0, x0) and (w1, x1), a = X on x0 and x1, a = W on w0 and w1
    d0, d1, dxw = -w0 * x0 * X * W, w1 * x1 * X * W, D * X * W
    tx0, tx1, tw0, tw1 = x0 * D * W, x1 * D * W, w0 * D * X, w1 * D * X
    return rank_c + rank(field, [[e0 * dxw + d * d0 + w * tw0, e1 * dxw + d * d1 + w * tw1,
                                  e2 * dxw + d * d0 + x * tx0, e3 * dxw + d * d1 + x * tx1]
                                 for (e0, e1, e2, e3), (d, x, w) in rows])


def hyp_point(field: Field, params: Sequence) -> PointA:
    """The parametrized point of the hyperelliptic locus at 10 parameters.

    Raises :class:`BaseLocusError` (naming the vanishing factors) when every
    component vanishes.
    """
    if len(params) != 10:
        raise FamilyError("expected 10 parameters (v0,v1,w0,w1,x0,x1,y0,y1,z0,z1)")
    params = [field.canonical(x) for x in params]
    coords = hyp_evaluate(params, field.canonical)
    if coords is None:
        names = HYP_PARAM_NAMES + ("x1*w1-x0*w0", "x1+x0", "w1+w0")
        raise BaseLocusError([n for n, v in zip(names, _hyp_atoms(params, field.canonical)) if not v])
    point = PointA(field, coords)
    if not point.on_quadric_intersection():
        raise FamilyError("parametrized point left Q; component table corrupted")
    return point


#: the field of the one point at which ``verify_hyp_param`` bounds the Jacobian's rank below
_HYP_CHECK_FIELD = PrimeField(10007)


def verify_hyp_param(seed: int = 2024) -> Certificate:
    """Certificate for the hyperelliptic-locus parametrization.

    Checks: (i) all four quadrics pull back to the zero polynomial over Q; (iv) every component is
    multihomogeneous of multidegree (2,5,3,2,2); (ii) the Jacobian J of the map has rank 6.  At most 6 by
    (iv) and Euler's identity: J E_g = d_g c for each grading g of ``HYP_GRADING``, E_g = (g_j p_j)_j, and
    their 5x10 matrix has rank 5 (computed here), so where no parameter vanishes J maps 5 independent
    E_g into span(c), dim ker J >= 4, and every 7x7 minor vanishes.  At least 6 at one point of F_10007
    drawn from ``seed``, read off the exponent table (:func:`_hyp_rank_table`), which holds where no
    atom of ``HYP_FACTORED`` vanishes, so such draws are redrawn: a 6x6 minor nonzero mod 10007 at an
    integer point is nonzero over Q.  (iii) the a-matrix has rank 3 on the image, with no point sampled:
    the seven K4 forms (:func:`geometry._k4_forms`) of the 12 signed monomials of ``HYP_FACTORED`` in
    its 13 atoms are 0, so every maximal minor is 0, also once D, X and W are substituted; and a10 a20
    a30 is a nonzero signed monomial, so the rank is 3 wherever no atom vanishes.  A ``seed`` that is
    not an int, or a bool, or is negative raises :class:`FamilyError` first (``random.Random`` would
    draw |seed|'s points).
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise FamilyError(f"seed must be an int, not {type(seed).__name__}")
    if seed < 0:
        raise FamilyError(f"seed {seed} is below 0; random.Random would draw seed {-seed}'s points")
    F = _HYP_CHECK_FIELD
    cert = Certificate("hyp-param")
    comps = hyp_components()

    residuals = [_quadric(i, comps) for i in range(4)]
    cert.add(
        "quadrics-pull-back-to-zero",
        all(r.is_zero() for r in residuals),
        "; ".join(f"q{i}: {r}" for i, r in enumerate(residuals) if not r.is_zero()),
    )

    ok, deg = True, None
    for i, c in enumerate(comps):
        homog, d = c.is_multihomogeneous()
        if not homog or (deg is not None and d != deg):
            ok = False
            break
        deg = d
    ok = cert.add("components-multihomogeneous", ok and deg == HYP_MULTIDEGREE, f"common multidegree {deg}")

    rng, atoms = random.Random(seed), (0,)
    while 0 in atoms:  # the exponent table needs every atom nonzero
        params = [F.random(rng) for _ in range(10)]
        atoms = _hyp_atoms(params, F.canonical)
    got = _hyp_jacobian_rank(F, _hyp_rank_table(F), atoms)
    if got != 6:
        cert.data["jacobian_failures"] = [{"params": [F.format_scalar(x) for x in params], "rank": got}]
    gradings = rank(QQ, list(zip(*HYP_GRADING.values())))
    cert.add("jacobian-rank-6", ok and gradings == 5 and got == 6,
             f"at most 6 by Euler's identity for {gradings} independent gradings; {got} at 1 point over {F}")

    vt = VarTable(_ATOM_NAMES)
    a = [Poly.monomial(vt, QQ, exps, sign) for sign, exps in HYP_FACTORED]
    failures = [{"form": k, "value": str(f)} for k, f in enumerate(_k4_forms(a)) if not f.is_zero()]
    if failures:
        cert.data["rank_a_failures"] = failures
    minor = a[AIDX["a10"]] * a[AIDX["a20"]] * a[AIDX["a30"]]
    cert.add("image-rank-a-3", not failures and not minor.is_zero(),
             f"{7 - len(failures)} of 7 K4 forms vanish in the 13 atoms; a10*a20*a30 = {minor}")
    return cert


# ----------------------------------------------------------------------
# two-torsion (Z/5-type) line families


#: survivors of the example family, (a23, a10) | (a31, a02), sorted as the census lists them
_Z5_EXAMPLE = ((AIDX["a23"], AIDX["a10"]), (AIDX["a31"], AIDX["a02"]))

#: the component counts of every pair's census
_CENSUS_COUNTS = {"P1xP1": 6, "P0xP2": 4, "P2xP0": 4}


def _row(zero, indices, values) -> list:
    """A 12-entry a-row: ``values`` at ``indices``, ``zero`` elsewhere."""
    row = [zero] * 12
    for idx, value in zip(indices, values):
        row[idx] = value
    return row


def z5_line(field: Field, p0, p1, q0, q1) -> LineA:
    """The example two-torsion family member: rows on (a23, a10) and (a31, a02)."""
    a_surv, b_surv = _Z5_EXAMPLE
    r0, r1 = _row(0, a_surv, (p0, p1)), _row(0, b_surv, (q0, q1))
    return LineA(field, r0, r1, provenance={"family": "z5", "component": "example"})


def verify_z5_family() -> Certificate:
    """Proof that every member of the example family lies in Q, then the
    component census of each pair of torsion P^3's.

    The example rows hold distinct variables on (a23, a10) and (a31, a02),
    so the support rule :func:`geometry.quadrics_vanish_on` on the union
    decides it.  Each pair's census (:func:`z5_component_counts`, which
    proves its components inside Q) must give 6 components P^1 x P^1 and
    4 each of P^0 x P^2 and P^2 x P^0, and the pair T01|23, T02|13 must
    hold the example family among its P^1 x P^1.
    """
    cert = Certificate("z5-family")
    a_surv, b_surv = _Z5_EXAMPLE
    cert.add("line-in-q-identically", quadrics_vanish_on(a_surv + b_surv))
    counts = cert.data["counts"] = {}
    for space_a, space_b in combinations(TORSION_SPACES, 2):
        census = z5_component_counts(space_a, space_b)
        name_a, name_b = census.pair
        cert.add(
            f"component-counts-{name_a}-{name_b}",
            census.counts == _CENSUS_COUNTS,
            json.dumps(census.counts, sort_keys=True, separators=(",", ":")),
        )
        if census.pair == ("T01|23", "T02|13"):
            cert.add(
                "example-family-among-P1xP1",
                any(c.is_example_family for c in census.components),
            )
        counts[f"{name_a},{name_b}"] = census.counts
    return cert


_CONDITION_LABELS = ("q{}(row0)", "q{}(row1)", "B{}(row0,row1)")


def _symbolic_line_in_q(cert: Certificate, row0, row1) -> bool:
    """q_i(row0) = q_i(row1) = B_i(row0,row1) = 0 as polynomial identities
    (for rows of polynomials; rows of distinct variables on coordinate
    supports need only :func:`geometry.quadrics_vanish_on`)."""
    ok = True
    for k, value in enumerate(_line_conditions(row0, row1)):
        if not value.is_zero():
            label = _CONDITION_LABELS[k % 3].format(k // 3)
            cert.data.setdefault("nonzero", []).append({label: str(value)})
            ok = False
    return ok


@dataclass(frozen=True)
class WComponent:
    """One irreducible component of the two-torsion line locus in P^3 x P^3."""

    kind: str              # "P1xP1", "P0xP2" or "P2xP0"
    a_survivors: tuple     # ORDER indices free on the first factor
    b_survivors: tuple
    is_example_family: bool


@dataclass(frozen=True)
class ComponentCensus:
    pair: tuple
    edges: tuple           # (a_index, b_index) per quadric
    counts: dict
    components: tuple


def z5_component_counts(space_a: TorsionSpace, space_b: TorsionSpace) -> ComponentCensus:
    """Census of the line-condition locus for a pair of torsion P^3's.

    The four polarizations restrict to single bilinear monomials forming a
    perfect matching between the survivor coordinates of the two spaces;
    the minimal vertex covers of the matching give 6 components P^1 x P^1,
    4 of type P^0 x P^2 and 4 of type P^2 x P^0.  All 14 components are
    proved, on each call, to consist of lines inside Q: their rows hold
    distinct variables on the two survivor sets, so the support rule
    :func:`geometry.quadrics_vanish_on` on the union decides it.
    """
    edges, covers = _matching_covers(space_a, space_b)
    components = []
    counts = {"P1xP1": 0, "P0xP2": 0, "P2xP0": 0}
    for kind, a_surv, b_surv in covers:
        counts[kind] += 1
        example = (
            space_a.name == "T01|23"
            and space_b.name == "T02|13"
            and (a_surv, b_surv) == _Z5_EXAMPLE
        )
        if not quadrics_vanish_on(a_surv + b_surv):
            raise FamilyError(f"component lines not inside Q: {a_surv} x {b_surv}")
        components.append(WComponent(kind, a_surv, b_surv, example))
    return ComponentCensus(
        (space_a.name, space_b.name), edges, counts, tuple(components)
    )


def _matching_covers(space_a: TorsionSpace, space_b: TorsionSpace):
    """The pair's matching (one (a, b) edge per quadric) and its minimal
    vertex covers as (kind, a_survivors, b_survivors), in census order."""
    if space_a == space_b:
        raise FamilyError("need two distinct torsion spaces")
    surv_a, surv_b = set(space_a.survivors), set(space_b.survivors)
    edges = []
    for i, terms in enumerate(QUADRIC_TERMS):
        surviving = []
        for _, u, v in terms:
            if u in surv_a and v in surv_b:
                surviving.append((u, v))
            elif v in surv_a and u in surv_b:
                surviving.append((v, u))
        if len(surviving) != 1:
            raise FamilyError(
                f"restricted polarization B{i} is not a single monomial: {surviving}"
            )
        edges.append(surviving[0])
    a_sides = [e[0] for e in edges]
    b_sides = [e[1] for e in edges]
    if sorted(a_sides) != sorted(surv_a) or sorted(b_sides) != sorted(surv_b):
        raise FamilyError("restricted polarizations are not a perfect matching")

    covers = []
    for j in range(1, 4):
        for kill_a in combinations(range(4), j):
            # the edges pair surv_a with surv_b one to one (checked above)
            a_surv = tuple(sorted(a for k, (a, _) in enumerate(edges) if k not in kill_a))
            b_surv = tuple(sorted(edges[k][1] for k in kill_a))
            covers.append((f"P{3 - j}xP{j - 1}", a_surv, b_surv))
    return tuple(edges), covers


def sample_component_line(
    field: Field, space_a: TorsionSpace, space_b: TorsionSpace, rng
) -> LineA:
    """A random line from one P^1 x P^1 component of the pair's census."""
    _, covers = _matching_covers(space_a, space_b)
    kind, a_surv, b_surv = rng.choice([c for c in covers if c[0] == "P1xP1"])
    r0 = _row(0, a_surv, [field.random_nonzero(rng) for _ in a_surv])
    r1 = _row(0, b_surv, [field.random_nonzero(rng) for _ in b_surv])
    return LineA(
        field,
        r0,
        r1,
        provenance={
            "family": "two-torsion",
            "pair": [space_a.name, space_b.name],
            "component": kind,
        },
    )


# ----------------------------------------------------------------------
# the one-torsion (Z/3-type) line parametrization

Z3_PARAM_NAMES = ("u0", "u1", "u2", "u3", "w0", "w1", "z0", "z1")


def _z3_rows(values: Sequence, zero):
    """The two rows of the parametrized line at the values of
    ``Z3_PARAM_NAMES``: canonical scalars of a field with 0 (the rows are
    then unreduced), or ``Poly`` variables with the zero polynomial."""
    u0, u1, u2, u3, w0, w1, z0, z1 = values
    row0 = _row(zero, (AIDX["a32"], AIDX["a23"], AIDX["a10"], AIDX["a01"]), (u0, u1, u2, u3))
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


def z3_line(field: Field, u: Sequence, w: Sequence, z: Sequence) -> LineA:
    """The parametrized line through the torsion point (u0,u1,u2,u3) of T01|23.

    Raises :class:`GeometryError` for parameter values whose two rows are
    projectively dependent.
    """
    if len(u) != 4 or len(w) != 2 or len(z) != 2:
        raise FamilyError("expected parameters u (4), w (2), z (2)")
    r0, r1 = _z3_rows([field.canonical(x) for x in (*u, *w, *z)], 0)
    line = LineA(field, r0, r1, provenance={"family": "z3"})
    if not line_in_q(line):
        raise FamilyError("parametrized line left Q; row table corrupted")
    return line


def verify_z3_line() -> Certificate:
    """Symbolic certificate: the parametrized line lies in Q for all parameters
    and its first row lies in T01|23 identically."""
    cert = Certificate("z3-param")
    vt = VarTable(Z3_PARAM_NAMES)
    var = [Poly.variable(vt, QQ, n) for n in Z3_PARAM_NAMES]
    row0, row1 = _z3_rows(var, Poly.zero(vt, QQ))
    cert.add("line-in-q-identically", _symbolic_line_in_q(cert, row0, row1))
    t0123 = TORSION_SPACES[0]
    cert.add(
        "first-row-in-T01|23",
        all(row0[j].is_zero() for j in t0123.killed),
        "killed coordinates vanish structurally",
    )
    return cert


# the 3x2 Hilbert-Burch matrix behind the parametrization, regrouped as a
# 3x6 linear system for (v0, v1, v2, v3, v45, v67) via m (w0, w1)^t = 0
def _z3_kernel_system(u0, u1, u2, u3, w0, w1, zero):
    return [
        [-(u1 * w0), u0 * w0, zero, zero, zero, -(u0 * u0 * u1 * u1 * w1)],
        [zero, zero, u3 * w1, -(u2 * w1), u2 * u2 * u3 * u3 * w0, zero],
        [zero, zero, zero, zero, w1, w0],
    ]


def _z3_reference_kernel_rows(u0, u1, u2, u3, w0, w1, zero):
    return [
        [u0, u1, zero, zero, zero, zero],
        [zero, zero, u2, u3, zero, zero],
        [u0 * u0 * u1 * w1 ** 3, zero, -(u2 * u2 * u3 * w0 ** 3), zero,
         -(w0 * w1 * w1), w0 * w0 * w1],
    ]


def verify_z3_kernel() -> Certificate:
    """Validate the tabulated kernel rows of the regrouped Hilbert-Burch system.

    The direct reading (kernel columns 5, 6 read as (v45, v67)) is checked
    first and its residuals recorded; then the finite documented convention
    set {column order of the last two unknowns} x {sign of each} is searched,
    in that order, for the first reading that validates all three rows.
    """
    cert = Certificate("z3-kernel")
    vt = VarTable(("u0", "u1", "u2", "u3", "w0", "w1"))
    zero = Poly.zero(vt, QQ)
    var = [Poly.variable(vt, QQ, n) for n in vt.names]
    # the system times a reading of a row; products with a zero entry are skipped
    residuals = PolyMatrix(vt, QQ, _z3_kernel_system(*var, zero)).apply
    reference = _z3_reference_kernel_rows(*var, zero)
    direct = [residuals(row) for row in reference]
    cert.data["direct_reading_residuals"] = [[str(r) for r in row] for row in direct]
    cert.add("row1-direct", all(r.is_zero() for r in direct[0]))
    cert.add("row2-direct", all(r.is_zero() for r in direct[1]))
    cert.data["row3_direct_ok"] = all(r.is_zero() for r in direct[2])

    cert.add("zero-vector-in-kernel", all(r.is_zero() for r in residuals([zero] * 6)))

    # a row zero in kernel columns 5 and 6 reads the same under every convention, and the
    # first convention (no swap, +1, +1) is the direct reading: their residuals are reused
    moved = {k for k, row in enumerate(reference) if row[4].terms or row[5].terms}
    found = None
    for n, (swap, s5, s6) in enumerate(product((False, True), (1, -1), (1, -1))):
        c5, c6 = (5, 4) if swap else (4, 5)
        readings = (residuals(row[:4] + [row[c5].scale(s5), row[c6].scale(s6)])
                    if n and k in moved else direct[k] for k, row in enumerate(reference))
        if all(r.is_zero() for rows in readings for r in rows):
            found = {"last_two_unknowns": ["v67", "v45"] if swap else ["v45", "v67"], "signs": [s5, s6]}
            break
    cert.data["validating_convention"] = found
    cert.add("all-rows-under-some-convention", found is not None,
             "kernel columns 5,6 read as " + (str(found["last_two_unknowns"]) if found else "none found"))
    return cert


# ----------------------------------------------------------------------
# the determinantal scroll system and its rank-2 kernel

PARA_V2_VARS = ("w0", "w1", "y0", "y1", "z0", "z1")
PARA_V2_GRADING = {
    "w0": (1, 0, 0), "w1": (1, 0, 0),
    "y0": (0, 1, 0), "y1": (0, 1, 0),
    "z0": (0, 0, 1), "z1": (0, 0, 1),
}


@functools.cache
def _para_v2_system() -> PolyMatrix:
    """The 4x6 linear system for (c0..c5) from the two defining 2x2 systems, built once."""
    vt = VarTable(PARA_V2_VARS, PARA_V2_GRADING)
    var = {n: Poly.variable(vt, QQ, n) for n in vt.names}
    w0, w1, y0, y1, z0, z1 = (var[n] for n in PARA_V2_VARS)
    zero = Poly.zero(vt, QQ)
    rows = [
        [y0, zero, y1, zero, zero, zero],
        [zero, zero, zero, zero, -(w1 * y0), (w0 - w1) * y1],
        [zero, z0, z1, zero, zero, zero],
        [zero, zero, zero, w0 * z1, -(w1 * z0), zero],
    ]
    return PolyMatrix(vt, QQ, rows)


def verify_para_v2() -> Certificate:
    """Certificate for the determinantal parametrization of the scroll model.

    Computes the rank-2 kernel of the 4x6 system by bounded-degree linear
    algebra (one generator of multidegree (0,1,1), one new generator at
    (2,1,1)), substitutes c = v0*n1 + v1*n2 into the two defining 2x2
    determinants and verifies both expand to the zero polynomial.
    """
    cert = Certificate("para-v2")
    M = _para_v2_system()
    vt = M.vars

    small = bounded_degree_kernel(M, (0, 1, 1))
    cert.add("one-generator-at-(0,1,1)", len(small) == 1, f"found {len(small)} kernel vectors")
    if len(small) != 1:
        return cert
    n1 = small[0]

    big = bounded_degree_kernel(M, (2, 1, 1))
    cert.add("bounded-kernel-dimension-7", len(big) == 7, f"dimension {len(big)}")

    mono_index = {m: i for i, m in enumerate(monomials_up_to(vt, (2, 1, 1)))}

    def flat(vec):  # sparse: {column: value}
        return {slot * len(mono_index) + mono_index[e]: c
                for slot, p in enumerate(vec) for e, c in p.terms.items()}

    # n1 times every monomial of degree <= 2 in (w0, w1)
    w_monos = [Poly.monomial(vt, QQ, e) for e in monomials_up_to(vt, (2, 0, 0))]
    old_span = [flat([m * p for p in n1]) for m in w_monos]
    # the span is eliminated once; a vector outside it leaves a remainder against it
    span = _gauss_jordan(QQ, old_span)
    n2 = next((vec for vec in big if _reduce(QQ, span, flat(vec))), None)
    cert.add("second-generator-found", n2 is not None)
    if n2 is None:
        return cert
    for name, vec in (("n1", n1), ("n2", n2)):
        residual = M.apply(list(vec))
        cert.add(f"{name}-annihilates-system", all(r.is_zero() for r in residual))

    evt = VarTable(("v0", "v1") + PARA_V2_VARS)
    # a polynomial of the system read in evt: no v0, v1 in its exponents
    lift = lambda p: Poly(evt, QQ, {(0, 0, *e): coeff for e, coeff in p.terms.items()})
    v0, v1, w0, w1 = (Poly.variable(evt, QQ, n) for n in ("v0", "v1", "w0", "w1"))
    c = [v0 * lift(a) + v1 * lift(b) for a, b in zip(n1, n2)]
    det1 = c[0] * c[5] * (w0 - w1) + c[2] * c[4] * w1
    det2 = c[1] * c[3] * w0 + c[2] * c[4] * w1
    cert.add("det1-vanishes", det1.is_zero(), str(det1) if not det1.is_zero() else "")
    cert.add("det2-vanishes", det2.is_zero(), str(det2) if not det2.is_zero() else "")
    cert.data["kernel"] = {name: [str(p) for p in vec] for name, vec in (("n1", n1), ("n2", n2))}
    return cert
