"""Seeded brute-force samplers for lines inside Q.

All strategies follow the same two-step recipe: pick a first point p on Q
(randomly, on a torsion P^3, or on the hyperelliptic locus via its
parametrization), then pick a second point in the tangent cone Q n T_p Q.
Because Q is cut out by quadrics, the connecting line then lies inside Q.

The searches are exact rejection/scan loops over a prime field, seeded and
deterministic: a sampler owns a private random stream, so equal
(strategy, field, seed) always return the identical line.  Each strategy
re-verifies its promise through the classifier before returning and retries
otherwise; a configurable trial budget guards termination.

Strategies: ``generic``, ``torsion`` (one named torsion P^3), ``two-torsion``
(a pair of them), ``hyp`` (one hyperelliptic point), ``two-hyp`` (two
hyperelliptic points; feasible for small moduli only, the conditions have
codimension 4).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .families import HYP_FACTORED, sample_component_line
from .fields import Field, PrimeField
from .geometry import (
    GeometryError,
    LineA,
    PointA,
    ROW_TRIPLES as _ROW_TRIPLES,
    jacobian_at,
    jacobian_rank,
    line_in_q,
    polarization_value,
    quadric_value,
    tangent_space,
)
from .linalg import rank
from .strata import TORSION_SPACES, FiberReport, TorsionSpace, classify_line

STRATEGIES = ("generic", "torsion", "two-torsion", "hyp", "two-hyp")

#: largest modulus for which scan tables are built
MAX_BRUTE_FORCE_MODULUS = 1_000_000


class SamplingError(ValueError):
    pass


class BudgetExhausted(SamplingError):
    def __init__(self, strategy: str, trials: int):
        self.strategy = strategy
        self.trials = trials
        super().__init__(f"search budget exhausted for {strategy} after {trials} trials")


class FieldTooLarge(SamplingError):
    pass


_sqrt_tables: dict = {}


def _sqrt_table(p: int) -> dict:
    table = _sqrt_tables.get(p)
    if table is None:
        table = {}
        for x in range((p + 1) // 2, p):
            table.setdefault(x * x % p, x)
        for x in range((p + 1) // 2 + 1):
            table[x * x % p] = x
        _sqrt_tables[p] = table
    return table


class _Budget:
    __slots__ = ("strategy", "limit", "used")

    def __init__(self, strategy: str, limit: int):
        self.strategy = strategy
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExhausted(self.strategy, self.used)


def _require_search_field(field: Field) -> int:
    if not isinstance(field, PrimeField):
        raise SamplingError("brute-force search strategies need a prime field")
    if field.p == 2:
        raise SamplingError("search strategies need an odd prime field")
    if field.p > MAX_BRUTE_FORCE_MODULUS:
        raise FieldTooLarge(
            f"modulus {field.p} exceeds the brute-force cutoff {MAX_BRUTE_FORCE_MODULUS}"
        )
    return field.p


# ----------------------------------------------------------------------
# step 1: points on Q


def random_q_point(field: PrimeField, rng, budget: _Budget) -> PointA:
    """A point of Q: three quadrics solved linearly, the fourth by rejection."""
    p = _require_search_field(field)
    while True:
        budget.spend()
        a32, a31, a30, a23, a21, a20 = (rng.randrange(p) for _ in range(6))
        a13 = rng.randrange(1, p)
        a03 = rng.randrange(1, p)
        a01 = rng.randrange(p)
        inv13 = pow(a13, -1, p)
        inv03 = pow(a03, -1, p)
        a10 = (a01 * a03 - a30 * a31) * inv13 % p
        a12 = (a21 * a23 - a31 * a32) * inv13 % p
        a02 = (a30 * a32 - a20 * a23) * inv03 % p
        if (a01 * a02 - a10 * a12 + a20 * a21) % p:
            continue
        coords = (a32, a31, a30, a23, a21, a20, a13, a12, a10, a03, a02, a01)
        point = PointA(field, coords)
        if not point.on_quadric_intersection():
            continue
        if jacobian_rank(point) != 4:
            continue
        return point


# ----------------------------------------------------------------------
# step 2: a partner in the tangent cone


def tangent_cone_partner(field: PrimeField, point: PointA, rng, budget: _Budget) -> PointA:
    """A point w of Q n T_p Q not proportional to p.

    Works in an explicit complement of p inside T_p Q: with the first two
    complement directions (u, v) free, each draw fixes the remaining five
    coefficients, scans the u-coefficient over F_p and solves q_0 = 0 as an
    exact quadratic in the v-coefficient, testing q_1..q_3 on the at most
    two roots.
    """
    p = _require_search_field(field)
    basis = tangent_space(point)
    if len(basis) != 8:
        raise SamplingError("tangent cone search needs a smooth point (rank-4 Jacobian)")
    rows = [list(point.coords)]
    comp = []
    for vec in basis:
        if rank(field, rows + [list(vec)]) > len(rows):
            rows.append(list(vec))
            comp.append(vec)
        if len(comp) == 7:
            break
    if len(comp) != 7:
        raise SamplingError("could not complete a tangent basis")
    u, v, rest = comp[0], comp[1], comp[2:]

    qu = [quadric_value(field, i, u) for i in range(4)]
    qv = [quadric_value(field, i, v) for i in range(4)]
    buv = [polarization_value(field, i, u, v) for i in range(4)]
    sqrt_table = _sqrt_table(p)

    while True:
        coeffs = [rng.randrange(p) for _ in range(5)]
        R = [0] * 12
        for c, vec in zip(coeffs, rest):
            if c:
                for k in range(12):
                    R[k] = (R[k] + c * vec[k]) % p
        qr = [quadric_value(field, i, R) for i in range(4)]
        bur = [polarization_value(field, i, u, R) for i in range(4)]
        bvr = [polarization_value(field, i, v, R) for i in range(4)]
        for x in range(p):
            budget.spend()
            A = qv[0]
            B = (x * buv[0] + bvr[0]) % p
            C = (x * x * qu[0] + x * bur[0] + qr[0]) % p
            ys = _solve_quadratic(p, A, B, C, sqrt_table)
            for y in ys:
                ok = True
                for i in (1, 2, 3):
                    val = (
                        y * y * qv[i]
                        + y * (x * buv[i] + bvr[i])
                        + x * x * qu[i]
                        + x * bur[i]
                        + qr[i]
                    ) % p
                    if val:
                        ok = False
                        break
                if not ok:
                    continue
                w = tuple(
                    (x * u[k] + y * v[k] + R[k]) % p for k in range(12)
                )
                if any(w):
                    partner = PointA(field, w)
                    if not partner.on_quadric_intersection():
                        raise SamplingError("tangent cone scan left Q")
                    return partner


def _solve_quadratic(p, A, B, C, sqrt_table):
    """Roots of A y^2 + B y + C over F_p (p odd); () when there are none."""
    if A == 0:
        if B == 0:
            return (0, 1) if C == 0 else ()
        return ((-C) * pow(B, -1, p) % p,)
    disc = (B * B - 4 * A * C) % p
    r = sqrt_table.get(disc)
    if r is None:
        return ()
    inv2a = pow(2 * A, -1, p)
    y1 = (-B + r) * inv2a % p
    if r == 0:
        return (y1,)
    return (y1, (-B - r) * inv2a % p)


# ----------------------------------------------------------------------
# two hyperelliptic endpoints (codimension-4 rejection)


def _hyp_point_raw_int(p: int, params, factored):
    """Integer fast path of the factored parametrization evaluation mod p."""
    v0, v1, w0, w1, x0, x1, y0, y1, z0, z1 = params
    atoms = (
        v0, v1, w0, w1, x0, x1, y0, y1, z0, z1,
        (x1 * w1 - x0 * w0) % p,
        (x1 + x0) % p,
        (w1 + w0) % p,
    )
    coords = []
    any_nonzero = False
    for sign, exps in factored:
        acc = sign
        for a, e in zip(atoms, exps):
            if e:
                if a == 0:
                    acc = 0
                    break
                acc *= a if e == 1 else a * a
        acc %= p
        coords.append(acc)
        if acc:
            any_nonzero = True
    return coords if any_nonzero else None


def _two_hyp_partner(
    field: PrimeField,
    point: PointA,
    rng,
    budget: _Budget,
    cap: int,
    general_position: bool = False,
):
    """A second hyperelliptic-parametrization point inside T_p Q, by rejection.

    The locus carries distinguished degenerate partners (one a-matrix row
    vanishes at them) that the rejection hits far more often than general
    ones; ``general_position`` skips those.  Returns None after ``cap``
    trials so the caller can redraw the first endpoint.
    """
    p = _require_search_field(field)
    lam = jacobian_at(field, point.coords)
    l0, l1, l2, l3 = ([int(x) for x in row] for row in lam)
    factored = HYP_FACTORED
    for _ in range(cap):
        budget.spend()
        params = [rng.randrange(p) for _ in range(10)]
        coords = _hyp_point_raw_int(p, params, factored)
        if coords is None:
            continue
        if sum(l0[k] * coords[k] for k in range(12)) % p:
            continue
        if sum(l1[k] * coords[k] for k in range(12)) % p:
            continue
        if sum(l2[k] * coords[k] for k in range(12)) % p:
            continue
        if sum(l3[k] * coords[k] for k in range(12)) % p:
            continue
        if general_position and any(
            all(coords[j] == 0 for j in triple) for triple in _ROW_TRIPLES
        ):
            continue
        return PointA(field, coords)
    return None


# ----------------------------------------------------------------------
# strategy driver


def _random_hyp_point(field: PrimeField, rng, budget: _Budget) -> PointA:
    from .strata import rank_a

    p = _require_search_field(field)
    while True:
        budget.spend()
        coords = _hyp_point_raw_int(p, [rng.randrange(p) for _ in range(10)], HYP_FACTORED)
        if coords is None:
            continue
        point = PointA(field, coords)
        if rank_a(point) != 3:
            continue
        if jacobian_rank(point) != 4:
            continue
        return point


def sample_line(
    strategy: str,
    field: Field,
    seed: int,
    budget: int = 10_000_000,
    space: Optional[TorsionSpace] = None,
    spaces: Optional[Sequence[TorsionSpace]] = None,
    max_retries: int = 200,
    general_position: bool = False,
) -> LineA:
    """Sample one line of Q; deterministic in (strategy, field, seed).

    Every returned line satisfies line_in_q exactly and its classifier
    report shows the strategy's promise: empty special loci for
    ``generic``; exactly one torsion intersection on the named space for
    ``torsion``; two torsion intersections for ``two-torsion``; exactly one
    (resp. two) rank-3 minor-GCD roots for ``hyp`` (resp. ``two-hyp``).
    ``general_position`` additionally forces a two-hyp line to be a general
    member of its family (no row-vanishing point, kernel degrees
    (1, 1, 1, 1)); such lines are 20-100x rarer in the rejection search.
    Raises :class:`BudgetExhausted` when the trial budget runs out.
    """
    if strategy not in STRATEGIES:
        raise SamplingError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    rng = random.Random(seed)
    tracker = _Budget(strategy, budget)

    home = pair = None
    if strategy == "two-torsion":
        pair = tuple(spaces) if spaces else (TORSION_SPACES[0], TORSION_SPACES[1])
        if len(pair) != 2 or pair[0] == pair[1]:
            raise SamplingError("two-torsion needs two distinct torsion spaces")
    elif strategy == "torsion":
        home = space if space is not None else TORSION_SPACES[0]

    for _ in range(max_retries):
        try:
            if strategy == "generic":
                p_pt = random_q_point(field, rng, tracker)
                w = tangent_cone_partner(field, p_pt, rng, tracker)
                line = LineA(field, p_pt.coords, w.coords)
            elif strategy == "torsion":
                tracker.spend()
                p_pt = home.random_point(field, rng)
                w = tangent_cone_partner(field, p_pt, rng, tracker)
                line = LineA(field, p_pt.coords, w.coords)
            elif strategy == "two-torsion":
                tracker.spend()
                line = sample_component_line(field, pair[0], pair[1], rng)
            elif strategy == "hyp":
                p_pt = _random_hyp_point(field, rng, tracker)
                w = tangent_cone_partner(field, p_pt, rng, tracker)
                line = LineA(field, p_pt.coords, w.coords)
            else:  # two-hyp
                p_pt = _random_hyp_point(field, rng, tracker)
                q_pt = _two_hyp_partner(
                    field,
                    p_pt,
                    rng,
                    tracker,
                    cap=max(1000, budget // 20),
                    general_position=general_position,
                )
                if q_pt is None:
                    continue
                line = LineA(field, p_pt.coords, q_pt.coords)
        except GeometryError:
            continue
        if not line_in_q(line):
            continue
        report = classify_line(line)
        if _fulfils(strategy, report, home, pair, general_position):
            provenance = {
                "strategy": strategy,
                "seed": seed,
                "trials": tracker.used,
                "field": field.to_spec(),
            }
            if strategy == "torsion":
                provenance["space"] = home.name
            if strategy == "two-torsion":
                provenance["spaces"] = [s.name for s in pair]
            if strategy in ("torsion", "two-torsion"):
                provenance["certificate"] = _meeting_certificate(report)
            if strategy in ("hyp", "two-hyp"):
                provenance["certificate"] = {
                    "rank3_roots": [
                        f"({field.format_scalar(r.point[0])}:{field.format_scalar(r.point[1])})"
                        for r in report.hyperelliptic_roots
                    ]
                }
            return LineA(field, line.rows[0], line.rows[1], provenance=provenance)
    raise BudgetExhausted(strategy, tracker.used)


def _meeting_certificate(report: FiberReport) -> dict:
    F = report.line.field
    return {
        "torsion_points": [
            {
                "point": f"({F.format_scalar(st[0])}:{F.format_scalar(st[1])})",
                "space": sp.name,
            }
            for st, sp in report.torsion_points
        ]
    }


def _fulfils(strategy: str, report: FiberReport, home, pair, general_position: bool) -> bool:
    """Whether the report keeps the strategy's promise (see :func:`sample_line`);
    ``home`` and ``pair`` are the torsion and two-torsion targets, else None."""
    if strategy == "generic":
        return report.is_generic and not report.excluded_flag
    if strategy == "torsion":
        return (
            len(report.torsion_points) == 1
            and report.torsion_points[0][1] == home
            and not report.torsion_containments
            and not report.hyperelliptic_roots
            and not report.excluded_flag
        )
    if strategy == "two-torsion":
        seen = set(sp.name for _, sp in report.torsion_points)
        return (
            len(report.torsion_points) == 2
            and seen == set(s.name for s in pair)
            and not report.hyperelliptic_roots
            and not report.excluded_flag
        )
    if strategy == "hyp":
        return (
            len(report.hyperelliptic_roots) == 1
            and not report.torsion_points
            and not report.torsion_containments
            and not report.excluded_flag
        )
    if strategy == "two-hyp":
        # kernel degrees (1, 1, 1, 1) also rule out every row-vanishing point
        return (
            len(report.hyperelliptic_roots) == 2
            and not report.torsion_points
            and not report.torsion_containments
            and not report.excluded_flag
            and (not general_position or report.kernel_degrees == (1, 1, 1, 1))
        )
    raise SamplingError(strategy)
