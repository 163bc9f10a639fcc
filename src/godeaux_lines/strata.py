"""Special loci on Q and per-line fiber classification.

Three coordinate P^3's (one per partition of {0,1,2,3} into two pairs)
carry all four quadrics identically to zero, as the support rule
:func:`geometry.quadrics_vanish_on` proves when they are built: no quadric
term has both ends among a space's four survivors.  Lines must meet one or
two of them to produce torsion fibers.  Hyperelliptic fibers sit where the 4x6
a-matrix has rank exactly 3, detected along a line through the GCD of its
fifteen 4x4 minors (binary quartics), each root's rank then read off the seven
K4 forms where no coordinate is 0 (:func:`rank_a`).  :func:`classify_line`
aggregates the detectors into a :class:`FiberReport`; every reported parameter
value is re-verified against its defining condition before it is emitted.

The signed coordinate permutations preserving the quadric set form a
finite group (:func:`quadric_symmetries`) whose induced action is
transitive on the three torsion spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, reduce
from itertools import combinations, permutations
from operator import mul

from .certificates import Certificate
from .fields import Field, PrimeField
from .geometry import (A_PATTERN, LineA, ORDER, PointA, QUADRIC_TERMS, a_matrix_rank, det4, line_in_q,
                       quadrics_vanish_on)
from .linalg import solver
from .pencil import (ALL_ZERO, BinaryForm, DegenerationProfile, _common_root, _degeneration_profile,
                     binary_gcd, binary_roots, linear_form)


class StrataError(ValueError):
    pass


# ----------------------------------------------------------------------
# the three torsion P^3's


@dataclass(frozen=True)
class TorsionSpace:
    """A coordinate P^3 on which all four quadrics vanish identically."""

    name: str
    partition: tuple  # ((i, j), (k, l))
    survivors: tuple  # ORDER indices spanning the P^3
    killed: tuple     # the complementary eight ORDER indices

    def contains(self, p: PointA) -> bool:
        return not any(p.coords[j] for j in self.killed)

    def random_point(self, field: Field, rng) -> PointA:
        coords = [0] * 12
        for j in self.survivors:
            coords[j] = field.random_nonzero(rng)
        return PointA(field, coords)

    def __str__(self):
        return self.name


def _build_torsion_space(pair1, pair2) -> TorsionSpace:
    (i, j), (k, l) = pair1, pair2
    surv_names = {f"a{i}{j}", f"a{j}{i}", f"a{k}{l}", f"a{l}{k}"}
    survivors = tuple(idx for idx, n in enumerate(ORDER) if n in surv_names)
    killed = tuple(idx for idx in range(12) if idx not in survivors)
    space = TorsionSpace(f"T{i}{j}|{k}{l}", (pair1, pair2), survivors, killed)
    if not quadrics_vanish_on(survivors):
        raise StrataError(f"quadrics do not vanish on {space.name}")
    return space


TORSION_SPACES = (
    _build_torsion_space((0, 1), (2, 3)),
    _build_torsion_space((0, 2), (1, 3)),
    _build_torsion_space((0, 3), (1, 2)),
)


def torsion_space(name: str) -> TorsionSpace:
    """Look up a torsion space by name; 'T01|23', '01|23' and 'T01-23' all work."""
    key = name.strip().upper().lstrip("T").replace("-", "|").replace("/", "|")
    for sp in TORSION_SPACES:
        if sp.name.lstrip("T") == key:
            return sp
    raise StrataError(f"unknown torsion space {name!r}; expected one of "
                      + ", ".join(sp.name for sp in TORSION_SPACES))


# ----------------------------------------------------------------------
# rank stratification


def rank_a(p: PointA) -> int:
    """Exact rank of the 4x6 a-matrix at the point (0..4): :func:`geometry.a_matrix_rank`."""
    return a_matrix_rank(p.field, p.coords)


def torsion_intersections(line: LineA):
    """Intersection points of the line with each torsion P^3.

    For a line in Q not contained in the space there is at most one point
    per space: the common root of the eight killed coordinate forms.
    Containments are reported by :func:`torsion_containments`.
    """
    _require_in_q(line)
    return _torsion_meetings(line)[0]


def torsion_containments(line: LineA):
    """Torsion spaces containing the whole line."""
    _require_in_q(line)
    return _torsion_meetings(line)[1]


def _torsion_meetings(line: LineA):
    """(points, containments) from one common root per space of its eight
    killed coordinate forms: a root is the meeting point, and ALL_ZERO
    (every killed coordinate vanishes on the line) a containment."""
    points, inside = [], []
    for space in TORSION_SPACES:
        root = _common_root(line.field, [line.restrict_coordinate(j) for j in space.killed])
        if root is ALL_ZERO:
            inside.append(space)
        elif root is not None:
            if not space.contains(line.point_at(*root)):
                raise StrataError(f"emitted point not on {space.name}")
            points.append((root, space))
    return points, inside


def _require_in_q(line: LineA):
    if not line_in_q(line):
        raise StrataError("line does not lie in Q")


# ----------------------------------------------------------------------
# hyperelliptic detection via the minor GCD


def quartic_minors(line: LineA, scale=1):
    """All fifteen 4x4 minors (binary quartics) of the a-matrix along the
    line, a 4x6 matrix of linear binary forms; with both rows multiplied by
    ``scale``, each minor is scale^4 times."""
    F = line.field
    zero = BinaryForm.zero(F, 1)
    r0, r1 = line.rows
    rows = [
        [zero if j is None else linear_form(F, scale * r0[j], scale * r1[j]) for j in pattern_row]
        for pattern_row in A_PATTERN
    ]
    return [det4([[row[c] for c in cols] for row in rows]) for cols in combinations(range(6), 4)]


@dataclass(frozen=True)
class MinorRoot:
    point: tuple          # canonical (s, t)
    rank: int
    multiplicity: int


@dataclass(frozen=True)
class HyperellipticResult:
    gcd: BinaryForm
    roots: tuple          # of MinorRoot
    all_minors_vanish: bool


def hyperelliptic_points(line: LineA) -> HyperellipticResult:
    """GCD of the fifteen quartic minors along the line and its roots.

    Each root is reported with the exact a-matrix rank at that point;
    rank-3 roots are the hyperelliptic fibers, rank <= 2 roots belong to
    the torsion/excluded loci.
    """
    _require_in_q(line)
    return _hyperelliptic_points(line)


def _hyperelliptic_points(line: LineA) -> HyperellipticResult:
    # rows times the LCM of their denominators (1 over F_p) are integers over
    # Q, and every minor scales by the same unit, which the monic GCD drops
    scale = math.lcm(*(c.denominator for row in line.rows for c in row))
    g = binary_gcd(quartic_minors(line, scale))
    if g.is_zero():
        return HyperellipticResult(g, (), True)
    roots = []
    if g.degree > 0:
        for root, mult in binary_roots(g):
            # rank <= 3 exactly when every 4x4 minor vanishes at the root
            rank_at_root = rank_a(line.point_at(*root))
            if rank_at_root == 4:
                raise StrataError("GCD root fails to kill every minor")
            roots.append(MinorRoot(root, rank_at_root, mult))
    return HyperellipticResult(g, tuple(roots), False)


def row_vanishing_points(line: LineA):
    """Points of the line where a whole a-matrix row vanishes.

    Returns ([( (s, t), row_index ), ...], [row_index contained]) where the
    second list records rows vanishing identically on the line.
    """
    _require_in_q(line)
    return _row_vanishing(_degeneration_profile(line))


def _row_vanishing(profile: DegenerationProfile):
    """Row vanishing read off the rank drops: block b is row b's skew block,
    and it drops rank exactly where the row's three forms vanish."""
    drops = profile.rank_drop_points
    points = [(root, r) for root, r in drops if root is not None]
    return points, [r for root, r in drops if root is None]


# ----------------------------------------------------------------------
# per-line classification


@dataclass(frozen=True)
class FiberReport:
    """Everything the detectors know about one line in Q."""

    line: LineA
    torsion_points: tuple          # ((s, t), TorsionSpace)
    torsion_containments: tuple    # TorsionSpace
    hyperelliptic_roots: tuple     # MinorRoot with rank == 3
    low_rank_roots: tuple          # (MinorRoot, TorsionSpace or None), rank <= 2
    row_vanishing: tuple           # ((s, t), row index)
    row_containments: tuple        # row indices identically zero
    minor_gcd: BinaryForm
    all_minors_vanish: bool
    excluded_flag: bool
    kernel_degrees: tuple          # flattened sorted block generator degrees
    block_degrees: tuple
    rank_drop_points: tuple

    @property
    def is_generic(self) -> bool:
        """No special locus seen: the report of a general line."""
        return (
            not self.torsion_points
            and not self.torsion_containments
            and not self.all_minors_vanish
            and self.minor_gcd.degree == 0
        )

    def to_json(self) -> dict:
        pt = lambda st: _format_point(self.line.field, st)
        return {
            "line": self.line.to_json(),
            "torsion_points": [
                {"point": pt(root), "space": sp.name} for root, sp in self.torsion_points
            ],
            "torsion_containments": [sp.name for sp in self.torsion_containments],
            "hyperelliptic_roots": [
                {"point": pt(r.point), "rank": r.rank, "multiplicity": r.multiplicity}
                for r in self.hyperelliptic_roots
            ],
            "low_rank_roots": [
                {
                    "point": pt(r.point),
                    "rank": r.rank,
                    "multiplicity": r.multiplicity,
                    "space": sp.name if sp is not None else None,
                }
                for r, sp in self.low_rank_roots
            ],
            "row_vanishing": [
                {"point": pt(root), "row": r} for root, r in self.row_vanishing
            ],
            "row_containments": list(self.row_containments),
            "minor_gcd": str(self.minor_gcd),
            "all_minors_vanish": self.all_minors_vanish,
            "excluded": self.excluded_flag,
            "kernel_degrees": list(self.kernel_degrees),
            "block_degrees": [list(b) for b in self.block_degrees],
            "rank_drop_points": [
                {"point": pt(root) if root is not None else None, "block": b}
                for root, b in self.rank_drop_points
            ],
            "generic": self.is_generic,
        }


def _format_point(F: Field, st) -> str:
    """A point of P^1 as reports and certificates write it: "(s:t)"."""
    return f"({F.format_scalar(st[0])}:{F.format_scalar(st[1])})"


# ((field, rows), report) of the last classified line, read and replaced whole
_last_report = (None, None)


def classify_line(line: LineA) -> FiberReport:
    """Run every detector on a line of Q and aggregate the results.

    ``excluded_flag`` is a conservative proxy: it is set when some root of
    the minor GCD has a-matrix rank <= 2 yet lies on none of the three
    torsion P^3's (such lines do not lead to Godeaux surfaces).

    The last report is kept: a call with the same field and rows (``sample``
    classifies the line its sampler just accepted) checks that the line lies
    in Q and returns it with ``line`` set to the caller's, provenance and all.
    """
    global _last_report
    _require_in_q(line)  # once; the detector bodies below do not re-check
    key = (line.field, line.rows)
    last_key, last = _last_report
    if last_key == key:
        return replace(last, line=line)
    tor, tor_cont = _torsion_meetings(line)
    hyp = _hyperelliptic_points(line)
    hyp_roots = tuple(r for r in hyp.roots if r.rank == 3)
    low = []
    excluded = False
    for r in hyp.roots:
        if r.rank <= 2:
            point = line.point_at(*r.point)
            home = next((sp for sp in TORSION_SPACES if sp.contains(point)), None)
            low.append((r, home))
            if home is None:
                excluded = True
    profile = _degeneration_profile(line)
    rows, row_cont = _row_vanishing(profile)
    report = FiberReport(
        line=line,
        torsion_points=tuple(tor),
        torsion_containments=tuple(tor_cont),
        hyperelliptic_roots=hyp_roots,
        low_rank_roots=tuple(low),
        row_vanishing=tuple(rows),
        row_containments=tuple(row_cont),
        minor_gcd=hyp.gcd,
        all_minors_vanish=hyp.all_minors_vanish,
        excluded_flag=excluded,
        kernel_degrees=profile.degree_sequence,
        block_degrees=profile.block_degrees,
        rank_drop_points=profile.rank_drop_points,
    )
    _last_report = (key, report)
    return report


# ----------------------------------------------------------------------
# signed coordinate symmetries of the quadric set


# ORDER slot k holds a_ij with (i, j) = _SLOT_PAIRS[k]; _PAIR_SLOT inverts it
_SLOT_PAIRS = tuple((int(name[1]), int(name[2])) for name in ORDER)
_PAIR_SLOT = {pair: k for k, pair in enumerate(_SLOT_PAIRS)}
# each torsion space as its unordered pair of unordered index pairs
_TORSION_KEYS = [frozenset(map(frozenset, sp.partition)) for sp in TORSION_SPACES]
# the 24 permutations, sorted; _TAUS[i] maps slot k (a_ij) to the slot of a_(perm i)(perm j)
# for perm _PERMS[i], and _PERM_PRODUCT[a][b] indexes _PERMS[a] after _PERMS[b]
_PERMS = tuple(permutations(range(4)))
_PERM_INDEX = {perm: i for i, perm in enumerate(_PERMS)}
_TAUS = tuple(tuple(_PAIR_SLOT[p[i], p[j]] for i, j in _SLOT_PAIRS) for p in _PERMS)
_PERM_PRODUCT = tuple(tuple(_PERM_INDEX[tuple(map(a.__getitem__, b))] for b in _PERMS) for a in _PERMS)
# a sign mask has bit k set where sign k is -1; _HALF_SIGNS[c] are the signs of its six bits c,
# and _PULLS[i][h][c] has bit k where c has bit _TAUS[i][k] - 6h: half a mask read through tau
# (each table doubled once per bit, the entries with the bit set following those without)
_WEIGHTS = tuple(1 << k for k in range(12))
_HALF_SIGNS = tuple(tuple(-1 if c >> k & 1 else 1 for k in range(6)) for c in range(64))
_PULLS = tuple(tuple(reduce(lambda t, j: t + [x | 1 << tau.index(j) for x in t], range(h, h + 6), [0])
                     for h in (0, 6)) for tau in _TAUS)


@dataclass(frozen=True)
class SignedPermutation:
    """a_ij -> sign_ij * a_(perm i)(perm j), as an index map on ORDER."""

    perm: tuple   # image of (0, 1, 2, 3)
    signs: tuple  # +-1 per ORDER slot

    # the index map of perm (slot k -> the slot a_k goes to)
    tau = property(lambda e: _TAUS[_PERM_INDEX[e.perm]])
    # the group search's int, perm's index << 12 | the sign mask (sum s_k 2^k is 4095 less twice it)
    code = property(lambda e: _PERM_INDEX[e.perm] << 12 | 4095 - sum(map(mul, _WEIGHTS, e.signs)) >> 1)


IDENTITY_SYMMETRY = SignedPermutation((0, 1, 2, 3), (1,) * 12)


def _compose(a: int, b: int) -> int:
    """a after b on codes: b's sign mask takes a's read through b's index map."""
    lo, hi = _PULLS[b >> 12]
    return _PERM_PRODUCT[a >> 12][b >> 12] << 12 | (b ^ lo[a & 63] ^ hi[a >> 6 & 63]) & 4095


# q_m as {monomial a_u a_v as the bitmask 2^u + 2^v: its sign}
_MONO_SIGN = [{1 << u | 1 << v: s for s, u, v in terms} for terms in QUADRIC_TERMS]
# the sign system's rows, one per monomial s * a_u * a_v of a quadric q_m
_SIGN_TERMS = tuple((m, s, u, v) for m, terms in enumerate(QUADRIC_TERMS) for s, u, v in terms)
# each quadric's first term against its other two, as pairs of _SIGN_TERMS rows
_PAIRS = tuple((r, r + j) for r in range(0, 12, 3) for j in (1, 2))


@cache
def _parities() -> tuple:
    """For each 12-bit sign mask s, bit i says whether s flips pair i's first term against the
    other: whether s has an odd number of bits in just one of their monomials. Built once per process."""
    bits = [1 << u | 1 << v for _, _, u, v in _SIGN_TERMS]
    return tuple(sum(((s & (bits[a] ^ bits[b])).bit_count() & 1) << i for i, (a, b) in enumerate(_PAIRS))
                 for s in range(4096))


def _term_signs(perm, tau) -> list:
    """Each q_m term's sign c times the sign t of its image in q_(perm m), 0 where that lacks it."""
    return [c * _MONO_SIGN[perm[m]].get(1 << tau[u] | 1 << tau[v], 0) for m, c, u, v in _SIGN_TERMS]


def _certified(ct, masks) -> bool:
    """Whether (perm, s) sends each q_m to +-q_(perm m) for every sign mask s, given perm's
    :func:`_term_signs` ct: q_m's term c a_u a_v goes to c s_u s_v t a_tau(u) a_tau(v), and
    c t s_u s_v must be one sign over q_m's three terms, so s must flip just the pairs whose
    ct differ: its :func:`_parities` entry is that word."""
    odd = sum((ct[a] != ct[b]) << i for i, (a, b) in enumerate(_PAIRS))
    return all(ct) and all(map(odd.__eq__, map(_parities().__getitem__, masks)))


@cache
def _sign_system() -> tuple:
    """The left-hand side of :func:`_sign_solutions`, eliminated once per process, as
    masks: the inverse's rows at the sign columns, the checks and the kernel's sign parts."""
    kernel, inverse, checks = solver(
        PrimeField(2), [{u: 1, v: 1, 12 + m: 1} for m, _, u, v in _SIGN_TERMS], 16)
    mask = lambda rec: sum(1 << r for r in rec)  # a nonzero value of F_2 is 1
    span = reduce(lambda span, vec: span + [s ^ mask(k for k in range(12) if vec[k]) for s in span],
                  kernel, [0])
    inverse = tuple((c, mask(rec)) for c, rec in inverse.items() if c < 12)
    return inverse, tuple(map(mask, checks)), tuple(span)


def _sign_solutions() -> dict:
    """Every signed permutation fixing {+-q_k}, as {perm index: (its term signs, sign masks)}.

    Unknowns over F_2: one bit per coordinate (sign -1) and per quadric
    (q_m goes to -q_(perm m)); the monomial s a_u a_v of q_m gives the
    equation x_u + x_v + x_(12+m) = [s is not its image's sign in
    q_(perm m)].  The left-hand side is the same for every permutation, so
    it is eliminated once per process (:func:`_sign_system`); on each call
    every permutation's right-hand side, a bitmask over the equations, is
    reduced by replaying the recorded row operations, and its solutions are
    that particular solution plus the shared kernel.  A permutation sending
    a monomial of q_m outside q_(perm m) has none.
    """
    inverse, checks, span = _sign_system()
    out = {}
    for i, (perm, tau) in enumerate(zip(_PERMS, _TAUS)):
        ct = _term_signs(perm, tau)
        rhs = sum(1 << r for r, f in enumerate(ct) if f < 0)
        if 0 in ct or any((rec & rhs).bit_count() & 1 for rec in checks):
            continue
        # the particular solution's signs, 0 at the free columns
        x0 = sum(1 << c for c, rec in inverse if (rec & rhs).bit_count() & 1)
        out[i] = ct, [x0 ^ s for s in span]
    return out


@dataclass(frozen=True)
class SymmetryGroup:
    elements: tuple
    generators: tuple
    torsion_images: tuple  # the induced permutations of the torsion spaces, sorted
    torsion_transitive: bool

    @property
    def order(self) -> int:
        return len(self.elements)


def quadric_symmetries() -> SymmetryGroup:
    """The group of signed coordinate permutations preserving {q0..q3}.

    Found by exhaustive search over the 24 permutations of the four indices:
    their sign constraints over ``PrimeField(2)`` share one left-hand side,
    eliminated once per process, against which each permutation's
    right-hand side is reduced on every call (:func:`_sign_solutions`).
    Every element is certified, on each call, by the exact polynomial
    identity (transformed q_k) = +- q_(perm k): each of its sign masks is
    checked by one lookup of its parities against its permutation's term
    signs, which the sign search read (:func:`_certified`), on ints like
    the generator search; the elements are built last.
    Generators are chosen greedily in sorted order, the group they give
    growing one right coset at a time; the induced action on the three
    torsion P^3's is read from a table built once per process and kept on
    the group, where :func:`verify_symmetries` reports it.
    """
    elements, solutions = [], _sign_solutions()
    for i, (ct, masks) in solutions.items():
        perm = _PERMS[i]
        if not _certified(ct, masks):
            raise StrataError("sign search produced a non-symmetry")
        signs = sorted(_HALF_SIGNS[s & 63] + _HALF_SIGNS[s >> 6] for s in masks)
        elements += [SignedPermutation(perm, sg) for sg in signs]
    generators = _generating_subset(elements)
    images = _torsion_images(solutions)
    transitive = all(any(g[i] == j for g in images) for i in range(3) for j in range(3))
    return SymmetryGroup(tuple(elements), tuple(generators), images, transitive)


@cache
def _torsion_table() -> tuple:
    """The permutation of the torsion spaces each of _PERMS induces; built once per process."""
    return tuple(tuple(_TORSION_KEYS.index(frozenset(frozenset(p[i] for i in pair) for pair in key))
                       for key in _TORSION_KEYS) for p in _PERMS)


def _torsion_images(indices) -> tuple:
    """The torsion-space permutations induced by the _PERMS of these indices, sorted."""
    return tuple(sorted(set(map(_torsion_table().__getitem__, indices))))


def symmetry_fixes_quadrics(e: SignedPermutation) -> bool:
    """Exact polynomial check: e sends every q_k to +- q_(perm k).

    e sends a_u a_v to s_u s_v a_tau(u) a_tau(v), so the image of q_k is its
    three terms relabeled (still distinct: tau is a bijection) and re-signed,
    compared term by term with +- q_(perm k) (:func:`_certified`).  The
    tests check it against ``Poly.compose`` over Q as an oracle.
    """
    return _certified(_term_signs(e.perm, e.tau), [e.code & 4095])


def _generating_subset(elements):
    """Greedy generators: an element the ones so far do not give joins them;
    the group then grows by right cosets H r of the group H it had (Dimino),
    composed as codes (:func:`_compose`)."""
    gens, group, seen = [], [IDENTITY_SYMMETRY.code], {IDENTITY_SYMMETRY.code}
    for e in elements:
        if e.code in seen:
            continue
        gens.append(e)
        previous = list(group)
        todo = [e.code]
        while todo:
            r = todo.pop()
            if r in seen:
                continue
            coset = [_compose(h, r) for h in previous]
            group.extend(coset)
            seen.update(coset)
            todo.extend(_compose(r, g.code) for g in gens)
        if len(group) == len(elements):
            break
    return gens


# ----------------------------------------------------------------------
# certificates


def verify_torsion_spaces():
    """Certificate: the quadrics vanish identically on all three torsion
    P^3's, by the support rule (no quadric term has both ends among a
    space's survivors), and T01|23 kills exactly the expected eight
    coordinates."""
    cert = Certificate("torsion-spaces")
    for space in TORSION_SPACES:
        cert.add(f"quadrics-vanish-on-{space.name}", quadrics_vanish_on(space.survivors))
    killed_names = sorted(ORDER[i] for i in TORSION_SPACES[0].killed)
    expected = sorted(["a31", "a30", "a21", "a20", "a13", "a12", "a03", "a02"])
    cert.add(
        "T01|23-killed-set",
        killed_names == expected,
        ", ".join(killed_names),
    )
    cert.data["spaces"] = {
        sp.name: {
            "survivors": [ORDER[i] for i in sp.survivors],
            "killed": [ORDER[i] for i in sp.killed],
        }
        for sp in TORSION_SPACES
    }
    return cert


def verify_symmetries():
    """Certificate for the signed-permutation symmetry group of the quadrics."""
    cert = Certificate("symmetries")
    group = quadric_symmetries()
    cert.add("group-nonempty", group.order > 0, f"order {group.order}")
    cert.add("identity-present", IDENTITY_SYMMETRY in group.elements)
    cert.add(
        "all-elements-fix-quadric-set",
        all(symmetry_fixes_quadrics(e) for e in group.generators),
        "exact polynomial identities (all elements certified at construction)",
    )
    cert.add("torsion-action-transitive", group.torsion_transitive)
    cert.add("transposition-01-realized", any(e.perm == (1, 0, 2, 3) for e in group.elements))
    cert.data["order"] = group.order
    cert.data["generators"] = [{"perm": list(e.perm), "signs": list(e.signs)} for e in group.generators]
    cert.data["torsion_images"] = list(group.torsion_images)
    return cert
