import functools
import hashlib
import importlib.util
import itertools
import json
import pathlib
import random
from types import SimpleNamespace

import pytest

from godeaux_lines.draws import _BLOCK_WORDS, _BLOCKS_PER_STATE, _BlockDraws
from godeaux_lines.families import HYP_FACTORED, hyp_evaluate
from godeaux_lines.fields import QQ, PrimeField, is_prime
from godeaux_lines.geometry import (
    ROW_TRIPLES,
    PointA,
    _k4_forms,
    jacobian_at,
    jacobian_rank,
    line_in_q,
    polarization_value,
    quadric_value,
    tangent_space,
)
from godeaux_lines.linalg import nullspace, rank, solver
import godeaux_lines.sampling as sampling
from godeaux_lines.sampling import (
    BudgetExhausted,
    FieldTooLarge,
    SamplingError,
    sample_line,
    random_q_point,
    tangent_cone_partner,
    _Budget,
    _affine_solutions,
    _fulfils,
    _two_hyp_test,
    _random_hyp_point,
    _require_search_field,
    _share_a_factor,
    _sqrt_mod,
    _two_hyp_partner,
    _two_hyp_solve,
)
from godeaux_lines.pencil import BinaryForm, _gcd, _trim, binary_roots
from godeaux_lines.strata import TORSION_SPACES, classify_line, rank_a, torsion_space


def test_generic_strategy(f31):
    line = sample_line("generic", f31, seed=42)
    assert line_in_q(line)
    report = classify_line(line)
    assert report.is_generic
    assert line.provenance["strategy"] == "generic"
    assert line.provenance["seed"] == 42
    assert line.provenance["trials"] > 0


def test_generic_deterministic(f31):
    a = sample_line("generic", f31, seed=123)
    b = sample_line("generic", f31, seed=123)
    assert a.rows == b.rows
    assert a.provenance == b.provenance
    c = sample_line("generic", f31, seed=124)
    assert c.rows != a.rows


def test_q_point_sampler(f31):
    import random

    rng = random.Random(0)
    budget = _Budget("test", 1_000_000)
    for _ in range(5):
        p = random_q_point(f31, rng, budget)
        assert p.on_quadric_intersection()


class _Q3Steered(random.Random):
    """``random.Random``, except that the last of each Q-point draw's nine
    values (a01) is the one that makes q_3 vanish, where there is one.

    q_3 = a01 a02 - a10 a12 + a20 a21 is linear in a01 once a10 = (a01 a03
    - a30 a31) / a13 is put in, so a draw passes the sampler's q_3 test at
    once instead of about once in p draws; q_0, q_1 and q_2 are still the
    sampler's to solve."""

    def __init__(self, seed, p):
        super().__init__(seed)
        self.p, self.drawn = p, []

    def randrange(self, *args):
        p = self.p
        if len(self.drawn) < 8:
            self.drawn.append(super().randrange(*args))
            return self.drawn[-1]
        a32, a31, a30, a23, a21, a20, a13, a03 = self.drawn
        self.drawn = []
        inv13, inv03 = pow(a13, -1, p), pow(a03, -1, p)
        a12 = (a21 * a23 - a31 * a32) * inv13 % p
        a02 = (a30 * a32 - a20 * a23) * inv03 % p
        slope = (a02 - a03 * a12 * inv13) % p
        if not slope:
            return super().randrange(*args)
        return -(a30 * a31 * a12 * inv13 + a20 * a21) * pow(slope, -1, p) % p


@pytest.mark.parametrize("p", (31, 10007))
def test_q_points_lie_on_q(p):
    # random_q_point solves q_0, q_1 and q_2 exactly mod p and tests q_3, so
    # every point it returns lies on Q with no further check; at p = 10007
    # the q_3 test is steered to pass (about p draws a point otherwise)
    field = PrimeField(p)
    rng = random.Random(p) if p < 100 else _Q3Steered(p, p)
    budget = _Budget("test", 10**6)
    points = [random_q_point(field, rng, budget) for _ in range(200)]
    assert all(point.on_quadric_intersection() for point in points)
    assert len({point.coords for point in points}) == 200
    if p > 100:
        assert budget.used < 400  # the steering held: nearly one draw a point


def test_torsion_strategy(f31):
    space = torsion_space("T03|12")
    line = sample_line("torsion", f31, seed=3, space=space)
    report = classify_line(line)
    assert len(report.torsion_points) == 1
    assert report.torsion_points[0][1] == space
    assert line.provenance["space"] == "T03|12"
    assert line.provenance["certificate"]["torsion_points"][0]["space"] == "T03|12"


def test_two_torsion_strategy(f31):
    line = sample_line(
        "two-torsion",
        f31,
        seed=9,
        spaces=(torsion_space("T01|23"), torsion_space("T02|13")),
    )
    report = classify_line(line)
    assert {sp.name for _, sp in report.torsion_points} == {"T01|23", "T02|13"}
    assert len(report.torsion_points) == 2


def test_hyp_strategy(f31):
    line = sample_line("hyp", f31, seed=2)
    report = classify_line(line)
    assert len(report.hyperelliptic_roots) == 1
    assert report.hyperelliptic_roots[0].rank == 3
    assert report.torsion_points == ()


def test_two_hyp_strategy(f31):
    line = sample_line("two-hyp", f31, seed=2)
    report = classify_line(line)
    assert len(report.hyperelliptic_roots) == 2
    points = {r.point for r in report.hyperelliptic_roots}
    assert len(points) == 2
    assert len(line.provenance["certificate"]["rank3_roots"]) == 2


def test_two_hyp_draws_a_new_first_point_when_the_partner_cap_runs_out(f31, monkeypatch):
    # the partner search stops after max(1000, budget // 20) draws, here
    # 1,000: seed 11's first search returns None, so sample_line draws a new
    # first point, and the line it then finds keeps the two-hyp promise
    results = []

    def spy(*args):
        results.append(_two_hyp_partner(*args))
        return results[-1]

    monkeypatch.setattr(sampling, "_two_hyp_partner", spy)
    line = sample_line("two-hyp", f31, seed=11, budget=20000)
    assert results[0] is None and results[-1] is not None
    assert sampling._fulfils("two-hyp", classify_line(line), None, None, False)


def test_two_hyp_general_position(f31):
    # rejection strongly prefers partners where an a-row vanishes (the
    # parametrized locus satisfies a32*a03*a20 + a23*a30*a02 = 0, which
    # hands every point a degenerate partner); general_position skips them
    line = sample_line("two-hyp", f31, seed=0, general_position=True)
    report = classify_line(line)
    assert len(report.hyperelliptic_roots) == 2
    assert report.row_vanishing == ()
    assert report.kernel_degrees == (1, 1, 1, 1)


def test_budget_exhaustion(f31):
    # one trial short of what the line takes, so the budget runs out however
    # few trials it needs
    trials = sample_line("two-hyp", f31, seed=0).provenance["trials"]
    with pytest.raises(BudgetExhausted) as err:
        sample_line("two-hyp", f31, seed=0, budget=trials - 1)
    assert err.value.trials == trials


def test_search_needs_prime_field():
    with pytest.raises(SamplingError):
        sample_line("generic", QQ, seed=0)


def test_search_field_cutoff():
    # 999_983 is the largest prime below 10^6, 1_000_003 the smallest above
    assert _require_search_field(PrimeField(999_983)) == 999_983
    with pytest.raises(FieldTooLarge):
        _require_search_field(PrimeField(1_000_003))


@pytest.mark.parametrize("strategy", ("generic", "torsion", "hyp", "two-hyp"))
def test_search_strategies_refuse_field_past_cutoff(strategy):
    # a small budget makes a raised cutoff end in BudgetExhausted, not a hang
    with pytest.raises(FieldTooLarge):
        sample_line(strategy, PrimeField(1_000_003), seed=0, budget=10)


def test_unknown_strategy(f31):
    with pytest.raises(SamplingError):
        sample_line("everything", f31, seed=0)


def test_two_torsion_needs_distinct_spaces(f31):
    with pytest.raises(SamplingError):
        sample_line(
            "two-torsion",
            f31,
            seed=0,
            spaces=(TORSION_SPACES[0], TORSION_SPACES[0]),
        )


class _NoDraws(random.Random):
    """A random stream that fails on its first use."""

    def getrandbits(self, k):
        raise AssertionError("drew from the random stream before raising")

    def random(self):
        raise AssertionError("drew from the random stream before raising")


def _argument_error_cases():
    for strategy in ("generic", "torsion", "hyp", "two-hyp"):
        for field in (QQ, PrimeField(2), PrimeField(1_000_003)):
            yield pytest.param(strategy, field, {}, id=f"{strategy}-{field}")
    yield pytest.param("everything", PrimeField(31), {}, id="unknown-strategy")
    pair = (TORSION_SPACES[1], TORSION_SPACES[1])
    yield pytest.param("two-torsion", PrimeField(31), {"spaces": pair}, id="equal-spaces")
    # no trial can run: bad input, not an exhausted budget
    for strategy in sampling.STRATEGIES:
        for budget in (0, -5):
            yield pytest.param(strategy, PrimeField(31), {"budget": budget}, id=f"{strategy}-budget{budget}")
    # random.Random(-n) seeds like n, so a negative seed would repeat a line
    for strategy in sampling.STRATEGIES:
        yield pytest.param(strategy, PrimeField(31), {"seed": -1}, id=f"{strategy}-seed-1")
    # a seed or budget that is not an int: True would draw seed 1's line but
    # record true, 1.5 be recorded as given, "3" and None fail untyped
    for strategy in sampling.STRATEGIES:
        for name in ("seed", "budget"):
            for value in (True, 1.5, "3", None):
                yield pytest.param(strategy, PrimeField(31), {name: value}, id=f"{strategy}-{name}-{value!r}")
    # a field, space or spaces of the wrong type, before the first draw: an
    # int field (two-torsion drew from it and failed untyped), a space's name,
    # a list of names, and a repeated space given as a list
    for strategy in sampling.STRATEGIES:
        yield pytest.param(strategy, 31, {}, id=f"{strategy}-int-field")
    yield pytest.param("torsion", PrimeField(31), {"space": "T01|23"}, id="space-name")
    names = ["T01|23", "T02|13"]
    yield pytest.param("two-torsion", PrimeField(31), {"spaces": names}, id="spaces-names")
    repeated = [TORSION_SPACES[2], TORSION_SPACES[2]]
    yield pytest.param("two-torsion", PrimeField(31), {"spaces": repeated}, id="repeated-space-list")
    # an option only another strategy takes
    options = (
        ("torsion", "space", TORSION_SPACES[1]),
        ("two-torsion", "spaces", (TORSION_SPACES[0], TORSION_SPACES[2])),
        ("two-hyp", "general_position", True),
    )
    for strategy in sampling.STRATEGIES:
        for owner, name, value in options:
            if strategy != owner:
                yield pytest.param(strategy, PrimeField(31), {name: value}, id=f"{strategy}-{name}")


@pytest.mark.parametrize("strategy, field, kwargs", _argument_error_cases())
def test_argument_errors_come_before_the_first_draw(monkeypatch, strategy, field, kwargs):
    # every SamplingError but BudgetExhausted depends on the arguments only,
    # so sample_line raises it before its random stream is used
    monkeypatch.setattr(sampling, "random", SimpleNamespace(Random=_NoDraws))
    with pytest.raises(SamplingError) as err:
        sample_line(strategy, field, **{"seed": 0, "budget": 10, **kwargs})
    assert not isinstance(err.value, BudgetExhausted)


def test_retry_cap_raises_budget_exhausted(monkeypatch):
    # a candidate line the promise rule refuses is retried, at most
    # _MAX_RETRIES times; a two-torsion candidate costs one trial, so the
    # cap, not the budget, ends the search, after 200 trials. The
    # classifier is stubbed out: its reports are not read.
    classified = []
    monkeypatch.setattr(sampling, "_fulfils", lambda *args: False)
    monkeypatch.setattr(sampling, "classify_line", classified.append)
    with pytest.raises(BudgetExhausted) as err:
        sample_line("two-torsion", PrimeField(31), 0)
    assert (err.value.strategy, err.value.trials) == ("two-torsion", 200)
    assert len(classified) == sampling._MAX_RETRIES == 200


# ----------------------------------------------------------------------
# the tangent-cone partner search against the plain scan over every draw


def _sqrt_table(p):
    """Square roots mod p by a scan of F_p; the roots the sampler has always used."""
    table = {}
    for x in range((p + 1) // 2, p):
        table.setdefault(x * x % p, x)
    for x in range((p + 1) // 2 + 1):
        table[x * x % p] = x
    return table


def _scan_solve_quadratic(p, A, B, C, sqrt_table):
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


def _rank_complement(field, point):
    """The oracle complement of p in T_p Q: the tangent basis vectors, in
    order, that raise the rank of p and the vectors kept so far, up to seven."""
    rows = [list(point.coords)]
    comp = []
    for vec in tangent_space(point):
        if rank(field, rows + [list(vec)]) > len(rows):
            rows.append(list(vec))
            comp.append(vec)
        if len(comp) == 7:
            break
    return comp


def _scan_partner(field, point, rng, budget, draw=None):
    """The oracle: every draw costs one trial and scans all x, with no
    certificate; ``draw(rng)`` makes the five coefficients, by default five
    values of ``rng.randrange(p)``."""
    p = field.p
    u, v, *rest = _rank_complement(field, point)
    qu = [quadric_value(field, i, u) for i in range(4)]
    qv = [quadric_value(field, i, v) for i in range(4)]
    buv = [polarization_value(field, i, u, v) for i in range(4)]
    sqrt_table = _sqrt_table(p)
    while True:
        budget.spend()
        coeffs = draw(rng) if draw else [rng.randrange(p) for _ in range(5)]
        R = [0] * 12
        for c, vec in zip(coeffs, rest):
            for k in range(12):
                R[k] = (R[k] + c * vec[k]) % p
        qr = [quadric_value(field, i, R) for i in range(4)]
        bur = [polarization_value(field, i, u, R) for i in range(4)]
        bvr = [polarization_value(field, i, v, R) for i in range(4)]
        for x in range(p):
            B = (x * buv[0] + bvr[0]) % p
            C = (x * x * qu[0] + x * bur[0] + qr[0]) % p
            for y in _scan_solve_quadratic(p, qv[0], B, C, sqrt_table):
                if any(
                    (y * y * qv[i] + y * (x * buv[i] + bvr[i])
                     + x * x * qu[i] + x * bur[i] + qr[i]) % p
                    for i in (1, 2, 3)
                ):
                    continue
                w = tuple((x * u[k] + y * v[k] + R[k]) % p for k in range(12))
                if any(w):
                    return PointA(field, w)


def _search(search, field, point, seed, limit, budget_type=_Budget):
    """(outcome, budget.used, rng state, budget) of one partner search; the
    state is None when the budget runs out, which leaves it unspecified."""
    rng = random.Random(seed)
    budget = budget_type("test", limit)
    try:
        outcome = search(field, point, rng, budget).coords
    except BudgetExhausted as err:
        return ("exhausted", err.trials), budget.used, None, budget
    return outcome, budget.used, rng.getstate(), budget


def _start_point(field, kind, rng):
    if kind == "generic":
        return random_q_point(field, rng, _Budget("test", 10**6))
    if kind == "hyp":
        return _random_hyp_point(field, rng, _Budget("test", 10**6))
    return torsion_space(kind).random_point(field, rng)


PARTNER_KINDS = ("generic", "T01|23", "T02|13", "T03|12", "hyp")


#: the paths of tangent_cone_partner that p = 101's two searches take per
#: start kind: draws the column test skips, draws whose kernel combinations
#: force x, and draws left on a line (the solved draws are asserted apart).
#: At T02|13 and T03|12 points all four combinations are mixed, so the point
#: test skips draws there too
_PATHS_101 = {
    "generic": {"skipped", "forced", "line"},
    "hyp": {"skipped", "forced", "line"},
    "T01|23": {"line"},
    "T02|13": {"skipped", "forced"},
    "T03|12": {"skipped", "forced"},
}


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 31, 101))
@pytest.mark.parametrize("kind", PARTNER_KINDS)
def test_partner_matches_scan_oracle(monkeypatch, p, kind):
    # at p = 101 a partner can take many draws, each of which the oracle
    # scans over all of F_p; the limit of 4,000 draws (40,000 elsewhere)
    # keeps it short, still reaches every path of _PATHS_101, and exhausts
    # some searches, which must match as well.  At T01|23 points the oracle
    # takes the solved draws too (their index map is checked against brute
    # force in test_solved_draws_hit_each_common_zero_once)
    F = PrimeField(p)
    point = _start_point(F, kind, random.Random(1000 * p + PARTNER_KINDS.index(kind)))
    solve, frees, paths = sampling._solved_draws, [], set()
    monkeypatch.setattr(sampling, "_solved_draws", lambda p, free, rng: frees.append(free) or solve(p, free, rng))

    def affine_solutions(p, eqs, real=sampling._affine_solutions):
        out = real(p, eqs)
        paths.update(name for name, part in zip(("forced", "line"), out or ()) if part is not None)
        return out

    class Draws(_BlockDraws):
        def __iter__(self):
            for draw, skipped in super().__iter__():
                paths.update(("skipped",) if skipped else ())
                yield draw, skipped

    monkeypatch.setattr(sampling, "_affine_solutions", affine_solutions)
    monkeypatch.setattr(sampling, "_BlockDraws", Draws)
    limit = 4_000 if p == 101 else 40_000
    for seed in range(2):
        new = _search(tangent_cone_partner, F, point, seed, limit)
        solved = solve(p, frees[-1], random.Random(0)) is not None
        assert solved == (kind == "T01|23")
        draw = (lambda rng: next(solve(p, frees[-1], rng))[0]) if solved else None
        old = _search(functools.partial(_scan_partner, draw=draw), F, point, seed, limit)
        assert new[:3] == old[:3]
    assert p != 101 or paths == _PATHS_101[kind]


class _Index(random.Random):
    """A stream whose ``randrange(n)`` returns the given index, and checks n."""

    def __init__(self, index, n):
        super().__init__(0)
        self.index, self.n = index, n

    def randrange(self, n):
        assert n == self.n
        return self.index


def _binomial_pair(p, rng):
    """t c_j c_l + t' c_m c_n and s c_j c_l + s' c_m c_o as sorted (j, l, coeff) terms, for a random
    order of the five indices and random nonzero coefficients, in either order."""
    j, l, m, n, o = rng.sample(range(5), 5)
    pairs = [tuple(sorted(pair)) for pair in ((j, l), (m, n), (j, l), (m, o))]
    terms = [(*pair, rng.randrange(1, p)) for pair in pairs]
    return rng.sample([sorted(terms[:2]), sorted(terms[2:])], 2)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_solved_draws_hit_each_common_zero_once(p):
    # the index map against brute force over F_p^5: its p^2 (3p - 2)
    # indices (63, 325, 931) give each common zero of the binomials once
    rng = random.Random(p)
    size = {3: 63, 5: 325, 7: 931}[p]
    for _ in range(6):
        free = _binomial_pair(p, rng)
        zeros = [c for c in itertools.product(range(p), repeat=5)
                 if not any(sum(t * c[j] * c[l] for j, l, t in terms) % p for terms in free)]
        hits = [tuple(next(sampling._solved_draws(p, free, _Index(i, size)))[0]) for i in range(size)]
        assert len(zeros) == size
        assert sorted(hits) == zeros


def test_solved_draws_need_the_binomial_pair():
    # no free combination, one, binomials with both monomials or none in
    # common, others that share no factor, a square or c_l, a common square,
    # a trinomial and three combinations: the rejection search keeps these
    p = 7
    others = (
        [],
        [[(0, 1, 2), (2, 3, 5)]],
        [[(0, 1, 2), (2, 3, 5)], [(0, 1, 1), (2, 3, 1)]],
        [[(0, 1, 2), (2, 3, 5)], [(0, 4, 1), (1, 2, 1)]],
        [[(0, 1, 2), (2, 3, 5)], [(0, 1, 1), (1, 4, 3)]],
        [[(0, 1, 2), (2, 3, 5)], [(0, 1, 1), (2, 2, 3)]],
        [[(0, 1, 2), (1, 3, 5)], [(0, 1, 1), (3, 4, 3)]],
        [[(0, 0, 2), (2, 3, 5)], [(0, 0, 1), (2, 4, 3)]],
        [[(0, 1, 2), (2, 3, 5), (4, 4, 1)], [(0, 1, 1), (2, 4, 3)]],
        [[(0, 1, 2), (2, 3, 5)], [(0, 1, 1), (2, 4, 3)], [(1, 1, 1)]],
    )
    for free in others:
        assert sampling._solved_draws(p, free, random.Random(0)) is None
    # the pair, also where c_2 c_3 is the common monomial and c_0 the factor
    for free in ([[(0, 1, 2), (2, 3, 5)], [(0, 1, 1), (2, 4, 3)]], [[(0, 1, 2), (2, 3, 5)], [(0, 4, 1), (2, 3, 1)]]):
        assert sampling._solved_draws(p, free, random.Random(0)) is not None


class _Stop(Exception):
    pass


def _free_combinations(monkeypatch, field, point):
    """The combinations free of x and y that tangent_cone_partner finds at ``point``."""
    seen = []

    def stop(p, free, rng):
        seen.append(free)
        raise _Stop

    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_solved_draws", stop)
        with pytest.raises(_Stop):
            tangent_cone_partner(field, point, random.Random(0), _Budget("test", 1))
    return seen[0]


@pytest.mark.parametrize("p", (5, 7, 13, 31, 101, 1009, 10007))
def test_t01_23_points_have_two_free_binomials(monkeypatch, p):
    # the shape the solved draws rest on: t c0 c1 + t' c2 c3 and
    # s c0 c1 + s' c2 c4, at every seeded T01|23 point
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(5):
        free = _free_combinations(monkeypatch, F, TORSION_SPACES[0].random_point(F, rng))
        assert [[(j, l) for j, l, _ in terms] for terms in free] == [[(0, 1), (2, 3)], [(0, 1), (2, 4)]]
        assert sampling._solved_draws(p, free, rng) is not None


@pytest.mark.parametrize("p", (5, 7, 13, 31, 101, 1009, 10007))
@pytest.mark.parametrize("name", ("T02|13", "T03|12"))
def test_other_torsion_points_have_no_free_combination(monkeypatch, name, p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(5):
        assert _free_combinations(monkeypatch, F, torsion_space(name).random_point(F, rng)) == []


def test_partner_needs_a_smooth_point(f31):
    # e_0 (a32 = 1, every other coordinate 0) lies on Q, but its Jacobian
    # has rank 2, so its tangent space is not 8-dimensional
    point = PointA(f31, (1,) + (0,) * 11)
    assert point.on_quadric_intersection() and jacobian_rank(point) == 2
    with pytest.raises(SamplingError, match="needs a smooth point"):
        tangent_cone_partner(f31, point, random.Random(0), _Budget("test", 10))


@pytest.mark.parametrize("p", (3, 5, 7, 31, 101, 10007))
def test_tangent_complement_matches_rank_oracle(p):
    # the closed form drops the basis vector at the last free column where p
    # is nonzero; the incremental rank loop must keep the other seven
    F = PrimeField(p)
    rng = random.Random(p)
    dropped = set()
    for kind in PARTNER_KINDS:
        for _ in range(8):
            point = _start_point(F, kind, rng)
            basis = tangent_space(point)
            comp = sampling._tangent_complement(point)
            assert comp == _rank_complement(F, point)
            dropped.add(next(n for n, vec in enumerate(basis) if vec not in comp))
    assert len(dropped) > 1


def test_tangent_complement_needs_a_point_of_its_tangent_space(f31, monkeypatch):
    # a basis whose span misses p (Euler's identity rules it out) is a typed
    # error: here the unit vectors at the eight coordinates a torsion point kills
    space = TORSION_SPACES[0]
    point = space.random_point(f31, random.Random(3))
    units = [tuple(int(k == j) for k in range(12)) for j in space.killed]
    monkeypatch.setattr(sampling, "tangent_space", lambda q: units)
    with pytest.raises(SamplingError, match="tangent basis"):
        sampling._tangent_complement(point)


class _LoggedBudget(_Budget):
    """A budget that records (used, n) before each spend."""

    def __init__(self, strategy, limit):
        super().__init__(strategy, limit)
        self.log = []

    def spend(self, n=1):
        self.log.append((self.used, n))
        super().spend(n)


def test_budget_runs_out_inside_skipped_and_forced_draws(monkeypatch):
    # every draw costs one trial: a run of column-rejected draws is charged
    # in one step with the draw kept after it, and a kept draw whose forced
    # x fails costs its one trial like any other; a budget that runs out
    # anywhere inside these must stop with the trials of the one-draw scan
    p = 31
    F = PrimeField(p)
    point = random_q_point(F, random.Random(7), _Budget("test", 10**6))
    budgets, forced = [], []
    solve = sampling._affine_solutions

    def logged(strategy, limit):
        budgets.append(_LoggedBudget(strategy, limit))
        return budgets[-1]

    def spy(p, eqs):
        answer = solve(p, eqs)
        if answer is not None and answer[0] is not None:
            forced.append(budgets[-1].log[-1])
        return answer

    monkeypatch.setattr(sampling, "_affine_solutions", spy)
    _, used, _, budget = _search(tangent_cone_partner, F, point, 0, 10**6, logged)
    monkeypatch.undo()
    log = budget.log
    assert sum(n for _, n in log) == used
    # at a generic point nearly every draw fails in the block's column test
    # (q_0 and q_1 restricted to its line), so nearly every trial is charged
    # in a run
    assert sum(n for _, n in log if n > 1) > 0.8 * used
    # inside the first run of three or more draws: before its first draw,
    # after it, midway and before the kept draw that ends it
    bulk, charged = next((start, n) for start, n in log if n >= 3)
    limits = [bulk, bulk + 1, bulk + charged // 2, bulk + charged - 1]
    # the first forced draw that fails: its own trial over the limit, and the
    # next draw's
    start, n = next(charge for charge in forced if charge != log[-1])
    limits += [start + n - 1, start + n]
    for limit in limits:
        new = _search(tangent_cone_partner, F, point, 0, limit)
        old = _search(_scan_partner, F, point, 0, limit)
        assert new[0] == old[0] == ("exhausted", limit + 1)
        assert new[1:3] == old[1:3]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_affine_solutions_match_brute_force(p):
    # random systems of one to four equations, with zero, repeated and
    # proportional rows mixed in so that every kind of answer occurs; every
    # order of each system gives the same answer, read lazily up to the
    # first equation that makes the system inconsistent
    rng = random.Random(p)
    kinds = set()

    def zeros_of(eqs):
        return {(x, y) for x in range(p) for y in range(p)
                if all((a * x + b * y + c) % p == 0 for a, b, c in eqs)}

    for _ in range(400):
        eqs = []
        for _ in range(rng.randrange(1, 5)):
            pick = rng.random()
            if pick < 0.2:
                eqs.append((0, 0, rng.choice((0, 0, rng.randrange(p)))))
            elif pick < 0.45 and eqs:
                k = rng.randrange(1, p)
                eqs.append(tuple(k * c % p for c in rng.choice(eqs)))
            else:
                eqs.append(tuple(rng.randrange(p) for _ in range(3)))
        zeros = zeros_of(eqs)
        got = _affine_solutions(p, eqs)
        for order in itertools.permutations(eqs):
            pending = iter(order)
            assert _affine_solutions(p, pending) == got
            read = len(order) - len(list(pending))
            if got is None:
                assert not zeros_of(order[:read]) and zeros_of(order[:read - 1])
            else:
                assert read == len(order)
        if got is None:
            assert not zeros
            kinds.add("none")
            continue
        x0, line = got
        if x0 is not None:
            assert zeros and {x for x, _ in zeros} == {x0}
            kinds.add("forced")
        elif line is not None:
            alpha, beta = line
            assert zeros == {(x, (alpha * x + beta) % p) for x in range(p)}
            kinds.add("line")
        else:
            assert len(zeros) == p * p
            kinds.add("all")
    assert kinds == {"none", "forced", "line", "all"}


def _restricted(p, line, i, qu, buv, qv, qr, bur, bvr):
    """The oracle restriction: q_i(x u + y v + R) on the line y = alpha x +
    beta, as coefficients in x, by the inverted slope and intercept."""
    alpha, beta = line
    return [
        (beta * beta * qv[i] + beta * bvr[i] + qr[i]) % p,
        (beta * buv[i] + 2 * alpha * beta * qv[i] + bur[i] + alpha * bvr[i]) % p,
        (qu[i] + alpha * buv[i] + alpha * alpha * qv[i]) % p,
    ]


def _coprime_pair(p, line, *tables):
    """The oracle pair test: whether the restrictions of q_0 and q_1 to the
    line, read as binary quadratics f2 x^2 + f1 x z + f0 z^2, have a nonzero
    resultant, so share no root in P^1 even over the algebraic closure.  A
    leading coefficient 0 is a root at infinity, so this holds whatever the
    degrees of the restrictions (a zero one gives resultant 0).  Reads only
    entries 0 and 1 of the tables."""
    f0, f1, f2 = _restricted(p, line, 0, *tables)
    g0, g1, g2 = _restricted(p, line, 1, *tables)
    res = (f2 * g0 - f0 * g2) ** 2 - (f2 * g1 - f1 * g2) * (f1 * g0 - f0 * g1)
    return bool(res % p)


def _gcd_share_a_factor(p, line, qu, buv, qv, qr, bur, bvr):
    """The oracle: the gcd of all four restricted quadrics, no resultant."""
    F = PrimeField(p)
    g = None
    for i in range(4):
        f = _trim(_restricted(p, line, i, qu, buv, qv, qr, bur, bvr))
        if f:
            g = f if g is None else _gcd(F, g, f)
            if len(g) == 1:
                return False
    return True


@pytest.fixture
def gcd_calls(monkeypatch):
    """The calls the partner search makes to the gcd, recorded."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _gcd(*args)

    monkeypatch.setattr(sampling, "_gcd", counted)
    return calls


def _share_a_factor_on(p, line, qu, buv, qv, qr, bur, bvr, lifts=(0, 0, 0)):
    """``_share_a_factor`` on tables given entry by entry.  ``lifts`` adds
    those multiples of p to B_i(u, R), B_i(v, R) and q_i(R), as the
    unreduced packed dot products carry them."""
    bur, bvr, qr = ([t + k * p for t in table] for table, k in zip((bur, bvr, qr), lifts))
    return _share_a_factor(PrimeField(p), line, qu, buv, qv, bur, bvr, qr)


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_share_a_factor_matches_gcd_oracle(p):
    # zeros are frequent at small p, so restrictions of degree below 2,
    # vanishing ones and shared factors all occur next to coprime pairs
    rng = random.Random(p)
    seen = set()
    for _ in range(3000):
        sparse = rng.random()
        tables = [
            [rng.randrange(p) if rng.random() > sparse else 0 for _ in range(4)]
            for _ in range(6)
        ]
        alpha, beta = (rng.randrange(p), rng.randrange(p))
        # y = alpha x + beta as the line alpha x - y + beta = 0
        got = _share_a_factor_on(p, (alpha, -1, beta), *tables)
        assert got == _gcd_share_a_factor(p, (alpha, beta), *tables)
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_coprime_pair_rules_out_a_shared_factor(p, gcd_calls):
    # a nonzero resultant of the first two restrictions is enough for the
    # partner search to skip the draw: the gcd of all four is then trivial,
    # and the search settles the draw on that pair without it
    rng = random.Random(p)
    seen = set()
    for _ in range(3000):
        sparse = rng.random()
        tables = [
            [rng.randrange(p) if rng.random() > sparse else 0 for _ in range(4)]
            for _ in range(6)
        ]
        line = (rng.randrange(p), rng.randrange(p))
        coprime = _coprime_pair(p, line, *tables)
        assert _coprime_pair(p, line, *(t[:2] for t in tables)) == coprime
        if coprime:
            assert not _gcd_share_a_factor(p, line, *tables)
            assert not _share_a_factor_on(p, (line[0], -1, line[1]), *tables)
            assert not gcd_calls
        seen.add(coprime)
    assert seen == {True, False}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_coprime_pair_is_the_resultant_of_binary_quadratics(p, gcd_calls):
    # every pair of binary quadratics f2 x^2 + f1 x z + f0 z^2 over F_p, a
    # leading coefficient 0 (a root at infinity) and the zero form included:
    # the resultant is nonzero exactly when the two are independent and
    # share no root in P^1(F_p); with the line y = 0 the restrictions are
    # (f0, f1, f2) = (q_i(R), B_i(u, R), q_i(u)).  On the same two quadrics
    # the partner search settles the coprime pairs by their resultant, and
    # the others by their common factor in x
    points = [(x, 1) for x in range(p)] + [(1, 0)]
    forms = list(itertools.product(range(p), repeat=3))
    roots = {f: frozenset(pt for pt in points
                          if (f[0] * pt[1] ** 2 + f[1] * pt[0] * pt[1] + f[2] * pt[0] ** 2) % p == 0)
             for f in forms}
    seen = set()
    for f, g in itertools.product(forms, repeat=2):
        tables = ([f[2], g[2]], [0, 0], [0, 0], [f[0], g[0]], [f[1], g[1]], [0, 0])
        coprime = _coprime_pair(p, (0, 0), *tables)
        independent = any((f[i] * g[j] - f[j] * g[i]) % p for i, j in ((0, 1), (0, 2), (1, 2)))
        assert coprime == (independent and not roots[f] & roots[g]), (f, g)
        gcd_calls.clear()
        got = _share_a_factor_on(p, (0, -1, 0), *tables)
        if coprime:
            assert not got and not gcd_calls
        elif independent:
            # a common factor over F_p is a common root (x, 1)
            assert got == bool(roots[f] & roots[g] - {(1, 0)}), (f, g)
        else:
            # proportional, or one is zero: the nonzero ones must involve x
            assert got == all(not any(h) or h[1] or h[2] for h in (f, g)), (f, g)
        seen.add((coprime, f[2] == 0 or g[2] == 0))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _random_tables(rng, p):
    """Tables (qu, buv, qv, qr, bur, bvr) of four quadrics: sparse, with
    whole quadrics zeroed (their restriction vanishes identically) or
    copied as multiples of another (restrictions with a common root)."""
    sparse = rng.choice((0.0, 0.3, 0.7))
    quadrics = [
        [rng.randrange(p) if rng.random() > sparse else 0 for _ in range(6)] for _ in range(4)
    ]
    for i in range(4):
        pick = rng.random()
        if pick < 0.25:
            quadrics[i] = [0] * 6
        elif pick < 0.5:
            k = rng.randrange(p)
            quadrics[i] = [k * t % p for t in quadrics[rng.randrange(4)]]
    return [list(col) for col in zip(*quadrics)]


@pytest.mark.parametrize("p", (3, 5, 31, 10007, 999983))
def test_pair_resultants_match_coprime_pair_oracle(p, gcd_calls):
    # the division-free pair test on a line a x + b y + c = 0 (b != 0)
    # against the inverted one: a draw with a pair of restrictions coprime
    # by _coprime_pair is settled without the gcd, and every other answer
    # is the gcd oracle's.  The entries carry multiples of p,
    # as the unreduced packed products do.  For b = 0 (and a != 0) every
    # form is a multiple of (a x + c)^2, so nothing is settled and the
    # answer is True
    rng = random.Random(p)
    seen = set()
    for _ in range(1500 if p < 10**4 else 600):
        tables = _random_tables(rng, p)
        b = 0 if rng.random() < 0.1 else rng.randrange(1, p)
        a, c = rng.randrange(0 if b else 1, p), rng.randrange(p)
        lifts = (rng.randrange(4 * p), rng.randrange(4 * p), rng.randrange(14 * p * p))
        line = (a + p * rng.randrange(4 * p), b + p * rng.randrange(4 * p), c + p * rng.randrange(14 * p * p))
        gcd_calls.clear()
        got = _share_a_factor_on(p, line, *tables, lifts=lifts)
        if not b:
            assert got
            seen.add("b = 0")
            continue
        inv = pow(-b, -1, p)
        oracle_line = (a * inv % p, c * inv % p)
        coprime = any(
            _coprime_pair(p, oracle_line, *([t[i], t[j]] for t in tables))
            for i, j in itertools.combinations(range(4), 2)
        )
        if coprime:
            assert not got and not gcd_calls
        else:
            assert got == _gcd_share_a_factor(p, oracle_line, *tables)
        seen.add((coprime, got))
        if any(not any(_restricted(p, oracle_line, i, *tables)) for i in range(4)):
            seen.add("a restriction vanishes")
    assert {(True, False), (False, True), "b = 0", "a restriction vanishes"} <= seen


def _column_inputs(F, qu, buv, qv, bu, bv, gram):
    """The inputs of _column_test from the tables of four quadrics: the c of
    each free kernel combination, the (a, b, c) of each mixed one, and the
    pivot rows of the RREF of [M | I] as combinations [(q(u), B(u, v), q(v)),
    alpha, beta, gamma], by pivot column.  At rank 3 the first two have the
    quadratic parts x^2 and x y, as the line test needs (tangent_cone_partner
    reads them off M^T x = e_0, e_1 instead: they differ by multiples of the
    kernel combination, which vanishes on each draw's line)."""
    p = F.p

    def combination(k):
        return [[sum(map(int.__mul__, k, col)) % p for col in cols]
                for cols in ((qu, buv, qv), zip(*bu), zip(*bv), zip(*gram))]

    free, mixed = [], []
    for k in nullspace(F, [qu, buv, qv], 4):
        _, a, b, c = combination(k)
        (mixed.append((a, b, c)) if any(a) or any(b) else free.append(c))
    _, inverse, _ = solver(F, list(zip(qu, buv, qv)), 3)
    return free, mixed, [combination([row.get(i, 0) for i in range(4)]) for _, row in sorted(inverse.items())]


def _draw_tables(p, coeffs, *tables):
    """Each linear table (5 entries) or quadratic one (15, over c_j c_l) at the draw."""
    pairs = [(j, l) for j in range(5) for l in range(j, 5)]
    return [sum(map(int.__mul__, t, coeffs)) % p if len(t) == 5
            else sum(t_jl * coeffs[j] * coeffs[l] for (j, l), t_jl in zip(pairs, t)) % p for t in tables]


@pytest.mark.parametrize("p", (3, 5, 31, 10007, 999983))
def test_coprime_on_line_matches_pair_oracle(p):
    # the line test at points where K is one mixed combination a x + b y + c
    # (M of rank 3), on coherent tables: four quadrics mixed by a random
    # invertible matrix from A, B, C and K, whose quadratic parts are x^2,
    # x y, y^2 and 0, so K is a true left kernel vector of M.  Over seeded
    # blocks of zero-heavy draws and sparse tables (so b = 0, vanishing
    # restrictions and zero resultants all occur) a draw is kept exactly when
    # b = 0 or A and B restricted to its line y = alpha x + beta have
    # resultant 0, by the oracle that inverts b.  The largest tables and
    # draws (all p - 1, the quadrics unmixed) check that the per-draw slots
    # never carry, with the widest slots under the cutoff
    F = PrimeField(p)
    rng = random.Random(p)
    seen = set()
    for trial in range(40):
        top = trial == 0
        sparse = rng.choice((0.0, 0.3, 0.7))

        def table(n):
            return [p - 1 if top else rng.randrange(p) if rng.random() > sparse else 0 for _ in range(n)]

        rows = [(quad, table(5), table(5), table(15)) for quad in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        rows.append(((0, 0, 0), table(5), table(5) if top or trial % 4 else [0, 0, 0, 0, rng.randrange(p)], table(15)))
        rows[3][1][0] += not any(rows[3][1] + rows[3][2])  # K mixed
        mix = [[int(i == j) for j in range(4)] for i in range(4)]
        while not top and rank(F, mix) < 4:
            mix = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        qu, buv, qv = ([sum(g * row[0][n] for g, row in zip(m, rows)) % p for m in mix] for n in range(3))
        bu, bv, gram = ([[sum(g * row[n][e] for g, row in zip(m, rows)) % p for e in range(len(rows[0][n]))]
                         for m in mix] for n in (1, 2, 3))
        free, mixed, pivots = _column_inputs(F, qu, buv, qv, bu, bv, gram)
        assert (free, len(mixed), len(pivots)) == ([], 1, 3)
        keep = sampling._column_test(p, free, mixed, pivots[:2])  # A and B
        if not any(rows[3][2]):
            assert keep is None  # b = 0 on every draw: nothing to test
            continue
        block = [[p - 1 if top else rng.choice((0, rng.randrange(p))) for _ in range(5)]
                 for _ in range(rng.randrange(1, 130))]
        flags = list(keep(*map(list, zip(*block))))
        assert len(flags) == len(block)
        for coeffs, flag in zip(block, flags):
            alpha_a, beta_a, gamma_a, alpha_b, beta_b, gamma_b, a, b, c = _draw_tables(
                p, coeffs, *rows[0][1:], *rows[1][1:], *rows[3][1:])
            if b:
                inv = pow(-b, -1, p)
                tables = ([1, 0], [0, 1], [0, 0], [gamma_a, gamma_b], [alpha_a, alpha_b], [beta_a, beta_b])
                assert flag == (not _coprime_pair(p, (a * inv % p, c * inv % p), *tables))
            else:
                assert flag
            seen.add((b == 0, flag))
    assert seen == {(True, True), (False, True), (False, False)}


def _spied_column_tests(monkeypatch):
    """The inputs of each column test a partner search builds, and the flags
    the block draws read from it, in order (the flags are a generator)."""
    inputs, flags = [], []
    column_test = sampling._column_test

    def spy(p, free, mixed, pivots):
        inputs.append((free, mixed, pivots))
        keep = column_test(p, free, mixed, pivots)

        def logged(*columns):
            for flag in keep(*columns):
                flags.append(flag)
                yield flag
        return keep and logged

    monkeypatch.setattr(sampling, "_column_test", spy)
    return inputs, flags


def _partner_against_scan(field, strategy, record_seed):
    """The first point of a record of ``strategy``, then the partner search
    from the stream it leaves and the plain scan from a copy of that stream:
    ``(partner, scan partner, (trials, stream) of each)``."""
    rng = random.Random(record_seed)
    tracker = _Budget(strategy, 10**7)
    point = (random_q_point if strategy == "generic" else _random_hyp_point)(field, rng, tracker)
    scan_rng, scan_tracker = random.Random(), _Budget(strategy, 10**7)
    scan_rng.setstate(rng.getstate())
    scan_tracker.used = tracker.used
    partner = tangent_cone_partner(field, point, rng, tracker)
    scan = _scan_partner(field, point, scan_rng, scan_tracker)
    return partner.coords, scan.coords, (tracker.used, rng.getstate()), (scan_tracker.used, scan_rng.getstate())


def test_column_test_rejects_draws_where_k_is_a_q0_q1_combination(monkeypatch):
    # the first point of sample-p31's hyp pool slot 4 (sample --seed 1,
    # record seed 1,000,007): its one kernel combination is 18 q_0 + q_1, so
    # q_0 and q_1 restrict to proportional forms on every draw's line; the
    # line test reads the combinations A and B (quadratic parts x^2 and x y)
    # instead and must reject most draws.  The partner, the trials and the
    # stream stay those of the plain scan, and no flag is read past the draw
    # the search returns
    kernels = []
    monkeypatch.setattr(sampling, "solver", lambda *args: kernels.append(solver(*args)) or kernels[-1])
    inputs, flags = _spied_column_tests(monkeypatch)
    partner, scan, state, scan_state = _partner_against_scan(PrimeField(31), "hyp", 1_000_007)
    assert kernels[-1][0] == [(18, 1, 0, 0)]
    assert [(len(free), len(mixed), len(pivots)) for free, mixed, pivots in inputs] == [(0, 1, 2)]
    assert flags.count(False) > len(flags) // 2 and flags[-1]
    assert partner == scan and state == scan_state


def test_point_test_rejects_draws_where_k_has_two_mixed_combinations(monkeypatch):
    # the first point of sample-p31's generic pool slot 3 (record seed
    # 1,000,006): K has two mixed combinations and M rank 2, so the point
    # test decides each draw at the one point the two combinations leave.  It
    # must reject draws, and the partner, the trials and the stream stay
    # those of the plain scan
    inputs, flags = _spied_column_tests(monkeypatch)
    partner, scan, state, scan_state = _partner_against_scan(PrimeField(31), "generic", 1_000_006)
    assert [(len(free), len(mixed), len(pivots)) for free, mixed, pivots in inputs] == [(0, 2, 2)]
    assert flags.count(False) > len(flags) // 2 and flags[-1]
    assert partner == scan and state == scan_state


def _solvable(p, qu, buv, qv, qr, bur, bvr, sqrt_table):
    """Whether some (x, y) in F_p^2 zeroes the four quadrics: q_0 solved for
    y at each x, every y where q_0(x, .) vanishes identically."""
    for x in range(p):
        A, B, C = qv[0], (x * buv[0] + bvr[0]) % p, (x * x * qu[0] + x * bur[0] + qr[0]) % p
        for y in range(p) if not (A or B or C) else _scan_solve_quadratic(p, A, B, C, sqrt_table):
            if not any((y * y * qv[i] + y * (x * buv[i] + bvr[i]) + x * x * qu[i] + x * bur[i] + qr[i]) % p
                       for i in range(4)):
                return True
    return False


#: seeded start points whose kernel has two mixed combinations or more, as
#: (kind, seed, (free, mixed, pivots)) per prime, found by scanning seeds;
#: p = 31 holds sample-p31's generic pool slot 3 and hyp pool slot 8 (record
#: seeds 1,000,006 and 1,000,011), which has a free combination too
_TWO_MIXED = {
    3: (("generic", 0, (0, 2, 2)), ("generic", 2, (1, 2, 1)), ("generic", 7, (1, 3, 0)), ("generic", 8, (0, 3, 1))),
    5: (("generic", 0, (0, 2, 2)), ("generic", 2, (1, 2, 1)), ("generic", 7, (0, 3, 1)), ("generic", 14, (1, 3, 0))),
    7: (("generic", 1, (0, 2, 2)), ("generic", 2, (1, 2, 1))),
    11: (("generic", 0, (0, 2, 2)), ("generic", 2, (0, 3, 1))),
    13: (("generic", 7, (0, 2, 2)), ("hyp", 0, (1, 2, 1))),
    31: (("generic", 1_000_006, (0, 2, 2)), ("hyp", 1_000_011, (1, 2, 1))),
    101: (("generic", 0, (0, 2, 2)), ("generic", 3, (0, 2, 2))),
}


@pytest.mark.parametrize("p", sorted(_TWO_MIXED))
def test_point_test_matches_quadric_oracle(monkeypatch, p):
    # at points where K has two mixed combinations or more (with a free one,
    # a third mixed one, or both), over seeded blocks of zero-heavy draws:
    # every draw that some (x, y) solves is kept, and where det = a_1 b_2 -
    # a_2 b_1 != 0 a draw is kept exactly when all four quadrics vanish at
    # (X/det, Y/det), by the oracle that inverts det
    F = PrimeField(p)
    rng = random.Random(p)
    sqrt_table = _sqrt_table(p)
    seen = set()
    for kind, seed, shape in _TWO_MIXED[p]:
        point = _start_point(F, kind, random.Random(seed))
        inputs, flags = _spied_column_tests(monkeypatch)
        with pytest.raises(BudgetExhausted):
            tangent_cone_partner(F, point, random.Random(0), _Budget("test", 0))
        monkeypatch.undo()
        (free, mixed, pivots), = inputs
        assert (len(free), len(mixed), len(pivots)) == shape
        keep = sampling._column_test(p, free, mixed, pivots)
        u, v, *rest = sampling._tangent_complement(point)
        qu, qv = ([quadric_value(F, i, w) for i in range(4)] for w in (u, v))
        buv = [polarization_value(F, i, u, v) for i in range(4)]
        block = [[rng.choice((0, 1, rng.randrange(p))) for _ in range(5)] for _ in range(150)]
        for coeffs, flag in zip(block, keep(*map(list, zip(*block)))):
            R = [sum(c * r[k] for c, r in zip(coeffs, rest)) % p for k in range(12)]
            qr = [quadric_value(F, i, R) for i in range(4)]
            bur, bvr = ([polarization_value(F, i, w, R) for i in range(4)] for w in (u, v))
            a1, b1, c1, a2, b2, c2 = _draw_tables(p, coeffs, *mixed[0], *mixed[1])
            det = (a1 * b2 - a2 * b1) % p
            solvable = _solvable(p, qu, buv, qv, qr, bur, bvr, sqrt_table)
            assert flag or not solvable
            if det:
                inv = pow(det, -1, p)
                x, y = (b1 * c2 - b2 * c1) * inv % p, (a2 * c1 - a1 * c2) * inv % p
                assert flag == (not any((x * x * qu[i] + x * y * buv[i] + y * y * qv[i] + x * bur[i] + y * bvr[i]
                                         + qr[i]) % p for i in range(4)))
            seen.add((det == 0, solvable, flag))
    assert {(False, False, False), (False, True, True)} <= seen


@pytest.mark.parametrize("p", (3, 31, 10007, 999983))
def test_packed_tables_match_dot_products(p):
    # the widest slots under MAX_BRUTE_FORCE_MODULUS included: every slot of
    # the two packed products is the exact dot product of its table, with
    # no carry from the slot below, for the tables of zero to two mixed
    # combinations and for all-(p - 1) extremes
    rng = random.Random(p)
    pairs = [(j, l) for j in range(5) for l in range(j, 5)]
    for trial in range(60):
        n = trial % 3
        top = trial < 3
        entry = (lambda: p - 1) if top else (lambda: rng.randrange(p))
        linear = [[entry() for _ in range(5)] for _ in range(2 * n + 8)]
        quadratic = [[entry() for _ in range(15)] for _ in range(n + 4)]
        coeffs = [p - 1] * 5 if top else [rng.randrange(p) for _ in range(5)]
        width, lin_cols, quad_cols = sampling._packed(p, linear, quadratic)
        assert 15 * p ** 3 < 2 ** width
        lin, quad = sampling._dot(coeffs, lin_cols, quad_cols)
        mask = (1 << width) - 1
        assert [lin >> k * width & mask for k in range(len(linear))] == [
            sum(c * t for c, t in zip(coeffs, table)) for table in linear
        ]
        assert lin >> len(linear) * width == 0
        assert [quad >> k * width & mask for k in range(len(quadratic))] == [
            sum(coeffs[j] * coeffs[l] * t for (j, l), t in zip(pairs, table)) for table in quadratic
        ]
        assert quad >> len(quadratic) * width == 0


# ----------------------------------------------------------------------
# the two-hyp partner search against the one-draw loop that tries every
# (v0:v1) and builds every coordinate of every candidate


def _full_accepts(field, lam, params, general_position=False):
    """The oracle's test of one candidate: all 12 coordinates, then the four
    tangency forms (the rows of ``lam``), then the rows of the a-matrix."""
    p = field.p
    l0, l1, l2, l3 = ([int(x) for x in row] for row in lam)
    coords = hyp_evaluate(params, field.canonical)
    if coords is None:
        return False
    if sum(l0[k] * coords[k] for k in range(12)) % p:
        return False
    if sum(l1[k] * coords[k] for k in range(12)) % p:
        return False
    if sum(l2[k] * coords[k] for k in range(12)) % p:
        return False
    if sum(l3[k] * coords[k] for k in range(12)) % p:
        return False
    if general_position and any(
        all(coords[j] == 0 for j in triple) for triple in ROW_TRIPLES
    ):
        return False
    return True


def _full_two_hyp_solve(field, lam, draw, general_position=False, ts=None):
    """The oracle's solve of one draw of (w0, w1, x0, x1, y0, y1, z0, z1):
    the coordinates at the first (v0:v1) of (0:1), (1:0), (1:1), ...,
    (1:p-1) that :func:`_full_accepts` passes, or None; ``ts``, when given,
    lists the t of the (1:t) to try."""
    for v in [(0, 1)] + [(1, t) for t in (range(field.p) if ts is None else ts)]:
        if _full_accepts(field, lam, (*v, *draw), general_position):
            return hyp_evaluate((*v, *draw), field.canonical)
    return None


def _full_two_hyp_partner(field, point, rng, budget, cap, general_position=False):
    """The oracle: one trial per draw of eight values, each solved by trying
    every (v0:v1) in turn."""
    lam = jacobian_at(field, point.coords)
    for _ in range(cap):
        budget.spend()
        draw = [rng.randrange(field.p) for _ in range(8)]
        coords = _full_two_hyp_solve(field, lam, draw, general_position)
        if coords is not None:
            return PointA(field, coords)
    return None


class _NoneAsCoords:
    """Lets :func:`_search` record a search that returned None."""

    def __init__(self, point):
        self.coords = None if point is None else point.coords


@pytest.mark.parametrize("general_position", (False, True))
def test_two_hyp_partner_matches_full_oracle(general_position):
    # small caps and budgets, so found partners, None after the cap and an
    # exhausted budget all occur and must match
    outcomes = set()
    for p in (3, 5, 7, 11, 13, 31):
        F = PrimeField(p)
        for seed in range(6):
            point = _start_point(F, "hyp", random.Random(100 * p + seed))
            cap = (20, 100, 600)[seed % 3]
            limit = 10**6 if seed < 4 else cap // 2

            def search(impl):
                return lambda field, pt, rng, budget: _NoneAsCoords(
                    impl(field, pt, rng, budget, cap, general_position)
                )

            new = _search(search(_two_hyp_partner), F, point, seed, limit)
            old = _search(search(_full_two_hyp_partner), F, point, seed, limit)
            assert new[:3] == old[:3]
            outcome = new[0]
            outcomes.add(
                "none" if outcome is None
                else "exhausted" if outcome[0] == "exhausted" else "found"
            )
    assert outcomes == {"found", "none", "exhausted"}


def _q0_tangency(p, l0, params):
    """The scalar oracle of the first test in :func:`_two_hyp_test`, one draw
    at a time: l0 . coords at the parametrized point, mod p, from the six
    coordinates q_0 touches, each v0^2 D (D = x1 w1 - x0 w0) times a cofactor."""
    v0, _, w0, w1, x0, x1, y0, y1, z0, z1 = params
    X = x0 + x1
    s = (
        X * (
            y0 * y1 * (l0[0] * x1 * z1 * z1 + l0[1] * x0 * z0 * z0)
            + y1 * y1 * z0 * (l0[7] * x1 * z1 - l0[4] * x0 * z0)
        )
        - x0 * x1 * y0 * y0 * z1 * (l0[3] * z1 + l0[6] * z0)
    )
    return v0 * v0 * (x1 * w1 - x0 * w0) * s % p


@pytest.mark.parametrize("p", (3, 5, 7, 31, 10007))
def test_q0_tangency_is_l0_dot_coords(p):
    # the scalar oracle is l0 . coords
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(300):
        # the gradient of q_0 at any vector has the support of one at a point of Q
        l0 = jacobian_at(F, [rng.randrange(p) for _ in range(12)])[0]
        # zero-heavy parameters reach the base locus and vanishing factors
        params = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(10)]
        coords = hyp_evaluate(params, F.canonical) or (0,) * 12
        assert _q0_tangency(p, l0, params) == sum(map(int.__mul__, l0, coords)) % p


def test_hyp_coordinates_are_quadratic_in_v():
    # every HYP_FACTORED component has degree 2 in (v0, v1), as the solve and
    # _common_roots below read it
    assert all(exps[0] + exps[1] == 2 for _, exps in HYP_FACTORED)


def _common_roots(F, lam, draw):
    """The t with l_k . coords = 0 at (1:t) for all k, each form's roots
    found on their own (``binary_roots``): f_k(1, t) = alpha + gamma t +
    beta t^2 with alpha, beta and alpha + gamma + beta its values at (1:0),
    (0:1) and (1:1).  Where every form vanishes, 0, 1, 2 and p - 1: each
    t != 0 gives a point with the zero coordinates of (1:1)."""
    at = [hyp_evaluate((*v, *draw), F.canonical) or (0,) * 12 for v in ((1, 0), (0, 1), (1, 1))]
    roots = None
    for l in lam:
        alpha, beta, total = (sum(map(int.__mul__, map(int, l), c)) for c in at)
        form = BinaryForm(F, 2, (beta, total - alpha - beta, alpha))
        if not form.is_zero():
            found = {s for (s, u), _ in binary_roots(form) if u == 1}
            roots = found if roots is None else roots & found
    return (0, 1, 2, F.p - 1) if roots is None else sorted(roots)


def _two_hyp_cases(F, lam, draw, partner):
    """Why alpha_0, the v0^2 coefficient of l_0 . coords, does or does not
    vanish on a draw, and where its partner lies."""
    p = F.p
    w0, w1, x0, x1 = draw[:4]
    alpha0 = _q0_tangency(p, lam[0], (1, 0, *draw))
    case = "D = 0" if (x1 * w1 - x0 * w0) % p == 0 else "cofactor sum 0" if alpha0 == 0 else "alpha_0 != 0"
    if partner is None:
        return case, None
    return case, "(0:1)" if not any(partner[j] for j in range(12) if j not in (2, 5, 8)) else "(1:t)"


@pytest.mark.parametrize("general_position", (False, True))
@pytest.mark.parametrize("p", (3, 5, 7, 31, 10007))
def test_two_hyp_column_test_matches_full_acceptance(p, general_position):
    # the column test keeps every draw that has a partner, and the solve of a
    # kept draw returns the oracle's first partner, over blocks of zero-heavy
    # draws (so D = 0, the base locus, a vanishing cofactor sum and partners
    # at (0:1) and at (1:t) all occur) and one draw at a time.  The Jacobians
    # are taken at hyperelliptic points, among them points with v0 = 0, and at
    # raw vectors, half of them with rows 1-3 cleared on a30, a20 and a10 (so
    # (0:1) is tangent where alpha_0 is not 0); each block holds the point's
    # own draw, which is tangent there.  The oracle tries every (v0:v1) below
    # p = 100, and above it the (1:t) that _common_roots finds
    F = PrimeField(p)
    rng = random.Random(p)
    seen = set()
    for trial in range(24):
        zero_heavy = lambda: rng.choice((0, 1, p - 1, rng.randrange(p)))
        own = [rng.randrange(1, p) for _ in range(10)]
        if trial % 4 == 1:
            own[0] = 0
        base = hyp_evaluate(own, F.canonical) if trial % 4 < 2 else [rng.randrange(p) for _ in range(12)]
        lam = [[int(x) for x in row] for row in jacobian_at(F, base or [1] * 12)]
        if trial % 4 == 3:
            lam[1:] = [[0 if j in (2, 5, 8) else x for j, x in enumerate(row)] for row in lam[1:]]
        block = [own[2:]] + [[zero_heavy() for _ in range(8)] for _ in range(150)]
        keep = _two_hyp_test(p, lam, general_position)
        flags = list(keep(*map(list, zip(*block))))
        assert len(flags) == len(block)
        for draw, flag in zip(block, flags):
            ts = _common_roots(F, lam, draw) if p > 100 else None
            partner = _full_two_hyp_solve(F, lam, draw, general_position, ts)
            assert flag or partner is None, draw
            assert (_two_hyp_solve(F, lam, general_position, draw) if flag else None) == partner, draw
            seen.add(_two_hyp_cases(F, lam, draw, partner))
        for draw, flag in zip(block[:5], flags):
            assert list(keep(*([x] for x in draw))) == [flag]
    assert {("D = 0", None), ("cofactor sum 0", None), ("cofactor sum 0", "(1:t)"), ("alpha_0 != 0", None)} <= seen
    # (0:1) is off the base locus only where w0 w1 W x0 x1 X != 0, which over
    # F_3 means w0 = w1, x0 = x1 and so D = 0
    at_v1 = {("D = 0", "(0:1)"), ("alpha_0 != 0", "(0:1)")} if p > 3 else {("D = 0", "(0:1)")}
    assert general_position or at_v1 <= seen
    assert not any(where == "(0:1)" for _, where in seen) or not general_position


@pytest.mark.parametrize("n", (0, 1, 5, 31))
@pytest.mark.parametrize("used", (0, 3, 9, 10))
def test_budget_spend_n_matches_single_steps(used, n):
    # from every state a search can spend in (used <= limit)
    def run(steps):
        budget = _Budget("test", 10)
        budget.used = used
        try:
            for step in steps:
                budget.spend(step)
        except BudgetExhausted as err:
            return budget.used, err.trials
        return budget.used, None

    assert run([n]) == run([1] * n)


def test_sqrt_matches_table_below_2000():
    checked = 0
    for p in range(3, 2000, 2):
        if not is_prime(p):
            continue
        table = _sqrt_table(p)
        for d in range(p):
            assert _sqrt_mod(d, p) == table.get(d), (p, d)
        checked += len(table)
    assert checked == 138_675


def _randrange(rng, p, n):
    """The oracle the block draws reproduce: n values of ``rng.randrange(p)``."""
    return [rng.randrange(p) for _ in range(n)]


#: column tests for the block draws: every draw a candidate, none, and about
#: one in eight (on the first two values)
_KEEPS = {
    "all": None,
    "none": lambda *columns: [False] * len(columns[0]),
    "sparse": lambda *columns: [(a + 3 * b) % 8 == 0 for a, b in zip(columns[0], columns[1])],
}
#: primes for the block draws: 251 is the largest on the ``bytes.translate``
#: path (8 bits, so its shift table is the identity), 257 the first on the
#: unpack path
_KERNEL_PRIMES = (3, 5, 31, 37, 251, 257, 65537, 999983)


def _kept(keep, draw):
    return keep is None or keep(*([x] for x in draw))[0]


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
@pytest.mark.parametrize("kind", sorted(_KEEPS))
def test_block_draws_match_draw(p, kind):
    # values, skipped counts and the state after sync() against randrange,
    # over several saved states; at 257 and 65537 almost half of the words are
    # retried, and n = 7 leaves partial draws that straddle block boundaries
    keep, n = _KEEPS[kind], 7
    total = 3 * _BLOCKS_PER_STATE * _BLOCK_WORDS // n
    rng, old = random.Random(p), random.Random(p)
    draws = _BlockDraws(rng, p, n, keep)
    drawn = yields = 0
    straddled = False
    for draw, skipped in draws:
        for _ in range(skipped):
            assert not _kept(keep, _randrange(old, p, n))
        if draw is not None:
            assert draw == _randrange(old, p, n) and _kept(keep, draw)
        drawn += skipped + (draw is not None)
        yields += draw is not None
        straddled |= draws.carried > 0
        if drawn >= total:
            break
    draws.sync()
    assert rng.getstate() == old.getstate()
    assert straddled
    if kind == "all":
        assert yields == drawn
    elif kind == "none":
        assert yields == 0
    else:
        assert 0 < yields < drawn / 4


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_block_draws_stop_after_stop_draws(p):
    # the draws end after exactly ``stop``, inside a block or at its end,
    # and sync() leaves the stream after the last of them
    n = 7
    for stop in (0, 1, 50, 333, 2000):
        for kind, keep in _KEEPS.items():
            rng, old = random.Random(stop), random.Random(stop)
            draws = _BlockDraws(rng, p, n, keep, stop)
            runs = list(draws)
            draws.sync()
            assert sum(skipped + (draw is not None) for draw, skipped in runs) == stop
            assert [draw for draw, _ in runs if draw is not None] == [
                d for d in (_randrange(old, p, n) for _ in range(stop)) if _kept(keep, d)
            ]
            assert rng.getstate() == old.getstate()


def test_block_draws_read_the_flags_lazily():
    # a column test that yields its flags is read only up to the draw the
    # loop takes: a search that returns there tests no more of its block
    read = []

    def keep(*columns):
        for i in range(len(columns[0])):
            read.append(i)
            yield i % 10 == 9

    for draw, skipped in _BlockDraws(random.Random(0), 31, 5, keep):
        assert draw is not None
        break
    assert (skipped, read) == (9, list(range(10)))


def _charged(draws, budget, cost):
    """The block draws charged in bulk: ``cost`` per rejected draw at once
    (the partner searches charge 1), then one trial per kept draw, to the
    end of the budget."""
    for draw, skipped in draws:
        budget.spend(cost * skipped)
        if draw is not None:
            budget.spend()


def _charged_one_by_one(rng, p, n, keep, budget, cost):
    """The oracle: one draw at a time, each charged on its own."""
    while True:
        budget.spend(1 if _kept(keep, _randrange(rng, p, n)) else cost)


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_block_draws_charge_where_the_budget_runs_out(p):
    # the budget runs out on a rejected draw inside a run, on a kept draw,
    # and across blocks and saved states, with the trial count and budget
    # of the one-draw loop (the stream is then unspecified)
    n, cost = 5, 31
    for limit in (0, 1, 30, 31, 32, 100, 1000, 5000, 20_000, 60_000):
        for kind, keep in _KEEPS.items():
            outcomes = []
            for run in (
                lambda rng, budget: _charged(_BlockDraws(rng, p, n, keep), budget, cost),
                lambda rng, budget: _charged_one_by_one(rng, p, n, keep, budget, cost),
            ):
                rng, budget = random.Random(limit), _Budget("test", limit)
                with pytest.raises(BudgetExhausted) as err:
                    run(rng, budget)
                outcomes.append((err.value.trials, budget.used))
            assert outcomes[0] == outcomes[1], (limit, kind)


# ----------------------------------------------------------------------
# seeded samples byte for byte, at primes the golden gate does not cover:
# each test hashes the bytes of make_golden.PINS's producers and compares
# the digest with its entry in tests/data/pins.json


spec = importlib.util.spec_from_file_location(
    "make_golden", pathlib.Path(__file__).resolve().parent / "data" / "make_golden.py")
make_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(make_golden)
_PINNED = json.loads(make_golden.PIN_FILE.read_text())


@pytest.mark.parametrize("name", sorted(make_golden.OFF_GOLDEN))
def test_samples_byte_identical_off_the_golden_prime(name):
    # the golden gate pins p = 31; these primes put the tangent-cone
    # certificate on fields where small-p coincidences (b = 0, vanishing
    # restrictions) are frequent, and on one where draws take 10^6 trials.
    # The torsion and two-hyp pins cover the block-drawn rejection loops of
    # their partners
    assert make_golden.digest(f"lines/{name}") == _PINNED[f"lines/{name}"]


def test_small_budget_outcomes_byte_identical():
    # every strategy at budgets from 1 (the first draw) to 60,000, through
    # sample_line: 45 of the 150 outcomes are exhausted, and each keeps only
    # its trial count, limit + 1
    data = make_golden.PINS["lines/small-budgets"]()
    budgets = [b for _ in make_golden.STRATEGIES for b in make_golden.SMALL_BUDGETS for _ in range(6)]
    records = [json.loads(line) for line in data.splitlines()]
    exhausted = [(r["exhausted"], b) for r, b in zip(records, budgets) if "exhausted" in r]
    assert len(exhausted) == 45 and all(trials == budget + 1 for trials, budget in exhausted)
    assert hashlib.sha256(data).hexdigest() == _PINNED["lines/small-budgets"]


@pytest.mark.parametrize("name", [n.removeprefix("rows/") for n in sorted(make_golden.PINS) if n.startswith("rows/")])
def test_sampled_rows_byte_identical(name):
    # the rows alone (no provenance) of the lines behind the lines/ pins, one
    # pin per strategy and per torsion space, then of the sample-p31 pool,
    # slots 0-19 of ``sample --field p31 --seed 1``: trial counts and the
    # provenance's format may change while the lines drawn stay these
    assert make_golden.digest(f"rows/{name}") == _PINNED[f"rows/{name}"]


# ----------------------------------------------------------------------
# rank-3 roots of the hyp strategies by K4 kind


def _k4_kind(point):
    """The kind of a rank-3 point of Q, read off the a-matrix as a weighted
    incidence matrix of K4 (row l is vertex l): "row" when a row vanishes
    and its triangle form T_l does not, "row+T" when both vanish, "T&C"
    when no row vanishes and every T_l and 4-cycle form C vanishes, and
    "other" for anything else.  The forms are geometry._k4_forms, which
    test_quartic_minors_are_k4_forms pins against the expanded minors."""
    forms = [point.field.canonical(f) for f in _k4_forms(point.coords)]  # T_0..T_3, then the C's
    rows = [l for l in range(4) if not any(point.coords[j] for j in ROW_TRIPLES[l])]
    if len(rows) == 1:
        return "row+T" if forms[rows[0]] == 0 else "row"
    if not rows and not any(forms):
        return "T&C"
    return "other"


#: the K4 kinds of the rank-3 roots each hyp strategy gives at p = 31, sorted
_K4_KINDS = {"hyp": ["T&C"], "two-hyp": ["T&C", "row+T"]}


@pytest.mark.parametrize("strategy", sorted(_K4_KINDS))
def test_rank3_roots_by_k4_kind(f31, strategy):
    # what the strategies deliver today at p = 31: a hyp line has one T&C
    # root, and a default two-hyp line one T&C root and one row+T root (a
    # point where a whole a-matrix row vanishes, so also in row_vanishing)
    for seed in range(10):
        line = sample_line(strategy, f31, seed)
        report = classify_line(line)
        points = [line.point_at(*root.point) for root in report.hyperelliptic_roots]
        assert [rank_a(pt) for pt in points] == [3] * len(points)
        assert sorted(map(_k4_kind, points)) == _K4_KINDS[strategy], seed


def test_general_position_two_hyp_by_k4_kind(f31):
    # a general-position two-hyp line has two rank-3 roots, both of kind T&C;
    # the lines' bytes are pinned by tests/data/pins.json
    for seed in range(6):
        line = sample_line("two-hyp", f31, seed, general_position=True)
        report = classify_line(line)
        points = [line.point_at(*root.point) for root in report.hyperelliptic_roots]
        assert [rank_a(pt) for pt in points] == [3, 3], seed
        assert list(map(_k4_kind, points)) == ["T&C", "T&C"], seed
        assert report.kernel_degrees == (1, 1, 1, 1), seed


def test_stored_rank3_roots_by_k4_kind():
    # every stored line with a rank-3 root was drawn by a hyp strategy (8
    # distinct lines each), and its roots are of the kinds it gives today
    tally = {}
    for line, report in _stored_reports():
        points = [line.point_at(*root.point) for root in report.hyperelliptic_roots]
        if points:
            strategy = line.provenance["strategy"]
            assert [rank_a(pt) for pt in points] == [3] * len(points)
            assert sorted(map(_k4_kind, points)) == _K4_KINDS[strategy], line.provenance
            tally[strategy] = tally.get(strategy, 0) + 1
    assert tally == {"hyp": 8, "two-hyp": 8}


# ----------------------------------------------------------------------
# the one promise rule against the per-strategy clauses it replaced


def _clause_fulfils(strategy, report, home, pair, general_position):
    """The promise as one clause per strategy; the oracle of ``_fulfils``."""
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
    return (
        len(report.hyperelliptic_roots) == 2
        and not report.torsion_points
        and not report.torsion_containments
        and not report.excluded_flag
        and (not general_position or report.kernel_degrees == (1, 1, 1, 1))
    )


# every (strategy, home, pair, general_position); sample_line always names a
# home for torsion and a pair for two-torsion, so those two stay set
_PROMISE_ARGS = [
    (strategy, home, pair, general_position)
    for strategy in sampling.STRATEGIES
    for home in (None, *TORSION_SPACES)
    for pair in (None, *itertools.permutations(TORSION_SPACES, 2))
    for general_position in (False, True)
    if (strategy, home) != ("torsion", None) and (strategy, pair) != ("two-torsion", None)
]


def _check_promise_rule(report, accepted):
    for args in _PROMISE_ARGS:
        verdict = _fulfils(args[0], report, *args[1:])
        assert verdict == _clause_fulfils(args[0], report, *args[1:]), args
        if verdict:
            accepted.add(args[0])


def _stored_lines():
    import json
    import pathlib

    from godeaux_lines.geometry import LineA

    root = pathlib.Path(__file__).resolve().parent.parent
    seen = {}
    for name in ("tests/data/golden_classify.jsonl", "tests/data/golden_store.jsonl",
                 "perfbench/data/classify_base.jsonl"):
        for text in (root / name).read_text().splitlines():
            record = json.loads(text)
            if "line" in record:
                line = LineA.from_json(record["line"])
                seen.setdefault((line.field, line.rows), line)
    return list(seen.values())


@functools.cache
def _stored_reports():
    """(line, report) for each stored line, classified once per session."""
    return tuple((line, classify_line(line)) for line in _stored_lines())


def test_promise_rule_matches_clause_oracle_on_stored_lines():
    accepted = set()
    reports = _stored_reports()
    for _, report in reports:
        _check_promise_rule(report, accepted)
    assert len(reports) > 70 and accepted == set(sampling.STRATEGIES)


def _spy_candidates(monkeypatch):
    """Every candidate line ``sample_line`` finds in Q, in draw order, as
    [line, classified]; the rank-3 end rule rejects the unclassified ones."""
    seen = []

    def in_q(line):
        inside = line_in_q(line)
        if inside:
            seen.append([line, False])
        return inside

    def classify(line):
        assert seen[-1][0] is line and not seen[-1][1]
        seen[-1][1] = True
        return classify_line(line)

    monkeypatch.setattr(sampling, "line_in_q", in_q)
    monkeypatch.setattr(sampling, "classify_line", classify)
    return seen


def test_promise_rule_matches_clause_oracle_on_every_sampler_candidate(monkeypatch, f31):
    # every candidate the sampler judges, the rejected ones included: the
    # ones the rank-3 end rule turns down unclassified are classified here,
    # and both the promise rule and the clause oracle must reject them
    accepted, judged, early = set(), [], []

    def checked(strategy, report, *args):
        _check_promise_rule(report, accepted)
        judged.append(strategy)
        return _fulfils(strategy, report, *args)

    monkeypatch.setattr(sampling, "_fulfils", checked)
    candidates = _spy_candidates(monkeypatch)
    for strategy in sampling.STRATEGIES:
        for seed in (0, 1):
            candidates.clear()
            sample_line(strategy, f31, seed)
            home = TORSION_SPACES[0] if strategy == "torsion" else None
            for line, classified in candidates:
                if not classified:
                    report = classify_line(line)
                    _check_promise_rule(report, accepted)
                    assert not _fulfils(strategy, report, home, None, False)
                    assert not _clause_fulfils(strategy, report, home, None, False)
                    judged.append(strategy)
                    early.append(strategy)
    assert len(judged) > 10 and early and accepted == set(sampling.STRATEGIES)


@pytest.mark.parametrize("p", (7, 11, 31))
def test_rank3_end_rule_rejects_only_what_the_classifier_rejects(monkeypatch, p):
    # the rule skips classify_line when more ends of a candidate have rank 3
    # than the strategy promises rank-3 roots and its midpoint (1:1) has
    # rank 4; there each rank-3 end is a root of the nonzero minor GCD, so
    # the full report lists it and fails the promise.  With the midpoint at
    # rank <= 3 it defers, and an accepted torsion line may have a rank-3
    # partner only when every minor vanishes on it.
    F = PrimeField(p)
    candidates = _spy_candidates(monkeypatch)
    branches = {"fires": 0, "defers": 0, "accepted rank-3 partner": 0}
    for strategy, space in [("generic", None), ("hyp", None), *(("torsion", sp) for sp in TORSION_SPACES)]:
        promise = 1 if strategy == "hyp" else 0
        for seed in range(15):
            candidates.clear()
            line = sample_line(strategy, F, seed, **({"space": space} if space else {}))
            for cand, classified in candidates:
                ends = [rank_a(PointA(F, row)) == 3 for row in cand.rows]
                witness = rank_a(cand.point_at(1, 1))
                fires = sum(ends) > promise and witness == 4
                assert fires == (not classified), (strategy, seed)
                if fires:
                    branches["fires"] += 1
                    report = classify_line(cand)
                    assert not _fulfils(strategy, report, space, None, False)
                    roots = {r.point for r in report.hyperelliptic_roots}
                    assert {pt for pt, end in zip(((1, 0), (0, 1)), ends) if end} <= roots
                elif sum(ends) > promise:
                    branches["defers"] += 1
            assert candidates[-1][0].rows == line.rows and candidates[-1][1]
            if strategy == "torsion" and rank_a(PointA(F, line.rows[1])) == 3:
                branches["accepted rank-3 partner"] += 1
                assert classify_line(line).all_minors_vanish
    assert all(branches.values()), branches


def test_torsion_pool_classifies_only_what_it_keeps(monkeypatch, f31):
    # slots 0-19 of sample --strategy torsion --seed 1: 52 candidates reach
    # the classifier without the rank-3 end rule, 32 of them rejected for a
    # rank-3 root at their partner; with it, only the 20 kept lines do
    from godeaux_lines.cli import _record_seed

    calls = []
    monkeypatch.setattr(sampling, "classify_line", lambda line: calls.append(line) or classify_line(line))
    kept = [sample_line("torsion", f31, _record_seed(1, i)) for i in range(20)]
    assert [line.rows for line in calls] == [line.rows for line in kept]


def test_each_promise_clause_rejects_alone(f31):
    # grafted onto an accepted report of each strategy, every clause of the
    # rule turns it down by itself
    from dataclasses import replace

    from godeaux_lines.strata import MinorRoot

    extra_root = MinorRoot((3, 1), 3, 1)
    for strategy in sampling.STRATEGIES:
        line = sample_line(strategy, f31, seed=0)
        report = classify_line(line)
        home = torsion_space(line.provenance["space"]) if strategy == "torsion" else None
        pair = tuple(map(torsion_space, line.provenance.get("spaces", ()))) or None
        assert _fulfils(strategy, report, home, pair, False)
        other = next(sp for sp in TORSION_SPACES if sp not in (home, *(pair or ())))
        grafts = [
            {"excluded_flag": True},
            {"torsion_containments": (other,)},
            {"hyperelliptic_roots": report.hyperelliptic_roots + (extra_root,)},
            {"torsion_points": report.torsion_points + (((0, 1), other),)},
        ]
        if strategy == "generic":
            grafts.append({"all_minors_vanish": True})
        for graft in grafts:
            assert not _fulfils(strategy, replace(report, **graft), home, pair, False), (strategy, graft)
