import random
from fractions import Fraction

import pytest

from conftest import kernel_equations
from godeaux_lines.fields import FieldError, PrimeField, QQ
from godeaux_lines.linalg import _gauss_jordan, _reduce, nullspace, rank, rref, solver, sparse_nullspace


def test_rank_and_rref_basic():
    F = PrimeField(31)
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(F, rows) == 2
    reduced, pivots = rref(F, rows)
    assert pivots == [0, 1]
    assert len(reduced) == 2


def test_nullspace_vectors_annihilate():
    F = PrimeField(101)
    rng = random.Random(0)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(2, 7)
        rows = [[F.random(rng) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(F, rows, ncols)
        assert len(basis) == ncols - rank(F, rows)
        for vec in basis:
            for row in rows:
                acc = 0
                for a, b in zip(row, vec):
                    acc = F.add(acc, F.mul(a, b))
                assert F.is_zero(acc)


def test_sparse_nullspace_matches_dense():
    # the sparse solver must agree with the dense one in dimension and span
    for field in (PrimeField(101), QQ):
        rng = random.Random(7)
        for _ in range(25):
            nrows, ncols = rng.randint(1, 8), rng.randint(2, 10)
            rows = [
                [field.random(rng) if rng.random() < 0.3 else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            srows = [
                {j: v for j, v in enumerate(row) if not field.is_zero(v)}
                for row in rows
            ]
            srows = [r for r in srows if r]
            dense = nullspace(field, rows, ncols)
            sparse = sparse_nullspace(field, srows, ncols)
            assert len(dense) == len(sparse)
            for vec in sparse:
                for row in rows:
                    acc = 0
                    for a, b in zip(row, vec):
                        acc = field.add(acc, field.mul(a, b))
                    assert field.is_zero(acc)
                assert rank(field, dense + [vec]) == rank(field, dense)


# ----------------------------------------------------------------------
# the earlier dense eliminations, kept as oracles: every public function now
# runs on one sparse Gauss–Jordan routine and must give exactly their output


def dense_rank(field, rows):
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not field.is_zero(mat[i][c])), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][c])
        for i in range(r + 1, len(mat)):
            if field.is_zero(mat[i][c]):
                continue
            f = field.mul(mat[i][c], inv)
            row_i, row_r = mat[i], mat[r]
            for j in range(c, ncols):
                row_i[j] = field.sub(row_i[j], field.mul(f, row_r[j]))
        r += 1
        if r == len(mat):
            break
    return r


def dense_rref(field, rows):
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not field.is_zero(mat[i][c])), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def dense_nullspace(field, rows, ncols):
    reduced, pivots = dense_rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = field.neg(reduced[r][f])
        basis.append(tuple(vec))
    return basis


def random_matrices(field, rng, count):
    """Dense matrices of every shape up to 7x9 and density, with no rows,
    zero rows and rows that repeat a sum of earlier ones (rank deficient)."""
    for _ in range(count):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 9)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        rows = [
            [field.random(rng) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if rows and rng.random() < 0.4:
            rows.insert(rng.randrange(len(rows) + 1),
                        [field.add(a, b) for a, b in zip(rows[0], rows[-1])])
        yield rows, ncols


def typed(values):
    # exact equality including the value type (an int, or over Q a Fraction where not integral)
    return [[(type(x), x) for x in row] for row in values]


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(31), QQ], ids=str)
def test_elimination_matches_dense_oracles(field):
    rng = random.Random(2027)
    for rows, ncols in random_matrices(field, rng, 400):
        assert rank(field, rows) == dense_rank(field, rows)
        reduced, pivots = rref(field, rows)
        want_reduced, want_pivots = dense_rref(field, rows)
        assert pivots == want_pivots
        assert typed(reduced) == typed(want_reduced)
        want = typed(dense_nullspace(field, rows, ncols))
        assert typed(nullspace(field, rows, ncols)) == want
        srows = [{j: v for j, v in enumerate(row) if not field.is_zero(v)} for row in rows]
        assert typed(sparse_nullspace(field, srows, ncols)) == want
        # zero-row dicts and rows in another order span the same space
        shuffled = [{}] + srows[::-1]
        assert typed(sparse_nullspace(field, shuffled, ncols)) == want


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(31), QQ], ids=str)
def test_solver_matches_dense_oracles(field):
    # one elimination answers every right-hand side: a solvable b (A times a
    # random x) and a random b, judged by the rank of the augmented matrix
    rng = random.Random(2028)
    dot = lambda row, x: field.canonical(sum(a * b for a, b in zip(row, x)))
    for rows, ncols in random_matrices(field, rng, 300):
        kernel, inverse, checks = solver(field, rows, ncols)
        assert typed(kernel) == typed(dense_nullspace(field, rows, ncols))
        r = dense_rank(field, rows)
        assert sorted(inverse) == dense_rref(field, rows)[1] and len(checks) == len(rows) - r
        x = [field.random(rng) for _ in range(ncols)]
        for b in ([dot(row, x) for row in rows], [field.random(rng) for _ in rows]):
            solvable = dense_rank(field, [[*row, v] for row, v in zip(rows, b)]) == r
            assert solvable == all(not dot([chk.get(i, 0) for i in range(len(rows))], b)
                                   for chk in checks)
            if solvable:
                x0 = [dot([inverse[c].get(i, 0) for i in range(len(rows))], b)
                      if c in inverse else 0 for c in range(ncols)]
                assert [dot(row, x0) for row in rows] == b


def test_elimination_reduces_noncanonical_entries():
    # raw values outside [0, p) are reduced, never kept, in every output
    F = PrimeField(31)
    rows = [[33, -1, 62, 0], [-31, 2, 5, 93]]
    canonical = [[F.canonical(x) for x in row] for row in rows]
    assert rank(F, rows) == dense_rank(F, canonical) == 2
    assert rref(F, rows) == dense_rref(F, canonical)
    assert nullspace(F, rows, 4) == dense_nullspace(F, canonical, 4)


def _disguised(field, rng, x):
    """An exact scalar with the canonical reduction x: x itself, x + k*p,
    x - k*p (negative) or a Fraction (x*d + k*p)/d with p not dividing d."""
    p = field.p
    k, kind = rng.randint(1, 10**6), rng.randrange(4)
    if kind == 1:
        return x + k * p
    if kind == 2:
        return x - k * p
    if kind == 3:
        d = rng.randrange(1, p) + p * rng.randrange(3)
        return Fraction(x * d + k * p, d)
    return x


def typed_solver(solved):
    kernel, inverse, checks = solved
    typed_map = lambda rec: sorted((k, type(v), v) for k, v in rec.items())
    return typed(kernel), {c: typed_map(rec) for c, rec in inverse.items()}, [typed_map(rec) for rec in checks]


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(31)], ids=str)
def test_entry_points_canonicalise_their_entries(field):
    # every entry point gives on noncanonical entries (>= p, negative, or
    # Fractions) exactly what it gives on their canonical reductions
    rng = random.Random(2031)
    kinds = set()
    for rows, ncols in random_matrices(field, rng, 300):
        noisy = [[_disguised(field, rng, x) for x in row] for row in rows]
        kinds |= {type(x) for row in noisy for x in row}
        assert rank(field, noisy) == rank(field, rows)
        assert typed(rref(field, noisy)[0]) == typed(rref(field, rows)[0])
        assert typed(nullspace(field, noisy, ncols)) == typed(nullspace(field, rows, ncols))
        sparse = [dict(enumerate(row)) for row in noisy]
        assert typed(sparse_nullspace(field, sparse, ncols)) == typed(nullspace(field, rows, ncols))
        assert typed_solver(solver(field, noisy, ncols)) == typed_solver(solver(field, rows, ncols))
    assert kinds == {int, Fraction}


def test_rank_reduces_a_multiple_of_p_to_zero():
    assert rank(PrimeField(31), [[31, 0], [0, 1]]) == 1
    assert rank(PrimeField(31), [[Fraction(1, 2), 1]]) == 1


@pytest.mark.parametrize("field", [PrimeField(31), QQ], ids=str)
def test_entry_points_reject_floats(field):
    rows = [[1, 1.5], [0, 1]]
    for call in (lambda: rank(field, rows), lambda: rref(field, rows),
                 lambda: nullspace(field, rows, 2), lambda: solver(field, rows, 2),
                 lambda: sparse_nullspace(field, [dict(enumerate(r)) for r in rows], 2)):
        with pytest.raises(FieldError):
            call()


# ----------------------------------------------------------------------
# the elimination that clears a new pivot column by a scan over every pivot
# row, kept as the oracle of the one that reads the column's holders


def _scan_subtract(field, row, f, pivot_row):
    red = field.canonical
    for j, v in pivot_row.items():
        x = red(row.get(j, 0) - f * v)
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def _scan_gauss_jordan(field, rows):
    red = field.canonical
    pivots = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {}
        for j, v in items:
            v = red(v)
            if v:
                row[j] = v
        for c in [c for c in row if c in pivots]:
            _scan_subtract(field, row, row[c], pivots[c])
        if not row:
            continue
        c = min(row)
        inv = field.inv(row[c])
        row = {j: red(inv * v) for j, v in row.items()}
        for other in pivots.values():
            if c in other:
                _scan_subtract(field, other, other[c], row)
        pivots[c] = row
    return pivots


def typed_pivots(pivots):
    # pivot order, then each row's entries with their types
    return [(c, sorted((j, type(v), v) for j, v in row.items())) for c, row in pivots.items()]


def sparse_matrices(rng, count, scalar):
    """Sparse {column: value} rows, up to 40 x 60, from ``scalar(rng)``:
    few entries per row, so most pivot rows never hold a new pivot column,
    and a share of rows that repeat sums of earlier ones."""
    for _ in range(count):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 60)
        rows = []
        for _ in range(nrows):
            if rows and rng.random() < 0.25:
                a, b = rng.choice(rows), rng.choice(rows)
                row = dict(a)
                for j, v in b.items():
                    row[j] = row.get(j, 0) + v
            else:
                row = {rng.randrange(ncols): scalar(rng) for _ in range(rng.randint(0, 4))}
            rows.append(row)
        yield rows


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


@pytest.mark.parametrize("field, scalar", [
    (PrimeField(2), lambda rng: rng.randrange(2)),
    (PrimeField(3), lambda rng: rng.randint(-5, 5)),
    (PrimeField(31), lambda rng: rng.randrange(31)),
    (PrimeField(10007), lambda rng: rng.randrange(10007)),
    (QQ, lambda rng: rng.randint(-3, 3)),
    (QQ, _fraction),
], ids=["F_2", "F_3", "F_31", "F_10007", "Q-ints", "Q-fractions"])
def test_indexed_elimination_matches_scan_oracle(field, scalar):
    rng = random.Random(2041)
    for rows in sparse_matrices(rng, 150, scalar):
        assert typed_pivots(_gauss_jordan(field, rows)) == typed_pivots(_scan_gauss_jordan(field, rows))
    for rows, _ in random_matrices(field, rng, 150):
        rows = [[scalar(rng) if x else x for x in row] for row in rows]
        assert typed_pivots(_gauss_jordan(field, rows)) == typed_pivots(_scan_gauss_jordan(field, rows))


@pytest.mark.parametrize("field, scalar", [
    (PrimeField(31), lambda rng: rng.randrange(31)),
    (QQ, _fraction),
], ids=["F_31", "Q-fractions"])
def test_reduce_decides_span_membership_as_rank_does(field, scalar):
    # a row reduced against the RREF of some rows comes out empty exactly
    # when adding it to them leaves the rank as it is (para-v2's span test)
    rng = random.Random(77)
    seen = set()
    for rows in sparse_matrices(rng, 120, scalar):
        pivots = _gauss_jordan(field, rows)
        base = rank(field, rows)
        candidates = [{rng.randrange(60): scalar(rng) for _ in range(rng.randint(1, 3))} for _ in range(3)]
        for _ in range(3):  # combinations of the rows, inside their span
            candidates.append({})
            for r in rng.sample(rows, min(3, len(rows))):
                f = scalar(rng)
                for j, v in r.items():
                    candidates[-1][j] = candidates[-1].get(j, 0) + f * v
        for row in candidates:
            row = {j: field.canonical(v) for j, v in row.items() if field.canonical(v)}
            inside = rank(field, rows + [row]) == base
            assert (not _reduce(field, pivots, dict(row))) == inside
            seen.add(inside)
        assert typed_pivots(pivots) == typed_pivots(_gauss_jordan(field, rows))  # pivots left as they were
    assert seen == {True, False}


def test_indexed_elimination_matches_scan_oracle_on_para_v2_system(monkeypatch):
    # the whole (2,1,1) system of verify para-v2: 396 sparse rows, rank 317
    import godeaux_lines.polynomials as polynomials
    from godeaux_lines.families import _para_v2_system

    M = _para_v2_system()
    rows = kernel_equations(M, polynomials.monomials_up_to(M.vars, (2, 1, 1)))
    pivots = _gauss_jordan(QQ, rows)
    assert (len(rows), len(pivots)) == (396, 317)
    assert typed_pivots(pivots) == typed_pivots(_scan_gauss_jordan(QQ, rows))
    # bounded_degree_kernel solves only the 81 equations of more than one entry,
    # over the 69 unknowns the 315 others do not set to 0
    systems = []
    real = polynomials.nullspace

    def recording(field, srows, ncols):
        srows = [dict(r) for r in srows]
        systems.append((srows, ncols))
        return real(field, srows, ncols)

    monkeypatch.setattr(polynomials, "nullspace", recording)
    polynomials.bounded_degree_kernel(M, (2, 1, 1))
    ((short, ncols),) = systems
    assert (len(short), ncols, rank(QQ, short)) == (81, 69, 62)
    assert sum(len(row) == 1 for row in rows) == 315


# ----------------------------------------------------------------------
# rows of one entry: taken as the pivot {c: 1} as they are


def unit_heavy_matrices(rng, count, scalar):
    """Sparse rows over up to 30 columns, half of them one entry; of the
    rest, some are an earlier row plus one new entry (they reduce to that
    entry), the others two or three entries."""
    for _ in range(count):
        ncols = rng.randint(2, 30)
        rows = []
        for _ in range(rng.randint(1, 30)):
            kind = rng.random()
            if kind < 0.5:
                row = {rng.randrange(ncols): scalar(rng)}
            elif rows and kind < 0.7:
                row = {j: 2 * v for j, v in rng.choice(rows).items()}
                j = rng.randrange(ncols)
                row[j] = row.get(j, 0) + scalar(rng)
            else:
                row = {rng.randrange(ncols): scalar(rng) for _ in range(rng.randint(2, 3))}
            rows.append(row)
        yield rows


def _as_reduced(field, rows):
    """For each row: its entries as given, its entries once reduced by the
    RREF of the rows before it (the scan oracle), and whether a pivot row
    before it holds the column it then pivots on."""
    out = []
    for i, row in enumerate(rows):
        pivots = _scan_gauss_jordan(field, rows[:i])
        row = {j: field.canonical(v) for j, v in row.items() if field.canonical(v)}
        given = len(row)
        for c in [c for c in row if c in pivots]:
            _scan_subtract(field, row, row[c], pivots[c])
        out.append((given, len(row), bool(row) and any(min(row) in p for p in pivots.values())))
    return out


def test_unit_row_cleared_from_the_pivot_rows_that_hold_its_column():
    # rows 0 and 1 hold column 2 when the unit row {2: 7} comes; row 3
    # reduces to the one entry {3: -3} only after reduction
    F = PrimeField(31)
    rows = [{0: 1, 2: 3}, {1: 2, 2: 5}, {2: 7}, {0: 1, 2: 3, 3: 28}]
    assert [(given, left) for given, left, _ in _as_reduced(F, rows)] == [(2, 2), (2, 2), (1, 1), (3, 1)]
    pivots = _gauss_jordan(F, rows)
    assert pivots == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1}}
    assert typed_pivots(pivots) == typed_pivots(_scan_gauss_jordan(F, rows))


@pytest.mark.parametrize("field, scalar", [
    (PrimeField(2), lambda rng: rng.randrange(1, 2)),
    (PrimeField(31), lambda rng: rng.randrange(31)),
    (QQ, lambda rng: rng.choice((rng.randint(-4, 4), _fraction(rng)))),
], ids=["F_2", "F_31", "Q"])
def test_unit_rows_match_scan_oracle(field, scalar):
    # rows given with one entry, rows that reduce to one entry, and unit rows
    # whose column earlier pivot rows hold all occur; the elimination is the
    # scan oracle's, and any order of the rows gives the same RREF
    rng = random.Random(f"unit-rows-{field}")
    seen = set()
    for rows in unit_heavy_matrices(rng, 120, scalar):
        pivots = _gauss_jordan(field, rows)
        assert typed_pivots(pivots) == typed_pivots(_scan_gauss_jordan(field, rows))
        for given, left, held in _as_reduced(field, rows):
            seen |= {"given" * (given == 1), "reduced" * (given > 1 and left == 1), "held" * (left == 1 and held)}
        for _ in range(3):
            shuffled = rng.sample(rows, len(rows))
            assert _gauss_jordan(field, shuffled) == pivots
    assert seen >= {"given", "reduced", "held"}
