"""Exact linear algebra over a field, on one Gauss–Jordan elimination.

Every public function here is a thin wrapper around :func:`_gauss_jordan`,
which brings a matrix to reduced row echelon form (RREF) and returns the
nonzero rows as sparse ``{column: value}`` dicts keyed by their pivot
column.  Rows go in dense (sequences of raw field values) or sparse
(``{column: value}`` dicts, as assembled by the polynomial kernel solver);
entries are canonicalised and zeros dropped on the way in, so fill stays
proportional to the nonzeros.  Entries may be any exact scalars of the
field (ints of any size, ``Fraction``s); the results are canonical raw
values: residues in F_p; over Q, ints where integral and reduced
``Fraction``s elsewhere.

The RREF of a matrix is unique, so rank, echelon form and the kernel basis
read off it (one vector per free column) depend only on the matrix, not on
how its rows were given.
"""

from __future__ import annotations

from .fields import Field


def _reduce(field: Field, pivots: dict, row: dict) -> dict:
    """The sparse row of nonzero entries reduced in place against the pivot
    rows, and returned: empty exactly when it lies in their span.  Pivot rows
    hold no other pivot column, so the steps at its pivot columns commute."""
    red = field.canonical
    for c in [c for c in row if c in pivots]:
        f = row[c]
        for j, v in pivots[c].items():
            x = red(row.get(j, 0) - f * v)
            if x:
                row[j] = x
            else:
                row.pop(j, None)
    return row


def _gauss_jordan(field: Field, rows) -> dict:
    """RREF of the rows as {pivot column: {column: value}}.

    Each pivot row has 1 at its pivot column, its leftmost entry, and no
    entry at any other pivot column.  The pivot rows are kept in that form
    after every input row: a new row is reduced against them, and the new
    pivot column is then cleared from them.  ``holders`` indexes each
    non-pivot column by the pivot rows with an entry there, so the clearing
    touches only those rows, not every pivot row.  A row reduced to one
    entry (most equations of a sparse kernel system) is the pivot {c: 1} as
    it is, and clearing c from its holders is one pop each.  Every entry is
    canonicalised on the way in, so any exact scalar of the field may be
    given.
    """
    red = field.canonical
    pivots: dict[int, dict] = {}
    holders: dict[int, set] = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {}
        for j, v in items:
            v = red(v)
            if v:
                row[j] = v
        if not _reduce(field, pivots, row):
            continue
        c = min(row)
        rest = ()
        if len(row) == 1:
            row[c] = 1
        else:
            inv = field.inv(row[c])
            row = {j: red(inv * v) for j, v in row.items()}
            rest = [(j, v) for j, v in row.items() if j != c]
        for h in holders.pop(c, ()):
            other = pivots[h]
            f = other.pop(c)
            for j, v in rest:
                x = red(other.get(j, 0) - f * v)
                if x:
                    if j not in other:
                        holders.setdefault(j, set()).add(h)
                    other[j] = x
                elif j in other:
                    del other[j]
                    holders[j].discard(h)
        for j, _ in rest:
            holders.setdefault(j, set()).add(c)
        pivots[c] = row
    return pivots


def rank(field: Field, rows) -> int:
    """Rank of a matrix given as an iterable of row sequences."""
    return len(_gauss_jordan(field, rows))


def rref(field: Field, rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = _gauss_jordan(field, rows)
    order = sorted(pivots)
    return [[pivots[c].get(j, 0) for j in range(ncols)] for c in order], order


def _kernel_basis(field: Field, pivots: dict, ncols: int) -> list:
    """One kernel vector per free column f: 1 at f, minus column f of the
    pivot rows at their pivot columns, 0 elsewhere."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for c, row in pivots.items():
            if f in row:
                vec[c] = field.canonical(-row[f])
        basis.append(tuple(vec))
    return basis


def nullspace(field: Field, rows, ncols: int):
    """Basis of the right kernel of the matrix, as tuples of raw values;
    rows may be sequences or {column: value} dicts, with the same basis."""
    return _kernel_basis(field, _gauss_jordan(field, rows), ncols)


#: no src module calls this alias; only perfbench/tracing.py's span list
#: and the tests name it (ROADMAP item 14)
sparse_nullspace = nullspace


def solver(field: Field, rows, ncols: int):
    """One elimination of a matrix A for any number of right-hand sides b.

    The rows are eliminated beside an identity block, which records the row
    operations.  Returns ``(kernel, inverse, checks)``: the kernel basis
    :func:`nullspace` gives; ``inverse``, {pivot column c: {row r: value}},
    so that x_c = sum_r value * b_r (0 at the free columns) solves A x = b
    whenever it is solvable; and ``checks``, the same kind of {row: value}
    combinations of the rows that vanish on A, so that A x = b is solvable
    exactly when every check sums to 0 against b.
    """
    pivots = _gauss_jordan(field, [
        {**(row if isinstance(row, dict) else dict(enumerate(row))), ncols + r: 1}
        for r, row in enumerate(rows)
    ])
    record = {c: {j - ncols: v for j, v in row.items() if j >= ncols} for c, row in pivots.items()}
    kernel = _kernel_basis(field, {c: row for c, row in pivots.items() if c < ncols}, ncols)
    inverse = {c: rec for c, rec in record.items() if c < ncols}
    return kernel, inverse, [rec for c, rec in record.items() if c >= ncols]
