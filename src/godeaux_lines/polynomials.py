"""Sparse multivariate polynomials over an exact field.

Polynomials are immutable: a :class:`VarTable` (ordered variable names plus
an optional multigrading), a field, and a term dict mapping exponent tuples
to nonzero canonical coefficients.  The constructor canonicalises what it
is given, so the ring operations hand it plain sums and products.
Supported operations: ring arithmetic, substitution/composition (fully
expanded), multihomogeneity checks against the grading, and a
bounded-degree right kernel for matrices of polynomials.

Term output order is graded lexicographic on the variable order, so the
text form of a polynomial is deterministic and usable in certificates.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections import defaultdict
from itertools import product
from operator import add, mul
from typing import Optional, Sequence

from .fields import Field, FieldError
from .linalg import nullspace


class PolynomialError(ValueError):
    pass


class VarTable:
    """Ordered variable names with an optional multigrading.

    The grading maps each variable to an integer vector; when present it
    must cover every variable and all vectors must have equal length.
    """

    __slots__ = ("names", "grading", "_index")

    def __init__(self, names: Sequence[str], grading: Optional[dict] = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolynomialError("variable names must be distinct")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        if grading is not None:
            missing = [n for n in names if n not in grading]
            if missing:
                raise PolynomialError(f"grading misses variables {missing}")
            vecs = [tuple(grading[n]) for n in names]
            if len({len(v) for v in vecs}) != 1:
                raise PolynomialError("grading vectors must share one length")
            grading = tuple(vecs)
        self.grading = grading

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def multidegree(self, exponents) -> tuple:
        """Multidegree of a monomial under the grading: its dot product with each grade's column."""
        if self.grading is None:
            raise PolynomialError("no grading on this VarTable")
        return tuple(sum(map(mul, exponents, column)) for column in zip(*self.grading))

    def __eq__(self, other):
        return (
            isinstance(other, VarTable)
            and other.names == self.names
            and other.grading == self.grading
        )

    def __hash__(self):
        return hash((self.names, self.grading))

    def __repr__(self):
        return f"VarTable{self.names}"


def _grlex_key(expts):
    return (-sum(expts), tuple(-e for e in expts))


def _format_terms(field: Field, terms) -> str:
    """The text of a sum of terms, "0" for none.

    ``terms`` gives ordered (coefficient, powers) pairs: a nonzero
    coefficient and (name, exponent) pairs, of which exponent 0 is left out.
    """
    parts = []
    for c, powers in terms:
        mono = "*".join(name if k == 1 else f"{name}^{k}" for name, k in powers if k)
        cs = field.format_scalar(c)
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            parts.append(cs + "*" + mono)
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


class Poly:
    """A sparse multivariate polynomial over a field; immutable."""

    __slots__ = ("vars", "field", "terms")

    def __init__(self, vars: VarTable, field: Field, terms: dict):
        """``terms`` maps exponent tuples to exact scalars of the field; they
        are canonicalised here and the zero ones dropped."""
        red = field.canonical
        self.vars = vars
        self.field = field
        kept = self.terms = {}
        for e, c in terms.items():
            c = red(c)
            if c:
                kept[e] = c

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, vars: VarTable, field: Field) -> "Poly":
        return cls(vars, field, {})

    @classmethod
    def constant(cls, vars: VarTable, field: Field, c) -> "Poly":
        return cls(vars, field, {(0,) * vars.nvars: c})

    @classmethod
    def variable(cls, vars: VarTable, field: Field, name: str) -> "Poly":
        e = [0] * vars.nvars
        e[vars.index(name)] = 1
        return cls(vars, field, {tuple(e): 1})

    @classmethod
    def monomial(cls, vars: VarTable, field: Field, exponents, coeff=1) -> "Poly":
        return cls(vars, field, {tuple(exponents): coeff})

    def _check(self, other: "Poly"):
        if other.vars is self.vars and other.field is self.field:
            return
        if other.vars != self.vars:
            raise PolynomialError("polynomials over different VarTables")
        if other.field != self.field:
            raise FieldError("polynomials over different fields")

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.vars, self.field, other)
        self._check(other)
        if not (self.terms and other.terms):  # Poly is immutable: share the operand
            return self if self.terms else other
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.vars, self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.vars, self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        if not (self.terms and other.terms):  # share the zero operand
            return other if self.terms else self
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.vars, self.field, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = self.field.canonical(c)
        return Poly(self.vars, self.field, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise PolynomialError("negative power of a polynomial")
        out = Poly.constant(self.vars, self.field, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            try:
                c = self.field.canonical(other)
            except FieldError:  # not a scalar of this field
                return False
            # only a canonical scalar is equal, so that equal values hash alike
            return c == other and self == Poly.constant(self.vars, self.field, c)
        return (
            other.vars == self.vars
            and other.field == self.field
            and other.terms == self.terms
        )

    def __hash__(self):
        if self.total_degree() <= 0:  # hashes as the scalar it equals
            return hash(self.terms.get((0,) * self.vars.nvars, 0))
        return hash((self.vars, self.field, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # substitution

    def compose(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute one image polynomial per variable; fully expanded."""
        if len(images) != self.vars.nvars:
            raise PolynomialError(
                f"expected {self.vars.nvars} images, got {len(images)}"
            )
        target = images[0].vars
        field = images[0].field
        for g in images:
            if g.vars != target or g.field != field:
                raise PolynomialError("images must share a VarTable and field")
        out = Poly.zero(target, field)
        pw_cache: dict = {}
        for e, c in self.terms.items():
            term = Poly.constant(target, field, c)
            for i, k in enumerate(e):
                if k:
                    pw = pw_cache.get((i, k))
                    if pw is None:
                        pw = images[i] ** k
                        pw_cache[(i, k)] = pw
                    term = term * pw
            out = out + term
        return out

    # ------------------------------------------------------------------
    # grading

    def is_multihomogeneous(self):
        """(True, multidegree) if all terms share one multidegree.

        On failure returns (False, (term1, term2)) with the first offending
        pair in graded-lex order.
        """
        if self.vars.grading is None:
            raise PolynomialError("VarTable has no grading")
        degrees = set(map(self.vars.multidegree, self.terms))
        if len(degrees) < 2:
            return True, next(iter(degrees), None)
        first, *rest = sorted(self.terms, key=_grlex_key)  # only a failure is sorted
        deg = self.vars.multidegree(first)
        return False, (first, next(e for e in rest if self.vars.multidegree(e) != deg))

    # ------------------------------------------------------------------
    # text form

    def __str__(self):
        return _format_terms(self.field, (
            (self.terms[e], zip(self.vars.names, e)) for e in sorted(self.terms, key=_grlex_key)
        ))

    def __repr__(self):
        return f"Poly({self})"


class PolyMatrix:
    """A rectangular matrix of polynomials over one VarTable and field."""

    __slots__ = ("vars", "field", "entries", "nrows", "ncols")

    def __init__(self, vars: VarTable, field: Field, entries):
        self.vars = vars
        self.field = field
        self.entries = [list(row) for row in entries]
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.ncols:
                raise PolynomialError("ragged matrix")
            for p in row:
                if p.vars != vars or p.field != field:
                    raise PolynomialError("entries must share VarTable and field")

    def apply(self, vec: Sequence[Poly]) -> list:
        """Matrix times a vector of polynomials."""
        if len(vec) != self.ncols:
            raise PolynomialError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = Poly.zero(self.vars, self.field)
            for p, v in zip(row, vec):
                if p.terms and v.terms:
                    acc = acc + p * v
            out.append(acc)
        return out

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols} over {self.vars.names})"


@functools.lru_cache(maxsize=64)
def monomials_up_to(vt: VarTable, bound) -> tuple:
    """All exponent tuples with (multi)degree <= bound, in graded-lex order.

    ``bound`` is an int (total degree) for ungraded tables, or a multidegree
    tuple compared componentwise under the grading.  Each table is built
    once per (VarTable, bound) and shared.
    """
    if isinstance(bound, int):
        grading, bound = ((1,),) * vt.nvars, (bound,)  # every variable of degree 1
    elif vt.grading is None:
        raise PolynomialError("multidegree bound needs a graded VarTable")
    else:
        grading, bound = vt.grading, tuple(bound)
    # the bound caps each exponent alone; the degree of the sum is checked after
    caps = [min((b // g for g, b in zip(gv, bound) if g > 0), default=0) for gv in grading]
    monos = (e for e in product(*(range(c + 1) for c in caps))
             if all(sum(k * gv[i] for k, gv in zip(e, grading)) <= b for i, b in enumerate(bound)))
    return tuple(sorted(monos, key=_grlex_key))


def bounded_degree_kernel(M: PolyMatrix, bound):
    """Field basis of {v : M v = 0, entries of (multi)degree <= bound}.

    Enumerates candidate monomials per slot, assembles one exact sparse
    linear system on the coefficients, and solves its equations of more than
    one entry over the field.  Its column order (slot-major, monomials in
    :func:`monomials_up_to` order) fixes the RREF, so the basis and its order;
    the equations, keyed by row and by the product's packed exponents, come
    in any order.  The returned vectors (lists of Poly) are linearly
    independent over the field; module-theoretic minimality of generators is
    not computed here.
    """
    vt, F = M.vars, M.field
    monos = monomials_up_to(vt, bound if isinstance(bound, int) else tuple(bound))
    nmono = len(monos)
    # a sum of two exponents fits in `width` bits, so packed exponents add
    exponents = [k for e in [*monos, *(e for row in M.entries for p in row for e in p.terms)] for k in e]
    width = max(exponents, default=0).bit_length() + 1
    pack = lambda e: sum(k << i * width for i, k in enumerate(e))
    mono_keys = list(map(pack, monos))
    equations = defaultdict(dict)
    for r, row in enumerate(M.entries):
        for slot, p in enumerate(row):
            for e_c, coeff in p.terms.items():
                base = r << vt.nvars * width | pack(e_c)
                # (equation, column) names one term and monomial: each entry is set once
                for key, col in zip(mono_keys, range(slot * nmono, (slot + 1) * nmono)):
                    equations[base + key][col] = coeff
    # an equation of one entry says its unknown is 0: the RREF is those unit pivots beside the
    # RREF of the other equations without them, which alone are solved, over the unknowns left
    # renumbered in order (slot k's are kept[cut[k]:cut[k + 1]]); the others read 0
    zero = {c for eq in equations.values() if len(eq) == 1 for c in eq}
    kept = [c for c in range(nmono * M.ncols) if c not in zero]
    renumber = {c: i for i, c in enumerate(kept)}
    rows = [{renumber[c]: v for c, v in eq.items() if c not in zero}
            for eq in equations.values() if len(eq) > 1]
    cut = [bisect_left(kept, k * nmono) for k in range(M.ncols + 1)]
    # the zeros are dropped first, so Poly canonicalises only the few nonzero values
    return [[Poly(vt, F, {monos[c % nmono]: v for c, v in zip(kept[i:j], vec[i:j]) if v})
             for i, j in zip(cut, cut[1:])] for vec in nullspace(F, rows, len(kept))]
