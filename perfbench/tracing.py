"""Spans and counts around the library's public functions, from outside.

:class:`Tracer` replaces chosen functions and methods of the
``godeaux_lines`` modules with wrappers while it is installed and puts the
originals back on removal; no source file changes.  A *spanned* target
records one span (name, start, end, parent) per call; a *counted* target
only bumps a counter, for calls too frequent to span (field arithmetic,
polynomial products).  Spans live in flat arrays in memory and are written
out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

PACKAGE = "godeaux_lines"

# (metric prefix, module, attribute path) of every spanned target
SPANNED = (
    ("sampling.random_q_point", "sampling", "random_q_point"),
    ("sampling.tangent_cone_partner", "sampling", "tangent_cone_partner"),
    ("sampling.sample_line", "sampling", "sample_line"),
    ("strata.classify_line", "strata", "classify_line"),
    ("strata.hyperelliptic_points", "strata", "hyperelliptic_points"),
    ("strata.quartic_minors", "strata", "quartic_minors"),
    ("strata.torsion_intersections", "strata", "torsion_intersections"),
    ("strata.row_vanishing_points", "strata", "row_vanishing_points"),
    ("strata.FiberReport.to_json", "strata", "FiberReport.to_json"),
    ("strata.quadric_symmetries", "strata", "quadric_symmetries"),
    ("pencil.binary_gcd", "pencil", "binary_gcd"),
    ("pencil.binary_roots", "pencil", "binary_roots"),
    ("pencil.degeneration_profile", "pencil", "degeneration_profile"),
    ("pencil.graded_kernel_basis", "pencil", "graded_kernel_basis"),
    ("geometry.line_in_q", "geometry", "line_in_q"),
    ("geometry.tangent_space", "geometry", "tangent_space"),
    ("geometry.LineA.from_json", "geometry", "LineA.from_json"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.sparse_nullspace", "linalg", "sparse_nullspace"),
    ("polynomials.Poly.compose", "polynomials", "Poly.compose"),
    ("polynomials.bounded_degree_kernel", "polynomials", "bounded_degree_kernel"),
    ("families.z5_component_counts", "families", "z5_component_counts"),
    ("families.sample_component_line", "families", "sample_component_line"),
    ("families.hyp_components", "families", "hyp_components"),
    ("cli.iter_store", "cli", "iter_store"),
)

# counter name -> targets it sums over
COUNTED = {
    "strata.rank_a": (("strata", "rank_a"),),
    "polynomials.Poly.mul": (("polynomials", "Poly.__mul__"), ("polynomials", "Poly.__rmul__")),
    "fields.ops": tuple(
        ("fields", f"{cls}.{meth}")
        for cls, meths in (
            ("Field", ("div",)),
            ("PrimeField", ("add", "sub", "mul", "neg", "inv")),
            ("RationalField", ("add", "sub", "mul", "neg", "inv")),
        )
        for meth in meths
    ),
}

OP_SPAN = "op"


def _resolve(module: str, path: str):
    """(owner, attribute, raw object as stored on the owner)."""
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    """In-memory spans and counters; install() / remove() the wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict = {name: 0 for name in COUNTED}
        self._stack: list = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(self.clock())
        return sid

    def end(self, sid: int) -> None:
        self.span_end[sid] = self.clock()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        sid = self.begin(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def _spanned(self, name: str, fn):
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # one span per step, so a lazy reader is charged as it is read
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        sid = begin(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            end(sid)
                        yield item
                finally:
                    gen.close()
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(sid)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        owner, attr, raw = _resolve(module, path)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        if isinstance(owner, type):
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # a module function: rebind it wherever the package imported it
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, path in SPANNED:
            self._patch(module, path, lambda fn, name=name: self._spanned(name, fn))
        for name, targets in COUNTED.items():
            for module, path in targets:
                self._patch(module, path, lambda fn, name=name: self._counted(name, fn))

    def remove(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results ---------------------------------------------------------

    def self_times(self) -> list:
        return self_times(self.span_parent, self.span_start, self.span_end)

    def write(self, path: str) -> None:
        """Gzipped JSON: names, spans (microseconds from the first start), counts."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        us = lambda ts: [round((t - t0) * 1e6) for t in ts]
        data = {
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start_us": us(self.span_start),
                "end_us": us(self.span_end),
            },
            "counts": self.counts,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


def self_times(parent, start, end) -> list:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other and stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the covered prefix, per parent
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]
