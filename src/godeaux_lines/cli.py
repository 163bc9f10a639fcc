"""Command-line front end: sample lines, verify families, classify stores.

Subcommands
-----------

``sample``    draw seeded lines with a chosen strategy into a line store
``verify``    run one of the built-in certificates, print it as JSON
``classify``  stream a fiber report per record of a line store

A line store is JSON-lines: a header ``{"format": 1}`` followed by one
record per line, each ``{"line": {...}, "report": {...}}`` dumped with
sorted keys and no whitespace, so identical seeded runs are byte-identical
and stores can be diffed and archived.  Exit codes: 0 success,
1 verification failure, 2 usage error (including a ``--count`` below 1 and
an ``--out`` that cannot be opened), 3 search budget exhausted.

The field comes from ``--field`` (e.g. ``p31`` or ``q``) and defaults to
F_31; no environment variable changes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .families import verify_hyp_param, verify_para_v2, verify_z3_kernel, verify_z3_line, verify_z5_family, z5_component_counts
from .fields import FieldError, field_from_spec
from .geometry import GeometryError, LineA, line_in_q
from .sampling import STRATEGIES, BudgetExhausted, SamplingError, sample_line
from .strata import (
    StrataError,
    TORSION_SPACES,
    classify_line,
    torsion_space,
    verify_symmetries,
    verify_torsion_spaces,
)

STORE_FORMAT = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# ----------------------------------------------------------------------
# sample


#: slot i of ``sample --seed S`` draws with seed S * SEED_STRIDE + i, so a
#: count above the stride would reuse the seeds of ``--seed S+1``
SEED_STRIDE = 1_000_003


def _record_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def cmd_sample(args) -> int:
    if args.count < 1:
        return _usage_error(f"--count {args.count} is below 1; nothing to draw")
    if args.count > SEED_STRIDE:
        return _usage_error(
            f"--count {args.count} exceeds {SEED_STRIDE}; later records "
            "would repeat the seeds of the next --seed"
        )
    try:
        field = field_from_spec(args.field)
    except FieldError as e:
        return _usage_error(e)
    kwargs = {}
    try:
        if args.space:
            kwargs["space"] = torsion_space(args.space)
        if args.spaces:
            names = args.spaces.split(",")
            kwargs["spaces"] = tuple(torsion_space(n.strip()) for n in names)
        if args.general_position:
            kwargs["general_position"] = True
    except StrataError as e:
        return _usage_error(e)

    lines_out = []
    failures = 0
    for i in range(args.count):
        record_seed = _record_seed(args.seed, i)
        try:
            line = sample_line(
                args.strategy, field, record_seed, budget=args.budget, **kwargs
            )
        except BudgetExhausted as e:
            failures += 1
            lines_out.append(
                {
                    "error": "budget-exhausted",
                    "slot": i,
                    "strategy": args.strategy,
                    "seed": record_seed,
                    "trials": e.trials,
                }
            )
            continue
        except (SamplingError, GeometryError) as e:
            return _usage_error(e)
        if not line_in_q(line):  # re-checked on write
            raise RuntimeError("sampler returned a line outside Q")
        report_json = classify_line(line).to_json()
        report_json.pop("line", None)  # the record carries the line once
        lines_out.append({"line": line.to_json(), "report": report_json})

    header = _dumps({"format": STORE_FORMAT})
    body = "".join(_dumps(rec) + "\n" for rec in lines_out)
    payload = header + "\n" + body
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        mode = "a" if args.append and os.path.exists(args.out) else "w"
        try:
            with open(args.out, mode) as fh:
                fh.write(body if mode == "a" else payload)
        except OSError as e:
            return _usage_error(e)
    if failures == args.count:
        return EXIT_BUDGET
    return EXIT_OK


# ----------------------------------------------------------------------
# verify

_VERIFIERS = {
    "hyp-param": lambda: verify_hyp_param(),
    "para-v2": lambda: verify_para_v2(),
    "z5-family": lambda: _z5_with_census(),
    "z3-param": lambda: verify_z3_line(),
    "z3-kernel": lambda: verify_z3_kernel(),
    "torsion-spaces": lambda: verify_torsion_spaces(),
    "symmetries": lambda: verify_symmetries(),
}


def _z5_with_census():
    cert = verify_z5_family()
    for a in range(3):
        for b in range(a + 1, 3):
            census = z5_component_counts(TORSION_SPACES[a], TORSION_SPACES[b])
            cert.add(
                f"component-counts-{census.pair[0]}-{census.pair[1]}",
                census.counts == {"P1xP1": 6, "P0xP2": 4, "P2xP0": 4},
                _dumps(census.counts),
            )
            if (a, b) == (0, 1):
                cert.add(
                    "example-family-among-P1xP1",
                    any(c.is_example_family for c in census.components),
                )
            cert.data.setdefault("counts", {})[f"{census.pair[0]},{census.pair[1]}"] = census.counts
    return cert


def cmd_verify(args) -> int:
    verifier = _VERIFIERS.get(args.theorem)
    if verifier is None:
        return _usage_error(
            f"unknown theorem {args.theorem!r}; choose from "
            + ", ".join(sorted(_VERIFIERS))
        )
    t0 = time.perf_counter()
    cert = verifier()
    cert.seconds = time.perf_counter() - t0
    text = json.dumps(cert.to_json(), sort_keys=True, indent=2)
    if args.out and args.out != "-":
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            return _usage_error(e)
    else:
        print(text)
    return EXIT_OK if cert.passed else EXIT_VERIFY_FAILED


# ----------------------------------------------------------------------
# classify


def iter_store(path):
    """Yield (index, record-dict or None, raw-line) for each body line."""
    with open(path) as fh:
        first = fh.readline()
        if not first:
            return
        header = json.loads(first)
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != STORE_FORMAT:
            raise ValueError(f"unsupported store format {fmt!r}")
        for i, raw in enumerate(fh):
            raw = raw.strip()
            if not raw:
                continue
            try:
                yield i, json.loads(raw), raw
            except json.JSONDecodeError:
                yield i, None, raw


def cmd_classify(args) -> int:
    try:
        out = sys.stdout if args.out in (None, "-") else open(args.out, "w")
    except OSError as e:
        return _usage_error(e)
    try:
        try:
            records = list(iter_store(getattr(args, "in")))
        except (OSError, ValueError) as e:
            return _usage_error(e)
        for i, rec, _raw in records:
            if not isinstance(rec, dict):
                out.write(_dumps({"slot": i, "error": "malformed-record"}) + "\n")
                continue
            if "error" in rec:
                out.write(_dumps({"slot": i, "error": rec["error"]}) + "\n")
                continue
            try:
                line = LineA.from_json(rec["line"])
                report = classify_line(line)
            except (KeyError, GeometryError, StrataError, FieldError) as e:
                out.write(
                    _dumps({"slot": i, "error": f"{type(e).__name__}: {e}"}) + "\n"
                )
                continue
            payload = report.to_json()
            payload["slot"] = i
            out.write(_dumps(payload) + "\n")
        return EXIT_OK
    finally:
        if out is not sys.stdout:
            out.close()


# ----------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godeaux-lines",
        description="construct, verify and classify lines on the Pfaffian quadric complete intersection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="sample lines into a store")
    ps.add_argument("--strategy", default="generic", choices=STRATEGIES)
    ps.add_argument("--field", default="p31", help="p<modulus> or q")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--count", type=int, default=1,
                    help=f"records to draw, from 1 to {SEED_STRIDE}")
    ps.add_argument("--out", default="-", help="store file path, or - for stdout")
    ps.add_argument("--append", action="store_true", help="append to an existing store")
    ps.add_argument("--budget", type=int, default=10_000_000,
                    help="trial budget per record")
    ps.add_argument("--space", default=None,
                    help="torsion space for --strategy torsion (e.g. T01-23)")
    ps.add_argument("--spaces", default=None,
                    help="comma-separated pair for --strategy two-torsion "
                         "(e.g. T01-23,T02-13)")
    ps.add_argument("--general-position", action="store_true",
                    help="force two-hyp lines to be general family members (slower)")
    ps.set_defaults(func=cmd_sample)

    pv = sub.add_parser("verify", help="run a built-in certificate")
    pv.add_argument("theorem", choices=sorted(_VERIFIERS))
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("classify", help="classify every record of a store")
    pc.add_argument("--in", required=True, help="line store file")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
