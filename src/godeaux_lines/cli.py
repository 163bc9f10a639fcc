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
1 verification failure, 2 usage error (including a ``--count`` below 1,
an ``--out`` that cannot be opened, an ``--append`` file that is not a
store and a ``classify --out`` that is its ``--in``), 3 search budget
exhausted.  Usage errors come before anything is written.  ``--out`` is
opened before any work, and a file ``--out`` is replaced only on success.
``sample`` streams: stdout and ``sample --append`` get each record as it
is drawn, so an interrupted run keeps its finished records.

The field comes from ``--field`` (e.g. ``p31`` or ``q``) and defaults to
F_31; no environment variable changes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import closing

from .families import verify_hyp_param, verify_para_v2, verify_z3_kernel, verify_z3_line, verify_z5_family
from .fields import FieldError, field_from_spec
from .geometry import LineA
from .sampling import STRATEGIES, BudgetExhausted, SamplingError, sample_line
from .strata import (
    StrataError,
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

#: the one record error ``sample`` writes; ``classify`` passes only it through
_BUDGET_ERROR = "budget-exhausted"


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_output(path, work, append=False) -> int:
    """Run ``work(fh)`` on the opened destination; return its exit code.

    ``-`` or None is stdout, and ``append`` appends to ``path`` directly.
    Otherwise ``work`` writes a temp file beside ``path``, which replaces
    ``path`` only if ``work`` returns without a usage error; so a failed
    run leaves an existing ``path`` as it was.  The destination is opened
    before any work: one that cannot be opened costs nothing.
    """
    if path in (None, "-"):
        return work(sys.stdout)
    if os.path.isdir(path):
        return _usage_error(f"--out {path} is a directory")
    head, name = os.path.split(path)
    tmp = None if append else os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(path, "a") if append else open(tmp, "w")
    except OSError as e:
        return _usage_error(e)
    try:
        with fh:
            code = work(fh)
        if tmp and code != EXIT_USAGE:
            os.replace(tmp, path)
            tmp = None
    finally:
        if tmp:
            os.remove(tmp)
    return code


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
    if args.seed < 0:
        return _usage_error(f"--seed {args.seed} is below 0; it would repeat the draws of a seed above 0")
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
        if args.space is not None:
            kwargs["space"] = torsion_space(args.space)
        if args.spaces is not None:
            names = args.spaces.split(",")
            kwargs["spaces"] = tuple(torsion_space(n.strip()) for n in names)
        if args.general_position:
            kwargs["general_position"] = True
    except StrataError as e:
        return _usage_error(e)

    # appending to an existing store adds records only; an empty file gets
    # the header, and a file that is not a store is refused
    append = args.append and args.out != "-" and os.path.exists(args.out)
    header = not append
    if append:
        try:
            with open(args.out) as fh:
                header = not _read_header(fh)
        except (OSError, ValueError) as e:  # nothing is drawn
            return _usage_error(f"--append {args.out}: {e}")

    def draw(out) -> int:
        failures = 0
        for i in range(args.count):
            record_seed = _record_seed(args.seed, i)
            try:
                line = sample_line(
                    args.strategy, field, record_seed, budget=args.budget, **kwargs
                )
            except BudgetExhausted as e:
                failures += 1
                record = {
                    "error": _BUDGET_ERROR,
                    "slot": i,
                    "strategy": args.strategy,
                    "seed": record_seed,
                    "trials": e.trials,
                }
            except SamplingError as e:  # bad arguments: slot 0, before any write
                return _usage_error(e)
            else:
                report_json = classify_line(line).to_json()
                report_json.pop("line", None)  # the record carries the line once
                record = {"line": line.to_json(), "report": report_json}
            if header and i == 0:
                out.write(_dumps({"format": STORE_FORMAT}) + "\n")
            out.write(_dumps(record) + "\n")
            out.flush()
        if failures == args.count:
            return EXIT_BUDGET
        return EXIT_OK

    return _write_output(args.out, draw, append)


# ----------------------------------------------------------------------
# verify

_VERIFIERS = {
    "hyp-param": verify_hyp_param,
    "para-v2": verify_para_v2,
    "z5-family": verify_z5_family,
    "z3-param": verify_z3_line,
    "z3-kernel": verify_z3_kernel,
    "torsion-spaces": verify_torsion_spaces,
    "symmetries": verify_symmetries,
}


def cmd_verify(args) -> int:
    verifier = _VERIFIERS[args.theorem]  # argparse's choices refuse other names

    def run(out) -> int:
        t0 = time.perf_counter()
        cert = verifier()
        cert.seconds = time.perf_counter() - t0
        out.write(json.dumps(cert.to_json(), sort_keys=True, indent=2) + "\n")
        return EXIT_OK if cert.passed else EXIT_VERIFY_FAILED

    return _write_output(args.out, run)


# ----------------------------------------------------------------------
# classify


def _read_header(fh) -> bool:
    """Read a store's first line: False for an empty file, True for a
    format-1 header; anything else raises ValueError."""
    first = fh.readline()
    if not first:
        return False
    try:
        header = json.loads(first)
    except RecursionError:
        raise ValueError("store header is nested too deeply to read") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != STORE_FORMAT:
        raise ValueError(f"unsupported store format {fmt!r}")
    return True


def iter_store(path):
    """Yield (index, record-dict or None, raw-line) for each body line."""
    with open(path) as fh:
        if not _read_header(fh):
            return
        for i, raw in enumerate(fh):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except (ValueError, RecursionError):  # undecodable, too deep, or an int past the digit limit
                rec = None
            yield i, rec, raw


def cmd_classify(args) -> int:
    path = getattr(args, "in")
    if args.out not in (None, "-") and os.path.exists(args.out) and os.path.exists(path):
        if os.path.samefile(path, args.out):
            return _usage_error(f"--out {args.out} is the store --in reads")
    return _write_output(args.out, lambda out: _classify_store(path, out))


def _classify_store(path, out) -> int:
    """One report line per record of the store, written as it is read."""
    with closing(iter_store(path)) as records:
        while True:
            try:
                item = next(records, None)
            except (OSError, ValueError) as e:  # an unreadable store or header
                return _usage_error(e)
            if item is None:
                return EXIT_OK
            i, rec, _raw = item
            if not isinstance(rec, dict):
                out.write(_dumps({"slot": i, "error": "malformed-record"}) + "\n")
                continue
            if "error" in rec:
                error = _BUDGET_ERROR if rec["error"] == _BUDGET_ERROR else "malformed-record"
                out.write(_dumps({"slot": i, "error": error}) + "\n")
                continue
            try:
                line = LineA.from_json(rec["line"])
                report = classify_line(line)
            except Exception as e:  # one bad record never ends the run
                out.write(
                    _dumps({"slot": i, "error": f"{type(e).__name__}: {e}"}) + "\n"
                )
                continue
            payload = report.to_json()
            payload["slot"] = i
            out.write(_dumps(payload) + "\n")


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
