"""Layered benchmark of the godeaux-lines sample / classify / verify pipeline.

Usage, from the root of a source checkout (stdlib only, one process, no
threads; the package is imported from ``src/`` of that checkout)::

    python3 perfbench/run.py --workload sample-p31 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Workloads are closed loops: op ``i + 1`` starts when op ``i`` has returned.
A run builds the workload's inputs from ``--seed``, runs a warm-up pass and
the CLI on the same inputs (their bytes must match the per-op path), then
times whole passes with tracing off for about ``--seconds`` (at least
MIN_OPS ops) and checks every output.  The end-to-end times are reported
at the nominal speed of the reference kernel in :mod:`reference`, which
runs between and inside the timed ops: a shared host changes its speed by
up to half from one second to the next, and the scaling takes that change
out of the figures.  The unscaled figures go to the result file beside
them.  ``--trace 1`` adds one traced pass over the workload's ops, with
wrappers from :mod:`tracing`, and reports the per-layer metrics instead of
the end-to-end ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result, with
run metadata, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference
from tracing import OP_SPAN, SPANNED, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_OPS = 100          # so that at least 10 ops lie beyond the reported p90
MIN_BEYOND = 10
# op_ms_p90 averages the latencies ranked within 3 percentiles of the 90th.
# The latency distributions are lumpy (a few costly records, or one to three
# root scans per line), and a single rank can fall on either side of a gap
# from seed to seed: on sample-p31, over three sets of ten seeds on a 2-vCPU
# x86-64 VM, the nearest-rank p90 spread by up to 12% (IQR/median), the
# window by under 8%.
P90_HALFWIDTH = 3
SETUP_REPEATS = 7
SETUP_SPEED_SAMPLES = 3  # reference kernel runs at the start and end of a set-up

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STRATEGY_NAMES = ("generic", "torsion", "two-torsion", "hyp", "two-hyp")
# every spanned function reports its self time
SELF_MS = tuple(name for name, _, _ in SPANNED)
CALLS = (
    "sampling.random_q_point", "sampling.tangent_cone_partner",
    "strata.classify_line", "strata.rank_a",
    "pencil.binary_roots", "geometry.line_in_q", "linalg.rank",
    "polynomials.Poly.mul", "families.z5_component_counts",
)
PER_LAYER = {
    **{f"{n}.calls_per_op": "count" for n in CALLS},
    **{f"{n}.self_ms_per_op": "ms" for n in SELF_MS},
    **{f"sampling.trials_per_line.{s}": "count" for s in STRATEGY_NAMES},
    **{f"sampling.ms_per_line.{s}": "ms" for s in STRATEGY_NAMES},
    "sampling.accept_ratio": "ratio",
    "fields.ops_per_op": "count",
    "pencil.binary_roots.p2_31_fail_share": "ratio",
    "fail_share": "ratio",
    "trace.overhead_share": "ratio",
}


# ----------------------------------------------------------------------
# statistics


def percentile(values, q: float, min_beyond: int = MIN_BEYOND,
               halfwidth: float = 0.0) -> float:
    """q-th percentile: the mean of the values whose nearest ranks lie
    within q +- halfwidth percentiles (the nearest-rank value itself when
    halfwidth is 0); refused unless min_beyond values lie above rank q."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"{n} samples leave {n - rank} beyond the p{q:g}; need {min_beyond}"
        )
    lo = max(1, math.ceil((q - halfwidth) / 100 * n))
    hi = min(n, math.ceil((q + halfwidth) / 100 * n))
    return statistics.fmean(ordered[lo - 1:hi])


# ----------------------------------------------------------------------
# environment


def import_package():
    """Import godeaux_lines from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "godeaux_lines", "__init__.py")):
        print(f"error: no godeaux_lines package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import godeaux_lines

    if not os.path.abspath(godeaux_lines.__file__).startswith(SRC + os.sep):
        print("error: godeaux_lines was imported from outside src/", file=sys.stderr)
        sys.exit(2)
    return godeaux_lines


def commit_id() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(git, ref)
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    return fh.read().strip()
            with open(os.path.join(git, "packed-refs")) as fh:
                for row in fh:
                    if row.strip().endswith(" " + ref):
                        return row.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int) -> list:
    """(seconds, kernel seconds) of fresh interpreters that import the package
    and build inputs.  Each runs the reference kernel at its start and end,
    on the CPU it runs on, and reports the samples; their time is left out
    of its seconds."""
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )  # no timeout: Popen.wait with one polls in 50 ms steps
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run exited with {proc.returncode}")
        samples = json.loads(proc.stdout.splitlines()[-1])
        runs.append((dt - sum(samples), statistics.median(samples)))
    return runs


# ----------------------------------------------------------------------
# phases


def run_ops(op, indices, on_error, sampler=None):
    """Run op(i) for the given indices in order, each after a sample of the
    `sampler` if one is given; {index: (start, end, output or None)}."""
    done = {}
    for i in indices:
        if sampler is not None:
            sampler.take()
        t0 = time.perf_counter()
        try:
            out = op(i)
        except Exception as e:  # a failed op is recorded, the run goes on
            out = None
            on_error(i, e)
        done[i] = (t0, time.perf_counter(), out)
    return done


def measured(spans: dict, sampler) -> tuple:
    """{i: (seconds, output)} and {i: (seconds at nominal speed, output)} of
    the ops' spans; an op's seconds leave out the samples taken in it."""
    timed = {i: (sampler.unsampled(t0, t1), out) for i, (t0, t1, out) in spans.items()}
    scaled = {i: (sampler.scaled(t0, t1), out) for i, (t0, t1, out) in spans.items()}
    return timed, scaled


def timed_phase(work, seconds: float, min_ops: int, on_error):
    """Closed loop over whole passes for about `seconds`, at least `min_ops` ops.

    Whole passes keep every run's mix of records equal, so runs differ in
    order only and not in how much of a pass they happened to reach.  A
    further pass starts only if, at the mean pass time so far, it would end
    within `seconds` (or `min_ops` are not done yet).  A reference
    :class:`reference.Sampler` runs throughout, between and inside the ops.
    Returns the two dicts of :func:`measured`, the phase's wall time and
    the median kernel time.
    """
    spans = {}
    sampler = reference.Sampler()
    t_start = time.perf_counter()
    with sampler:
        passes = 0
        while True:
            start = len(spans)
            spans.update(run_ops(work.op, range(start, start + work.pass_ops),
                                 on_error, sampler))
            passes += 1
            elapsed = time.perf_counter() - t_start
            if len(spans) >= min_ops and elapsed * (passes + 1) / passes > seconds:
                break
        sampler.take()
    return (*measured(spans, sampler), elapsed, statistics.median(sampler.seconds))


def latency_metrics(timed: dict) -> dict:
    """ops_per_s, op_ms_p50 and op_ms_p90 of {i: (seconds, output or None)}.

    Throughput is successful ops over the summed op time; a failed op
    counts as exceeding every latency limit.
    """
    ok = sum(out is not None for _, out in timed.values())
    latencies_ms = [dt * 1000.0 if out is not None else math.inf
                    for dt, out in timed.values()]
    return {
        "ops_per_s": ok / sum(dt for dt, _ in timed.values()),
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_p90": percentile(latencies_ms, 90, halfwidth=P90_HALFWIDTH),
    }


def traced_phase(work, on_error):
    """One pass with the tracing wrappers installed, each op in its own root span.

    The reference kernel runs between the ops only, so that no sample
    lands inside a span.  Returns the two dicts of :func:`measured` and the
    tracer.
    """
    tracer = Tracer()
    sampler = reference.Sampler()
    tracer.install()
    try:
        spans = run_ops(lambda i: tracer.span(OP_SPAN, work.op, i),
                        range(work.pass_ops), on_error, sampler)
        sampler.take()
    finally:
        tracer.remove()
        work.close()
    return (*measured(spans, sampler), tracer)


def layer_metrics(work, tracer, traced, timed) -> dict:
    """Per-layer numbers from the traced pass (and per-strategy timings);
    `traced` and `timed` hold {i: (seconds at nominal speed, output)}."""
    n_ops = len(traced)
    names = tracer.names
    self_s = tracer.self_times()
    totals = {name: 0.0 for name in names}
    calls = {name: 0 for name in names}
    for nid, s in zip(tracer.span_name, self_s):
        totals[names[nid]] += s
        calls[names[nid]] += 1
    calls.update(tracer.counts)

    metrics = {name: 0.0 for name in PER_LAYER}
    for n in SELF_MS:
        metrics[f"{n}.self_ms_per_op"] = 1000.0 * totals.get(n, 0.0) / n_ops
    for n in CALLS:
        metrics[f"{n}.calls_per_op"] = calls.get(n, 0) / n_ops
    metrics["fields.ops_per_op"] = calls["fields.ops"] / n_ops

    # classify_line calls made inside sample_line, against lines it returned
    sample_id = tracer.ids.get("sampling.sample_line")
    classify_id = tracer.ids.get("strata.classify_line")
    if sample_id is not None and classify_id is not None:
        inside = 0
        for sid, nid in enumerate(tracer.span_name):
            if nid != classify_id:
                continue
            p = tracer.span_parent[sid]
            while p >= 0 and tracer.span_name[p] != sample_id:
                p = tracer.span_parent[p]
            inside += p >= 0
        returned = sum(1 for _, out in traced.values() if out is not None)
        metrics["sampling.accept_ratio"] = returned / inside if inside else 0.0

    if work.name == "sample-p31":
        for strategy in STRATEGY_NAMES:
            trials = [json.loads(out)["line"]["provenance"]["trials"]
                      for i, (_, out) in traced.items()
                      if work.record(i)[0] == strategy and out is not None]
            ms = [dt * 1000.0 for i, (dt, out) in timed.items()
                  if work.record(i)[0] == strategy and out is not None]
            metrics[f"sampling.trials_per_line.{strategy}"] = (
                sum(trials) / len(trials) if trials else 0.0)
            metrics[f"sampling.ms_per_line.{strategy}"] = (
                sum(ms) / len(ms) if ms else 0.0)

    # each traced op against the median untraced time of its record
    untraced = {}
    for i, (dt, _) in timed.items():
        untraced.setdefault(i % work.pass_ops, []).append(dt)
    untraced_s = sum(statistics.median(untraced[i % work.pass_ops]) for i in traced)
    traced_s = sum(dt for dt, _ in traced.values())
    metrics["trace.overhead_share"] = 1.0 - untraced_s / traced_s
    return metrics


# ----------------------------------------------------------------------
# one run


def run(args) -> int:
    if args.setup_only:
        samples = [reference.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    import_package()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    work = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_only:
        samples += [reference.sample() for _ in range(SETUP_SPEED_SAMPLES)]
        print(json.dumps(samples))  # for measure_setup
        return 0

    failures: dict = {}
    problems: list = []

    def on_error(i, e):
        key = f"{type(e).__name__}"
        failures[key] = failures.get(key, 0) + 1
        if len(problems) < 20:
            problems.append(f"op {i}: {type(e).__name__}: {e}")

    setup = measure_setup(args.workload, args.seed) if not args.trace else []

    # warm-up pass (fills lazy caches) doubling as determinism pass 1, then the CLI
    warm = run_ops(work.op, work.warm_indices, on_error)
    work.close()
    digest_text = ""
    parity_outputs = {i: out for i, (_, _, out) in warm.items()}
    try:
        if None not in parity_outputs.values():
            digest_text = work.cli_parity(OUT_DIR, parity_outputs)
    except workloads.CheckFailed as e:
        problems.append(f"cli parity: {e}")

    timed, scaled, wall, kernel_s = timed_phase(work, args.seconds, MIN_OPS, on_error)
    work.close()

    # every timed output is checked; a check failure is a failed op
    for i, (_, out) in sorted(timed.items()):
        if out is None:
            continue
        try:
            work.check(i, out)
        except (workloads.CheckFailed, KeyError, ValueError) as e:
            key = f"check:{type(e).__name__}"
            failures[key] = failures.get(key, 0) + 1
            if len(problems) < 20:
                problems.append(f"op {i}: {e}")
            timed[i] = (timed[i][0], None)
            scaled[i] = (scaled[i][0], None)
    for i in work.warm_indices:
        if timed[i][1] != warm[i][2]:
            problems.append(f"op {i}: output differs between two passes")

    attempted = len(timed)
    failed = sum(out is None for _, out in timed.values())
    e2e = latency_metrics(scaled)
    e2e["peak_rss_mb"] = peak_rss_mb()
    if setup:
        e2e["setup_s"] = statistics.median(
            reference.scale(dt, ref_s) for dt, ref_s in setup)
    # the same figures in unscaled wall time, for the result file only
    wall_e2e = latency_metrics(timed)
    wall_e2e["ops_per_s_phase"] = (attempted - failed) / wall
    if setup:
        wall_e2e["setup_s"] = statistics.median(dt for dt, _ in setup)

    probe = None
    if work.name == "classify-mixed":
        try:
            probe = work.run_probe()
        except workloads.CheckFailed as e:
            problems.append(f"probe: {e}")

    layers = None
    trace_path = None
    if args.trace:
        _, traced, tracer = traced_phase(work, on_error)
        for i, (_, out) in traced.items():
            if out != timed[i][1]:
                problems.append(f"op {i}: traced output differs from untraced")
        layers = layer_metrics(work, tracer, traced, scaled)
        layers["fail_share"] = failed / attempted
        if probe is not None:
            layers["pencil.binary_roots.p2_31_fail_share"] = (
                probe["failed"] / probe["attempted"])
        trace_path = os.path.join(OUT_DIR, f"trace-{work.name}-seed{args.seed}.json.gz")
        tracer.write(trace_path)

    correct = not problems and failed == 0
    if args.trace:
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END[k]} for k in END_TO_END}

    result = {
        "workload": work.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rationale": workloads.RATIONALE[work.name],
        "commit": commit_id(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures_by_type": failures,
        "problems": problems,
        "output_sha256": digest_text and hashlib.sha256(digest_text.encode()).hexdigest(),
        "probe_p2_31": probe,
        "setup_runs_s": [dt for dt, _ in setup],
        "setup_kernel_s": [ref_s for _, ref_s in setup],
        "kernel_s": kernel_s,
        "kernel_nominal_s": reference.NOMINAL_S,
        "end_to_end": e2e,
        "end_to_end_wall": wall_e2e,
        "op_ms_wall_scaled": [[1000.0 * timed[i][0], 1000.0 * scaled[i][0]]
                              for i in sorted(timed)],
        "per_layer": layers,
        "trace_file": trace_path and os.path.relpath(trace_path, ROOT),
    }
    result_path = os.path.join(
        OUT_DIR, f"result-{work.name}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    for p in problems:
        print(f"problem: {p}")
    print(f"{work.name} seed={args.seed} ops={attempted} failed={failed} "
          f"sha256={(result['output_sha256'] or '-')[:16]} "
          f"result={os.path.relpath(result_path, ROOT)}")
    for k, m in metrics.items():
        print(f"  {k:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# report-only comparison


def compare(old_path: str, new_path: str) -> int:
    """Print per-metric deltas of NEW against OLD; gates nothing."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    print(f"{old.get('workload')} seed {old.get('seed')} @ {old.get('commit', '?')[:12]}"
          f"  ->  {new.get('workload')} seed {new.get('seed')} @ {new.get('commit', '?')[:12]}")
    for section in ("end_to_end", "per_layer"):
        a, b = old.get(section) or {}, new.get(section) or {}
        for name in sorted(set(a) | set(b)):
            if name not in a or name not in b:
                print(f"  {name:52s} only in {'new' if name in b else 'old'}")
                continue
            rel = f"{(b[name] - a[name]) / a[name]:+8.1%}" if a[name] else "       -"
            print(f"  {name:52s} {a[name]:12.6g} -> {b[name]:12.6g} {rel}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sample-p31", "classify-mixed", "verify-all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the workload inputs, then exit")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print per-metric deltas between two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
