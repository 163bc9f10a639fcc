"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_package()
import godeaux_lines.geometry as geometry  # noqa: E402
import godeaux_lines.strata as strata  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert run.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        run.percentile(values[:99], 90)


def test_percentile_counts_failures_as_exceeding():
    values = [1.0] * 89 + [math.inf] * 11
    assert run.percentile(values, 90) == math.inf
    assert run.percentile(values, 90, halfwidth=3) == math.inf
    # failures ranked above the window leave it finite
    assert run.percentile([1.0] * 93 + [math.inf] * 7, 90, halfwidth=3) == 1.0


def test_percentile_window_averages_the_ranks_around_q():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 90, halfwidth=3) == 90  # mean of 87..93
    assert run.percentile(values, 50, halfwidth=0) == 50


def test_reference_kernel_is_fixed_work():
    assert reference.kernel() == reference.CHECKSUM
    ticks = iter([0.0, 0.002])
    assert reference.sample(clock=lambda: next(ticks)) == 0.002


def test_sampler_scales_an_op_and_drops_the_samples_inside_it():
    sampler = reference.Sampler()
    # kernel at half the nominal speed: before the op, twice inside, after
    sampler.starts = [0.0, 0.5, 0.7, 1.2, 2.0]
    sampler.seconds = [2 * reference.NOMINAL_S] * 4 + [4 * reference.NOMINAL_S]
    net = 1.0 - 2 * 2 * reference.NOMINAL_S
    assert sampler.unsampled(0.1, 1.1) == pytest.approx(net)
    assert sampler.scaled(0.1, 1.1) == pytest.approx(net / 2)
    # an op with no sample inside: the mean of the two around it
    assert sampler.scaled(1.3, 1.4) == pytest.approx(0.1 / 3)


def test_sampler_takes_timer_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = reference.Sampler(interval=0.01)
    with sampler:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.starts) >= 3
    assert sampler.starts == sorted(sampler.starts)


def test_latency_metrics_count_a_failure_as_slowest():
    timed = {i: (0.001, "out") for i in range(99)}
    timed[99] = (0.001, None)
    got = run.latency_metrics(timed)
    assert got["ops_per_s"] == pytest.approx(990.0)
    assert got["op_ms_p50"] == pytest.approx(1.0)


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; children overlap each other and one sticks out
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    got = tracing.self_times(parent, start, end)
    assert got == pytest.approx([10 - (4 + 1), 2 - 0.5, 3, 3, 0.5])


def test_self_time_order_independent():
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    order = [3, 0, 4, 2, 1]
    where = {old: new for new, old in enumerate(order)}
    p2 = [where[parent[i]] if parent[i] >= 0 else -1 for i in order]
    got = tracing.self_times(p2, [start[i] for i in order], [end[i] for i in order])
    assert got == pytest.approx([3, 5, 0.5, 3, 1.5])


def test_tracer_spans_nest_with_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.span("outer", lambda: tracer.span("inner", lambda: None))
    assert [tracer.names[n] for n in tracer.span_name] == ["outer", "inner"]
    assert list(tracer.span_parent) == [-1, 0]
    # outer [0, 3], inner [1, 2]
    assert tracer.self_times() == [2.0, 1.0]


def test_tracer_install_and_remove_restore_the_library():
    before = (strata.classify_line, geometry.LineA.__dict__["from_json"],
              strata.FiberReport.to_json)
    sampling_before = sys.modules["godeaux_lines.sampling"].classify_line
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert strata.classify_line is not before[0]
        line = geometry.LineA.from_json(_records()[0]["line"])
        strata.classify_line(line).to_json()
    finally:
        tracer.remove()
    assert (strata.classify_line, geometry.LineA.__dict__["from_json"],
            strata.FiberReport.to_json) == before
    assert sys.modules["godeaux_lines.sampling"].classify_line is sampling_before
    names = [tracer.names[n] for n in tracer.span_name]
    assert names.count("strata.classify_line") == 1
    assert names.count("geometry.LineA.from_json") == 1
    assert tracer.counts["fields.ops"] > 0


def _records():
    return workloads.read_store(workloads.BASE_STORE)


def _first(kind):
    for rec in _records():
        prov = rec["line"].get("provenance") or {}
        if prov.get("strategy") == kind:
            return rec
    raise LookupError(kind)


@pytest.mark.parametrize("kind", workloads.STRATEGIES)
def test_invariant_accepts_the_stored_report(kind):
    rec = _first(kind)
    workloads.check_report(workloads.expectation(rec["line"]["provenance"]), rec["report"])


@pytest.mark.parametrize("kind, claim", [
    ("hyp", {"kind": "generic"}),
    ("generic", {"kind": "hyp"}),
    ("two-hyp", {"kind": "hyp"}),
    ("torsion", {"kind": "torsion", "space": "T02|13"}),
    ("two-torsion", {"kind": "two-torsion", "pair": ["T01|23", "T03|12"]}),
])
def test_invariant_rejects_a_wrong_claim(kind, claim):
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report(claim, _first(kind)["report"])


def test_invariant_rejects_a_tampered_report():
    report = json.loads(json.dumps(_first("two-torsion")["report"]))
    report["torsion_points"][1]["space"] = "T03|12"
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report({"kind": "two-torsion", "pair": ["T01|23", "T02|13"]}, report)


@pytest.mark.parametrize("seed", [0, 7])
def test_reparametrization_keeps_every_line(seed):
    base = _records()
    moved = workloads.reparametrized_records(base, seed)
    changed = 0
    for a, b in zip(base, moved):
        la = geometry.LineA.from_json(a["line"])
        lb = geometry.LineA.from_json(b["line"])
        assert la.span_canonical() == lb.span_canonical()
        changed += a["line"]["rows"] != b["line"]["rows"]
    assert changed > len(base) // 2


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.STRATEGY_NAMES == workloads.STRATEGIES
