import json
import subprocess
import sys

import pytest

from godeaux_lines.cli import main

RUN = [sys.executable, "-m", "godeaux_lines.cli"]


def run_cli(*args, env=None):
    import os
    import pathlib

    full_env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    full_env["PYTHONPATH"] = src + os.pathsep + full_env.get("PYTHONPATH", "")
    if env:
        full_env.update(env)
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, env=full_env
    )


def read_store(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    return header, [json.loads(l) for l in lines[1:]]


def test_sample_writes_store(tmp_path):
    out = tmp_path / "store.jsonl"
    code = main(
        ["sample", "--strategy", "generic", "--field", "p31", "--seed", "42",
         "--count", "3", "--out", str(out)]
    )
    assert code == 0
    header, records = read_store(out)
    assert header == {"format": 1}
    assert len(records) == 3
    for rec in records:
        assert rec["line"]["field"] == {"kind": "prime", "p": 31}
        assert rec["line"]["order"] == "a32..a01"
        assert rec["report"]["generic"] is True
        assert rec["report"]["minor_gcd"] == "1"


def test_sample_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["sample", "--strategy", "generic", "--field", "p31", "--seed", "7",
            "--count", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_two_torsion_report(tmp_path):
    out = tmp_path / "tt.jsonl"
    code = main(
        ["sample", "--strategy", "two-torsion", "--field", "p31", "--seed", "1",
         "--count", "1", "--out", str(out)]
    )
    assert code == 0
    _, records = read_store(out)
    assert len(records[0]["report"]["torsion_points"]) == 2


def test_sample_two_hyp_report(tmp_path):
    out = tmp_path / "th.jsonl"
    code = main(
        ["sample", "--strategy", "two-hyp", "--field", "p31", "--seed", "3",
         "--count", "1", "--out", str(out)]
    )
    assert code == 0
    _, records = read_store(out)
    roots = records[0]["report"]["hyperelliptic_roots"]
    assert len(roots) == 2
    assert all(r["rank"] == 3 for r in roots)


def test_sample_budget_exhaustion_exit_3(tmp_path):
    out = tmp_path / "fail.jsonl"
    code = main(
        ["sample", "--strategy", "two-hyp", "--field", "p31", "--seed", "0",
         "--count", "1", "--budget", "20", "--out", str(out)]
    )
    assert code == 3
    _, records = read_store(out)
    assert records[0]["error"] == "budget-exhausted"
    assert records[0]["slot"] == 0


def test_sample_count_past_seed_stride_is_usage_error(tmp_path, monkeypatch, capsys):
    # slot SEED_STRIDE of --seed S would draw with the seed of slot 0 of
    # --seed S+1; such a count is refused before anything is drawn
    import godeaux_lines.cli as cli

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled despite the usage error")

    monkeypatch.setattr(cli, "sample_line", no_draws)
    assert cli._record_seed(4, cli.SEED_STRIDE) == cli._record_seed(5, 0)
    out = tmp_path / "never.jsonl"
    code = main(["sample", "--field", "p31", "--seed", "4",
                 "--count", str(cli.SEED_STRIDE + 1), "--out", str(out)])
    assert code == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_below_one_is_usage_error(tmp_path, monkeypatch, capsys, count):
    # nothing to draw is a usage error, not "budget exhausted" or an empty store
    import godeaux_lines.cli as cli

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled despite the usage error")

    monkeypatch.setattr(cli, "sample_line", no_draws)
    out = tmp_path / "never.jsonl"
    code = main(["sample", "--field", "p31", "--count", str(count), "--out", str(out)])
    assert code == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


def _assert_clean_out_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_sample_unopenable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "store.jsonl"
    code = main(["sample", "--field", "p31", "--seed", "1", "--out", str(out)])
    _assert_clean_out_error(code, capsys)


def test_verify_unopenable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "cert.json"
    code = main(["verify", "z3-param", "--out", str(out)])
    _assert_clean_out_error(code, capsys)


def test_classify_unopenable_out_is_usage_error(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    assert main(["sample", "--field", "p31", "--seed", "1", "--out", str(store)]) == 0
    out = tmp_path / "missing" / "reports.jsonl"
    code = main(["classify", "--in", str(store), "--out", str(out)])
    _assert_clean_out_error(code, capsys)


def test_classify_round_trip(tmp_path):
    store = tmp_path / "store.jsonl"
    main(["sample", "--strategy", "generic", "--field", "p31", "--seed", "5",
          "--count", "2", "--out", str(store)])
    out = tmp_path / "reports.jsonl"
    code = main(["classify", "--in", str(store), "--out", str(out)])
    assert code == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(reports) == 2
    assert all(r["generic"] for r in reports)
    assert [r["slot"] for r in reports] == [0, 1]


def test_classify_deterministic_bytes(tmp_path):
    store = tmp_path / "store.jsonl"
    main(["sample", "--strategy", "hyp", "--field", "p31", "--seed", "8",
          "--count", "1", "--out", str(store)])
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out1)]) == 0
    assert main(["classify", "--in", str(store), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_empty_store(tmp_path):
    store = tmp_path / "empty.jsonl"
    store.write_text('{"format":1}\n')
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_classify_malformed_and_non_q_records(tmp_path):
    store = tmp_path / "bad.jsonl"
    non_q_line = {
        "field": {"kind": "prime", "p": 31},
        "order": "a32..a01",
        "rows": [["1"] + ["0"] * 11, ["0", "1"] + ["0"] * 10],
    }
    good = {
        "field": {"kind": "prime", "p": 31},
        "order": "a32..a01",
        "rows": [
            ["0", "0", "0", "1", "0", "0", "0", "0", "1", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0"],
        ],
    }
    lines = [
        json.dumps({"format": 1}),
        "this is not json",
        json.dumps({"line": non_q_line}),
        json.dumps({"line": good}),
    ]
    store.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert reports[0]["error"] == "malformed-record"
    assert "StrataError" in reports[1]["error"]
    assert len(reports[2]["torsion_points"]) == 2


Z5_LINE_JSON = {
    "field": {"kind": "prime", "p": 31},
    "order": "a32..a01",
    "rows": [
        ["0", "0", "0", "1", "0", "0", "0", "0", "1", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0"],
    ],
}


@pytest.mark.parametrize("bad, error", [
    ({"line": dict(Z5_LINE_JSON, rows=5)}, "GeometryError: "),
    ({"line": dict(Z5_LINE_JSON, rows=[["1"] * 12])}, "GeometryError: "),
    ({"line": dict(Z5_LINE_JSON, rows=["0" * 12, "1" * 12])}, "GeometryError: "),
    ({"line": dict(Z5_LINE_JSON, rows=[["x"] * 12, ["1"] * 12])}, "GeometryError: "),
    ({"line": dict(Z5_LINE_JSON, rows=[[None] * 12, ["1"] * 12])}, "GeometryError: "),
    ({"line": dict(Z5_LINE_JSON, field={"kind": "prime", "p": "x"})}, "GeometryError: "),
    ({"line": 7}, "GeometryError: "),
    (5, "malformed-record"),
    ([Z5_LINE_JSON], "malformed-record"),
    ({"line": dict(Z5_LINE_JSON, field={"kind": "prime"})}, "GeometryError: "),
    ({"line": dict(Z5_LINE_JSON, rows=[[0.0] + Z5_LINE_JSON["rows"][0][1:],
                                       Z5_LINE_JSON["rows"][1]])}, "GeometryError: "),
    ({"line": dict(Z5_LINE_JSON, rows=[[False] + Z5_LINE_JSON["rows"][0][1:],
                                       Z5_LINE_JSON["rows"][1]])}, "GeometryError: "),
])
def test_classify_isolates_malformed_record(tmp_path, bad, error):
    store = tmp_path / "store.jsonl"
    records = [{"format": 1}, {"line": Z5_LINE_JSON}, bad, {"line": Z5_LINE_JSON}]
    store.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["slot"] for r in reports] == [0, 1, 2]
    assert reports[1]["error"].startswith(error)
    assert len(reports[0]["torsion_points"]) == 2
    assert reports[2] == dict(reports[0], slot=2)


@pytest.mark.parametrize("header", ['[1]', '5', '{"format": 2}', 'not json'])
def test_classify_bad_header_is_usage_error(tmp_path, header):
    store = tmp_path / "store.jsonl"
    store.write_text(header + "\n" + json.dumps({"line": Z5_LINE_JSON}) + "\n")
    assert main(["classify", "--in", str(store)]) == 2


def test_batch_report_shapes_per_strategy(tmp_path):
    # classify-after-sample agrees with each strategy's promised shape
    plan = {
        "generic": (8, lambda r: r["generic"] and r["minor_gcd"] == "1"),
        "two-torsion": (5, lambda r: len(r["torsion_points"]) == 2),
        "hyp": (5, lambda r: len(r["hyperelliptic_roots"]) == 1),
        "two-hyp": (3, lambda r: len(r["hyperelliptic_roots"]) == 2),
    }
    for strategy, (count, predicate) in plan.items():
        store = tmp_path / f"{strategy}.jsonl"
        code = main(
            ["sample", "--strategy", strategy, "--field", "p31", "--seed", "77",
             "--count", str(count), "--out", str(store)]
        )
        assert code == 0
        out = tmp_path / f"{strategy}-reports.jsonl"
        assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
        reports = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(reports) == count
        assert all(predicate(r) for r in reports)
        # cached reports in the store agree with the classify stream
        _, records = read_store(store)
        for rec, rep in zip(records, reports):
            cached = dict(rec["report"])
            rep = {k: v for k, v in rep.items() if k not in ("line", "slot")}
            assert cached == rep


def test_store_record_serialization_round_trip(tmp_path):
    store = tmp_path / "store.jsonl"
    main(["sample", "--strategy", "generic", "--field", "p31", "--seed", "13",
          "--count", "1", "--out", str(store)])
    for raw in store.read_text().splitlines():
        redumped = json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":"))
        assert redumped == raw


@pytest.mark.parametrize(
    "theorem",
    ["hyp-param", "para-v2", "z5-family", "z3-param", "z3-kernel",
     "torsion-spaces", "symmetries"],
)
def test_verify_subcommands_pass(theorem, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["verify", theorem, "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["passed"] is True
    assert cert["certificate"] == theorem
    assert "seconds" in cert


def test_verify_seconds_survive_a_wall_clock_step(tmp_path, monkeypatch):
    # the certificate is timed with a monotonic clock: a wall clock that
    # runs backwards (an NTP step) must not give negative seconds
    import itertools
    import time

    ticks = itertools.count()
    monkeypatch.setattr(time, "time", lambda: 1e9 - 3600.0 * next(ticks))
    out = tmp_path / "cert.json"
    assert main(["verify", "torsion-spaces", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seconds"] >= 0


def test_verify_z5_census_in_certificate(tmp_path):
    out = tmp_path / "cert.json"
    main(["verify", "z5-family", "--out", str(out)])
    cert = json.loads(out.read_text())
    for counts in cert["data"]["counts"].values():
        assert counts == {"P1xP1": 6, "P0xP2": 4, "P2xP0": 4}


def test_usage_error_exit_2():
    proc = run_cli("sample", "--strategy", "nonsense")
    assert proc.returncode == 2


def test_environment_does_not_change_the_field():
    # a variable inherited from the shell must not change the bytes of a
    # seeded store
    args = ("sample", "--strategy", "generic", "--seed", "4", "--count", "1", "--out", "-")
    plain = run_cli(*args, env={"GODEAUX_FIELD": ""})
    with_var = run_cli(*args, env={"GODEAUX_FIELD": "p101"})
    assert plain.returncode == with_var.returncode == 0
    assert with_var.stdout == plain.stdout
    rec = json.loads(with_var.stdout.splitlines()[1])
    assert rec["line"]["field"] == {"kind": "prime", "p": 31}


def test_console_script_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "sample" in proc.stdout and "verify" in proc.stdout


def test_spaces_flag_shell_friendly(tmp_path):
    out = tmp_path / "tt.jsonl"
    code = main(
        ["sample", "--strategy", "two-torsion", "--spaces", "T01-23,T03-12",
         "--field", "p31", "--seed", "2", "--count", "1", "--out", str(out)]
    )
    assert code == 0
    _, records = read_store(out)
    spaces = {t["space"] for t in records[0]["report"]["torsion_points"]}
    assert spaces == {"T01|23", "T03|12"}


def test_determinism_across_processes_and_hash_seeds():
    # byte-identical output under different PYTHONHASHSEED values
    args = ("sample", "--strategy", "two-torsion", "--field", "p31",
            "--seed", "6", "--count", "2", "--out", "-")
    a = run_cli(*args, env={"PYTHONHASHSEED": "0"})
    b = run_cli(*args, env={"PYTHONHASHSEED": "31337"})
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
