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
    # slot 0 of seed 0 is sample_line("two-hyp", F_31, 0), whose line takes 9
    # trials (test_sampling.py::test_budget_exhaustion): a budget of 8 runs out
    out = tmp_path / "fail.jsonl"
    code = main(
        ["sample", "--strategy", "two-hyp", "--field", "p31", "--seed", "0",
         "--count", "1", "--budget", "8", "--out", str(out)]
    )
    assert code == 3
    _, records = read_store(out)
    assert records[0]["error"] == "budget-exhausted"
    assert records[0]["slot"] == 0


@pytest.mark.parametrize("dest", ["stdout", "out", "append"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_sample_budget_below_one_is_usage_error(tmp_path, capsys, budget, dest):
    # bad input (exit 2) that writes nothing anywhere, not a budget-exhausted record
    out = tmp_path / "store.jsonl"
    before = {"stdout": None, "out": "existing bytes\n", "append": '{"format":1}\n'}[dest]
    if before is not None:
        out.write_text(before)
    where = ["--out", "-"] if dest == "stdout" else ["--out", str(out)]
    code = main(["sample", "--field", "p31", "--seed", "1", "--count", "2",
                 "--budget", budget] + where + (["--append"] if dest == "append" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "budget" in captured.err
    if before is None:
        assert not out.exists()
    else:
        assert out.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if before is None else ["store.jsonl"])


@pytest.mark.parametrize("dest", ["stdout", "out", "append"])
@pytest.mark.parametrize("option, name", [
    (["--strategy", "generic", "--space", "T01-23"], "space"),
    (["--strategy", "hyp", "--spaces", "T01-23,T02-13"], "spaces"),
    (["--strategy", "torsion", "--general-position"], "general_position"),
], ids=["generic-space", "hyp-spaces", "torsion-general-position"])
def test_sample_option_the_strategy_ignores_is_usage_error(tmp_path, capsys, option, name, dest):
    # an option another strategy takes is refused before the first draw, not
    # dropped from a normal record
    out = tmp_path / "store.jsonl"
    before = {"stdout": None, "out": "existing bytes\n", "append": '{"format":1}\n'}[dest]
    if before is not None:
        out.write_text(before)
    where = ["--out", "-"] if dest == "stdout" else ["--out", str(out)]
    code = main(["sample", "--field", "p31", "--seed", "1"] + option + where
                + (["--append"] if dest == "append" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} applies to the ")
    if before is None:
        assert not out.exists()
    else:
        assert out.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if before is None else ["store.jsonl"])


@pytest.mark.parametrize("option", [
    ["--strategy", "torsion", "--space", ""],
    ["--strategy", "two-torsion", "--spaces", ""],
    ["--strategy", "generic", "--space", ""],
], ids=["torsion-space", "two-torsion-spaces", "generic-space"])
def test_sample_empty_space_option_is_usage_error(capsys, option):
    # an empty name is no torsion space, not a request for the default one
    code = main(["sample", "--field", "p31", "--seed", "1", "--out", "-"] + option)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: unknown torsion space ''")


@pytest.mark.parametrize("dest", ["stdout", "out", "append"])
def test_sample_negative_seed_is_usage_error(tmp_path, capsys, dest):
    # random.Random(-n) seeds like n: --seed -1 slot 0 (seed -1,000,003)
    # would repeat --seed 1 slot 0, so a negative seed is bad input that
    # writes nothing anywhere
    out = tmp_path / "x.jsonl"
    before = {"stdout": None, "out": None, "append": '{"format":1}\n'}[dest]
    if before is not None:
        out.write_text(before)
    where = ["--out", "-"] if dest == "stdout" else ["--out", str(out)]
    code = main(["sample", "--strategy", "generic", "--field", "p31", "--seed", "-1"]
                + where + (["--append"] if dest == "append" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --seed -1 is below 0")
    if before is None:
        assert not out.exists()
    else:
        assert out.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if before is None else ["x.jsonl"])


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


@pytest.mark.parametrize("dest", ["file", "stdout"])
def test_sample_refuses_a_line_outside_q_before_writing(tmp_path, monkeypatch, capsys, dest):
    # a sampler that returned a line outside Q would meet classify_line's own
    # check: StrataError, and no header, record or temp file is written
    import godeaux_lines.cli as cli
    from godeaux_lines.fields import PrimeField
    from godeaux_lines.geometry import AIDX, LineA
    from godeaux_lines.strata import StrataError

    F = PrimeField(31)
    unit = lambda name: [int(j == AIDX[name]) for j in range(12)]
    outside = LineA(F, unit("a12"), unit("a13"))  # q0 = a12*a13 - ... is s*t on it
    monkeypatch.setattr(cli, "sample_line", lambda *args, **kwargs: outside)
    out = tmp_path / "never.jsonl"
    with pytest.raises(StrataError, match="does not lie in Q"):
        main(["sample", "--field", "p31", "--seed", "3"] + (["--out", str(out)] if dest == "file" else []))
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


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


def _no_draws(*args, **kwargs):
    raise AssertionError("sampled despite the usage error")


def test_sample_missing_out_dir_fails_before_drawing(tmp_path, monkeypatch, capsys):
    import godeaux_lines.cli as cli

    monkeypatch.setattr(cli, "sample_line", _no_draws)
    out = tmp_path / "missing" / "x.jsonl"
    code = main(["sample", "--field", "p31", "--seed", "1", "--count", "30", "--out", str(out)])
    _assert_clean_out_error(code, capsys)


def test_failed_sample_leaves_existing_out_unchanged(tmp_path, capsys):
    # no search strategy samples over F_2: a usage error after --out was opened
    out = tmp_path / "store.jsonl"
    out.write_text("existing bytes\n")
    code = main(["sample", "--field", "p2", "--seed", "1", "--out", str(out)])
    _assert_clean_out_error(code, capsys)
    assert out.read_text() == "existing bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.jsonl"]


def test_sample_append_adds_records_under_one_header(tmp_path):
    whole, parts = tmp_path / "whole.jsonl", tmp_path / "parts.jsonl"
    assert main(["sample", "--field", "p31", "--seed", "3", "--count", "2", "--out", str(whole)]) == 0
    _, records = read_store(whole)
    one = ["sample", "--field", "p31", "--seed", "3", "--count", "1", "--append"]
    assert main(one + ["--out", str(parts)]) == 0  # a missing store gets its header
    assert main(one + ["--out", str(parts)]) == 0
    assert read_store(parts) == ({"format": 1}, [records[0], records[0]])


def test_sample_append_to_an_empty_file_writes_the_header(tmp_path):
    whole, parts = tmp_path / "whole.jsonl", tmp_path / "parts.jsonl"
    one = ["sample", "--field", "p31", "--seed", "3", "--count", "1"]
    assert main(one + ["--out", str(whole)]) == 0
    parts.write_text("")
    assert main(one + ["--append", "--out", str(parts)]) == 0
    assert parts.read_bytes() == whole.read_bytes()
    assert main(["classify", "--in", str(parts), "--out", str(tmp_path / "r.jsonl")]) == 0


@pytest.mark.parametrize("first", ["not a store", '{"format": 2}', "[1]", "[" * 100_000],
                         ids=["text", "format-2", "list", "deep"])
def test_sample_append_to_a_non_store_is_usage_error(tmp_path, monkeypatch, capsys, first):
    # a first line that is not a format-1 header: refused before any draw
    import godeaux_lines.cli as cli

    monkeypatch.setattr(cli, "sample_line", _no_draws)
    out = tmp_path / "other.txt"
    out.write_text(first + "\nmore text\n")
    code = main(["sample", "--field", "p31", "--seed", "3", "--append", "--out", str(out)])
    _assert_clean_out_error(code, capsys)
    assert out.read_text() == first + "\nmore text\n"


@pytest.mark.parametrize("dest", ["stdout", "append"])
@pytest.mark.parametrize("strategy, budget", [("generic", "10000000"), ("two-hyp", "20")])
def test_sample_writes_each_record_before_the_next_draw(tmp_path, monkeypatch, dest, strategy, budget):
    # stdout and --append get each record, line or budget-exhausted error,
    # as soon as its slot is drawn: memory does not grow with --count
    import io

    import godeaux_lines.cli as cli

    out = tmp_path / "store.jsonl"
    stdout = io.StringIO()
    if dest == "append":
        out.write_text('{"format":1}\n')
    written = []  # lines written when each slot starts to draw
    real = cli.sample_line

    def sample_line(*args, **kwargs):
        written.append(len((out.read_text() if dest == "append" else stdout.getvalue()).splitlines()))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_line", sample_line)
    monkeypatch.setattr(sys, "stdout", stdout)
    args = ["sample", "--strategy", strategy, "--field", "p31", "--seed", "3",
            "--count", "3", "--budget", budget]
    code = main(args + (["--append", "--out", str(out)] if dest == "append" else ["--out", "-"]))
    assert code == (0 if strategy == "generic" else 3)
    header = 1 if dest == "append" else 0  # written before the run, or with slot 0
    assert written == [header, 2, 3]


def test_classify_out_that_is_in_is_usage_error(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    assert main(["sample", "--field", "p31", "--seed", "1", "--count", "2", "--out", str(store)]) == 0
    before = store.read_bytes()
    code = main(["classify", "--in", str(store), "--out", str(store)])
    _assert_clean_out_error(code, capsys)
    alias = tmp_path / "." / "store.jsonl"
    _assert_clean_out_error(main(["classify", "--in", str(store), "--out", str(alias)]), capsys)
    assert store.read_bytes() == before


def test_classify_missing_in_leaves_existing_out_unchanged(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    out.write_text("earlier reports\n")
    code = main(["classify", "--in", str(tmp_path / "missing.jsonl"), "--out", str(out)])
    _assert_clean_out_error(code, capsys)
    assert out.read_text() == "earlier reports\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reports.jsonl"]


def test_out_that_is_a_directory_is_usage_error(tmp_path, capsys):
    code = main(["verify", "z3-param", "--out", str(tmp_path)])
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
    # a line without rows or without a field, and a record without a line
    ({"line": {k: v for k, v in Z5_LINE_JSON.items() if k != "rows"}}, "GeometryError: rows must"),
    ({"line": {k: v for k, v in Z5_LINE_JSON.items() if k != "field"}}, "GeometryError: malformed"),
    ({"lines": Z5_LINE_JSON}, "KeyError: 'line'"),
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


@pytest.mark.parametrize("field", [{"kind": "prime", "p": 31}, {"kind": "rational"}])
@pytest.mark.parametrize("text", ["1e1000000000", "1.5", "1_000", " 7 ", "1/0"])
def test_classify_isolates_non_integer_scalar_text(tmp_path, field, text):
    # a store scalar is integer (or n/d with d nonzero) text; anything else
    # is a per-record error, and the records after it classify
    good = dict(Z5_LINE_JSON, field=field)
    bad = dict(good, rows=[[text] + good["rows"][0][1:], good["rows"][1]])
    store = tmp_path / "store.jsonl"
    records = [{"format": 1}, {"line": bad}, {"line": good}]
    store.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert reports[0]["slot"] == 0 and reports[0]["error"].startswith("GeometryError: ")
    assert reports[1]["slot"] == 1 and len(reports[1]["torsion_points"]) == 2


@pytest.mark.parametrize("header", ['[1]', '5', '{"format": 2}', 'not json'])
def test_classify_bad_header_is_usage_error(tmp_path, header):
    store = tmp_path / "store.jsonl"
    store.write_text(header + "\n" + json.dumps({"line": Z5_LINE_JSON}) + "\n")
    assert main(["classify", "--in", str(store)]) == 2


def test_classify_zero_byte_store_writes_nothing(tmp_path):
    # a store without even a header holds no records: empty output, exit 0
    store = tmp_path / "store.jsonl"
    store.write_bytes(b"")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_classify_skips_blank_lines_but_counts_their_slots(tmp_path):
    # a blank or whitespace-only body line gets no report, but the slot of
    # each record is its line number after the header, blank lines included
    store = tmp_path / "store.jsonl"
    good = json.dumps({"line": Z5_LINE_JSON})
    store.write_text("\n".join([json.dumps({"format": 1}), good, "", "  ", good]) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["slot"] for r in reports] == [0, 3]
    assert reports[1] == dict(reports[0], slot=3)


DEEP = "[" * 100_000 + "]" * 100_000  # nested past any recursion limit


def test_classify_isolates_deeply_nested_record(tmp_path):
    store = tmp_path / "store.jsonl"
    good = json.dumps({"line": Z5_LINE_JSON})
    store.write_text("\n".join([json.dumps({"format": 1}), good, DEEP, good]) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert reports[1] == {"slot": 1, "error": "malformed-record"}
    assert reports[2] == dict(reports[0], slot=2)


def test_classify_isolates_record_past_the_int_digit_limit(tmp_path):
    # json.loads raises a plain ValueError for an integer literal with more
    # digits than int() converts; that record alone is malformed
    store = tmp_path / "store.jsonl"
    good = json.dumps({"line": Z5_LINE_JSON})
    too_long = '{"line": ' + "1" * (sys.get_int_max_str_digits() + 1) + "}"
    store.write_text("\n".join([json.dumps({"format": 1}), good, too_long, good]) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert reports[1] == {"slot": 1, "error": "malformed-record"}
    assert len(reports[0]["torsion_points"]) == 2
    assert reports[2] == dict(reports[0], slot=2)


def test_classify_isolates_an_untyped_exception(tmp_path, monkeypatch):
    # any exception on one record becomes that record's error line; the
    # other records' lines are the bytes of an unpatched run, and exit is 0
    import godeaux_lines.cli as cli

    store = tmp_path / "store.jsonl"
    assert main(["sample", "--strategy", "generic", "--field", "p31", "--seed", "5",
                 "--count", "3", "--out", str(store)]) == 0
    clean, patched = tmp_path / "clean.jsonl", tmp_path / "patched.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(clean)]) == 0
    calls = []
    real = cli.classify_line

    def fails_on_slot_1(line):
        calls.append(line)
        if len(calls) == 2:
            raise ArithmeticError("slot 1 fails")
        return real(line)

    monkeypatch.setattr(cli, "classify_line", fails_on_slot_1)
    assert main(["classify", "--in", str(store), "--out", str(patched)]) == 0
    want = clean.read_bytes().splitlines()
    got = patched.read_bytes().splitlines()
    assert len(calls) == 3 and len(want) == len(got) == 3
    assert got[0] == want[0] and got[2] == want[2]
    assert json.loads(got[1]) == {"slot": 1, "error": "ArithmeticError: slot 1 fails"}


def test_classify_passes_only_known_record_errors(tmp_path):
    # "budget-exhausted", the error sample writes, passes through; any other
    # error value is replaced, however deep or large
    store = tmp_path / "store.jsonl"
    records = [
        json.dumps({"format": 1}),
        json.dumps({"error": "budget-exhausted", "slot": 0, "trials": 11}),
        '{"error": ' + "[" * 980 + "]" * 980 + "}",
        json.dumps({"error": 5}),
        json.dumps({"error": "x" * 1_000_000}),
        json.dumps({"line": Z5_LINE_JSON}),
    ]
    store.write_text("\n".join(records) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--in", str(store), "--out", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert reports[0] == {"slot": 0, "error": "budget-exhausted"}
    for slot in (1, 2, 3):
        assert reports[slot] == {"slot": slot, "error": "malformed-record"}
    assert len(reports[4]["torsion_points"]) == 2


def test_classify_deeply_nested_header_is_usage_error(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    store.write_text(DEEP + "\n" + json.dumps({"line": Z5_LINE_JSON}) + "\n")
    assert main(["classify", "--in", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


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


def test_verify_z5_family_is_the_library_certificate(tmp_path):
    # the CLI only names the library function: same checks, details and data
    from godeaux_lines.families import verify_z5_family

    out = tmp_path / "cert.json"
    assert main(["verify", "z5-family", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    del cert["seconds"]
    assert verify_z5_family().to_json() == cert


def test_verifiers_are_library_functions():
    from godeaux_lines.cli import _VERIFIERS

    assert {f.__module__ for f in _VERIFIERS.values()} == {
        "godeaux_lines.families", "godeaux_lines.strata"}


def test_verify_unknown_theorem_exits_2_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_usage_error_exit_2():
    proc = run_cli("sample", "--strategy", "nonsense")
    assert proc.returncode == 2


def test_sample_field_past_the_int_digit_limit_is_usage_error(tmp_path, capsys):
    # a modulus with more digits than int() converts: exit 2, nothing written
    field = "p" + "1" * 5000
    assert main(["sample", "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    out = tmp_path / "store.jsonl"
    assert main(["sample", "--field", field, "--out", str(out)]) == 2
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


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
