"""Golden gate: ``classify`` on the committed store writes the committed bytes.

The store and its output come from ``tests/data/make_golden.py``; see its
docstring for what the store covers.
"""

import pathlib

from godeaux_lines.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_classify_golden_store_byte_identical(tmp_path):
    out = tmp_path / "classify.jsonl"
    assert main(["classify", "--in", str(DATA / "golden_store.jsonl"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_classify.jsonl").read_bytes()
