"""Golden gates: ``classify`` on the committed store writes the committed
bytes, ``sample`` still draws the committed sample file's lines, and every
``verify`` certificate is unchanged apart from its timing.

The store, the sample file and both outputs come from
``tests/data/make_golden.py``; see its docstring for what they cover and
which sampler version each file pins.  The gates run a second time with the named
per-op field methods (``Field.add`` and the like) made to raise, since the
package computes with the values' own operators and ``field.canonical``.
"""

import importlib.util
import json
import pathlib
import random

import pytest

from godeaux_lines.cli import _VERIFIERS, _dumps, main
from godeaux_lines.fields import Field, PrimeField, RationalField
from godeaux_lines.sampling import STRATEGIES

DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_classify_golden_store_byte_identical(tmp_path):
    out = tmp_path / "classify.jsonl"
    assert main(["classify", "--in", str(DATA / "golden_store.jsonl"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_classify.jsonl").read_bytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_reproduces_golden_store_lines(strategy, tmp_path):
    # the sample file holds two lines of each strategy from
    # ``sample --field p31 --seed 2022 --count 2``, in STRATEGIES order (the
    # store keeps the same draws as sampler 1 made them); rows and provenance
    # (seed, trials, sampler version, certificate) must match byte for byte
    out = tmp_path / "sample.jsonl"
    assert main(["sample", "--strategy", strategy, "--field", "p31",
                 "--seed", "2022", "--count", "2", "--out", str(out)]) == 0
    got = [_dumps({"line": json.loads(rec)["line"]}) for rec in out.read_text().splitlines()[1:]]
    k = STRATEGIES.index(strategy)
    assert got == (DATA / "golden_sample.jsonl").read_text().splitlines()[2 * k:2 * k + 2]


def test_family_lines_reproduce_golden_store_lines():
    # the store ends with make_golden.family_lines(Random(FAMILY_SEED)), which
    # pins sample_component_line and z5_line over F_99991 and F_(2^61 - 1)
    spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    got = [_dumps({"line": l}) for l in make_golden.family_lines(random.Random(make_golden.FAMILY_SEED))]
    store = (DATA / "golden_store.jsonl").read_text().splitlines()[1:]
    assert got == store[len(store) - len(got):]


def test_verify_golden_certificates(tmp_path):
    # one line per theorem in sorted order, the certificate without "seconds"
    lines = []
    for theorem in sorted(_VERIFIERS):
        out = tmp_path / f"{theorem}.json"
        assert main(["verify", theorem, "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        del cert["seconds"]
        lines.append(_dumps(cert) + "\n")
    assert "".join(lines).encode() == (DATA / "golden_verify.jsonl").read_bytes()


def test_golden_gates_without_per_op_field_methods(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the package called a per-op field method")

    for cls in (Field, PrimeField, RationalField):
        for name in ("add", "sub", "mul", "neg", "div", "is_zero"):
            monkeypatch.setattr(cls, name, forbidden)
    test_classify_golden_store_byte_identical(tmp_path)
    for strategy in STRATEGIES:
        test_sample_reproduces_golden_store_lines(strategy, tmp_path)
    test_verify_golden_certificates(tmp_path)
