"""Regenerate the golden gates: ``golden_sample.jsonl``, ``golden_store.jsonl``,
its ``classify`` output ``golden_classify.jsonl``, and ``golden_verify.jsonl``.

    PYTHONPATH=src python tests/data/make_golden.py

Which file pins which sampler version (the provenance's ``"sampler"``; a
record without the key was drawn by sampler 1):

- ``golden_sample.jsonl`` pins the current sampler,
  ``sampling.SAMPLER_VERSION`` (3: one trial per draw, T01|23 torsion
  partners solved): two lines of every strategy over F_31 (``sample --seed
  2022 --count 2``), one ``{"line": ...}`` record each, in strategy order.
  It is redrawn on every run.
- ``golden_store.jsonl`` and ``golden_classify.jsonl`` pin sampler 1: the
  store's sampled lines are the same draws as sampler 1 made them, read
  back from the committed store and never redrawn, so a store written by
  an earlier sampler must still load and classify byte for byte.

The store holds, one record per line: those ten sampler-1 lines, z5 and
two-torsion lines over F_99991 and F_(2^61 - 1) (most of them
reparametrized, so their special points are not just (0:1) and (1:0)),
reparametrized z5 / z3 lines over Q, and the four zero-block lines
``z5_line(F, 0,1,1,1)`` ... ``(1,1,1,0)`` over F_31 and Q, on each of which
one a-matrix row vanishes identically; the F_31 ones also reparametrized.  ``tests/test_golden.py`` asserts that ``classify`` still
writes the committed output byte for byte.

``golden_verify.jsonl`` holds one line per ``verify`` theorem, in sorted
order: the certificate JSON without its ``seconds`` field, the only part of
``verify`` output that changes from run to run.

Running this again rewrites all four files; do that only on purpose, and say
so, because the gate is only as good as the code that wrote its output.
"""

from __future__ import annotations

import json
import pathlib
import random
import tempfile

from godeaux_lines import cli, families, fields, strata

HERE = pathlib.Path(__file__).resolve().parent
SAMPLE = HERE / "golden_sample.jsonl"
STORE = HERE / "golden_store.jsonl"
CLASSIFY = HERE / "golden_classify.jsonl"
VERIFY = HERE / "golden_verify.jsonl"

STRATEGIES = ("generic", "torsion", "two-torsion", "hyp", "two-hyp")
SAMPLE_SEED = 2022
FAMILY_SEED = 4


def sampled_lines(tmp: pathlib.Path) -> list:
    out = []
    for strategy in STRATEGIES:
        path = tmp / f"{strategy}.jsonl"
        code = cli.main(["sample", "--strategy", strategy, "--field", "p31",
                         "--seed", str(SAMPLE_SEED), "--count", "2", "--out", str(path)])
        if code != 0:
            raise SystemExit(f"sample {strategy} exited with {code}")
        out += [json.loads(l)["line"] for l in path.read_text().splitlines()[1:]]
    return out


def sampler1_lines() -> list:
    """The store's sampled lines, as sampler 1 drew them: read back, never redrawn."""
    return [json.loads(l)["line"] for l in STORE.read_text().splitlines()[1:1 + 2 * len(STRATEGIES)]]


def family_lines(rng: random.Random) -> list:
    spaces = strata.TORSION_SPACES
    lines = []
    for p in (99991, 2**61 - 1):
        F = fields.PrimeField(p)
        z5 = families.z5_line(F, *(F.random_nonzero(rng) for _ in range(4)))
        lines += [z5, z5.transformed(((1, 2), (F.random_nonzero(rng), 3)))]
        for a, b in ((0, 1), (1, 2)):
            line = families.sample_component_line(F, spaces[a], spaces[b], rng)
            lines.append(line.transformed(((1, F.random_nonzero(rng)), (1, 0))))
    QQ = fields.QQ
    lines.append(families.z5_line(QQ, 2, 3, 5, 7).transformed(((3, -2), (5, 4))))
    lines.append(families.z3_line(QQ, [1, 2, 1, 3], [2, 1], [1, 1]).transformed(((1, 7), (-2, 1))))
    for F in (fields.PrimeField(31), QQ):
        for k in range(4):
            lines.append(families.z5_line(F, *(int(i != k) for i in range(4))))
    for k in range(4):
        zero_block = families.z5_line(fields.PrimeField(31), *(int(i != k) for i in range(4)))
        lines.append(zero_block.transformed(((2, 3), (5, 7))))
    return [l.to_json() for l in lines]


def verify_lines(tmp: pathlib.Path) -> list:
    out = []
    for theorem in sorted(cli._VERIFIERS):
        path = tmp / f"{theorem}.json"
        if cli.main(["verify", theorem, "--out", str(path)]) != 0:
            raise SystemExit(f"verify {theorem} failed")
        cert = json.loads(path.read_text())
        del cert["seconds"]
        out.append(cli._dumps(cert) + "\n")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        SAMPLE.write_text("".join(cli._dumps({"line": l}) + "\n" for l in sampled_lines(pathlib.Path(tmp))))
        VERIFY.write_text("".join(verify_lines(pathlib.Path(tmp))))
    lines = sampler1_lines() + family_lines(random.Random(FAMILY_SEED))
    STORE.write_text(cli._dumps({"format": cli.STORE_FORMAT}) + "\n"
                     + "".join(cli._dumps({"line": l}) + "\n" for l in lines))
    return cli.main(["classify", "--in", str(STORE), "--out", str(CLASSIFY)])


if __name__ == "__main__":
    raise SystemExit(main())
