"""Regenerate the committed line stores under perfbench/data/.

    python3 perfbench/make_store.py

``classify_base.jsonl`` holds the classify-mixed inputs: eight F_31 lines of
each sampler strategy, written by the CLI's ``sample`` command, interleaved
with closed-form family lines (``z5_line``, ``z3_line``,
``sample_component_line``) over F_31, F_10007, F_99991 and Q.  Two-torsion
lines over F_99991 make up a sixth of it.
``probe_p2_31.jsonl`` holds two-torsion lines over p = 2^31 - 1.

The stores are data, not built at run time, so a change to the sampler or
the family constructors cannot change the benchmark's inputs.  Running this
again rewrites them; do that only on purpose, and say so.
"""

from __future__ import annotations

import os
import random
import sys

import run

run.import_package()
import godeaux_lines.cli as cli  # noqa: E402
import godeaux_lines.families as families  # noqa: E402
import godeaux_lines.fields as fields  # noqa: E402
import godeaux_lines.strata as strata  # noqa: E402
from workloads import BASE_STORE, PROBE_STORE, STRATEGIES, read_store, write_store  # noqa: E402

POOL_SEED = 2022
POOL_PER_STRATEGY = 8
FAMILY_SEED = 1201


def sampled_pool(tmpdir: str) -> list:
    out = []
    for strategy in STRATEGIES:
        path = os.path.join(tmpdir, f"pool-{strategy}.jsonl")
        code = cli.main(["sample", "--strategy", strategy, "--field", "p31",
                         "--seed", str(POOL_SEED), "--count", str(POOL_PER_STRATEGY),
                         "--out", path])
        if code != 0:
            raise SystemExit(f"sample {strategy} exited with {code}")
        out.append(read_store(path))
        os.remove(path)
    return out


def family_lines(field, rng, two_torsion: int) -> list:
    """`two_torsion` each of z5_line and sample_component_line, two z3_line."""
    if field == fields.QQ:
        scalar = lambda hi: rng.randint(1, hi)
    else:
        scalar = lambda hi: field.random_nonzero(rng)
    spaces = strata.TORSION_SPACES
    pairs = ((0, 1), (1, 2), (0, 2))
    lines = []
    for k in range(two_torsion):
        lines.append(families.z5_line(field, *(scalar(5) for _ in range(4))))
        a, b = pairs[k % 3]
        lines.append(families.sample_component_line(field, spaces[a], spaces[b], rng))
    for _ in range(2):
        lines.append(families.z3_line(field, [scalar(2) for _ in range(4)],
                                      [scalar(2) for _ in range(2)],
                                      [scalar(2) for _ in range(2)]))
    return lines


def record(line, with_report: bool = True) -> dict:
    rec = {"line": line.to_json()}
    if with_report:
        report = strata.classify_line(line).to_json()
        report.pop("line", None)
        rec["report"] = report
    return rec


def interleave(groups: list) -> list:
    """Round-robin over the groups, so costly records are spread out."""
    out = []
    queues = [list(g) for g in groups]
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def main() -> int:
    rng = random.Random(FAMILY_SEED)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    groups = sampled_pool(run.OUT_DIR)
    # six two-torsion pairs at p = 99991, so that a sixth of the store pays
    # the O(p) root scan.  Those lines need one to three scans each, as
    # their parametrization falls; with four pairs, the share needing two or
    # more lay at a tenth and the p90 jumped between one-scan and two-scan
    # times from seed to seed.  With six it falls inside the two-scan times.
    for spec, two_torsion in (("p31", 2), ("p10007", 2), ("p99991", 6), ("q", 2)):
        field = fields.field_from_spec(spec)
        groups.append([record(l) for l in family_lines(field, rng, two_torsion)])
    write_store(BASE_STORE, interleave(groups))

    p2_31 = fields.PrimeField(2**31 - 1)
    probe = [families.z5_line(p2_31, *(p2_31.random_nonzero(rng) for _ in range(4)))
             for _ in range(2)]
    probe += [families.sample_component_line(p2_31, strata.TORSION_SPACES[0],
                                             strata.TORSION_SPACES[k], rng)
              for k in (1, 2)]
    write_store(PROBE_STORE, [record(l, with_report=False) for l in probe])
    print(f"wrote {BASE_STORE} and {PROBE_STORE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
