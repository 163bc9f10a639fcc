"""Regenerate the golden gates: ``golden_sample.jsonl``, ``golden_store.jsonl``,
its ``classify`` output ``golden_classify.jsonl``, ``golden_verify.jsonl``, and
the sampler byte pins ``pins.json``.

    PYTHONPATH=src python tests/data/make_golden.py

Which file pins which sampler version (the provenance's ``"sampler"``; a
record without the key was drawn by sampler 1):

- ``golden_sample.jsonl`` pins the current sampler,
  ``sampling.SAMPLER_VERSION`` (4: one trial per draw, T01|23 torsion
  partners and two-hyp (v0:v1) solved): two lines of every strategy over
  F_31 (``sample --seed 2022 --count 2``), one ``{"line": ...}`` record
  each, in strategy order.
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

``pins.json`` holds one SHA-256 per entry of ``PINS``, keyed by name, with
sorted keys, one entry per line.  Each entry hashes the bytes its producer
returns:

- ``lines/<name>``: the canonical JSON lines of ``sample_line`` at primes
  off the golden one, seeds 0-4 (``OFF_GOLDEN``); ``lines/small-budgets``:
  every strategy at budgets from 1 to 60,000 over F_31, an exhausted draw
  written as ``{"exhausted": trials}``;
- ``rows/<name>``: the rows alone (no provenance) of the ``OFF_GOLDEN``
  lines, one entry per strategy and torsion space, then of the sample-p31
  pool (``sample --field p31 --seed 1``, slots 0-19), so that a change of
  trials or provenance shows apart from a change of the lines drawn;
- ``sample ...``: the output of that ``sample`` command (``COMMANDS``), as
  the installed ``godeaux-lines`` writes it to stdout.

Running this again rewrites all five files; do that only on purpose, and say
so, because the gate is only as good as the code that wrote its output.  It
prints the pins it changed, old and new, read from the committed
``pins.json`` before it is rewritten.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import random
import sys
import tempfile

from godeaux_lines import cli, families, fields, sampling, strata

HERE = pathlib.Path(__file__).resolve().parent
SAMPLE = HERE / "golden_sample.jsonl"
STORE = HERE / "golden_store.jsonl"
CLASSIFY = HERE / "golden_classify.jsonl"
VERIFY = HERE / "golden_verify.jsonl"
PIN_FILE = HERE / "pins.json"

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


#: name -> (strategy, primes, option sets) of the ``lines/`` and ``rows/``
#: pins off the golden prime: small p, where b = 0 and vanishing restrictions
#: are frequent, and p = 101, where draws take 10^6 trials
OFF_GOLDEN = {
    "generic": ("generic", (5, 7, 101), ({},)),
    "hyp": ("hyp", (5, 7, 101), ({},)),
    "torsion": ("torsion", (5, 7, 11, 13), tuple({"space": space} for space in strata.TORSION_SPACES)),
    "two-hyp": ("two-hyp", (5, 7, 11), ({},)),
    "two-hyp-general-position": ("two-hyp", (5, 7, 11), ({"general_position": True},)),
}

#: the ``sample`` commands pinned byte for byte:
#: - the 100 records sample-p31 times (slots 0-19 of every strategy under
#:   seed 1; perfbench's smoke digest pins slot 0), then the torsion pools on
#:   the other two spaces (the rank-3 end rule turns down 2 of the 22 T03-12
#:   candidates unclassified);
#: - budgets that run out inside the partner searches, so that each budget
#:   leaves some of its six records exhausted (``{"error":
#:   "budget-exhausted", "trials": ...}``) and some finished, except
#:   two-torsion's, whose lines take one trial each;
#: - generic at p = 101, where two of the six partner searches start at a
#:   point whose kernel has two mixed combinations (the point test);
#: - one general-position two-hyp record: its column test keeps only draws
#:   where alpha_0 vanishes, and its solve skips partners with a vanishing
#:   a-matrix row, branches no pool record takes
COMMANDS = (
    *(f"sample --strategy {strategy} --field p31 --seed 1 --count 20" for strategy in STRATEGIES),
    "sample --strategy torsion --space T02-13 --field p31 --seed 1 --count 20",
    "sample --strategy torsion --space T03-12 --field p31 --seed 1 --count 20",
    *(f"sample --strategy {strategy} --field p31 --seed 3 --count 6 --budget {budget}"
      for strategy, budget in (("generic", 500), ("torsion", 20), ("two-torsion", 20000),
                               ("hyp", 500), ("two-hyp", 100))),
    "sample --strategy generic --field p101 --seed 0 --count 6",
    "sample --strategy two-hyp --general-position --field p31 --seed 1 --count 1",
)


def sampled(strategy, primes, option_sets, seeds, rows_only=False) -> bytes:
    """One canonical JSON line per ``sample_line(strategy, F_p, seed,
    **options)``, for each prime, option set and seed in turn: the line's
    record, or its rows alone."""
    out = []
    for p in primes:
        for options in option_sets:
            for seed in seeds:
                record = sampling.sample_line(strategy, fields.PrimeField(p), seed, **options).to_json()
                out.append(cli._dumps(record["rows"] if rows_only else record) + "\n")
    return "".join(out).encode()


SMALL_BUDGETS = (1, 40, 999, 5000, 60000)


def small_budgets() -> bytes:
    """Every strategy over F_31 at each of SMALL_BUDGETS, seeds 0-5: a line's
    record, or ``{"exhausted": trials}`` for a draw that runs out."""
    out = []
    for strategy in STRATEGIES:
        for budget in SMALL_BUDGETS:
            for seed in range(6):
                try:
                    record = sampling.sample_line(strategy, fields.PrimeField(31), seed, budget=budget).to_json()
                except sampling.BudgetExhausted as err:
                    record = {"exhausted": err.trials}
                out.append(cli._dumps(record) + "\n")
    return "".join(out).encode()


def command_output(command) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "out.jsonl"
        code = cli.main(command.split() + ["--out", str(path)])
        if code != 0:
            raise SystemExit(f"{command} exited with {code}")
        return path.read_bytes()


def _producers() -> dict:
    pins = {"lines/small-budgets": small_budgets}
    for name, (strategy, primes, option_sets) in OFF_GOLDEN.items():
        pins[f"lines/{name}"] = functools.partial(sampled, strategy, primes, option_sets, range(5))
        for options in option_sets:
            space = options.get("space")
            pins[f"rows/{name}" + (f"-{space}" if space else "")] = functools.partial(
                sampled, strategy, primes, (options,), range(5), True)
    pool = [cli._record_seed(1, slot) for slot in range(20)]
    for strategy in STRATEGIES:
        for space in strata.TORSION_SPACES if strategy == "torsion" else (None,):
            pins[f"rows/pool-{strategy}" + (f"-{space}" if space else "")] = functools.partial(
                sampled, strategy, (31,), ({"space": space} if space else {},), pool, True)
    for command in COMMANDS:
        pins[command] = functools.partial(command_output, command)
    return pins


#: pin name -> producer of the bytes its SHA-256 runs over
PINS = _producers()


def digest(name) -> str:
    return hashlib.sha256(PINS[name]()).hexdigest()


def pins_text(pins) -> str:
    """``pins.json``'s bytes: sorted keys, one entry per line."""
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def write_pins() -> None:
    old = json.loads(PIN_FILE.read_text()) if PIN_FILE.exists() else {}
    new = {name: digest(name) for name in sorted(PINS)}
    changed = [name for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]
    print(f"{len(changed)} of {len(new)} pins changed" + (" (old -> new):" if changed else ""))
    for name in changed:
        print(f"{name}: {old.get(name, '-')} -> {new.get(name, '-')}")
    PIN_FILE.write_text(pins_text(new))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        SAMPLE.write_text("".join(cli._dumps({"line": l}) + "\n" for l in sampled_lines(pathlib.Path(tmp))))
        VERIFY.write_text("".join(verify_lines(pathlib.Path(tmp))))
    write_pins()
    lines = sampler1_lines() + family_lines(random.Random(FAMILY_SEED))
    STORE.write_text(cli._dumps({"format": cli.STORE_FORMAT}) + "\n"
                     + "".join(cli._dumps({"line": l}) + "\n" for l in lines))
    return cli.main(["classify", "--in", str(STORE), "--out", str(CLASSIFY)])


if __name__ == "__main__":
    if sys.argv[1:]:
        raise SystemExit(f"usage: {sys.argv[0]} (it takes no arguments)")
    raise SystemExit(main())
