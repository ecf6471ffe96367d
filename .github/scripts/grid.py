"""Verdict grid: seeded random set trees decided under six ideals.

Builds 3000 random trees of depth up to 4 for each of the seeds 0 and 7919,
over every atom and operator of the set DSL (some progression steps above
PERIOD_CAP, whose sets have no periodic form), decides each tree under fin,
z, bd, finxfin, matrix:cesaro and matrix:identity, and writes one JSON line
per verdict to stdout.  On stderr it prints the undecided count per ideal
and the sha256 digest of every (spec, ideal, status, reason): two versions
of the package decide the grid alike exactly when their digests agree.
``--compare A B`` reads two saved runs and lists each verdict whose status
or reason moved, then every flip between ``in`` and ``not_in``, by spec; it
exits 1 when anything moved.  Stdlib only; not a CI gate.  Run it from the
repository root:

    python .github/scripts/grid.py > after.jsonl
    python .github/scripts/grid.py --compare before.jsonl after.jsonl
"""

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = (0, 7919)
TREES = 3000
DEPTH = 4
IDEALS = ("fin", "z", "bd", "finxfin", "matrix:cesaro", "matrix:identity")
# Steps from 1 to two past PERIOD_CAP (2**16), where CRT still merges.
STEPS = (1, 2, 3, 4, 6, 7, 8, 12, 16, 70001, 131101)
OFFSETS = (-5, -2, -1, 1, 3, 8)


def atom(rng: random.Random) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        members = sorted(rng.sample(range(1, 40), rng.randrange(4)))
        return "finite:{" + ",".join(map(str, members)) + "}"
    if kind == 1:
        return f"ap:{rng.randint(1, 9)},{rng.choice(STEPS)}"
    if kind == 2:
        return f"builtin:nu2_ge({rng.randrange(6)})"
    return ("builtin:squares", "builtin:powers2")[kind - 3]


def tree(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return atom(rng)
    op = rng.randrange(5)
    if op == 0:
        return "complement:" + tree(rng, depth - 1)
    if op == 1:
        return f"shift:{tree(rng, depth - 1)},{rng.choice(OFFSETS)}"
    if op == 2:
        return f"builtin:dyadic_blocks({tree(rng, depth - 1)})"
    pair = ("union:", "intersect:")[op - 3]
    return pair + tree(rng, depth - 1) + "|" + tree(rng, depth - 1)


def run() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from subsum.ideals import parse_ideal
    from subsum.setlang import parse_set

    ideals = [parse_ideal(name) for name in IDEALS]
    digest, undecided = hashlib.sha256(), dict.fromkeys(IDEALS, 0)
    out = sys.stdout
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(TREES):
            spec = tree(rng, DEPTH)
            s = parse_set(spec)
            for name, ideal in zip(IDEALS, ideals):
                v = ideal.decide(s)
                line = json.dumps({"spec": spec, "ideal": name, "status": v.status,
                                   "reason": v.reason})
                digest.update(line.encode() + b"\n")
                undecided[name] += not v.decided
                out.write(line + "\n")
    counts = ", ".join(f"{name} {n}" for name, n in undecided.items())
    print(f"undecided of {len(SEEDS) * TREES} trees: {counts}", file=sys.stderr)
    print(f"sha256 {digest.hexdigest()}", file=sys.stderr)
    return 0


def compare(a: str, b: str) -> int:
    old = [json.loads(line) for line in Path(a).read_text().splitlines()]
    new = [json.loads(line) for line in Path(b).read_text().splitlines()]
    if [(r["spec"], r["ideal"]) for r in old] != [(r["spec"], r["ideal"]) for r in new]:
        print("the two runs decide different grids")
        return 2
    moved = [(r, q) for r, q in zip(old, new)
             if (r["status"], r["reason"]) != (q["status"], q["reason"])]
    for r, q in moved:
        print(f"{r['ideal']} {r['spec']}: {r['status']} ({r['reason']})"
              f" -> {q['status']} ({q['reason']})")
    flips = [(r, q) for r, q in moved if {r["status"], q["status"]} == {"in", "not_in"}]
    for r, q in flips:
        print(f"FLIP {r['spec']} under {r['ideal']}: {r['status']} -> {q['status']}")
    print(f"{len(moved)} of {len(old)} verdicts moved, {len(flips)} between in and not_in")
    return 1 if moved else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args and args[0] == "--compare" and len(args) == 3:
        sys.exit(compare(args[1], args[2]))
    if args:
        sys.exit("usage: grid.py [--compare A B]")
    sys.exit(run())
