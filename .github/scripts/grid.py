"""Verdict grid: seeded random set trees and matrices decided under six ideals.

The verdict half builds 3000 random trees of depth up to 4 for each of the
seeds 0 and 7919, over every atom and operator of the set DSL (some
progression steps above PERIOD_CAP, whose sets have no periodic form), and
decides each tree under fin, z, bd, finxfin, matrix:cesaro and
matrix:identity.  The regularity half then decides, under the same six
ideals at 256 rows, the regularity of cesaro, identity, gen:geometric, three
seeded gen:rand_rowfinite_<s>, four seeded explicit tables, and row drops
of each of those over seeded trees.  Each verdict is one JSON line on
stdout: spec, ideal, status (the overall verdict, for a matrix) and reason
(the three conditions, for a matrix).  On stderr each half prints its
undecided counts and the sha256 digest of its (spec, ideal, status, reason)
lines: two versions of the package decide a half alike exactly when its
digests agree.  ``--compare A B`` reads two saved runs and lists each
verdict whose status or reason moved, then every flip between ``in`` and
``not_in`` or between ``regular`` and ``not_regular``, by spec; it exits 1
when anything moved.  Stdlib only; CI compares the two digests with
``.github/scripts/grid_digests.txt``, so a change that moves a verdict
commits its new digest.  Run it from the repository root:

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
# Per seed: random row-finite matrices, explicit tables, and row drops per base.
RANDOM_MATRICES, TABLES, DROPS = 3, 4, 4
REGULARITY_ROWS = 256
ENTRIES = ("0", "1", "-1", "1/2", "1/3", "2")
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


def matrices(rng: random.Random) -> list[str]:
    """Matrix specs for one seed: the fixed kinds, seeded random ones and
    explicit tables, then row drops of each over seeded trees."""
    bases = ["cesaro", "identity", "gen:geometric"]
    bases += [f"gen:rand_rowfinite_{rng.randrange(100)}" for _ in range(RANDOM_MATRICES)]
    for _ in range(TABLES):
        rows = ([rng.choice(ENTRIES) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4)))
        bases.append("explicit:" + ";".join(",".join(row) for row in rows))
    return bases + [f"rowdrop:{base}:{tree(rng, DEPTH)}" for base in bases for _ in range(DROPS)]


def half(title: str, lines, total: int) -> None:
    """Write one half's JSON lines; print its undecided counts and digest."""
    digest, undecided = hashlib.sha256(), dict.fromkeys(IDEALS, 0)
    for record in lines:
        line = json.dumps(record)
        digest.update(line.encode() + b"\n")
        undecided[record["ideal"]] += record["status"] == "undecided"
        sys.stdout.write(line + "\n")
    counts = ", ".join(f"{name} {n}" for name, n in undecided.items())
    print(f"undecided of {total} {title}: {counts}", file=sys.stderr)
    print(f"sha256 {digest.hexdigest()}", file=sys.stderr)


def run() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from subsum.ideals import parse_ideal
    from subsum.setlang import parse_set
    from subsum.summability import parse_matrix, regularity_verdict

    ideals = [parse_ideal(name) for name in IDEALS]

    def verdicts():
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(TREES):
                spec = tree(rng, DEPTH)
                s = parse_set(spec)
                for name, ideal in zip(IDEALS, ideals):
                    v = ideal.decide(s)
                    yield {"spec": spec, "ideal": name, "status": v.status, "reason": v.reason}

    specs = [spec for seed in SEEDS for spec in matrices(random.Random(f"regularity:{seed}"))]

    def regularities():
        for spec in specs:
            m = parse_matrix(spec)
            for name, ideal in zip(IDEALS, ideals):
                v = regularity_verdict(m, ideal, n_rows=REGULARITY_ROWS)
                reason = "; ".join(f"{label} {rep.holds}: {rep.detail}"
                                   for label, rep in (("r1", v.r1), ("r2", v.r2), ("r3", v.r3)))
                yield {"spec": spec, "ideal": name, "status": v.overall, "reason": reason}

    half("trees", verdicts(), len(SEEDS) * TREES)
    half("matrices", regularities(), len(specs))
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
    opposites = ({"in", "not_in"}, {"regular", "not_regular"})
    flips = [(r, q) for r, q in moved if {r["status"], q["status"]} in opposites]
    for r, q in flips:
        print(f"FLIP {r['spec']} under {r['ideal']}: {r['status']} -> {q['status']}")
    print(f"{len(moved)} of {len(old)} verdicts moved, {len(flips)} between in and not_in"
          " or regular and not_regular")
    return 1 if moved else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args and args[0] == "--compare" and len(args) == 3:
        sys.exit(compare(args[1], args[2]))
    if args:
        sys.exit("usage: grid.py [--compare A B]")
    sys.exit(run())
