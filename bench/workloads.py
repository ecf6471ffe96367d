"""The four workloads: seeded op lists, each op with an independent check.

A workload is built from ``random.Random(f"bench:{workload}:{seed}")``.
The structure of a pass (which function, which matrix kind, which row
count, which tree shape) is fixed, so the cost of a pass barely moves with
the seed; the seed picks the parameters the program sees (progressions,
finite sets, offsets, stems, bounds, sequences of one cost class).

``top`` ops are the scale of ROADMAP's baseline table.  They run once per
run and are never shrunk: the ones that overrun the deadline today are
stopped and counted as failed, so the known defects stay visible.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import reference as R

UNCHECKED = "unchecked"
SCALE = 10**4
IDEALS = ("fin", "z", "bd", "finxfin")


@dataclass
class Op:
    kind: str
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    decided: Callable[[Any], bool | None] = lambda result: None
    expect: tuple = ()  # exception types that are this op's documented outcome


class Parsed:
    """Parses spec strings with the program's own parsers and records them,
    so that the set-up probe can time exactly the same parsing."""

    def __init__(self, subsum):
        self.S = subsum
        self.specs: list[tuple[str, str]] = []
        self._cache: dict[tuple[str, str], Any] = {}

    def _get(self, parser: str, text: str):
        key = (parser, text)
        if key not in self._cache:
            self._cache[key] = getattr(self.S, parser)(text)
            self.specs.append(key)
        return self._cache[key]

    def set(self, text):
        return self._get("parse_set", text)

    def ideal(self, text):
        return self._get("parse_ideal", text)

    def matrix(self, text):
        return self._get("parse_matrix", text)

    def seq(self, text):
        return self._get("parse_sequence", text)

    def selector(self, text):
        return self._get("parse_selector", text)

    def strategy(self, text):
        return self._get("parse_strategy", text)

    def row(self, text):
        return self._get("parse_row", text)


def _status_decided(result) -> bool:
    return result.status != "undecided"


class Memo:
    """Lazily computed reference values, shared between ops."""

    def __init__(self):
        self._values: dict = {}

    def get(self, key, make):
        if key not in self._values:
            self._values[key] = make()
        return self._values[key]


# ------------------------------------------------------------------ set trees


class TreeGen:
    """Seeded atoms of fixed kind; a template fixes the tree's shape."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def A(self):
        # Odd first term, even step: every member has nu2 = 0, so whether a
        # verdict is decided never depends on the parameters the seed picks.
        step = 2 * self.rng.randint(1, 6)
        return ("ap", 2 * self.rng.randint(0, step - 1) + 1, step)

    def N(self):
        return ("nu2ge", self.rng.randint(1, 4))

    def Q(self):
        return ("squares",)

    def W(self):
        return ("powers2",)

    def F(self):
        k = self.rng.randint(1, 6)
        return ("finite", tuple(sorted(self.rng.sample(range(1, 65), k))))

    def k(self):
        return self.rng.randint(1, 16)


# Depth <= 3, every atom and every operator.
TEMPLATES = (
    lambda g: g.A(),
    lambda g: g.N(),
    lambda g: g.Q(),
    lambda g: g.F(),
    lambda g: ("dyadic", g.A()),
    lambda g: ("complement", g.Q()),
    lambda g: ("union", g.Q(), g.W()),
    lambda g: ("union", g.A(), g.Q()),
    lambda g: ("intersect", g.Q(), g.A()),
    lambda g: ("intersect", g.A(), g.A()),
    lambda g: ("intersect", g.N(), g.A()),
    lambda g: ("shift", ("intersect", g.Q(), g.W()), -g.k()),
    lambda g: ("complement", ("union", g.A(), g.F())),
    lambda g: ("union", ("dyadic", g.N()), g.F()),
    lambda g: ("intersect", ("complement", g.W()), g.A()),
    lambda g: ("shift", ("union", g.W(), g.N()), g.k()),
    lambda g: ("dyadic", ("intersect", g.A(), g.Q())),
    lambda g: ("union", ("intersect", g.Q(), g.A()), ("shift", g.F(), g.k())),
    lambda g: ("complement", ("intersect", ("dyadic", g.W()), g.A())),
)


def _scan(memo, tree, limit):
    return memo.get(("scan", tree, limit), lambda: R.scan(tree, limit))


def _flags(memo, tree, limit):
    return memo.get(("flags", tree, limit), lambda: R.flags(_scan(memo, tree, limit), limit))


def _indicator_transform(memo, matrix, tree, n):
    """Row n of the transform of 1_S for cesaro / identity / finite row drops."""
    bits = _scan(memo, tree, n)
    if matrix.startswith("rowdrop:"):
        _, base, drop = matrix.split(":", 2)
        drop_tree = ("finite", tuple(int(v) for v in drop[len("finite:{"):-1].split(",")))
        if R.member(drop_tree, n):
            return Fraction(0)
        matrix = base
    if matrix == "cesaro":
        return Fraction(R.prefix_count(bits, n), n)
    return Fraction((bits >> (8 * n)) & 1)


def verdict_check(memo, tree, ideal, scale):
    """Decided verdicts against the construction's labels; undecided ones by
    recounting their evidence with the harness's own membership scan."""

    def check(v):
        if v.status in ("in", "not_in"):
            label = memo.get(("label", tree, ideal), lambda: R.ideal_label(tree, ideal))
            if label is None:
                return UNCHECKED
            return None if (v.status == "in") == label else f"wrong verdict {v.status}"
        if v.status != "undecided":
            return f"unknown status {v.status!r}"
        if v.scale != scale:
            return "undecided verdict lost its scale"
        ev = v.evidence
        if ideal in ("fin", "z"):
            bits = _scan(memo, tree, scale)
            for n, c in ev["prefix_counts"]:
                if not 1 <= n <= scale or R.prefix_count(bits, n) != c:
                    return f"prefix count at {n} is {c}"
        elif ideal == "bd":
            fl = _flags(memo, tree, scale)
            for length, text in ev["max_window_density"]:
                if Fraction(text) != R.max_window(fl, scale, length):
                    return f"window density at {length} is {text}"
        elif ideal == "finxfin":
            sc = ev["scale"]
            fl = _flags(memo, tree, sc)
            counts = {k: 0 for k in range(21)}
            for n in range(1, sc + 1):
                if fl[n] and R.nu2(n) <= 20:
                    counts[R.nu2(n)] += 1
            if {int(k): c for k, c in ev["column_counts"].items()} != counts:
                return "nu2 column counts differ"
        else:
            matrix = ideal[len("matrix:"):]
            for n, text in ev["transform_values"]:
                if Fraction(text) != _indicator_transform(memo, matrix, tree, n):
                    return f"probe value at row {n} is {text}"
        return None

    return check


def density_check(memo, tree, limit, window):
    def check(rep):
        bits = _scan(memo, tree, limit)
        for n, c in rep.prefix_counts:
            if not 1 <= n <= limit or R.prefix_count(bits, n) != c:
                return f"prefix count at {n} is {c}"
        ratios = [Fraction(c, n) for n, c in rep.prefix_counts]
        note = None
        if rep.exact is not None:
            d = memo.get(("facts", tree), lambda: R.facts(tree)).density
            if d is None:
                note = UNCHECKED
            elif d != rep.exact:
                return f"exact density {rep.exact} != {d}"
            if rep.lower_estimate != rep.exact or rep.upper_estimate != rep.exact:
                return "estimates differ from the exact density"
        elif (rep.lower_estimate, rep.upper_estimate) != (min(ratios), max(ratios)):
            return "estimates are not the extreme prefix ratios"
        if window is not None:
            got, w = rep.banach_upper
            if w != window or got != R.max_window(_flags(memo, tree, limit), limit, window):
                return f"window density {got}"
        return note

    return check


def verdicts(rng, P, memo):
    g = TreeGen(rng)
    top = [Op(
        "density_report.top", "density_report(union:builtin:squares|builtin:powers2, 10^6)",
        lambda s=P.set("union:builtin:squares|builtin:powers2"): P.S.density_report(s, 10**6),
        density_check(memo, ("union", ("squares",), ("powers2",)), 10**6, None),
        lambda rep: rep.exact is not None,
    )]
    ops = []
    for i, template in enumerate(TEMPLATES * 2):
        tree = template(g)
        text = R.render(tree)
        s = P.set(text)
        for ideal in IDEALS:
            ideal_obj = P.ideal(ideal)
            ops.append(Op(
                f"verdict.{ideal}", f"verdict({text}, {ideal}, {SCALE})",
                lambda I=ideal_obj, s=s: I.verdict(s, SCALE),
                verdict_check(memo, tree, ideal, SCALE), _status_decided,
            ))
        if i % 3 == 1:
            ops.append(Op(
                "density_report", f"density_report({text}, 4096, window=64)",
                lambda s=s: P.S.density_report(s, 4096, window=64),
                density_check(memo, tree, 4096, 64), lambda rep: rep.exact is not None,
            ))
    return top, ops


# ------------------------------------------------------------------ transforms


def transform_check(memo, matrix, x, rows, tail_tol=Fraction(0)):
    def check(points):
        if [p.n for p in points] != list(range(1, rows + 1)):
            return "rows are not 1..n"
        if matrix[0] == "geometric":
            cf = R.geometric_closed_form(x)
            for p in points:
                if p.tail_bound > tail_tol or abs(p.value - cf) > p.tail_bound:
                    return f"row {p.n}: {p.value} not within {p.tail_bound} of {cf}"
            return None
        ref = memo.get(("transform", matrix, x, rows),
                       lambda: R.transform_values(matrix, x, rows))
        for p, want in zip(points, ref):
            if p.tail_bound != 0 or p.value != want:
                return f"row {p.n}: {p.value} != {want}"
        return None

    return check


def _rle(rng, length):
    bits = [rng.randint(0, 1) for _ in range(length)]
    runs, cur, n = [], bits[0], 0
    for b in bits:
        if b == cur:
            n += 1
        else:
            runs.append(f"{cur}x{n}")
            cur, n = b, 1
    runs.append(f"{cur}x{n}")
    return "rle:" + ",".join(runs)


def _const(rng):
    return f"const:{rng.randint(-9, 9)}/{rng.randint(1, 9)}"


def regularity_check(seed, n_rows):
    def check(v):
        if v.overall == "regular":
            return "a sampled generator matrix was certified regular"
        if v.overall not in ("undecided", "not_regular"):
            return f"unknown overall {v.overall!r}"
        floor = max(sum(abs(R.rand_rowfinite_entry(seed, n, k)) for k in range(1, n + 1))
                    for n in range(1, 65))
        if v.r1.holds == "at_scale" and Fraction(v.r1.data["bound"]) < floor:
            return f"row l1 bound {v.r1.data['bound']} below the first 64 rows' {floor}"
        return None

    return check


def domain_op(P, matrix, x, n, tol):
    spec = R.matrix_spec(matrix)
    m, xs = P.matrix(spec), P.seq(x)

    def check(d):
        if d.status != "converged" or d.n != n:
            return f"row {n} did not converge: {d.status}"
        if matrix[0] == "geometric":
            cf = R.geometric_closed_form(x)
            return None if d.tail_bound <= tol and abs(d.value - cf) <= d.tail_bound else (
                f"{d.value} not within {d.tail_bound} of {cf}")
        want = R.transform_values(matrix, x, n)[-1]
        return None if d.value == want and d.tail_bound == 0 else f"{d.value} != {want}"

    return Op("domain_check", f"domain_check({spec}, {x}, {n})",
              lambda: P.S.domain_check(m, xs, n, tol), check,
              lambda d: d.status == "converged")


def transforms(rng, P, memo):
    g = TreeGen(rng)
    S = P.S
    zero_one = ("alt", "alt10", "blocks01")
    signed = ("n", "nalt")
    rand_seed = rng.randint(1, 99)
    drop = g.F()
    explicit = tuple(tuple(Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(k))
                     for k in range(1, rng.randint(5, 8)))
    ces, ide, rnd = ("cesaro",), ("identity",), ("rand", rand_seed)
    rowdrop_f = ("rowdrop", ces, drop)
    rowdrop_a = ("rowdrop", ces, ("ap", rng.randint(1, 8), 8))
    geo = ("geometric",)
    tol = Fraction(1, 10**6)
    slots = [
        (ces, rng.choice(zero_one), 64), (ces, rng.choice(signed), 128),
        (ces, rng.choice(zero_one), 256), (ces, "sqperturb", 128), (ces, _const(rng), 128),
        (ces, _rle(rng, 64), 64),
        (ide, rng.choice(zero_one), 256), (ide, rng.choice(signed), 128),
        (ide, "sqperturb", 128),
        (rowdrop_f, rng.choice(signed), 128), (rowdrop_a, rng.choice(zero_one), 256),
        (rnd, rng.choice(zero_one), 64), (rnd, rng.choice(signed), 64),
        (rnd, _const(rng), 128),
        (("explicit", explicit), rng.choice(("sqperturb", "n", "blocks01")), 256),
        (geo, rng.choice(zero_one[:2]), 64), (geo, rng.choice(signed), 128),
        (geo, _const(rng), 256),
    ]
    ops = []
    for matrix, x, rows in slots:
        spec = R.matrix_spec(matrix)
        m, xs = P.matrix(spec), P.seq(x)
        t = tol if matrix is geo else Fraction(0)
        ops.append(Op(
            f"transform_prefix.{matrix[0]}", f"transform_prefix({spec}, {x}, {rows})",
            lambda m=m, xs=xs, rows=rows, t=t: S.transform_prefix(m, xs, rows, tail_tol=t),
            transform_check(memo, matrix, x, rows, t),
        ))
    drop_ideal = f"matrix:rowdrop:cesaro:{R.render(g.F())}"
    for ideal, tree in (("matrix:cesaro", ("dyadic", g.A())),
                        ("matrix:identity", rng.choice([("squares",), ("powers2",)])),
                        (drop_ideal, ("union", g.Q(), g.W())),
                        ("matrix:identity", ("intersect", g.A(), g.F()))):
        I, s = P.ideal(ideal), P.set(R.render(tree))
        ops.append(Op(
            "verdict.matrix", f"verdict({R.render(tree)}, {ideal}, 256)",
            lambda I=I, s=s: I.verdict(s, 256), verdict_check(memo, tree, ideal, 256),
            _status_decided,
        ))
    rm = P.matrix(f"gen:rand_rowfinite_{rand_seed}")
    fin = P.ideal("fin")
    ops.append(Op(
        "regularity_verdict", f"regularity_verdict(gen:rand_rowfinite_{rand_seed}, fin, 256)",
        lambda: S.regularity_verdict(rm, fin, n_rows=256),
        regularity_check(rand_seed, 256), lambda v: v.overall != "undecided",
    ))
    ops += [
        domain_op(P, ces, rng.choice(zero_one + signed), rng.randint(1, 64), tol),
        domain_op(P, rnd, rng.choice(signed), rng.randint(1, 48), tol),
        domain_op(P, geo, rng.choice(("alt", "n", "nalt")), rng.randint(1, 64), tol),
        domain_op(P, geo, _const(rng), rng.randint(1, 64), tol),
        domain_op(P, ide, rng.choice(zero_one + signed), rng.randint(1, 64), tol),
    ]
    alt, r3 = P.seq("alt"), P.matrix("gen:rand_rowfinite_3")
    top = [
        Op("transform_prefix.top", f"transform_prefix({name}, alt, 2048)",
           lambda m=P.matrix(name): S.transform_prefix(m, alt, 2048),
           transform_check(memo, (name,), "alt", 2048))
        for name in ("cesaro", "identity")
    ] + [
        Op("verdict.matrix.top", f"verdict({R.render(tree)}, {ideal}, {SCALE})",
           lambda I=P.ideal(ideal), s=P.set(R.render(tree)): I.verdict(s, SCALE),
           verdict_check(memo, tree, ideal, SCALE), _status_decided)
        for ideal, tree in (("matrix:identity", ("squares",)),
                            ("matrix:cesaro", ("dyadic", ("ap", 1, 2))))
    ] + [
        Op("regularity_verdict.top", "regularity_verdict(gen:rand_rowfinite_3, fin)",
           lambda: S.regularity_verdict(r3, fin), regularity_check(3, SCALE),
           lambda v: v.overall != "undecided"),
    ]
    return top, ops


# ------------------------------------------------------------------ constructions


def _cesaro_row(x, values, n):
    return sum((R.seq_value(x, v) for v in values[:n]), Fraction(0)) / n


def restricted_block(ideal, w0, q):
    """Block q of the ideal's interval partition traced on rows >= w0 (the
    rows of the running average that reach past the stem), empties dropped."""
    if ideal == "fin":
        return (w0 + q - 1,)
    j = 1
    while (1 << (j + 1)) <= w0:  # blocks wholly below w0 are empty
        j += 1
    j += q - 1
    return tuple(range(max(1 << j, w0), 1 << (j + 1)))


def escape_check(x, ideal, m0, p0):
    def check(res):
        values = R.stem_selector_values(res.selector.stem, max(res.block) + 1)
        q = res.block_index
        want_block = restricted_block(ideal, res.detail["stem_columns"] + 1, q)
        if q < p0 or tuple(res.block) != want_block:
            return f"block {q} is not the partition's fresh block"
        rows = dict(res.row_values)
        if sorted(rows) != sorted(res.block):
            return "row values do not cover the block"
        for n in res.block:
            if rows[n] != _cesaro_row(x, values, n):
                return f"row {n} re-sums to a different value"
        if res.holds != all(abs(v) >= m0 for v in rows.values()):
            return "holds flag disagrees with the re-summed rows"
        return None

    return check


def meagerness_check(x, schedule):
    def check(demo):
        if len(demo.results) != len(schedule):
            return "wrong number of rounds"
        last = 0
        for res, m0 in zip(demo.results, schedule):
            if min(res.block) <= last:
                return "blocks are not fresh"
            last = max(res.block)
            reason = escape_check(x, "z", m0, 1)(res)
            if reason:
                return reason
        return None if demo.all_hold == all(r.holds for r in demo.results) else "all_hold"

    return check


def adversary_check(matrix, mode, scale):
    def check(rep):
        cert = rep.certificate
        if rep.x_spec == "blocks01":
            bits = [1 - (n.bit_length() - 1) % 2 for n in range(1, rep.scale + 1)]
        elif rep.x_spec == "alt10":
            bits = [n % 2 for n in range(1, rep.scale + 1)]
        elif rep.x_spec.startswith("rle:"):
            bits = R.parse_rle(rep.x_spec[len("rle:"):])
        else:
            return f"unexpected adversary sequence {rep.x_spec}"
        if len(bits) != rep.scale or rep.scale < scale:
            return "bit stream length differs from the reported scale"
        values = R.bits_transform(matrix, bits)
        for sc, lo, up in zip(cert.scales, cert.lower_counts, cert.upper_counts):
            if lo != sum(1 for v in values[:sc] if v <= cert.lower):
                return f"lower count at {sc} does not recount"
            if up != sum(1 for v in values[:sc] if v >= cert.upper):
                return f"upper count at {sc} does not recount"
        floor = Fraction(1, 10)
        ok = cert.delta_lower >= floor and cert.delta_upper >= floor
        if rep.status == "certified" and not ok:
            return "certified below the 1/10 density floor"
        if mode == "blocks" and rep.status != ("certified" if ok else "diagnostic"):
            return f"status {rep.status} disagrees with the recount"
        return None

    return check


def ideal_limit_check(values, ideal):
    n = len(values)

    def check(v):
        if v.status == "limit":
            flags = [1 if abs(x - v.eta) > v.eps else 0 for x in values]
            bad, counts = 0, {}
            for i, f in enumerate(flags, 1):
                bad += f
                counts[i] = bad
            for cp, c in v.evidence["exception_counts"]:
                if counts[cp] != c:
                    return f"exception count at {cp} does not recount"
            if ideal == "fin" and any(flags[n // 2:]):
                return "fin limit with exceptions in the second half"
        elif v.status == "no_limit":
            lo = sum(1 for x in values if x <= v.lower)
            up = sum(1 for x in values if x >= v.upper)
            if (Fraction(lo, n), Fraction(up, n)) != (v.delta_lower, v.delta_upper):
                return "hit densities do not recount"
            if 8 * lo < n or 8 * up < n:
                return "no-limit levels hit less than 1/8 of the time"
        elif v.status != "undecided":
            return f"unknown status {v.status!r}"
        return None

    return check


def _strategy_reply(strategy, tree, r):
    """The documented reply of each strategy, by the harness's own scan."""
    def members(count=None, until=None):
        out, n = [], 0
        while (count is None or len(out) < count) and (until is None or n < until):
            n += 1
            if R.member(tree, n):
                out.append(n)
        return out

    if strategy == "greedy_min":
        return tuple(members(count=1))
    if strategy == "prefix_take":
        return tuple(members(count=r))
    if strategy == "prefix_density":
        out, m = [], 0
        while True:
            m += 1
            if R.member(tree, m):
                out.append(m)
            if m >= r and 2 * len(out) >= m and out:
                return tuple(out)
    seed = int(strategy.split(":")[1])
    pool = members(count=8 + r)
    rng = random.Random(f"{seed}:{r}")
    return tuple(sorted(rng.sample(pool, rng.randrange(1, len(pool) + 1))))


def game_check(ideal, trees, strategy):
    def check(result):
        transcript, ruling, replayed = result
        if not replayed:
            return "replay_matches rejected the transcript"
        if len(transcript.rounds) != len(trees):
            return "wrong number of rounds"
        union = set()
        for rnd, tree in zip(transcript.rounds, trees):
            if rnd.move_spec != R.render(tree):
                return f"round {rnd.index} played {rnd.move_spec}"
            if rnd.reply != _strategy_reply(strategy, tree, rnd.index):
                return f"round {rnd.index} reply {rnd.reply} does not replay"
            union.update(rnd.reply)
        if ideal == "z":
            scale = max(max(r.witness.get("scale", 0), max(r.reply)) for r in transcript.rounds)
            if ruling.evidence["count"] != sum(1 for v in union if v <= scale):
                return "adjudication count does not recount"
        return None

    return check


def metric_check(s1, s2, res):
    def check(mi):
        diff = R.selector_image(s1, res) ^ R.selector_image(s2, res)
        lo = sum((Fraction(1, 1 << i) for i in diff), Fraction(0))
        if (mi.lo, mi.hi) != (lo, lo + Fraction(1, 1 << res)):
            return f"metric interval [{mi.lo}, {mi.hi}] != [{lo}, ...]"
        return None

    return check


def constructions(rng, P, memo):
    g = TreeGen(rng)
    S = P.S
    ces, n_seq = P.matrix("cesaro"), P.seq("n")
    ops = []
    for ideal, p0 in (("z", 4), ("z", 5), ("z", 6), ("z", 7), ("fin", 5), ("fin", 9)):
        m0 = rng.choice((1, 2, 4))
        I = P.ideal(ideal)
        ops.append(Op(
            f"escape_rowfinite.{ideal}", f"escape_rowfinite(cesaro, n, {ideal}, m0={m0}, p0={p0})",
            lambda I=I, m0=m0, p0=p0: S.escape_rowfinite((), ces, n_seq, I, m0, p0=p0),
            escape_check("n", ideal, m0, p0), lambda r: r.holds,
        ))
    ub_stem, ub_m0 = (rng.randint(1, 9),), rng.randint(2, 20)
    row = P.row("geometric")

    def unbounded_check(res):
        values = R.stem_selector_values(res.selector.stem, res.pivot_index)
        s = sum((Fraction(1, 1 << k) * v for k, v in enumerate(values, 1)), Fraction(0))
        if s != res.partial_sum or res.holds != (abs(s) >= ub_m0 + 1):
            return "partial sum through the pivot re-sums differently"
        return None

    ops.append(Op("escape_unbounded", f"escape_unbounded({ub_stem}, geometric, n, m0={ub_m0})",
                  lambda: S.escape_unbounded(ub_stem, row, n_seq, ub_m0), unbounded_check,
                  lambda r: r.holds))
    z = P.ideal("z")
    ops.append(Op("meagerness_demo", "meagerness_demo(cesaro, n, z, (1,2))",
                  lambda: S.meagerness_demo(ces, n_seq, z, (1, 2)),
                  meagerness_check("n", (1, 2)), lambda d: d.all_hold))
    drop = g.F()
    for matrix in (("cesaro",), ("identity",), ("rowdrop", ("cesaro",), drop)):
        spec = R.matrix_spec(matrix)
        m = P.matrix(spec)
        for mode in ("blocks", "greedy"):
            expect = (S.PreconditionError,) if (matrix[0], mode) == ("identity", "greedy") else ()
            ops.append(Op(
                f"steinhaus_adversary.{mode}", f"steinhaus_adversary({spec}, {mode}, 4096)",
                lambda m=m, mode=mode: S.steinhaus_adversary(m, mode=mode, scale=4096),
                adversary_check(matrix, mode, 4096), lambda r: r.status == "certified",
                expect,
            ))
    # One stream per verdict path (no_limit, limit, no_limit on 0/1 values);
    # the seed varies the values, not the path.
    q = rng.choice((3, 5, 7))
    streams = (
        (("cesaro",), "blocks01"),
        (("cesaro",), f"const:{rng.choice([p for p in range(1, 10) if p % q])}/{q}"),
        (("identity",), rng.choice(("alt", "alt10"))),
    )
    for matrix, x in streams:
        values = R.transform_values(matrix, x, 512)
        for ideal in ("fin", "z", "bd"):
            I = P.ideal(ideal)
            ops.append(Op(
                f"ideal_limit.{ideal}", f"ideal_limit({R.matrix_spec(matrix)}*{x}, {ideal})",
                lambda values=values, I=I: S.ideal_limit(values, I),
                ideal_limit_check(values, ideal), lambda v: v.status != "undecided",
            ))
    stem = rng.choice(((), (1,), (2,), (1, 3)))
    x_osc = rng.choice(("alt", "alt10"))
    xo = P.seq(x_osc)

    def osc_check(pair):
        for sel, got in ((pair.lower_selector, pair.lower_value),
                         (pair.upper_selector, pair.upper_value)):
            want = _cesaro_row(x_osc, R.stem_selector_values(sel.stem, pair.row), pair.row)
            if got != want or tuple(sel.stem[:len(stem)]) != stem:
                return "decision row re-sums to a different value"
        if pair.gap < (pair.upper_target - pair.lower_target) / 2:
            return "transforms did not separate"
        return None

    ops.append(Op("oscillation_pair", f"oscillation_pair({stem}, {x_osc}, cesaro)",
                  lambda: S.oscillation_pair(stem, xo, ces), osc_check))
    tower = [("nu2ge", r) for r in range(1, 11)]
    games = (
        ("finxfin", tower, "greedy_min"),
        ("finxfin", tower, rng.choice(("prefix_take", f"seeded_random:{rng.randint(0, 99)}"))),
        ("z", [("complement", rng.choice((g.Q(), g.W(), g.F()))) for _ in range(10)],
         "prefix_density"),
        ("fin", [("complement", g.F()) for _ in range(10)],
         rng.choice(("greedy_min", "prefix_take"))),
    )
    for ideal, trees, strategy in games:
        I, st = P.ideal(ideal), P.strategy(strategy)
        moves = [P.set(R.render(t)) for t in trees]

        def play(I=I, st=st, moves=moves):
            transcript = S.play_game(I, moves, st, rounds=len(moves))
            return transcript, S.adjudicate(transcript, I), S.replay_matches(I, transcript, st)

        ops.append(Op(f"game.{ideal}", f"play_game({ideal}, {strategy}, 10 rounds)",
                      play, game_check(ideal, trees, strategy)))
    named = ("id", "even", "odd", "evenshift", "squares")
    # Image scans cost ~res^2 for step-2 rules and ~res^1.5 for squares, so
    # each slot fixes the rule kinds and the seed picks among equals.
    step2 = ("even", "odd", "evenshift")
    stem_sel = f"stem:{{{rng.randint(1, 3)},{rng.randint(4, 9)}}}+consec"
    a = rng.choice(step2)
    for a, b, res in ((a, rng.choice([r for r in step2 if r != a]), 400),
                      ("squares", rng.choice(("id", stem_sel)), 200),
                      (rng.choice(step2), stem_sel, 40),
                      ("squares", stem_sel, 40)):
        s1, s2 = P.selector(a), P.selector(b)
        ops.append(Op("metric", f"metric({a}, {b}, {res})",
                      lambda s1=s1, s2=s2, res=res: S.metric(s1, s2, res),
                      metric_check(a, b, res)))
    for row_spec, x in (("geometric", rng.choice(("alt", "alt10", "blocks01", _const(rng)))),
                        ("list:" + ",".join(str(rng.randint(-5, 5)) for _ in range(8)),
                         rng.choice(("n", "nalt", "sqperturb")))):
        sel_spec = rng.choice(named)
        row, xs, sel = P.row(row_spec), P.seq(x), P.selector(sel_spec)
        tol = Fraction(1, 10**9)

        def st_check(fv, row_spec=row_spec, x=x, sel_spec=sel_spec, tol=tol):
            if row_spec == "geometric":
                depth = 200
                sup = max(abs(R.seq_value(x, n)) for n in range(1, 9))
                terms = [Fraction(1, 1 << k) * R.seq_value(x, R.selector_value(sel_spec, k))
                         for k in range(1, depth + 1)]
                slack = sup / (1 << depth)
                if fv.tail_bound > tol:
                    return "tail bound above the tolerance"
            else:
                vals = [Fraction(v) for v in row_spec[len("list:"):].split(",")]
                terms = [a * R.seq_value(x, R.selector_value(sel_spec, k))
                         for k, a in enumerate(vals, 1)]
                slack = 0
            return None if abs(fv.value - sum(terms)) <= fv.tail_bound + slack else (
                f"selector transform {fv.value} off")

        ops.append(Op("selector_transform", f"selector_transform({row_spec}, {x}, {sel_spec})",
                      lambda row=row, xs=xs, sel=sel, tol=tol:
                      S.selector_transform(row, xs, sel, tol), st_check))
    for x in (rng.choice(("alt", "alt10", "blocks01")), _const(rng)):
        eps = Fraction(1, 1 << rng.randint(4, 40))
        row, xs = P.row("geometric"), P.seq(x)
        sup = Fraction(1) if not x.startswith("const:") else abs(Fraction(x[len("const:"):]))

        def mod_check(delta, sup=sup, eps=eps):
            if sup == 0:
                return None if delta == 1 else f"modulus {delta} for a zero sequence"
            k0 = next(k for k in range(1, 10**4) if Fraction(1, 1 << k) < eps / (2 * sup))
            return None if delta == Fraction(1, 1 << k0) else f"modulus {delta}"

        ops.append(Op("modulus_of_continuity", f"modulus_of_continuity({x}, geometric, {eps})",
                      lambda xs=xs, row=row, eps=eps: S.modulus_of_continuity(xs, row, eps),
                      mod_check))
    cesaro = ("cesaro",)
    top = [
        Op("meagerness_demo.top", f"meagerness_demo(cesaro, n, z, {schedule})",
           lambda schedule=schedule: S.meagerness_demo(ces, n_seq, z, schedule),
           meagerness_check("n", schedule), lambda d: d.all_hold)
        for schedule in ((1, 2, 4), (1, 2, 4, 8))
    ] + [
        Op("steinhaus_adversary.top", f"steinhaus_adversary(cesaro, {mode}, 2^16)",
           lambda mode=mode: S.steinhaus_adversary(ces, mode=mode, scale=1 << 16),
           adversary_check(cesaro, mode, 1 << 16), lambda r: r.status == "certified")
        for mode in ("blocks", "greedy")
    ]
    values = R.transform_values(cesaro, "blocks01", 2048)
    top += [
        Op("ideal_limit.top", f"ideal_limit(cesaro*blocks01 2048 values, {ideal})",
           lambda I=P.ideal(ideal): S.ideal_limit(values, I), ideal_limit_check(values, ideal),
           lambda v: v.status != "undecided")
        for ideal in ("fin", "z", "bd")
    ]
    return top, ops


# ------------------------------------------------------------------ cli


@dataclass
class CliResult:
    code: int | None  # None: stopped at the deadline
    out: str
    records: list = field(default_factory=list)


class CliRunner:
    """Runs ``python -m subsum.cli`` one subprocess at a time, each with its
    own run log, from the checkout root with PYTHONPATH=src."""

    def __init__(self, root, work, deadline, child_argv=None):
        self.root, self.work, self.deadline = root, work, deadline
        self.child_argv = child_argv  # replaces [-m subsum.cli] in the traced run
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.count = 0

    def run(self, argv):
        self.count += 1
        log = os.path.join(self.work, f"runlog-{self.count}.jsonl")
        head = self.child_argv or ["-m", "subsum.cli"]
        cmd = [sys.executable, *head, *argv, "--runlog", log]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self.deadline)
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired as exc:
            code = None
            out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        records = []
        if os.path.exists(log):
            with open(log, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle if line.strip()]
            os.remove(log)
        return CliResult(code, out, records)


def cli_check(codes, content=None):
    """Exit code among the documented ones for this input, exactly one run
    log record that states that code and the digest of what was printed."""

    def check(res):
        if res.code is None:
            return "stopped at the deadline"
        if res.code not in codes:
            return f"exit {res.code}, documented {sorted(codes)}"
        if len(res.records) != 1:
            return f"{len(res.records)} run-log records"
        rec = res.records[0]
        if rec.get("exit") != res.code:
            return "run-log exit code differs"
        printed = res.out[:-1] if res.out.endswith("\n") else res.out
        digest = hashlib.sha256(printed.encode()).hexdigest() if res.out else None
        if rec.get("digest") != digest:
            return "run-log digest differs from stdout"
        if content is not None and res.code == 0:
            return content(json.loads(res.out))
        return None

    return check


def _cli_decided(field_name, good):
    def decided(res):
        if res.code is None or not res.out:
            return None
        value = json.loads(res.out).get(field_name)
        return None if value is None else value in good
    return decided


def cli(rng, P, runner):
    g = TreeGen(rng)
    work = runner.work

    def op(kind, argv, codes, content=None, decided=lambda r: None):
        return Op(f"cli.{kind}", "subsum " + " ".join(argv)[:120],
                  lambda: runner.run(argv), cli_check(codes, content), decided)

    dens_tree = rng.choice(TEMPLATES[6:12])(g)
    # Shapes whose z verdict is closed-form for any parameters.
    verdict_tree = rng.choice([TEMPLATES[i] for i in (0, 1, 2, 6, 7, 9)])(g)
    ideal = "z"
    x_tr = rng.choice(("alt", "alt10", "blocks01", "n"))
    rows = rng.randint(8, 32)
    cert = os.path.join(work, "cert.json")
    stem = rng.randint(1, 5)
    m0 = rng.randint(2, 9)

    def density_content(d):
        bits = R.scan(dens_tree, 4096)
        ok = all(R.prefix_count(bits, n) == c for n, c in d["prefix_counts"])
        return None if ok else "density counts do not recount"

    def verdict_content(d):
        label = R.ideal_label(verdict_tree, ideal)
        if d["status"] == "undecided" or label is None:
            return None
        return None if (d["status"] == "in") == label else "wrong verdict"

    def transform_content(d):
        want = R.transform_values(("cesaro",), x_tr, rows)
        got = [Fraction(r["value"]) for r in d["rows"]]
        return None if got == want else "transform rows differ"

    def adversary_content(d):
        c = d["certificate"]
        bits = [1 - (n.bit_length() - 1) % 2 for n in range(1, d["scale"] + 1)]
        vals = R.bits_transform(("cesaro",), bits)
        lo = [sum(1 for v in vals[:s] if v <= Fraction(c["lower"])) for s in c["scales"]]
        up = [sum(1 for v in vals[:s] if v >= Fraction(c["upper"])) for s in c["scales"]]
        return None if (lo, up) == (c["lower_counts"], c["upper_counts"]) else "recount"

    def escape_unbounded_content(d):
        values = R.stem_selector_values(tuple(d["stem"]) + tuple(d["detail"]["fill"])
                                        + (d["pivot_position"],), d["pivot_index"])
        s = sum((Fraction(1, 1 << k) * R.seq_value("n", v) for k, v in enumerate(values, 1)),
                Fraction(0))
        return None if s == Fraction(d["partial_sum"]) and s >= m0 + 1 else "partial sum"

    def escape_rowfinite_content(d):
        vals = R.stem_selector_values(
            tuple(int(v) for v in d["selector"][len("stem:{"):].split("}")[0].split(",")),
            max(d["block"]))
        for n, v in d["row_values"]:
            if Fraction(v) != _cesaro_row("n", vals, n):
                return f"row {n} re-sums differently"
        return None

    def game_content(d):
        for r in d["rounds"]:
            if r["reply"] != [1 << r["round"]]:
                return "greedy reply is not the least element"
        return None

    ops = [
        op("density", ["density", R.render(dens_tree), "--scale", "4096"], {0}, density_content),
        op("verdict", ["verdict", R.render(verdict_tree), "--ideal", ideal], {0}, verdict_content,
           _cli_decided("status", ("in", "not_in"))),
        op("regularity", ["regularity", "--matrix",
                          f"rowdrop:cesaro:{R.render(rng.choice([g.Q(), g.W(), g.A()]))}",
                          "--ideal", "fin"], {4},
           decided=_cli_decided("overall", ("regular", "not_regular"))),
        op("transform", ["transform", "--matrix", "cesaro", "--x", x_tr, "--rows", str(rows)],
           {0}, transform_content),
        op("domain", ["domain", "--matrix", "cesaro", "--x", x_tr,
                      "--row", str(rng.randint(1, 64))], {0},
           decided=_cli_decided("status", ("converged",))),
        op("metric", ["metric", "--s1", rng.choice(("even", "odd")),
                      "--s2", rng.choice(("odd", "evenshift", "squares"))], {0}),
        op("escape", ["escape", "--mode", "unbounded", "--stem", f"{{{stem}}}", "--row",
                      "geometric", "--x", "n", "--m0", str(m0)], {0}, escape_unbounded_content,
           _cli_decided("holds", (True,))),
        op("escape", ["escape", "--mode", "rowfinite", "--matrix", "cesaro", "--x", "n",
                      "--ideal", "z", "--m0", str(rng.choice((1, 2)))], {0},
           escape_rowfinite_content, _cli_decided("holds", (True,))),
        op("oscillate", ["oscillate", "--x", rng.choice(("alt", "alt10"))], {0}),
        op("adversary", ["adversary", "--matrix", "cesaro", "--certificate-out", cert], {0},
           adversary_content, _cli_decided("status", ("certified",))),
        op("verify", ["verify", cert], {0},
           lambda d: None if d["verified"] is True else "certificate did not verify"),
        op("game", ["game", "--ideal", "finxfin", "--moves", "nu2tower",
                    "--strategy", "greedy_min", "--rounds", "10"], {0}, game_content),
        op("game", ["game", "--ideal", "z", "--moves",
                    f"complement:{R.render(rng.choice([g.Q(), g.W(), g.F()]))}",
                    "--strategy", "prefix_density", "--rounds", "3"], {0}),
        op("density", ["density", R.render(g.A()), "--scale", "1024", "--csv"], {0}),
        op("escape.demo", ["demo", "--schedule", "1,2"], {0},
           decided=_cli_decided("all_hold", (True,))),
        op("verdict", ["verdict", R.render(("dyadic", g.A())), "--ideal",
                       rng.choice(("fin", "finxfin"))], {0},
           decided=_cli_decided("status", ("in", "not_in"))),
        # Never decided: squares in a progression under fin needs number theory.
        op("verdict", ["verdict", R.render(("intersect", g.Q(), g.A())), "--ideal", "fin"], {0},
           decided=_cli_decided("status", ("in", "not_in"))),
        op("regularity", ["regularity", "--matrix", "cesaro", "--ideal", rng.choice(("fin", "z"))],
           {0}, decided=_cli_decided("overall", ("regular", "not_regular"))),
    ]
    # Malformed and hostile inputs (ROADMAP item 4).
    listed = os.path.join(work, "cert-list.json")
    empty = os.path.join(work, "cert-empty.json")
    with open(listed, "w", encoding="ascii") as handle:
        json.dump([1, 2, 3], handle)
    with open(empty, "w", encoding="ascii") as handle:
        json.dump({"kind": "oscillation", "x": "alt", "matrix": "cesaro", "lower": "1/4",
                   "upper": "3/4", "scales": [], "lower_counts": [], "upper_counts": []},
                  handle)
    depth = 5000 + rng.randint(0, 99)
    ops += [
        op("hostile.cert_list", ["verify", listed], {2, 6}),
        op("hostile.cert_empty_scales", ["verify", empty], {2, 6}),
        op("hostile.deep_dsl", ["density", "complement:" * depth + "builtin:squares",
                                "--scale", "64"], {0, 2}),
        op("error.unknown_matrix", ["transform", "--matrix", f"nosuch{rng.randint(0, 99)}",
                                    "--x", "alt"], {2}),
        op("error.bad_dsl", ["verdict", f"union:ap:1,{rng.randint(2, 9)}", "--ideal", "z"], {2}),
    ]
    offset = -(10**12 + rng.randint(0, 10**6))
    top = [
        op("demo.top", ["demo", "--schedule", "1,2,4,8"], {0},
           decided=_cli_decided("all_hold", (True,))),
        op("hostile.huge_shift", ["game", "--ideal", "fin", "--moves",
                                  f"shift:ap:1,1,{offset}", "--strategy", "greedy_min",
                                  "--rounds", "1"], {0, 3}),
    ]
    return top, ops


BUILDERS = {"verdicts": verdicts, "transforms": transforms,
            "constructions": constructions, "cli": cli}
