"""Independent semantics for the benchmark's answer checks.

Nothing here imports ``subsum``.  Sets, sequences, matrices and selectors
are re-derived from the definitions in the README, so that a wrong answer
from the program cannot also be the reference answer.

Set trees are plain tuples:

    ("finite", (m, ...))   ("ap", first, step)    ("squares",)   ("powers2",)
    ("nu2ge", t)           ("dyadic", sel)        ("complement", a)
    ("union", a, b)        ("intersect", a, b)    ("shift", a, offset)

A membership scan up to L is an int whose byte n (little-endian) is 1 iff
n is in the set, so union/intersection/complement/shift are single big-int
operations and a prefix count is a popcount.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt

# ------------------------------------------------------------------ set trees


def render(t) -> str:
    """DSL text for a tree, following the README grammar."""
    kind = t[0]
    if kind == "finite":
        return "finite:{" + ",".join(str(m) for m in t[1]) + "}"
    if kind == "ap":
        return f"ap:{t[1]},{t[2]}"
    if kind == "squares":
        return "builtin:squares"
    if kind == "powers2":
        return "builtin:powers2"
    if kind == "nu2ge":
        return f"builtin:nu2_ge({t[1]})"
    if kind == "dyadic":
        return f"builtin:dyadic_blocks({render(t[1])})"
    if kind == "complement":
        return "complement:" + render(t[1])
    if kind in ("union", "intersect"):
        return f"{kind}:{render(t[1])}|{render(t[2])}"
    if kind == "shift":
        return f"shift:{render(t[1])},{t[2]}"
    raise ValueError(f"unknown tree {t!r}")


def member(t, n: int) -> bool:
    kind = t[0]
    if kind == "finite":
        return n in t[1]
    if kind == "ap":
        return n >= t[1] and (n - t[1]) % t[2] == 0
    if kind == "squares":
        return isqrt(n) ** 2 == n
    if kind == "powers2":
        return n & (n - 1) == 0
    if kind == "nu2ge":
        return n % (1 << t[1]) == 0
    if kind == "dyadic":
        q = n.bit_length() - 1
        return q >= 1 and member(t[1], q)
    if kind == "complement":
        return not member(t[1], n)
    if kind == "union":
        return member(t[1], n) or member(t[2], n)
    if kind == "intersect":
        return member(t[1], n) and member(t[2], n)
    if kind == "shift":
        m = n - t[2]
        return m >= 1 and member(t[1], m)
    raise ValueError(f"unknown tree {t!r}")


def _ones(limit: int) -> int:
    """Scan of N itself: bytes 1..limit set, byte 0 clear."""
    return int.from_bytes(b"\x00" + b"\x01" * limit, "little")


def _from_indices(indices, limit: int) -> int:
    buf = bytearray(limit + 1)
    for i in indices:
        if 1 <= i <= limit:
            buf[i] = 1
    return int.from_bytes(buf, "little")


def scan(t, limit: int) -> int:
    """Membership of every n in [1, limit], one byte per n."""
    kind = t[0]
    if kind == "finite":
        return _from_indices(t[1], limit)
    if kind in ("ap", "nu2ge"):
        first, step = (t[1], t[2]) if kind == "ap" else (1 << t[1], 1 << t[1])
        buf = bytearray(limit + 1)
        buf[first::step] = b"\x01" * len(range(first, limit + 1, step))
        return int.from_bytes(buf, "little")
    if kind == "squares":
        return _from_indices((i * i for i in range(1, isqrt(limit) + 1)), limit)
    if kind == "powers2":
        return _from_indices((1 << k for k in range(limit.bit_length())), limit)
    if kind == "dyadic":
        top = limit.bit_length()
        sel = scan(t[1], top)
        buf = bytearray(limit + 1)
        for q in range(1, top + 1):
            if (sel >> (8 * q)) & 1:
                lo, hi = 1 << q, min((1 << (q + 1)) - 1, limit)
                if lo <= hi:
                    buf[lo:hi + 1] = b"\x01" * (hi - lo + 1)
        return int.from_bytes(buf, "little")
    if kind == "complement":
        return _ones(limit) ^ scan(t[1], limit)
    if kind == "union":
        return scan(t[1], limit) | scan(t[2], limit)
    if kind == "intersect":
        return scan(t[1], limit) & scan(t[2], limit)
    if kind == "shift":
        k = t[2]
        if k >= 0:
            return (scan(t[1], max(limit - k, 0)) << (8 * k)) & _ones(limit)
        return (scan(t[1], limit - k) >> (8 * -k)) & _ones(limit)
    raise ValueError(f"unknown tree {t!r}")


def prefix_count(bits: int, n: int) -> int:
    return (bits & ((1 << (8 * (n + 1))) - 1)).bit_count()


def flags(bits: int, limit: int) -> bytes:
    return bits.to_bytes(limit + 1, "little")


def max_window(flag_bytes: bytes, limit: int, window: int) -> Fraction:
    """max |S ∩ (t, t+window]| / window over windows inside [1, limit]."""
    sums = list(accumulate(flag_bytes[: limit + 1]))
    best = max(sums[t + window] - sums[t] for t in range(0, limit - window + 1))
    return Fraction(best, window)


def nu2(n: int) -> int:
    return (n & -n).bit_length() - 1


# ------------------------------------------------------------------ truth labels


@dataclass(frozen=True)
class Facts:
    """What the construction of a tree tells us; None means "not known".

    ``finite``/``z``/``bd``/``fx``: membership in fin, density-zero,
    Banach-density-zero and the nu2-fiber ideal.  ``density``: the exact
    asymptotic density when it exists and is known.  ``per``: an eventually
    periodic form (period, residues, start) when the set has one.
    """

    finite: bool | None
    z: bool | None
    bd: bool | None
    fx: bool | None
    density: Fraction | None
    per: tuple | None = None


def _from_periodic(p: int, residues: frozenset, start: int) -> Facts:
    empty = not residues
    e = nu2(p)
    fx = not any(r % (1 << e) == 0 for r in residues)
    d = Fraction(len(residues), p)
    return Facts(empty, empty, empty, fx, d, (p, residues, start))


def _combine(a: tuple, b: tuple, op) -> tuple:
    (pa, ra, sa), (pb, rb, sb) = a, b
    p = pa * pb // gcd(pa, pb)
    res = frozenset(r for r in range(p) if op(r % pa in ra, r % pb in rb))
    return p, res, max(sa, sb)


def _and(x, y):
    if x is False or y is False:
        return False
    if x is True and y is True:
        return True
    return None


def facts(t) -> Facts:
    """Truth labels carried by the construction of a tree."""
    kind = t[0]
    if kind == "finite":
        return _from_periodic(1, frozenset(), max(t[1], default=0) + 1)
    if kind == "ap":
        return _from_periodic(t[2], frozenset({t[1] % t[2]}), t[1])
    if kind == "nu2ge":
        return _from_periodic(1 << t[1], frozenset({0}), 1)
    if kind == "squares":
        return Facts(False, True, True, False, Fraction(0))
    if kind == "powers2":
        # Each nu2 fiber holds exactly one power of two.
        return Facts(False, True, True, True, Fraction(0))
    if kind == "dyadic":
        sel = facts(t[1])
        if sel.finite is True:
            if sel.per is not None:
                return _from_periodic(1, frozenset(), 1 << (sel.per[2] + 1))
            return Facts(True, True, True, True, Fraction(0))
        if sel.finite is False:
            # Infinitely many whole blocks [2^q, 2^(q+1)): upper density
            # >= 1/2, arbitrarily long intervals, every fiber met infinitely.
            d = Fraction(1) if sel.per and len(sel.per[1]) == sel.per[0] else None
            return Facts(False, False, False, False, d)
        return Facts(None, None, None, None, None)
    if kind == "complement":
        a = facts(t[1])
        if a.per is not None:
            p, r, s = a.per
            return _from_periodic(p, frozenset(range(p)) - r, s)
        if a.z is True:
            # Complement of a density-zero set: density 1, meets every fiber.
            return Facts(False, False, False, False, Fraction(1))
        return Facts(None, None, None, None, None)
    if kind in ("union", "intersect"):
        a, b = facts(t[1]), facts(t[2])
        if a.per is not None and b.per is not None:
            op = (lambda x, y: x or y) if kind == "union" else (lambda x, y: x and y)
            return _from_periodic(*_combine(a.per, b.per, op))
        if kind == "union":
            d = None
            if a.density is not None and b.density is not None:
                if a.density == 0:
                    d = b.density
                elif b.density == 0:
                    d = a.density
            return Facts(_and(a.finite, b.finite), _and(a.z, b.z), _and(a.bd, b.bd),
                         _and(a.fx, b.fx), d)
        # A subset of a member is a member; nothing else is known.
        fin, z, bd, fx = (
            True if True in (a_, b_) else None
            for a_, b_ in ((a.finite, b.finite), (a.z, b.z), (a.bd, b.bd), (a.fx, b.fx))
        )
        return Facts(fin, z, bd, fx, Fraction(0) if z else None)
    if kind == "shift":
        a = facts(t[1])
        k = t[2]
        if a.per is not None:
            p, r, s = a.per
            return _from_periodic(p, frozenset((x + k) % p for x in r), max(s + k, 1))
        fx = True if a.finite is True else None
        return Facts(a.finite, a.z, a.bd, fx, a.density)
    raise ValueError(f"unknown tree {t!r}")


def ideal_label(t, ideal: str) -> bool | None:
    """True/False for "t is in the ideal", None when the label is unknown.

    ``matrix:cesaro`` and Cesàro with finitely many dropped rows are the
    density-zero ideal; the identity (with finitely many dropped rows) is fin.
    """
    f = facts(t)
    if ideal.startswith("matrix:"):
        base = ideal[len("matrix:"):]
        if base.startswith("rowdrop:"):
            base = base.split(":")[1]
        ideal = {"cesaro": "z", "identity": "fin"}[base]
    return {"fin": f.finite, "z": f.z, "bd": f.bd, "finxfin": f.fx}[ideal]


# ------------------------------------------------------------------ sequences


@lru_cache(maxsize=64)
def parse_rle(text: str) -> tuple[int, ...]:
    bits: list[int] = []
    for chunk in text.split(","):
        b, _, length = chunk.partition("x")
        bits.extend([int(b)] * int(length))
    return tuple(bits)


def seq_value(name: str, n: int) -> Fraction:
    """x_n for the README's named sequences, const:<p/q> and rle:<...>."""
    if name == "alt":
        return Fraction(1 - n % 2)
    if name == "alt10":
        return Fraction(n % 2)
    if name == "blocks01":
        return Fraction(1 - (n.bit_length() - 1) % 2)
    if name == "n":
        return Fraction(n)
    if name == "nalt":
        return Fraction(n if n % 2 == 0 else -n)
    if name == "sqperturb":
        return Fraction(n) if isqrt(n) ** 2 == n else 1 + Fraction(1, n)
    if name.startswith("const:"):
        return Fraction(name[len("const:"):])
    if name.startswith("rle:"):
        bits = parse_rle(name[len("rle:"):])
        return Fraction(bits[n - 1]) if n <= len(bits) else Fraction(0)
    raise ValueError(f"unknown sequence {name!r}")


def seq_values(name: str, limit: int) -> list[Fraction]:
    return [seq_value(name, n) for n in range(1, limit + 1)]


# Sum_k 2^-k x_k for the geometric generator row, where a closed form exists.
GEOMETRIC_CLOSED = {
    "alt": Fraction(1, 3),
    "alt10": Fraction(2, 3),
    "n": Fraction(2),
    "nalt": Fraction(-2, 9),
}


def geometric_closed_form(x: str) -> Fraction:
    if x.startswith("const:"):
        return Fraction(x[len("const:"):])
    return GEOMETRIC_CLOSED[x]


# ------------------------------------------------------------------ matrices


def rand_rowfinite_entry(seed: int, n: int, k: int) -> Fraction:
    """The documented recipe: one mt19937 stream per (seed, n, k)."""
    if k > n:
        return Fraction(0)
    rng = random.Random(f"rowfinite:{seed}:{n}:{k}")
    num = rng.randrange(-9, 10)
    if k == n and num == 0:
        num = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(num, rng.randrange(1, 10))


def transform_values(matrix, x: str, rows: int) -> list[Fraction]:
    """Exact row values 1..rows of a row-finite matrix applied to x.

    ``matrix`` is a harness description: ("cesaro",), ("identity",),
    ("rowdrop", base, drop_tree), ("explicit", rows), ("rand", seed).
    """
    kind = matrix[0]
    xs = seq_values(x, rows)
    if kind == "cesaro":
        return [Fraction(s, n) for n, s in enumerate(accumulate(xs), start=1)]
    if kind == "identity":
        return xs
    if kind == "rowdrop":
        base = transform_values(matrix[1], x, rows)
        drop = flags(scan(matrix[2], rows), rows)
        return [Fraction(0) if drop[n] else base[n - 1] for n in range(1, rows + 1)]
    if kind == "explicit":
        stored = matrix[1]
        out = []
        for n in range(1, rows + 1):
            row = stored[n - 1] if n <= len(stored) else ()
            out.append(sum((a * xs[k] for k, a in enumerate(row)), Fraction(0)))
        return out
    if kind == "rand":
        # Entries are num/den with den in 1..9: accumulate integer multiples
        # of 1/2520 against x, then divide once.
        out = []
        for n in range(1, rows + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                e = rand_rowfinite_entry(matrix[1], n, k)
                acc += (e * 2520) * xs[k - 1]
            out.append(acc / 2520)
        return out
    raise ValueError(f"unknown matrix {matrix!r}")


def matrix_spec(matrix) -> str:
    kind = matrix[0]
    if kind in ("cesaro", "identity"):
        return kind
    if kind == "rowdrop":
        return f"rowdrop:{matrix_spec(matrix[1])}:{render(matrix[2])}"
    if kind == "explicit":
        return "explicit:" + ";".join(",".join(str(v) for v in row) for row in matrix[1])
    if kind == "rand":
        return f"gen:rand_rowfinite_{matrix[1]}"
    if kind == "geometric":
        return "gen:geometric"
    raise ValueError(f"unknown matrix {matrix!r}")


def bits_transform(matrix, bits: list[int]) -> list[Fraction]:
    """Transform of a 0/1 stream by cesaro / identity / rowdrop, from raw bits."""
    kind = matrix[0]
    if kind == "cesaro":
        return [Fraction(s, n) for n, s in enumerate(accumulate(bits), start=1)]
    if kind == "identity":
        return [Fraction(b) for b in bits]
    if kind == "rowdrop":
        base = bits_transform(matrix[1], bits)
        return [Fraction(0) if member(matrix[2], n) else v for n, v in enumerate(base, 1)]
    raise ValueError(f"no 0/1 transform for {matrix!r}")


# ------------------------------------------------------------------ selectors


def selector_value(spec: str, n: int) -> int:
    """sigma(n) for id, even, odd, evenshift, squares and stem:{...}+consec."""
    if spec == "id":
        return n
    rules = {"even": 2 * n, "odd": 2 * n - 1, "evenshift": 2 * n + 2, "squares": n * n}
    if spec in rules:
        return rules[spec]
    body, _, tail = spec[len("stem:"):].partition("+")
    inner = body[1:-1]
    stem = [int(v) for v in inner.split(",")] if inner else []
    if n <= len(stem):
        return stem[n - 1]
    if tail == "consec":
        start = (stem[-1] + 1) if stem else 1
    else:
        start = int(tail[len("consec@"):])
    return start + n - len(stem) - 1


def selector_image(spec: str, limit: int) -> set[int]:
    out = set()
    n = 1
    while True:
        v = selector_value(spec, n)
        if v > limit:
            return out
        out.add(v)
        n += 1


def stem_selector_values(stem: tuple[int, ...], n: int) -> list[int]:
    """The first n values of stem + consecutive tail."""
    out = list(stem[:n])
    nxt = (stem[-1] + 1) if stem else 1
    while len(out) < n:
        out.append(nxt)
        nxt += 1
    return out
