"""Strictly increasing index selectors, their image metric, and row
functionals.

A selector is a finite stem plus a tail rule (consecutive continuation, a
named rule, or nothing — a partial selector, whose values stop at the
end of its stem).  The
distance between two total selectors weighs the symmetric difference of
their images by 2^-i; computing it through column K yields a certified
interval of width 2^-K.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .setlang import RENDER_BITS
from .summability import (
    AuditBudgetError,
    DEFAULT_COLUMN_CAP,
    DomainRiskError,
    RowSeq,
    SequenceSpec,
    TailToleranceError,
    ZERO,
    ONE,
    _dot_pair,
    _row_budget,
    _summed_width,
)


class SelectorSpecError(ValueError):
    pass


class ImageUndecidableError(RuntimeError):
    """A partial selector cannot decide image membership past its stem."""


@dataclass(frozen=True)
class Consecutive:
    start: int

    def __post_init__(self):
        if self.start < 1:
            raise SelectorSpecError("consecutive tails start at 1 or later")


@dataclass(frozen=True)
class RuleTail:
    name: str
    fn: Callable[[int], int] = field(compare=False)


@dataclass(frozen=True)
class Selector:
    """sigma: N -> N, strictly increasing; ``stem`` gives the first values.

    ``tail`` continues past the stem: Consecutive(start) walks start,
    start+1, ...; RuleTail evaluates sigma at absolute positions; None
    leaves the continuation unspecified (a partial selector).
    """

    stem: tuple[int, ...]
    tail: Consecutive | RuleTail | None = None

    def __post_init__(self):
        prev = 0
        for v in self.stem:
            if v <= prev:
                raise SelectorSpecError("stem values must be strictly increasing")
            prev = v
        if isinstance(self.tail, Consecutive) and self.stem:
            if self.tail.start <= self.stem[-1]:
                raise SelectorSpecError(
                    "consecutive tail must start beyond the stem"
                )

    @property
    def total(self) -> bool:
        return self.tail is not None

    def value(self, n: int) -> int:
        if n < 1:
            raise ValueError("positions start at 1")
        j = len(self.stem)
        if n <= j:
            return self.stem[n - 1]
        if self.tail is None:
            raise ImageUndecidableError("partial selector has no value past its stem")
        if isinstance(self.tail, Consecutive):
            return self.tail.start + (n - j - 1)
        v = self.tail.fn(n)
        floor = self.stem[-1] if j else 0
        if v <= floor and n == j + 1:
            raise SelectorSpecError("tail rule must continue past the stem")
        return v

    def values(self, limit: int) -> list[int]:
        return [self.value(n) for n in range(1, limit + 1)]

    def subsequence(self, x: SequenceSpec) -> SequenceSpec:
        """The subsequence y of x with y_k = x_{sigma(k)}: bounded by x's
        sup bound, and declaring nothing else.  Its name ``<x>[sigma]`` marks
        it as a subsequence of x without printing sigma, whose stem can take
        longer to print than the values it picks take to read."""
        return SequenceSpec(f"{x.name}[sigma]", lambda k: x.fn(self.value(k)),
                            sup_bound=x.sup_bound)

    def image_contains(self, i: int) -> bool:
        if i < 1:
            raise ValueError("image queries start at 1")
        if i in self.stem:
            return True
        j = len(self.stem)
        if self.tail is None:
            if j and i <= self.stem[-1]:
                return False
            raise ImageUndecidableError(
                "membership past a partial selector's stem is unconstrained"
            )
        if isinstance(self.tail, Consecutive):
            return i >= self.tail.start
        prev = self.stem[-1] if j else 0
        n = j + 1
        while True:
            v = self.tail.fn(n)
            if v <= prev:
                raise SelectorSpecError("tail rule is not strictly increasing")
            if v == i:
                return True
            if v > i:
                return False
            prev = v
            n += 1

    def spec_string(self) -> str:
        body = "stem:{" + ",".join(str(v) for v in self.stem) + "}"
        if self.tail is None:
            return body
        if isinstance(self.tail, Consecutive):
            implied = (self.stem[-1] + 1) if self.stem else 1
            if self.tail.start == implied:
                return body + "+consec"
            return body + f"+consec@{self.tail.start}"
        if self.stem:
            return body + "+gen:" + self.tail.name
        return f"gen:{self.tail.name}"


IDENTITY_SELECTOR = Selector((), Consecutive(1))


_NAMED_RULES = {
    "even": Selector((), RuleTail("even", lambda n: 2 * n)),
    "odd": Selector((), RuleTail("odd", lambda n: 2 * n - 1)),
    "evenshift": Selector((), RuleTail("evenshift", lambda n: 2 * n + 2)),
    "squares": Selector((), RuleTail("squares", lambda n: n * n)),
}


def sample_selector(seed: int, p: float, limit: int = 64) -> Selector:
    """Random selector: keep each of 1..limit with probability p, then run
    consecutively from limit+1.  One seed, one selector."""
    if not 0 <= p <= 1:
        raise SelectorSpecError("inclusion probability must lie in [0, 1]")
    _row_budget(limit, "random selector stem limit", "indices")
    rng = random.Random(seed)
    stem = tuple(i for i in range(1, limit + 1) if rng.random() < p)
    return Selector(stem, Consecutive(limit + 1))


def _rule_tail(name: str) -> RuleTail:
    named = _NAMED_RULES.get(name)
    if named is None:
        raise SelectorSpecError(f"unknown selector rule {name!r}")
    return named.tail


def parse_selector(spec: str) -> Selector:
    """id | even | stem:{v1,v2,...} [+consec | +consec@<k> | +gen:<name>] |
    gen:<name> | random:<seed>:<p>[:<limit>]"""
    spec = spec.strip()
    if spec == "id":
        return IDENTITY_SELECTOR
    if spec in _NAMED_RULES:
        return _NAMED_RULES[spec]
    if spec.startswith("gen:"):
        return Selector((), _rule_tail(spec[len("gen:"):]))
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise SelectorSpecError("random selectors need random:<seed>:<p>[:<limit>]")
        seed = int(parts[1])
        p = float(parts[2])
        limit = int(parts[3]) if len(parts) == 4 else 64
        return sample_selector(seed, p, limit)
    if spec.startswith("stem:{"):
        body, _, tail_text = spec[len("stem:"):].partition("+")
        if not body.startswith("{") or not body.endswith("}"):
            raise SelectorSpecError("stem selectors need stem:{v1,v2,...}")
        inner = body[1:-1].strip()
        stem = tuple(int(t) for t in inner.split(",")) if inner else ()
        if not tail_text:
            return Selector(stem, None)
        if tail_text == "consec":
            start = (stem[-1] + 1) if stem else 1
            return Selector(stem, Consecutive(start))
        if tail_text.startswith("consec@"):
            return Selector(stem, Consecutive(int(tail_text[len("consec@"):])))
        if tail_text.startswith("gen:"):
            return Selector(stem, _rule_tail(tail_text[len("gen:"):]))
        raise SelectorSpecError(f"unknown selector tail {tail_text!r}")
    raise SelectorSpecError(f"unknown selector spec {spec!r}")


# ---------------------------------------------------------------- the metric


@dataclass
class MetricInterval:
    """Certified enclosure of the image-difference distance.

    ``lo`` sums 2^-i over the symmetric difference within [1, resolution];
    the unseen tail adds at most 2^-resolution, giving ``hi``.
    """

    lo: Fraction
    hi: Fraction
    resolution: int

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def _image_flags(sel: Selector, limit: int) -> Iterator[bool]:
    """``sel.image_contains(i)`` for i = 1, ..., limit from one walk of the
    image: the same answers, and the same exception at the same column."""
    image = set(sel.stem)  # the stem, then each tail value walked
    j = len(sel.stem)
    tail = sel.tail
    last = sel.stem[-1] if j else 0  # the walked image's largest value
    n = j + 1  # the next position a rule tail evaluates
    for i in range(1, limit + 1):
        if i in image:
            yield True
        elif tail is None:
            if j and i <= sel.stem[-1]:
                yield False
            else:
                raise ImageUndecidableError(
                    "membership past a partial selector's stem is unconstrained"
                )
        elif isinstance(tail, Consecutive):
            yield i >= tail.start
        else:
            # Every query past the stem reads the tail's first value.
            while last < i or n == j + 1:
                v = tail.fn(n)
                if v <= last:
                    raise SelectorSpecError("tail rule is not strictly increasing")
                image.add(v)
                last = v
                n += 1
            yield i in image


def metric(s1: Selector, s2: Selector, resolution: int = 40) -> MetricInterval:
    """Distance between two total selectors, certified through column
    ``resolution``."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if resolution >= RENDER_BITS:
        # Past this the ends' denominator 2^resolution prints only in bounded form.
        raise AuditBudgetError(f"metric resolution {resolution} is over {RENDER_BITS - 1} columns")
    # The sum of 2^-i over the symmetric difference, as one integer over
    # 2^resolution: digit i of ``diff`` (in base 2, from the left) is column i.
    diff = bytearray(b"0" * resolution)
    for i, (a, b) in enumerate(zip(_image_flags(s1, resolution), _image_flags(s2, resolution))):
        if a != b:
            diff[i] = 49  # "1"
    lo = Fraction(int(diff, 2), 1 << resolution)
    return MetricInterval(lo, lo + Fraction(1, 1 << resolution), resolution)


# ---------------------------------------------------------------- functionals


@dataclass
class FunctionalValue:
    value: Fraction
    tail_bound: Fraction

    @property
    def exact(self) -> bool:
        return self.tail_bound == 0


def selector_transform(
    row: RowSeq,
    x: SequenceSpec,
    sel: Selector,
    tail_tol: Fraction = ZERO,
) -> FunctionalValue:
    """sum_k row_k * x_{sigma(k)} with a certified tail bound.

    Finitely supported rows give exact values.  Otherwise the row needs a
    declared l1 tail and x a declared sup bound, whose product bounds the
    tail; the row is summed to the width ``_summed_width`` picks for
    ``tail_tol``, and refused before any column is summed when none serves.
    """
    if not sel.total:
        raise ImageUndecidableError("functionals need total selectors")
    bounded = row.l1_tail is not None and x.sup_bound is not None
    width, tail = _summed_width(
        row.support, lambda w: row.l1_tail(w) * x.sup_bound if bounded else None, tail_tol, 16
    )
    cols = range(1, width + 1)
    value = Fraction(*_dot_pair(map(row.entry, cols), map(sel.subsequence(x).fn, cols)))
    return FunctionalValue(value, tail)


def modulus_of_continuity(x: SequenceSpec, row: RowSeq, eps: Fraction) -> Fraction:
    """Radius delta = 2^-k0 for the functional sigma -> sum row_k x_{sigma(k)}.

    Finitely supported rows use their support length.  Otherwise k0 is the
    least column with row tail * (2 sup |x|) below eps.  The radius is the
    one the tail estimate supports; its guarantee is exercised on sampled
    selector pairs that share an initial stem.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if row.support is not None:
        return Fraction(1, 1 << row.support)
    if x.sup_bound is not None and x.sup_bound == 0:
        return ONE
    if row.l1_tail is None or x.sup_bound is None:
        raise DomainRiskError(
            "modulus needs a finitely supported row or an l1 tail bound with "
            "a bounded sequence"
        )
    threshold = eps / (2 * x.sup_bound)
    # Tails are nonincreasing: doubling finds a column under the threshold,
    # bisection back to the doubling before it finds the least one.
    k0 = 1
    while k0 <= DEFAULT_COLUMN_CAP:
        if row.l1_tail(k0) < threshold:
            lo, hi = k0 // 2, k0
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if row.l1_tail(mid) < threshold:
                    hi = mid
                else:
                    lo = mid
            return Fraction(1, 1 << hi)
        k0 *= 2
    raise TailToleranceError("row tail bound never reached the target threshold")
