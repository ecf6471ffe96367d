"""Infinite summability matrices and their transforms, exactly.

Matrices are given structurally (running-average, identity, row-dropped,
explicit finite tables extended by zero rows, the geometric row repeated,
or lower-triangular generator functions).  All transform values on verdict
paths are exact rationals; a transform of a non-row-finite row is only
reported together with a certified tail bound, never silently truncated.
"""

from __future__ import annotations

import _random
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, groupby, islice, repeat
from math import gcd, isqrt, lcm
from operator import itemgetter, mul
from random import _sha512
from typing import Callable, Iterator

from . import setlang
from .ideals import DEFAULT_SCALE, IDEALS, IN, MEMBER_REASONS, NOT_IN, UNDECIDED, _decide
from .ideals import IdealPresentation, MembershipVerdict, UnsupportedIdealError
from .setlang import (
    AP,
    Complement,
    Finite,
    SetDescription,
    Tri,
    Union,
    is_finite,
    member,
    render,
)

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_COLUMN_CAP = 1 << 20
# Columns a domain check sums when no certified tail width is in reach.
DOMAIN_SCAN_COLUMNS = 4096
# A domain check calls a row diverging once a partial sum exceeds this.
DOMAIN_GROWTH_BOUND = 10**6
# Consecutive head rows that the sampled r1 bound and the generic r3 probe read.
HEAD_ROWS = 64
# Leading columns that the sampled r2 probe reads.
SAMPLED_COLUMNS = 10


# A matrix row, or values read off a sequence: ints nums over one positive int den.
IntRow = tuple[tuple[int, ...], int]


def _add_ratio(num: int, den: int, p: int, q: int) -> tuple[int, int]:
    """num/den + p/q with the denominator kept a running common multiple."""
    if den % q:
        common = den // gcd(den, q) * q
        return num * (common // den) + p * (common // q), common
    return num + p * (den // q), den


def _common(pairs) -> IntRow:
    """Values given as integer (numerator, positive denominator) pairs, as
    integer numerators over one positive denominator, the lcm of theirs."""
    pairs = tuple(pairs)
    den = lcm(*{q for _, q in pairs})
    return tuple(p * (den // q) for p, q in pairs), den


def _dot(row: IntRow, values: IntRow) -> tuple[int, int]:
    """Exact sum of a_k * v_k over the shorter of a row and values (say
    ``_common`` of value pairs), as one C-level sum of integer products over
    the product of their denominators (not reduced)."""
    (nums, den), (xs, scale) = row, values
    return sum(map(mul, nums, xs)), den * scale


def _threshold_counts(
    pairs, lower: Fraction, upper: Fraction, scales: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per scale s, |{i <= s : v_i <= lower}| and |{i <= s : v_i >= upper}|,
    for values v_i = p_i / q_i streamed as integer pairs with q_i > 0.

    One pass in ascending scale order, reading no pair past the largest scale
    and comparing integer cross products; each scale reads the running tallies.
    """
    lp, lq = lower.numerator, lower.denominator
    up, uq = upper.numerator, upper.denominator
    stream = iter(pairs)
    tallies = {}
    lo = hi = start = 0
    for s in sorted(set(scales)):
        for p, q in islice(stream, max(0, s - start)):
            if p * lq <= lp * q:
                lo += 1
            if p * uq >= up * q:
                hi += 1
        start = max(start, s)
        tallies[s] = (lo, hi)
    return tuple(tallies[s][0] for s in scales), tuple(tallies[s][1] for s in scales)


def _span_counts(spans, scales, drop, zero_hits):
    """Per side of ``spans`` (lists of row intervals (lo, hi)) and per scale s,
    the rows of the side's intervals up to s that are not in the set ``drop``,
    plus the rows of ``drop`` up to s on a side whose ``zero_hits`` is set."""
    cuts = {0, *scales}
    for lo, hi in chain(*spans):
        cuts.update(min(e, s) for s in scales for e in (lo - 1, hi))
    dropped = dict(setlang.prefix_counts(drop, sorted(cuts)))

    def hits(side, zero, s):
        clipped = ((lo, min(hi, s)) for lo, hi in side if lo <= s)
        kept = sum(hi - lo + 1 - dropped[hi] + dropped[lo - 1] for lo, hi in clipped)
        return kept + (dropped[s] if zero else 0)

    return tuple(tuple(hits(side, zero, s) for s in scales) for side, zero in zip(spans, zero_hits))


class DomainRiskError(RuntimeError):
    """No certified tail machinery covers this matrix/sequence pair."""


class TailToleranceError(RuntimeError):
    """The certified tail bound did not reach the requested tolerance."""


class AuditBudgetError(RuntimeError):
    """A recount or an escape would read more than ``DEFAULT_COLUMN_CAP`` items."""


def _row_budget(n: int, what: str, unit: str = "rows") -> None:
    if n > DEFAULT_COLUMN_CAP:
        raise AuditBudgetError(
            f"{what} {n} is over the audit budget of {DEFAULT_COLUMN_CAP} {unit}"
        )


class MatrixSpecError(ValueError):
    pass


class RationalSyntaxError(ValueError):
    """A rational in an input is not a string, has a zero denominator, or
    writes an exponent past 2 * RENDER_BITS."""


def parse_rational(text: str) -> Fraction:
    """The rational an input writes as the string ``text``; every input rational
    is read here.  A far exponent is refused before its power of 10 is built."""
    if not isinstance(text, str):
        raise RationalSyntaxError(f"rationals are read from strings, not {text!r}")
    bound = 2 * setlang.RENDER_BITS
    digits = text.strip().lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
    if digits.isdecimal() and (len(digits) > len(str(bound)) or int(digits) > bound):
        raise RationalSyntaxError(
            f"exponent past {bound}, twice the {setlang.RENDER_BITS}-bit render bound: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise RationalSyntaxError(f"not a finite rational: {text!r}") from None


class SequenceSpecError(ValueError):
    pass


# ---------------------------------------------------------------- sequences


@dataclass(frozen=True)
class SequenceSpec:
    """A sequence x: N -> Q with the declarations transforms rely on.

    Each sequence states its values once, in ``fn``: ``fn(n)`` is x_n as a
    reduced (numerator, positive denominator) integer pair, which ``pair(n)``
    reads; ``value(n)`` is the same value as a Fraction, for callers that
    want one.  The kernels, escapes and domain checks read pairs and compare
    them by integer cross products, so they build no Fraction per value.
    ``sup_bound`` is a certified bound on sup |x_n|; ``ratio_bound(k)`` is a
    certified nonincreasing bound on |x_{k+1}| / |x_k|; ``abs_search(p, q,
    floor)`` returns an index h >= floor (default 1) with |x_h| >= p/q, for
    p >= 0 and q > 0 (the least such for monotone |x|).  Declarations are
    part of the sequence's definition; nothing is inferred from sampled
    values.
    """

    name: str
    fn: Callable[[int], tuple[int, int]] = field(compare=False)
    sup_bound: Fraction | None = None
    ratio_bound: Callable[[int], Fraction] | None = field(default=None, compare=False)
    abs_search: Callable[..., int] | None = field(default=None, compare=False)

    @property
    def unbounded(self) -> bool:
        # A magnitude search past every bound is the witness that x is unbounded.
        return self.abs_search is not None

    def pair(self, n: int) -> tuple[int, int]:
        if n < 1:
            raise ValueError("sequences are indexed from 1")
        return self.fn(n)

    def value(self, n: int) -> Fraction:
        return Fraction(*self.pair(n))


# The values 0 and 1 as pairs, indexed by the bit.
_BITS = ((0, 1), (1, 1))


def _sqperturb(n: int) -> tuple[int, int]:
    r = isqrt(n)
    return (n, 1) if r * r == n else (n + 1, n)  # 1 + 1/n, reduced


def _sqperturb_search(p: int, q: int, floor: int = 1) -> int:
    # Off the squares |x| falls, so past floor + 1 only squares can qualify.
    for n in (floor, floor + 1):
        a, b = _sqperturb(n)
        if a * q >= p * b:
            return n
    return (isqrt(max(floor, -(-p // q)) - 1) + 1) ** 2


_NAMED_SEQUENCES = {
    "n": SequenceSpec(
        name="n",
        fn=lambda n: (n, 1),
        ratio_bound=lambda k: Fraction(k + 1, k),
        abs_search=lambda p, q, floor=1: max(floor, -(-p // q)),
    ),
    "nalt": SequenceSpec(
        name="nalt",
        fn=lambda n: (n if n % 2 == 0 else -n, 1),
        ratio_bound=lambda k: Fraction(k + 1, k),
        abs_search=lambda p, q, floor=1: max(floor, -(-p // q)),
    ),
    # (0, 1, 0, 1, ...): 1 on even indices.
    "alt": SequenceSpec(name="alt", fn=lambda n: _BITS[1 - n % 2], sup_bound=ONE),
    # (1, 0, 1, 0, ...): 1 on odd indices.
    "alt10": SequenceSpec(name="alt10", fn=lambda n: _BITS[n % 2], sup_bound=ONE),
    # 1 exactly on blocks [2**(2j), 2**(2j+1)), where n has an odd bit length.
    "blocks01": SequenceSpec(
        name="blocks01", fn=lambda n: _BITS[n.bit_length() % 2], sup_bound=ONE
    ),
    "sqperturb": SequenceSpec(
        name="sqperturb", fn=_sqperturb, abs_search=_sqperturb_search
    ),
}


def parse_sequence(spec: str) -> SequenceSpec:
    """Named sequences plus ``const:<p/q>``, ``list:<v1,v2,...>`` and
    ``rle:<bit>x<len>,...`` (finite prefixes extended by zero)."""
    spec = spec.strip()
    named = _NAMED_SEQUENCES.get(spec)
    if named is not None:
        return named
    if spec.startswith("const:"):
        v = parse_rational(spec[len("const:"):])
        pair = v.as_integer_ratio()
        return SequenceSpec(
            name=spec, fn=lambda n: pair, sup_bound=abs(v), ratio_bound=lambda k: ONE
        )
    if spec.startswith("list:"):
        vals = tuple(map(parse_rational, spec[len("list:"):].split(",")))
        return sequence_from_values(vals, name=spec)
    if spec.startswith("rle:"):
        return sequence_from_rle(parse_rle(spec[len("rle:"):]))
    raise SequenceSpecError(f"unknown sequence spec {spec!r}")


def sequence_from_values(vals: tuple[Fraction, ...], name: str) -> SequenceSpec:
    pairs = tuple(v.as_integer_ratio() for v in vals)
    return SequenceSpec(
        name=name,
        fn=lambda n: pairs[n - 1] if n <= len(pairs) else _BITS[0],
        sup_bound=max((abs(v) for v in vals), default=ZERO),
    )


def parse_rle(text: str) -> list[tuple[int, int]]:
    runs = (chunk.partition("x") for chunk in text.split(","))
    return [(int(bit), int(length)) for bit, _, length in runs]


def render_rle(runs) -> str:
    """``parse_rle`` text for (bit, length) runs: empty runs dropped, then
    equal neighbours merged."""
    merged = groupby((run for run in runs if run[1]), key=itemgetter(0))
    return ",".join(f"{bit}x{sum(map(itemgetter(1), group))}" for bit, group in merged)


def sequence_from_rle(runs: list[tuple[int, int]]) -> SequenceSpec:
    # One pair per run, found by bisecting the run ends, so a spec of any
    # total length reads back at once; the bound is read off the runs.
    if any(length < 0 for _, length in runs):
        raise SequenceSpecError("run lengths must be >= 0")
    ends = list(accumulate(length for _, length in runs))
    bits = [(bit, 1) for bit, _ in runs] + [_BITS[0]]
    sup = Fraction(max((abs(bit) for bit, length in runs if length), default=0))
    name = "rle:" + ",".join(f"{b}x{l}" for b, l in runs)
    return SequenceSpec(name=name, fn=lambda n: bits[bisect_left(ends, n)], sup_bound=sup)


def indicator_sequence(s: SetDescription) -> SequenceSpec:
    return SequenceSpec(
        name=f"indicator:{render(s)}",
        fn=lambda n: _BITS[1] if member(s, n) else _BITS[0],
        sup_bound=ONE,
    )


# ---------------------------------------------------------------- single rows


@dataclass(frozen=True)
class RowSeq:
    """One matrix row a: N -> Q with optional support / tail declarations.

    ``support``: last index that can be nonzero (row-finite rows).
    ``l1_tail(K)``: certified bound on sum_{k>K} |a_k|.
    """

    name: str
    fn: Callable[[int], Fraction] = field(compare=False)
    support: int | None = None
    l1_tail: Callable[[int], Fraction] | None = field(default=None, compare=False)

    def entry(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError("rows are indexed from 1")
        if self.support is not None and k > self.support:
            return ZERO
        return Fraction(self.fn(k))

    def prefix(self, width: int) -> IntRow:
        """Entries 1..width as integers over one denominator, a matrix row's form."""
        top = width if self.support is None else min(width, self.support)
        values = (v.as_integer_ratio() for v in map(self.fn, range(1, top + 1)))
        return _common(chain(values, repeat((0, 1), width - top)))


_NAMED_ROWS = {
    "geometric": RowSeq(
        name="geometric",
        fn=lambda k: Fraction(1, 1 << k),
        l1_tail=lambda k: Fraction(1, 1 << k),
    ),
    "harmonic": RowSeq(name="harmonic", fn=lambda k: Fraction(1, k)),
    "ones": RowSeq(name="ones", fn=lambda k: ONE),
}


def parse_row(spec: str) -> RowSeq:
    """Named rows plus ``list:<v1,v2,...>`` (finitely supported)."""
    spec = spec.strip()
    named = _NAMED_ROWS.get(spec)
    if named is not None:
        return named
    if spec.startswith("list:"):
        vals = tuple(map(parse_rational, spec[len("list:"):].split(",")))
        return RowSeq(
            name=spec,
            fn=lambda k: vals[k - 1] if k <= len(vals) else ZERO,
            support=len(vals),
        )
    raise MatrixSpecError(f"unknown row spec {spec!r}")


# ---------------------------------------------------------------- matrices


class SummabilityMatrix:
    """Common interface: exact rows, structural row support, spec string.

    Each kind states its rows once, in ``_entries``, which every row reader
    reaches through ``_row``, as integers over one denominator: ``(nums,
    den)``, entry k being ``nums[k - 1] / den`` (not necessarily reduced), so
    rows are summed and dotted with sequences by integer arithmetic (``_dot``).
    ``entry`` reads the row's prefix as a Fraction (the geometric kind and
    row drops override it, see ``GeometricMatrix.entry``).
    Each kind states its other facts by overriding the defaults here, once:
    a row-finite kind its row supports and the rows vanishing below a
    column, any other kind its tail bound ``_tail``.  A default either
    answers "unknown" (None / False), raises NotImplementedError for a fact
    every kind it applies to must state, or, for the regularity conditions
    and the transform kernel, does the generic sampled or direct computation.
    """

    nonneg: bool = False  # every entry is structurally >= 0
    row_finite: bool = False  # every row is structurally finitely supported

    def entry(self, n: int, k: int) -> Fraction:
        if k < 1:
            raise ValueError("indices start at 1")
        nums, den = self._row(n, k)
        return Fraction(nums[-1], den)

    def _row(self, n: int, width: int) -> IntRow:
        """The entries a_{n,1..width} as ``(nums, den)``: ``width`` integer
        numerators over one positive denominator.  ``((), 1)`` at width < 1,
        else ValueError for n < 1, else the kind's ``_entries(n, width)``;
        every row reader goes through here."""
        if width < 1:
            return (), 1
        if n < 1:
            raise ValueError("indices start at 1")
        return self._entries(n, width)

    def row_support(self, n: int) -> int | None:
        """Last nonzero column of row n (0 for a zero row), None if unknown."""
        raise NotImplementedError

    def row_sum(self, n: int) -> Fraction:
        support = self.row_support(n)
        if support is None:
            raise DomainRiskError("row sum needs a row-finite matrix")
        nums, den = self._row(n, support)
        return Fraction(sum(nums), den)

    def l1_tail(self, n: int, after: int) -> Fraction:
        """Certified bound on sum_{k>after} |a_{n,k}|, exact for a row-finite
        row; the row's l1 norm at after = 0."""
        nums, den = self._row(n, self.row_support(n))
        return Fraction(sum(map(abs, nums[after:])), den)

    def _tail(self, n: int, x: SequenceSpec, after: int) -> Fraction | None:
        """Certified bound on |sum_{k>after} a_{n,k} x_k| for a row that is
        not finitely supported, or None: a default kind states none."""
        return None

    def spec_string(self) -> str:
        raise NotImplementedError

    # Spec strings parse back to the matrix they print, so they identify it.
    def __eq__(self, other):
        return isinstance(other, SummabilityMatrix) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    # -- transform kernel

    def _transform(self, x: SequenceSpec, rows, tail_tol: Fraction = ZERO) -> Iterator:
        """The transform of x at ``rows``, an increasing sequence of row
        indices >= 1, streamed in that order as ((numerator, positive
        denominator), certified tail bound) per row; each kind yields exactly
        those rows.  The default sums each row to the width ``_summed_width``
        picks, reading x once.  Every row's width is found before any entry is
        read, so rows that sum over ``DEFAULT_COLUMN_CAP`` entries in all are
        refused unread."""
        widths = []
        entries = 0
        for n in rows:
            width, tail = _summed_width(
                self.row_support(n), lambda w: self._tail(n, x, w), tail_tol, 32
            )
            entries += width
            _row_budget(entries, f"transform rows 1..{n} entry count", "entries")
            widths.append((n, width, tail))
        # x is read once, up to the widest width, as integers over one denominator.
        top = max((width for _, width, _ in widths), default=0)
        values = _common(map(x.fn, range(1, top + 1)))
        for n, width, tail in widths:
            yield _dot(self._row(n, width), values), tail

    def _hit_spans(self, runs, lower: Fraction, upper: Fraction) -> tuple[list, list] | None:
        """Row intervals (lo, hi) where the transform of the 0/1 sequence
        given as (bit, length) runs is <= lower, and where it is >= upper;
        None when the kind has no such run form."""
        return None

    def _innermost(self) -> tuple[SummabilityMatrix, SetDescription]:
        """The matrix as one drop of rows from a base that drops none."""
        return self, Finite(())

    def _threshold_runs(self, runs, lower: Fraction, upper: Fraction, scales: tuple[int, ...]):
        """Per scale, the rows up to it whose transform of the 0/1 runs is
        <= lower, and those where it is >= upper, counted off the base's
        spans; None when the base has no run form.  A dropped row leaves the
        base's spans and counts where the value 0 does."""
        base, drop = self._innermost()
        spans = base._hit_spans(runs, lower, upper)
        if spans is None:
            return None
        return _span_counts(spans, scales, drop, (lower >= 0, upper <= 0))

    # -- structural facts

    def vanish_rows(self, w: int) -> SetDescription:
        """Rows whose support lies below column w; every row-finite kind states them."""
        raise NotImplementedError

    def row_sum_exception(self) -> SetDescription | None:
        """Rows whose sum is not 1, when the kind says so."""
        return None

    def null_ideal(self) -> IdealPresentation | None:
        """The ideal {S : transform of 1_S tends to 0}, when the kind alone
        decides it."""
        return None

    def r1_bound(self, n_rows: int) -> ConditionReport:
        """Uniform row l1 bound; sampled only, so never a certificate.  The
        sampled rows' supports are summed before any entry is read, and
        samples over ``DEFAULT_COLUMN_CAP`` entries in all are refused."""
        samples = sorted(
            set(list(range(1, HEAD_ROWS + 1)) + [1 << j for j in range(7, 20) if 1 << j <= n_rows])
        )
        entries = sum(self.row_support(n) or 0 for n in samples)
        _row_budget(entries, f"r1 sample rows up to {samples[-1]} entry count", "entries")
        best = max(self.l1_tail(n, 0) for n in samples)
        return ConditionReport(
            "at_scale", f"sampled rows up to {samples[-1]}", {"bound": str(best)}
        )

    def r2_columns(self, ideal: IdealPresentation, n_rows: int) -> ConditionReport:
        """Columns vanish along ``ideal``: evidence from limit search on the
        first ``SAMPLED_COLUMNS`` columns under the ideal's limit rule, so
        never a certificate.  A kind that answers "no" names a column bounded
        away from 0 on every row."""
        from .constructions import ideal_limit

        scale = min(n_rows, 2048)
        details = {}
        for k in range(1, SAMPLED_COLUMNS + 1):
            column = [self.entry(n, k) for n in range(1, scale + 1)]
            verdict = ideal_limit(column, ideal)
            details[k] = verdict.status
            if verdict.status != "limit" or verdict.eta != 0:
                return ConditionReport(
                    "undecided", f"column {k} shows no vanishing trend", details
                )
        return ConditionReport("at_scale", f"columns vanish at scale {scale}", details)

    def r3_rowsums(self, ideal: IdealPresentation, n_rows: int) -> ConditionReport:
        """Row sums tend to 1 along ``ideal``; certified only off a row-sum exception set."""
        exception = self.row_sum_exception()
        if exception is not None:
            verdict = ideal.decide(exception)
            data = {"exception_set": render(exception), "verdict": verdict.status}
            if verdict.status == IN:
                return ConditionReport("yes", "row-sum exception set is in the ideal", data)
            if verdict.status == NOT_IN:
                data["witness_rows"] = setlang.least_members(exception, 5)
                return ConditionReport("no", "row-sum exception set escapes the ideal", data)
            return ConditionReport("undecided", verdict.reason, data)
        from .constructions import ideal_limit

        # Evidence only, never a certificate: a consecutive prefix keeps the
        # ideal's smallness rule meaningful, and the head rows are the ones r1
        # samples anyway.
        rows = min(n_rows, HEAD_ROWS)
        sums = [self.row_sum(n) for n in range(1, rows + 1)]
        verdict = ideal_limit(sums, ideal)
        if verdict.status == "limit" and verdict.eta == 1:
            return ConditionReport(
                "at_scale", f"row sums near 1 at scale {rows}",
                {"rows": rows, "eps": str(verdict.eps)},
            )
        return ConditionReport("undecided", "row sums show no trend toward 1", {"rows": rows})


class _LowerTriangle(SummabilityMatrix):
    """Lower-triangular rows that end on a nonzero diagonal entry."""

    row_finite = True

    def row_support(self, n: int) -> int:
        return n

    def vanish_rows(self, w: int) -> SetDescription:
        return Finite(tuple(range(1, w)))


class _Stochastic(SummabilityMatrix):
    """Nonnegative rows that each sum to 1, so each has l1 norm exactly 1."""

    nonneg = True

    def row_sum_exception(self) -> SetDescription:
        return Finite(())

    def r1_bound(self, n_rows: int) -> ConditionReport:
        return ConditionReport("yes", "every row has l1 norm exactly 1", {"bound": "1"})


class CesaroMatrix(_Stochastic, _LowerTriangle):
    """Running averages: a_{n,k} = 1/n for k <= n, else 0."""

    def _entries(self, n: int, width: int) -> IntRow:
        return (1,) * min(n, width) + (0,) * (width - n), n

    def _transform(self, x: SequenceSpec, rows, tail_tol: Fraction = ZERO):
        # The running sum is an integer numerator over a running common
        # denominator, which stays 1 while the inputs are integral and keeps
        # 0/1 prefixes as cheap as counting ones; it is read out at the rows
        # asked for.
        num, den, wanted = 0, 1, iter(rows)
        row = next(wanted, 0)
        for n, (p, q) in enumerate(map(x.fn, range(1, rows[-1] + 1)) if rows else (), 1):
            if den % q:
                num, den = _add_ratio(num, den, p, q)
            else:
                num += p * (den // q)
            if n == row:
                yield (num, den * n), ZERO
                row = next(wanted, 0)

    def _hit_spans(self, runs, lower: Fraction, upper: Fraction):
        # On a run of bit b from row a, with S ones before it, row n holds
        # (c + b n) / n, c = S - b (a - 1); against a level p/q, q (c + b n)
        # <= p n is linear in n, so each level holds on an interval of the run.
        spans = ([], [])
        a, ones = 1, 0
        for bit, length in runs:
            c = ones - bit * (a - 1)
            for side, level, sign in zip(spans, (lower, upper), (1, -1)):
                p, q = level.numerator, level.denominator
                slope, rhs = sign * (q * bit - p), -sign * q * c  # slope n <= rhs
                lo, hi = a, a + length - 1
                if slope > 0:
                    hi = min(hi, rhs // slope)
                elif slope < 0:
                    lo = max(lo, -(rhs // -slope))
                elif rhs < 0:
                    continue
                if lo <= hi:
                    side.append((lo, hi))
            a, ones = a + length, ones + bit * length
        return spans

    def null_ideal(self) -> IdealPresentation:
        return IDEALS["z"]

    def r2_columns(self, ideal: IdealPresentation, n_rows: int) -> ConditionReport:
        return ConditionReport("yes", "column entries are 0 or 1/n, dominated by 1/n", {})

    def spec_string(self) -> str:
        return "cesaro"


class IdentityMatrix(_Stochastic, _LowerTriangle):
    """a_{n,k} = 1 for k = n, else 0."""

    def _entries(self, n: int, width: int) -> IntRow:
        if width < n:
            return (0,) * width, 1
        return (0,) * (n - 1) + (1,) + (0,) * (width - n), 1

    def _transform(self, x: SequenceSpec, rows, tail_tol: Fraction = ZERO):
        return ((x.fn(n), ZERO) for n in rows)

    def _hit_spans(self, runs, lower: Fraction, upper: Fraction):
        # Row n of the transform is the bit x_n, so a run is a hit whole or not at all.
        spans = ([], [])
        a = 1
        for bit, length in runs:
            for side, hit in zip(spans, (bit <= lower, bit >= upper)):
                if hit:
                    side.append((a, a + length - 1))
            a += length
        return spans

    def null_ideal(self) -> IdealPresentation:
        return IDEALS["fin"]

    def r2_columns(self, ideal: IdealPresentation, n_rows: int) -> ConditionReport:
        return ConditionReport("yes", "column k vanishes for rows past k", {})

    def spec_string(self) -> str:
        return "identity"


class RowDropMatrix(SummabilityMatrix):
    """Base matrix with the rows in ``drop`` replaced by zero rows."""

    def __init__(self, base: SummabilityMatrix, drop: SetDescription):
        self.base = base
        self.drop = drop
        self.nonneg, self.row_finite = base.nonneg, base.row_finite

    def entry(self, n: int, k: int) -> Fraction:
        # Not read off a row prefix, for the geometric kind's reason: a
        # public read of a far column stays O(1).
        return ZERO if k >= 1 and member(self.drop, n) else self.base.entry(n, k)

    def _row(self, n: int, width: int) -> IntRow:
        if width < 1 or member(self.drop, n):
            return (0,) * width, 1  # ((), 1) at width < 1, even for n < 1
        return self.base._row(n, width)

    def row_support(self, n: int) -> int | None:
        return 0 if member(self.drop, n) else self.base.row_support(n)

    def l1_tail(self, n: int, after: int) -> Fraction:
        return ZERO if member(self.drop, n) else self.base.l1_tail(n, after)

    def _tail(self, n: int, x: SequenceSpec, after: int) -> Fraction | None:
        return self.base._tail(n, x, after)

    def _innermost(self) -> tuple[SummabilityMatrix, SetDescription]:
        """Nested drops are one drop of their union from the innermost base."""
        base, drop = self.base, self.drop
        while isinstance(base, RowDropMatrix):
            base, drop = base.base, Union(base.drop, drop)
        return base, drop

    def _transform(self, x: SequenceSpec, rows, tail_tol: Fraction = ZERO):
        # The drop is scanned over the requested span only (one far row, one
        # flag), and the base is asked for the kept rows only, so a dropped
        # row reads no entry and counts toward no budget; drops nest here.
        lo, hi = (rows[0], rows[-1]) if rows else (1, 0)
        dropped = setlang._scan(self.drop, lo, hi)
        points = self.base._transform(x, [n for n in rows if not dropped[n - lo]], tail_tol)
        for n in rows:
            yield ((0, 1), ZERO) if dropped[n - lo] else next(points)

    def vanish_rows(self, w: int) -> SetDescription:
        return Union(self.base.vanish_rows(w), self.drop)

    def row_sum_exception(self) -> SetDescription | None:
        base = self.base.row_sum_exception()
        return None if base is None else Union(base, self.drop)

    def null_ideal(self) -> IdealPresentation | None:
        # Finitely many zero rows do not change where a transform tends.
        return self.base.null_ideal() if is_finite(self.drop) is Tri.YES else None

    def r1_bound(self, n_rows: int) -> ConditionReport:
        base = self.base.r1_bound(n_rows)
        if base.holds == "yes":
            return ConditionReport("yes", "zero rows only lower the base bound", base.data)
        return base

    def r2_columns(self, ideal: IdealPresentation, n_rows: int) -> ConditionReport:
        base, drop = self._innermost()
        report = base.r2_columns(ideal, n_rows)
        if report.holds == "yes":
            return ConditionReport("yes", "entrywise dominated by the base matrix", {})
        # Every column is 0 off the kept rows, so it vanishes when they are in
        # the ideal; the base's "no" column, bounded away from 0, fails when not.
        kept = Complement(drop)
        verdict = ideal.decide(kept)
        found = {"kept_rows": render(kept), "verdict": verdict.status}
        if verdict.status == IN:
            return ConditionReport("yes", "columns are 0 off the kept rows, in the ideal", found)
        if report.holds != "no":
            return report
        data = {**report.data, **found}
        if verdict.status == NOT_IN:
            return ConditionReport("no", f"{report.detail} on the kept rows", data)
        return ConditionReport("undecided", "kept rows not certified outside the ideal", data)

    def r3_rowsums(self, ideal: IdealPresentation, n_rows: int) -> ConditionReport:
        # Dropped rows sum to 0, so a drop that escapes the ideal keeps the row
        # sums off 1 along it, whatever the base states.
        report = super().r3_rowsums(ideal, n_rows)
        drop = self._innermost()[1]
        if report.certified or ideal.decide(drop).status != NOT_IN:
            return report
        rows = setlang.least_members(drop, 5)
        data = {"dropped_rows": render(drop), "verdict": NOT_IN, "witness_rows": rows}
        return ConditionReport("no", "dropped rows sum to 0 and escape the ideal", data)

    def spec_string(self) -> str:
        return f"rowdrop:{self.base.spec_string()}:{render(self.drop)}"


class ExplicitMatrix(SummabilityMatrix):
    """Finitely many stored rows; all later rows are zero rows.  Each stored
    row is kept as integers over the lcm of its entries' denominators."""

    row_finite = True

    def __init__(self, rows: list[list[Fraction]] | tuple[tuple[Fraction, ...], ...]):
        stored = [_common(Fraction(v).as_integer_ratio() for v in row) for row in rows]
        # Trailing zero rows equal the implicit zero rows after them; dropping
        # them gives each matrix one form, so its spec string parses back.
        while stored and not any(stored[-1][0]):
            stored.pop()
        self.rows = tuple(stored)
        self.nonneg = all(p >= 0 for nums, _ in self.rows for p in nums)

    def _entries(self, n: int, width: int) -> IntRow:
        nums, den = self.rows[n - 1] if n <= len(self.rows) else ((), 1)
        return nums[:width] + (0,) * (width - len(nums)), den

    def row_support(self, n: int) -> int:
        if n > len(self.rows):
            return 0
        nums = self.rows[n - 1][0]
        for k in range(len(nums), 0, -1):
            if nums[k - 1]:
                return k
        return 0

    def _stored_and_beyond(self, keep: Callable[[int], bool]) -> SetDescription:
        stored = tuple(n for n in range(1, len(self.rows) + 1) if keep(n))
        return Union(Finite(stored), AP(len(self.rows) + 1, 1))

    def vanish_rows(self, w: int) -> SetDescription:
        return self._stored_and_beyond(lambda n: self.row_support(n) < w)

    def row_sum_exception(self) -> SetDescription:
        return self._stored_and_beyond(lambda n: self.row_sum(n) != 1)

    def r1_bound(self, n_rows: int) -> ConditionReport:
        bound = max((self.l1_tail(n, 0) for n in range(1, len(self.rows) + 1)), default=ZERO)
        return ConditionReport(
            "yes", "max over stored rows; later rows are zero", {"bound": str(bound)}
        )

    def r2_columns(self, ideal: IdealPresentation, n_rows: int) -> ConditionReport:
        return ConditionReport("yes", "columns vanish beyond the stored rows", {})

    def spec_string(self) -> str:
        body = ";".join(",".join(str(Fraction(p, den)) for p in nums) for nums, den in self.rows)
        return f"explicit:{body}"


class GeometricMatrix(_Stochastic):
    """Every row is (1/2, 1/4, 1/8, ...): not row-finite, with closed-form
    tails.  Its first w columns are (2^(w-1), ..., 2, 1) over 2^w."""

    def entry(self, n: int, k: int) -> Fraction:
        # Not read off a row prefix, so that a public read of a far column
        # stays O(1); no package path reads single columns, and a prefix
        # 2^20 columns wide would hold gigabytes.
        if n < 1 or k < 1:
            raise ValueError("indices start at 1")
        return Fraction(1, 1 << k)

    def _entries(self, n: int, width: int) -> IntRow:
        return tuple(1 << j for j in range(width - 1, -1, -1)), 1 << width

    def row_support(self, n: int) -> None:
        return None

    def l1_tail(self, n: int, after: int) -> Fraction:
        return Fraction(1, 1 << after)

    def r2_columns(self, ideal: IdealPresentation, n_rows: int) -> ConditionReport:
        # Every row is one row, so column 1 is the constant 1/2, which tends
        # to 0 along no proper ideal.
        return ConditionReport("no", "column 1 is the constant 1/2", {"column": 1, "entry": "1/2"})

    def _tail(self, n: int, x: SequenceSpec, after: int) -> Fraction | None:
        # The smaller of sup|x| / 2^after and, past column 0 when x bounds
        # its ratio by r = ratio_bound(after) / 2 < 1 per term, the geometric
        # series |x_after| / 2^after * r / (1 - r).
        bounds = [] if x.sup_bound is None else [x.sup_bound / (1 << after)]
        if after >= 1 and x.ratio_bound is not None:
            r = x.ratio_bound(after) / 2
            if r < 1:
                p, q = x.pair(after)
                bounds.append(Fraction(abs(p), q << after) * r / (1 - r))
        return min(bounds, default=None)

    def _transform(self, x: SequenceSpec, rows, tail_tol: Fraction = ZERO):
        # Every row is one row with tails and ratio free of n: one width and
        # one sum serve every row.  The budget counts width entries per row,
        # as the default kernel does, and names the row that first passes it.
        if not rows:
            return
        width, tail = _summed_width(None, lambda w: self._tail(rows[0], x, w), tail_tol, 32)
        over = DEFAULT_COLUMN_CAP // width + 1  # the row count whose entries pass the budget
        if len(rows) >= over:
            _row_budget(width * over, f"transform rows 1..{rows[over - 1]} entry count", "entries")
        point = _dot(self._row(rows[0], width), _common(map(x.fn, range(1, width + 1)))), tail
        for _ in rows:
            yield point

    def spec_string(self) -> str:
        return "gen:geometric"


class GeneratorMatrix(_LowerTriangle):
    """Lower-triangular integer rows from two functions: row n is over the
    positive denominator ``den(n)``, ``entry_fn(n, k)`` is the integer
    numerator of a_{n,k} over it for k <= n, zero past the diagonal, and
    ``entry_fn(n, n)`` is declared nonzero, so row n ends on column n;
    ``entry_fn`` is never asked past the diagonal.  Rows read are kept up to
    ``DEFAULT_COLUMN_CAP`` entries in all; later rows are computed afresh.
    """

    def __init__(self, name: str, entry_fn: Callable[[int, int], int], den: Callable[[int], int]):
        self.name = name
        self.entry_fn, self.den = entry_fn, den
        self._rows, self._stored = {}, 0  # numerators of the row prefixes read, and their count

    def _entries(self, n: int, width: int) -> IntRow:
        nums = self._rows.get(n, ())
        have = len(nums)
        if have < width:
            top = max(have, min(width, n))
            nums += tuple(map(self.entry_fn, repeat(n), range(have + 1, top + 1)))
            nums += (0,) * (width - top)
            size = self._stored + width - have
            if size <= DEFAULT_COLUMN_CAP:
                self._rows[n], self._stored = nums, size
        return nums[:width], self.den(n)

    def spec_string(self) -> str:
        return f"gen:{self.name}"


# Every value a random row-finite entry takes, p/q for p in -9..9 and q in
# 1..9, as its numerator over 2520, the lcm of 1..9 and the denominator of
# every row of the family; rows share the numerators of this table.
_OVER_2520 = {(p, q): p * (2520 // q) for p in range(-9, 10) for q in range(1, 10)}


def random_rowfinite_matrix(seed: int) -> GeneratorMatrix:
    """Deterministic lower-triangular matrix whose diagonal is nonzero.

    Entry (n, k) is read from ``random.Random(f"rowfinite:{seed}:{n}:{k}")``:
    the numerator ``randrange(-9, 10)``, redrawn on the diagonal while zero
    by ``choice([-3, -2, -1, 1, 2, 3])`` so the support is attained, over
    ``randrange(1, 10)``.  The draws are inlined and bit for bit that stream:
    the key is hashed as ``Random.seed`` hashes a string, the integer seeds
    the C generator directly, and each draw is the stdlib's ``_randbelow``.
    Every row is integers over 2520, the lcm of the denominators 1..9.
    One mt19937 is reseeded per entry computed, and the rows read are kept,
    up to 2^20 entries (``DEFAULT_COLUMN_CAP``), so that no entry is
    computed twice; it is not meant to be read from two threads at once.
    """
    rng = random.Random()
    seed_int = _random.Random.seed  # Random.seed without its string branch
    below = rng._randbelow  # what randrange and choice draw with

    def entry_fn(n: int, k: int) -> int:
        key = f"rowfinite:{seed}:{n}:{k}".encode()
        seed_int(rng, int.from_bytes(key + _sha512(key).digest(), "big"))
        num = below(19) - 9
        if k == n and num == 0:
            num = (-3, -2, -1, 1, 2, 3)[below(6)]
        return _OVER_2520[num, below(9) + 1]

    return GeneratorMatrix(f"rand_rowfinite_{seed}", entry_fn, lambda n: 2520)


def parse_matrix(spec: str) -> SummabilityMatrix:
    """cesaro | identity | rowdrop:<base>:<set-DSL> | explicit:@file.csv |
    explicit:<rows ;-separated> | gen:geometric | gen:rand_rowfinite_<seed>"""
    spec = spec.strip()
    if spec == "cesaro":
        return CesaroMatrix()
    if spec == "identity":
        return IdentityMatrix()
    if spec.startswith("rowdrop:"):
        # Base and set may both contain ':'; the leftmost split where both
        # sides parse is the one spec_string wrote.
        rest = spec[len("rowdrop:"):]
        cut = rest.find(":")
        while cut != -1:
            try:
                return RowDropMatrix(
                    parse_matrix(rest[:cut]), setlang.parse_set(rest[cut + 1:])
                )
            except ValueError:
                cut = rest.find(":", cut + 1)
        raise MatrixSpecError(f"rowdrop needs rowdrop:<base>:<set>, got {spec!r}")
    if spec.startswith("explicit:@"):
        path = spec[len("explicit:@"):]
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
        rows = [
            [parse_rational(cell) for cell in line.split(",") if cell.strip()]
            for line in text.splitlines()
            if line.strip()
        ]
        return ExplicitMatrix(rows)
    if spec.startswith("explicit:"):
        body = spec[len("explicit:"):]
        # An empty row text is a zero row.
        rows = [
            list(map(parse_rational, row_text.split(","))) if row_text else []
            for row_text in body.split(";")
        ]
        return ExplicitMatrix(rows)
    if spec.startswith("gen:"):
        name = spec[len("gen:"):]
        if name == "geometric":
            return GeometricMatrix()
        if name.startswith("rand_rowfinite_"):
            return random_rowfinite_matrix(int(name[len("rand_rowfinite_"):]))
        raise MatrixSpecError(f"unknown generator matrix {name!r}")
    raise MatrixSpecError(f"unknown matrix spec {spec!r}")


# ---------------------------------------------------------------- transforms


@dataclass
class TransformPoint:
    n: int
    value: Fraction
    tail_bound: Fraction

    @property
    def exact(self) -> bool:
        return self.tail_bound == 0


def _summed_width(
    support: int | None, tail_at: Callable, tol: Fraction, start: int
) -> tuple[int, Fraction]:
    """The columns every summed row (transform, domain check, selector
    functional) sums, and its tail bound: ``support`` (tail 0) when known,
    else the first doubling width from ``start`` up to ``DEFAULT_COLUMN_CAP``
    whose bound ``tail_at(width)`` (None: none) is at most ``tol``.  Bounds do
    not depend on the partial sum, so a row no width serves is refused before
    any column is read: TailToleranceError if bounds were seen, else
    DomainRiskError."""
    if support is not None:
        return support, ZERO
    width, seen = start, None
    while width <= DEFAULT_COLUMN_CAP:
        tail = tail_at(width)
        if tail is not None:
            if tail <= tol:
                return width, tail
            seen = tail
        width *= 2
    if seen is None:
        raise DomainRiskError(
            f"no certified tail bound at any width up to {DEFAULT_COLUMN_CAP} columns"
        )
    raise TailToleranceError(f"tail bound did not reach {tol} within {DEFAULT_COLUMN_CAP} columns")


def transform_prefix(
    matrix: SummabilityMatrix,
    x: SequenceSpec,
    n_max: int,
    tail_tol: Fraction = ZERO,
) -> list[TransformPoint]:
    """Transform rows 1..n_max with certified tail bounds, through the
    matrix kind's ``_transform``: a row-finite row is exact (tail 0), any
    other is summed to the width ``_summed_width`` picks for ``tail_tol``.
    More than ``DEFAULT_COLUMN_CAP`` rows are refused (AuditBudgetError)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _row_budget(n_max, "transform row count")
    points = matrix._transform(x, range(1, n_max + 1), tail_tol)
    return [TransformPoint(n, Fraction(*pair), tail) for n, (pair, tail) in enumerate(points, 1)]


# ---------------------------------------------------------------- domain check


@dataclass
class DomainCheck:
    status: str  # "converged" | "diverging" | "inconclusive"
    n: int
    value: Fraction | None
    tail_bound: Fraction | None
    evidence: dict = field(default_factory=dict, compare=False)


def domain_check(
    matrix: SummabilityMatrix,
    x: SequenceSpec,
    n: int,
    tol: Fraction,
) -> DomainCheck:
    """Does row n of the transform make sense for x?

    ``converged`` needs the width ``_summed_width`` picks for tol (a support
    wider than ``DEFAULT_COLUMN_CAP`` columns is refused); the matrix kind's
    transform kernel then sums the row, as ``transform_prefix`` does.  With
    no such width, ``diverging`` needs finite-scale evidence: partial sums
    past ``DOMAIN_GROWTH_BOUND``, or a single term larger than 2*tol after
    the partials had settled within tol over a window.  Anything else is
    ``inconclusive``; the scan for evidence stops after
    ``DOMAIN_SCAN_COLUMNS`` columns.
    """
    if n < 1:
        raise ValueError("transform rows start at 1")
    support = matrix.row_support(n)
    try:
        width, _ = _summed_width(support, lambda w: matrix._tail(n, x, w), tol, 32)
    except (TailToleranceError, DomainRiskError):
        pass
    else:
        _row_budget(width, f"row {n} support width", "columns")
        [(pair, tail)] = matrix._transform(x, (n,), tol)
        evidence = {"row_finite": True} if support is not None else {"columns_used": width}
        return DomainCheck("converged", n, Fraction(*pair), tail, evidence)
    # The row and x are integers over den and L, so every term, partial sum
    # and window entry is an integer numerator over the one denominator den * L.
    window: deque[int] = deque(maxlen=16)
    tp, tq = tol.numerator, tol.denominator
    stable_seen = False
    nums, den = matrix._row(n, DOMAIN_SCAN_COLUMNS)
    xs, scale = _common(map(x.fn, range(1, DOMAIN_SCAN_COLUMNS + 1)))
    den *= scale
    grown, late, settled = DOMAIN_GROWTH_BOUND * den, 2 * tp * den, tp * den
    num = 0
    for k, term in enumerate(map(mul, nums, xs), 1):
        num += term
        if abs(num) > grown:
            partial = setlang._bounded_str(Fraction(num, den))
            return DomainCheck(
                "diverging", n, None, None, {"kind": "growth", "column": k, "partial": partial}
            )
        if stable_seen and tol > 0 and abs(term) * tq > late:
            return DomainCheck(
                "diverging", n, None, None,
                {"kind": "late_term", "column": k, "term": str(Fraction(term, den))},
            )
        window.append(num)
        if k > 16 and tol > 0 and (max(window) - min(window)) * tq <= settled:
            stable_seen = True
    evidence = {"budget": "DOMAIN_SCAN_COLUMNS", "columns_used": DOMAIN_SCAN_COLUMNS,
                "last_partial": setlang._bounded_str(Fraction(num, den))}
    return DomainCheck("inconclusive", n, None, None, evidence)


# ---------------------------------------------------------------- regularity


@dataclass
class ConditionReport:
    holds: str  # "yes" | "no" | "at_scale" | "undecided"
    detail: str
    data: dict = field(default_factory=dict, compare=False)

    @property
    def certified(self) -> bool:
        """Only a closed-form argument answers yes or no; at-scale evidence never does."""
        return self.holds in ("yes", "no")


@dataclass
class RegularityVerdict:
    matrix_spec: str
    ideal_name: str
    overall: str  # "regular" | "not_regular" | "undecided"
    r1: ConditionReport
    r2: ConditionReport
    r3: ConditionReport
    witness: dict = field(default_factory=dict, compare=False)


def regularity_verdict(
    matrix: SummabilityMatrix, ideal: IdealPresentation, n_rows: int = DEFAULT_SCALE
) -> RegularityVerdict:
    """Verdict on the three regularity conditions relative to an ideal.

    R1: uniform row l1 bound.  R2: each column tends to 0 along the ideal.
    R3: row sums tend to 1 along the ideal.  The overall verdict is
    ``regular`` / ``not_regular`` only when every part is closed-form
    certified; sampled evidence alone yields ``undecided``.
    """
    r1 = matrix.r1_bound(n_rows)
    r2 = matrix.r2_columns(ideal, n_rows)
    r3 = matrix.r3_rowsums(ideal, n_rows)
    witness: dict = {}
    if "no" in (r1.holds, r2.holds, r3.holds):
        overall = "not_regular"
        for label, rep in (("r1", r1), ("r2", r2), ("r3", r3)):
            if rep.holds == "no":
                witness = {"condition": label, **rep.data}
                break
    elif all(rep.holds == "yes" for rep in (r1, r2, r3)):
        overall = "regular"
    else:
        overall = "undecided"
    return RegularityVerdict(
        matrix.spec_string(), ideal.name, overall, r1, r2, r3, witness
    )


# ---------------------------------------------------------------- matrix ideals


def validate_matrix_ideal(matrix: SummabilityMatrix) -> IdealPresentation:
    """Matrix-generated ideals need nonnegative entries, a certified
    regularity verdict and a null ideal that the matrix kind decides; reject
    anything weaker at construction time.  Returns that null ideal."""
    if not matrix.nonneg:
        raise UnsupportedIdealError("matrix ideals require nonnegative entries")
    verdict = regularity_verdict(matrix, IDEALS["fin"])
    if verdict.overall != "regular":
        raise UnsupportedIdealError(
            f"matrix ideals require a certified regular matrix, got {verdict.overall}"
        )
    reduced = matrix.null_ideal()
    if reduced is None:
        raise UnsupportedIdealError(
            f"matrix ideals require a decided null ideal, {matrix.spec_string()} states none"
        )
    return reduced


def matrix_ideal_kind(matrix: SummabilityMatrix) -> IdealPresentation:
    """The ideal {S : transform of 1_S tends to 0} of a validated matrix.
    The matrix kind decides that ideal (its null ideal), so the null
    ideal's decision, partition and limit rule serve as the closed form,
    Talagrand partition and limit rule; the transform probe is the evidence.

    The closed form is complete, so its undecided answer ends the ladder:
    the null ideal's own ladder has applied the rules every ideal obeys.
    Rerunning them here would rerun that ladder on every subtree.
    """
    reduced = validate_matrix_ideal(matrix)
    undecided_reason = "no certified argument for this matrix ideal"

    def closed_form(s: SetDescription) -> MembershipVerdict:
        if s._finiteness[0] is Tri.YES:
            return MembershipVerdict(IN, "finite union of vanishing columns")
        verdict = _decide(reduced, s)
        if verdict.decided:
            return MembershipVerdict(
                verdict.status, f"the null ideal is {reduced.name}; {verdict.reason}"
            )
        return MembershipVerdict(UNDECIDED, undecided_reason)

    def evidence(s: SetDescription, scale: int) -> dict:
        ladder = setlang.default_checkpoints(min(scale, 2048))
        points = matrix._transform(indicator_sequence(s), ladder)
        values = (str(Fraction(*pair)) for pair, _ in points)
        return {"transform_values": list(zip(ladder, values))}

    return IdealPresentation(
        "matrix", f"matrix:{matrix.spec_string()}", closed_form, undecided_reason, evidence,
        MEMBER_REASONS, reduced.partition, reduced.limit_rule,
    )
