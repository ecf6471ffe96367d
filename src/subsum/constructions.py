"""Constructive witnesses, exactly verified at finite scale.

Four families: limit estimation along an ideal with an explicit decision
procedure, two-sided oscillation certificates (JSON-portable, re-auditable),
escape selectors that push a matrix transform past any requested bound, and
adversarial 0/1 sequences that defeat every matrix with a run form.

Every result returned here has been re-checked by exact rational arithmetic
before it leaves the function; anything not re-checkable raises instead of
guessing.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress, count
from operator import itemgetter, mul, sub

from .ideals import (
    IN,
    IdealPresentation,
    restricted_blocks,
)
from .setlang import Complement, default_checkpoints, render
from .sigma import Consecutive, Selector
from .summability import (
    DEFAULT_COLUMN_CAP,
    AuditBudgetError,
    CesaroMatrix,
    DomainRiskError,
    RowSeq,
    SequenceSpec,
    SummabilityMatrix,
    _add_ratio,
    _common,
    _dot,
    _row_budget,
    _threshold_counts,
    parse_rational,
    render_rle,
)


class ConstructionError(RuntimeError):
    """The requested witness could not be built at this scale."""


class PreconditionError(RuntimeError):
    """The construction's hypotheses are not certified for these inputs."""


# ------------------------------------------------------------- limit search

EPS_GRID = tuple(Fraction(1, 1 << j) for j in range(1, 7))  # 1/2 .. 1/64

MIN_LIMIT_SCALE = 16


def _snap64(value: Fraction) -> Fraction:
    return Fraction(round(value * 64), 64)


# Per value, its exception code: how many of the radii 1/64, 2/64, 4/64, ..., 32/64
# its distance from a level exceeds.  Its flag at EPS_GRID[i] is code >= 6 - i.
_RUN_CODES = tuple(bytes((code,)) for code in (6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6))
_FLAG_TABLES = tuple(bytes(code >= 6 - i for code in range(256)) for i in range(6))


def _exact_keys(pairs: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """S = 64 Q**2 + 1, Q the largest denominator q > 0 of ``pairs``, and the
    sort keys floor(p/q * S).  A value and a rational t of denominator at most
    64 Q (a value, or one +- 2^j/64) are equal or more than 1/S apart, so
    floor(t * S) compares with the keys exactly as t with the values."""
    scale = 64 * max(q for _, q in pairs) ** 2 + 1
    return scale, [p * scale // q for p, q in pairs]


def quantile_candidates(values: list[Fraction], order: list[int] | None = None) -> list[Fraction]:
    """Candidate levels: five order statistics and their 1/64-grid snaps.
    ``order`` lists the positions of ``values`` by ascending value, when the
    caller has sorted them already."""
    if not values:
        return []
    if order is None:
        _, keys = _exact_keys([v.as_integer_ratio() for v in values])
        order = sorted(range(len(values)), key=keys.__getitem__)
    n = len(order)
    picks = {values[order[r]] for r in {0, n // 4, n // 2, (3 * n) // 4, n - 1}}
    return sorted(picks | set(map(_snap64, picks)))


@dataclass(frozen=True)
class OscillationCertificate:
    """Two threshold levels each hit densely, with recountable hit counts.

    ``upper_counts[i]`` is |{n <= scales[i] : v_n >= upper}| for the value
    stream described by (matrix_spec, x_spec); ``lower_counts`` uses
    v_n <= lower.  Auditing recomputes the stream and the counts.
    """

    x_spec: str
    matrix_spec: str
    lower: Fraction
    upper: Fraction
    scales: tuple[int, ...]
    lower_counts: tuple[int, ...]
    upper_counts: tuple[int, ...]

    def __post_init__(self):
        if self.lower >= self.upper:
            raise ConstructionError("oscillation needs lower < upper")
        if not len(self.scales) == len(self.lower_counts) == len(self.upper_counts):
            raise ConstructionError("certificate arrays must align")
        if not self.scales or self.scales[0] < 1:
            raise ConstructionError("certificates need at least one scale, each at least 1")
        if any(a >= b for a, b in zip(self.scales, self.scales[1:])):
            raise ConstructionError("certificate scales must increase")

    @property
    def delta_lower(self) -> Fraction:
        return Fraction(self.lower_counts[-1], self.scales[-1])

    @property
    def delta_upper(self) -> Fraction:
        return Fraction(self.upper_counts[-1], self.scales[-1])

    def to_json_dict(self) -> dict:
        return {
            "kind": "oscillation",
            "x": self.x_spec,
            "matrix": self.matrix_spec,
            "lower": str(self.lower),
            "upper": str(self.upper),
            "scales": list(self.scales),
            "lower_counts": list(self.lower_counts),
            "upper_counts": list(self.upper_counts),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OscillationCertificate":
        if not isinstance(data, dict) or data.get("kind") != "oscillation":
            raise ConstructionError("not an oscillation certificate")
        cert = cls(
            x_spec=data["x"],
            matrix_spec=data["matrix"],
            lower=parse_rational(data["lower"]),
            upper=parse_rational(data["upper"]),
            scales=tuple(int(v) for v in data["scales"]),
            lower_counts=tuple(int(v) for v in data["lower_counts"]),
            upper_counts=tuple(int(v) for v in data["upper_counts"]),
        )
        # Audit only the document the certificate writes back, type for type.
        if json.dumps(cert.to_json_dict(), sort_keys=True) != json.dumps(data, sort_keys=True):
            raise ConstructionError("the document is not the certificate it reads as")
        return cert

    def audit_values(self, values: list[Fraction]) -> bool:
        """Recount the hits against a value stream; True iff all match."""
        pairs = (v.as_integer_ratio() for v in values)
        return len(values) >= self.scales[-1] and _threshold_counts(
            pairs, self.lower, self.upper, self.scales) == (self.lower_counts, self.upper_counts)

    def audit(self, matrix: SummabilityMatrix, x: SequenceSpec) -> bool:
        """Recount the hits against the transform of x by the matrix kernel's
        integer pairs; True iff all match.  Certificates are only written for
        row-finite matrices, so any other is refused (DomainRiskError), as is a
        last scale over ``DEFAULT_COLUMN_CAP`` rows (AuditBudgetError)."""
        if not matrix.row_finite:
            raise DomainRiskError(
                f"certificates are audited against row-finite matrices, not {self.matrix_spec}"
            )
        limit = self.scales[-1]
        _row_budget(limit, "certificate scale")
        pairs = (pair for pair, _ in matrix._transform(x, range(1, limit + 1)))
        counts = _threshold_counts(pairs, self.lower, self.upper, self.scales)
        return counts == (self.lower_counts, self.upper_counts)


@dataclass
class IdealLimitVerdict:
    """Outcome of the finite-scale limit search along an ideal.

    ``limit``: a level eta whose exception sets look small in the ideal's
    sense at every epsilon from 1/2 down to ``eps`` contiguously.
    ``no_limit``: two levels, each hit with density >= 1/8 at full scale and
    >= 1/16 at half scale.  ``undecided``: neither pattern emerged.
    """

    status: str  # "limit" | "no_limit" | "undecided"
    ideal_name: str
    scale: int
    eta: Fraction | None = None
    eps: Fraction | None = None
    lower: Fraction | None = None
    upper: Fraction | None = None
    delta_lower: Fraction | None = None
    delta_upper: Fraction | None = None
    evidence: dict = field(default_factory=dict, compare=False)


def ideal_limit(
    values: list[Fraction],
    ideal: IdealPresentation,
) -> IdealLimitVerdict:
    """Decide limit / no-limit / undecided for a finite value stream.

    Level candidates come from order statistics (and their 1/64 snaps); a
    level wins if its exception sets pass the ideal's smallness rule for
    every epsilon from 1/2 down the dyadic grid contiguously, preferring the
    smallest final epsilon, then the simplest level.  Failing that, a pair
    of order-statistic levels hit with the density floors above yields a
    no-limit verdict with a recountable certificate.

    The stream is sorted once, by exact integer keys.  Each candidate's
    exception flags, and its hit counts, come from bisecting that sort at
    the candidate's thresholds; the flags reach the ideal's rule as one 0/1
    byte per value, in stream order.
    """
    small = ideal.limit_rule
    n = len(values)
    if n < MIN_LIMIT_SCALE:
        return IdealLimitVerdict("undecided", ideal.name, n, evidence={"reason": "scale too small"})
    # Every threshold eta +- f/64 has a denominator of at most 64 Q: its key compares exactly.
    scale, keys = _exact_keys([v.as_integer_ratio() for v in values])
    order = sorted(range(n), key=keys.__getitem__)
    unsort = itemgetter(*sorted(range(n), key=order.__getitem__))  # n >= 16: returns a tuple
    sorted_keys = [keys[i] for i in order]
    candidates = quantile_candidates(values, order)
    best, attempts = None, {}
    for eta in candidates:
        # The values below bisect_left(eta - f/64) and above bisect_right(eta + f/64) are
        # more than f/64 away: 12 cuts split the sort into 13 runs of one code each.
        a, b = eta.as_integer_ratio()
        lows = ((64 * a - f * b) * scale // (64 * b) for f in (32, 16, 8, 4, 2, 1))
        highs = ((64 * a + f * b) * scale // (64 * b) for f in (1, 2, 4, 8, 16, 32))
        cuts = [bisect_left(sorted_keys, t) for t in lows]
        cuts += [bisect_right(sorted_keys, t) for t in highs]
        codes = bytes(unsort(b"".join(map(mul, _RUN_CODES, map(sub, [*cuts, n], [0, *cuts])))))
        chain_eps = None
        for eps, table in zip(EPS_GRID, _FLAG_TABLES):
            flags = codes.translate(table)
            if not small(flags, n):
                break
            chain_eps, chain_flags = eps, flags
        attempts[str(eta)] = str(chain_eps) if chain_eps is not None else "none"
        if chain_eps is not None and (best is None or (chain_eps, eta.denominator, eta) < best[0]):
            best = ((chain_eps, eta.denominator, eta), eta, chain_eps, chain_flags)
    if best is not None:
        _, eta, eps, flags = best
        counts = [(c, flags.count(1, 0, c)) for c in default_checkpoints(n)]
        evidence = {"exception_counts": counts, "attempts": attempts}
        return IdealLimitVerdict("limit", ideal.name, n, eta=eta, eps=eps, evidence=evidence)
    # Per candidate c, its "<= c" and its ">= c" hits at half and full scale.
    half = sorted(keys[: n // 2])
    at = [c.numerator * scale // c.denominator for c in candidates]
    lo_hits = [(bisect_right(half, k), bisect_right(sorted_keys, k)) for k in at]
    up_hits = [(len(half) - bisect_left(half, k), n - bisect_left(sorted_keys, k)) for k in at]
    pair_best = None
    for i, lower in enumerate(candidates):
        lo_half, lo_full = lo_hits[i]
        for upper, (up_half, up_full) in zip(candidates[i + 1:], up_hits[i + 1:]):
            if 8 * min(lo_full, up_full) < n or 16 * min(lo_half, up_half) < n // 2:
                continue
            score = (upper - lower, Fraction(min(lo_full, up_full), n),
                     -lower.denominator, -upper.denominator)
            if pair_best is None or score > pair_best[0]:
                pair_best = (score, lower, upper, lo_full, up_full)
    if pair_best is None:
        return IdealLimitVerdict("undecided", ideal.name, n, evidence={"attempts": attempts})
    _, lower, upper, lo_full, up_full = pair_best
    return IdealLimitVerdict(
        "no_limit", ideal.name, n, lower=lower, upper=upper, delta_lower=Fraction(lo_full, n),
        delta_upper=Fraction(up_full, n), evidence={"attempts": attempts},
    )


# --------------------------------------------------------- oscillation pairs

# Indices each extension of a pair takes near its target level.
PAIR_PICKS = 64


@dataclass
class OscillationPair:
    """Two extensions of one stem whose transforms provably separate."""

    lower_selector: Selector
    upper_selector: Selector
    row: int
    lower_value: Fraction
    upper_value: Fraction
    lower_target: Fraction
    upper_target: Fraction

    @property
    def gap(self) -> Fraction:
        return self.upper_value - self.lower_value


def oscillation_pair(
    stem: tuple[int, ...],
    x: SequenceSpec,
    matrix: SummabilityMatrix,
    scan: int = 4096,
    tol: Fraction = Fraction(1, 16),
) -> OscillationPair:
    """Extend a stem two ways so the transforms separate at a visible row.

    Target levels are the quartiles of the sequence's late values; each
    extension keeps picking indices whose x-value stays within ``tol`` of
    its target, then runs consecutively.  The separation at the decision
    row is verified exactly before returning.
    """
    if not matrix.row_finite:
        raise PreconditionError("oscillation pairs need a row-finite matrix")
    j = len(stem)
    floor = stem[-1] if stem else 0
    if floor >= scan // 2:
        raise ConstructionError("stem already exhausts the scan range")
    _row_budget(scan, "oscillation scan length", "indices")
    xs = list(map(x.fn, range(1, scan + 1)))
    late = xs[scan // 2:]
    _, keys = _exact_keys(late)
    ordered = sorted(range(len(late)), key=keys.__getitem__)
    low_target = Fraction(*late[ordered[len(late) // 4]])
    high_target = Fraction(*late[ordered[(3 * len(late)) // 4]])
    if high_target - low_target <= 2 * tol:
        raise ConstructionError(
            "late values show no separation wider than the tolerance"
        )
    tp, tq = tol.as_integer_ratio()

    def collect(target: Fraction) -> tuple[int, ...]:
        # |p/q - a/b| <= tp/tq exactly when |pb - aq| tq <= tp qb.
        a, b = target.numerator, target.denominator
        got = []
        for i in range(floor + 1, scan + 1):
            p, q = xs[i - 1]
            if abs(p * b - a * q) * tq <= tp * q * b:
                got.append(i)
                if len(got) == PAIR_PICKS:
                    break
        return tuple(got)

    low_picks = collect(low_target)
    high_picks = collect(high_target)
    want = min(PAIR_PICKS, len(low_picks), len(high_picks))
    if want < 16:
        raise ConstructionError("not enough indices near the target levels")
    low_picks = low_picks[:want]
    high_picks = high_picks[:want]
    sel_lo = Selector(stem + low_picks, Consecutive(low_picks[-1] + 1))
    sel_hi = Selector(stem + high_picks, Consecutive(high_picks[-1] + 1))
    row = j + want
    # The decision row of each extension's subsequence, summed by the kind's kernel.
    [(lo, _)] = matrix._transform(sel_lo.subsequence(x), (row,))
    [(hi, _)] = matrix._transform(sel_hi.subsequence(x), (row,))
    lo_value, hi_value = Fraction(*lo), Fraction(*hi)
    if hi_value - lo_value < (high_target - low_target) / 2:
        raise ConstructionError(
            "transforms did not separate at the decision row"
        )
    return OscillationPair(
        sel_lo, sel_hi, row, lo_value, hi_value, low_target, high_target
    )


# ------------------------------------------------------------------- escapes


@dataclass
class EscapeResult:
    """A selector together with the exactly verified bound it achieves."""

    mode: str  # "unbounded" | "row_finite"
    selector: Selector
    bound: Fraction
    holds: bool
    pivot_index: int | None = None
    pivot_position: int | None = None
    partial_sum: Fraction | None = None
    block_index: int | None = None
    block: tuple[int, ...] = ()
    row_values: tuple[tuple[int, Fraction], ...] = ()
    detail: dict = field(default_factory=dict, compare=False)


def _least_index_with_magnitude(x: SequenceSpec, floor: int, p: int, q: int) -> tuple:
    """Least h >= floor with |x_h| >= p/q, for p >= 0 and q > 0: the index
    the sequence's magnitude search names, checked as |a| q >= p b on the
    pair a/b of x_h; returns h and that pair, so x_h is read once."""
    h = x.abs_search(p, q, floor)
    if h >= floor:
        a, b = x.pair(h)
        if abs(a) * q >= p * b:
            return h, (a, b)
    raise ConstructionError(
        f"the magnitude search of {x.name} for |x| >= {Fraction(p, q)} from {floor}"
        f" named {h}, which does not qualify"
    )


def escape_unbounded(
    stem: tuple[int, ...],
    row: RowSeq,
    x: SequenceSpec,
    m0: Fraction | int,
) -> EscapeResult:
    """Extend a stem so one partial sum of row * x(selected) exceeds m0 + 1.

    Uses the first coefficient past the stem: a single far-out pick there
    dominates everything the stem committed to.  The partial sum through
    that coefficient is recomputed exactly and checked before returning.
    """
    m0 = Fraction(m0)
    if m0 < 0:
        raise ValueError("m0 must be nonnegative")
    if not x.unbounded:
        raise PreconditionError(
            "the unbounded-row escape needs an unbounded sequence, one stating a magnitude search"
        )
    j = len(stem)
    t_j = stem[-1] if stem else 0
    pivot = None
    scan_end = row.support if row.support is not None else j + 10**5
    for i in range(j + 1, scan_end + 1):
        if row.entry(i) != 0:
            pivot = i
            break
    if pivot is None:
        raise PreconditionError("row has no nonzero coefficient past the stem")
    committed = Fraction(*_dot(row.prefix(j), _common(map(x.pair, stem))))
    target = (m0 + 1 + abs(committed)) / abs(row.entry(pivot))
    floor = t_j + pivot
    t0, t0_pair = _least_index_with_magnitude(x, floor, *target.as_integer_ratio())
    fill = tuple(t_j + s for s in range(1, pivot - j))
    full_stem = stem + fill + (t0,)
    selector = Selector(full_stem, Consecutive(t0 + 1))
    picks = [*map(selector.subsequence(x).fn, range(1, pivot)), t0_pair]
    partial = Fraction(*_dot(row.prefix(pivot), _common(picks)))
    holds = abs(partial) >= m0 + 1
    return EscapeResult(
        mode="unbounded",
        selector=selector,
        bound=m0 + 1,
        holds=holds,
        pivot_index=pivot,
        pivot_position=t0,
        partial_sum=partial,
        detail={
            "committed": str(committed),
            "target_magnitude": str(target),
            "fill": list(fill),
        },
    )


def _larger(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The larger of two nonnegative ratios given as (numerator, positive
    denominator) pairs."""
    return b if b[0] * a[1] > a[0] * b[1] else a


def escape_rowfinite(
    stem: tuple[int, ...],
    matrix: SummabilityMatrix,
    x: SequenceSpec,
    ideal: IdealPresentation,
    m0: Fraction | int,
    p0: int = 1,
    after_row: int = 0,
) -> EscapeResult:
    """Extend a stem so a whole partition block of transform rows exceeds m0.

    Needs: a row-finite matrix whose rows supported below the stem's next
    column form a certified member of the ideal, an interval-partition
    witness for the ideal, and an unbounded sequence.  The block is the
    first one of the partition restricted to the surviving rows whose index
    is at least ``max(p0, 2)`` and whose first row lies after
    ``after_row``.  Picks are chosen one column at a time so that whichever
    row of the chosen block ends its support at that column is already
    pushed past m0.

    Every entry of the block is read twice, each time a whole row through
    ``matrix._row``: once to plan the picks, once in the exact re-check,
    which sums every row again against the picks read again from the
    selector (a constant row as its entry times a prefix sum of the picks).
    Each matrix kind states its rows whole, with no call per entry; a
    generator matrix serves the second read from its row cache.
    A block whose ambient span, row count or entry pass would read over
    ``DEFAULT_COLUMN_CAP`` integers, rows or entries is refused
    (AuditBudgetError) before any entry is read; the row count is read off
    the scan flags of ``restricted_blocks`` before the block is listed, and
    that walk traces no block past ``ENUMERATION_CAP`` (EnumerationCapError).
    """
    m0 = Fraction(m0)
    if m0 < 0:
        raise ValueError("m0 must be nonnegative")
    if p0 < 1:
        raise ValueError("block floors start at 1")
    if not x.unbounded:
        raise PreconditionError(
            "the row-finite escape needs an unbounded sequence, one stating a magnitude search"
        )
    if not matrix.row_finite:
        raise PreconditionError("the row-finite escape needs a row-finite matrix")
    j0 = len(stem)
    w0 = j0 + 1
    vanishing = matrix.vanish_rows(w0)
    verdict = ideal.decide(vanishing)
    if verdict.status != IN:
        raise PreconditionError(
            f"vanishing-row set not certified inside the ideal: {verdict.reason}"
        )
    surviving = Complement(vanishing)
    partition = ideal.talagrand_partition()
    # Block 1 holds the least surviving row the partition covers; start past it.
    floor = max(p0, 2)
    # Restricted block q traces an ambient block of index at least q, whose
    # scan fits the budget up to block ``last``: a floor past it is refused
    # by index, before its boundary is built or any block is traced.
    last = partition.block_index(partition.boundary(1) + DEFAULT_COLUMN_CAP) - 1
    blocks = restricted_blocks(partition, surviving)
    for q0 in count(1):
        if (q := max(q0, floor)) > last:
            raise AuditBudgetError(f"escape block {q} lies past block {last}: its scan length "
                                   f"is over the audit budget of {DEFAULT_COLUMN_CAP} integers")
        span, flags = next(blocks)
        if q0 >= floor and span[flags.index(1)] > after_row:
            break
    # Every surviving row has support at least w0 >= 1, so a block of more
    # rows than the budget also holds more entries: refuse it unlisted.
    _row_budget(flags.count(1), f"escape block {q0} row count")
    block = tuple(compress(span, flags))
    supports = {}
    for n in block:
        r = matrix.row_support(n)
        if r < w0:
            raise ConstructionError(
                "structural vanishing description disagrees with the row supports"
            )
        supports[n] = r
    _row_budget(sum(supports.values()), f"escape block {q0} entry count", "entries")
    # Entry pass: each block row read once through ``matrix._row``, as
    # integer numerators over the row's denominator.  It finds alpha, the
    # least nonzero |entry|, and splits the rows into those constant on their
    # support (every Cesaro row is 1/n on 1..n) and the rest, whose nonzero
    # entries it keeps by column, as (numerator, denominator) pairs.
    alpha = None  # (|numerator|, denominator)
    flat = {}  # row -> its one entry
    terms: dict[int, list[tuple[int, int, int]]] = {}  # column -> [(row, p, q)]
    for n in block:
        nums, den = matrix._row(n, supports[n])
        if nums.count(nums[0]) == len(nums):
            flat[n] = (nums[0], den)
            nonzero = nums[:1]
        else:
            for k, p in enumerate(nums, 1):
                if p:
                    terms.setdefault(k, []).append((n, p, den))
            nonzero = nums
        least = min(map(abs, filter(None, nonzero)), default=0)
        if least and (alpha is None or least * alpha[1] < alpha[0] * den):
            alpha = (least, den)
    # Column loop, on integer pairs compared by cross products.  With S the
    # sum of x over the picks so far, a constant row n has partial c_n * S
    # until its support ends, so one shared sum serves them all and the
    # worst open one has the largest |c_n|.  The other rows keep their own
    # partials over a running common denominator.  A row whose support has
    # ended joins the running max ``done``.  Each column's magnitude target
    # (m0 + worst) / alpha and each row's partial when it closes stay pairs,
    # so the loop builds no Fraction.  A new pick's x is the pair its
    # magnitude search tested; only stem columns read x here.
    k_top = max(supports.values())
    reach = [(0, 1)] * (k_top + 1)  # largest |c_n| over constant rows open at s
    closing: dict[int, list[int]] = {}
    for n in block:
        closing.setdefault(supports[n], []).append(n)
        if n in flat:
            r = supports[n]
            reach[r] = _larger(reach[r], (abs(flat[n][0]), flat[n][1]))
    for s in range(k_top - 1, 0, -1):
        reach[s] = _larger(reach[s], reach[s + 1])
    open_rows = {n: (0, 1) for n in block if n not in flat}
    partials = {}
    total = done = (0, 1)
    mp, mq = m0.numerator, m0.denominator
    ap, aq = alpha
    values = list(stem)
    prev = stem[-1] if stem else 0
    for s in range(1, k_top + 1):
        if s > j0:
            (rp, rq), (tp, tq) = reach[s], total
            bn, bd = _larger(done, (abs(tp) * rp, tq * rq))
            for num, den in open_rows.values():
                if abs(num) * bd > bn * den:
                    bn, bd = abs(num), den
            prev, (xp, xq) = _least_index_with_magnitude(
                x, prev + 1, (mp * bd + bn * mq) * aq, mq * bd * ap
            )
            values.append(prev)
        else:
            xp, xq = x.pair(values[s - 1])
        total = _add_ratio(*total, xp, xq)
        for n, p, q in terms.get(s, ()):
            open_rows[n] = _add_ratio(*open_rows[n], p * xp, q * xq)
        for n in closing.get(s, ()):
            if n in flat:
                partial = (flat[n][0] * total[0], flat[n][1] * total[1])
            else:
                partial = open_rows.pop(n)
            partials[n] = partial
            done = _larger(done, (abs(partial[0]), partial[1]))
    selector = Selector(tuple(values), Consecutive(prev + 1))
    # Exact re-check, sharing nothing with the column loop: every entry of
    # every block row is read again through ``matrix._row``, and x again
    # through the selector's subsequence, as integers over one denominator
    # L.  A re-read row whose numerators all equal c sums to c * P_s, P_s the
    # sum of its s picks; any other row is summed by ``_dot``.  Each sum is
    # compared with the plan's partial by cross products; only the printed
    # row values are built as Fractions.
    picks = _common(map(selector.subsequence(x).fn, range(1, k_top + 1)))
    prefix = list(accumulate(picks[0]))
    row_values = []
    holds = True
    for n in block:
        s = supports[n]
        nums, den = row = matrix._row(n, s)
        if nums.count(nums[0]) == len(nums):
            p, q = nums[0] * prefix[s - 1], den * picks[1]
        else:
            p, q = _dot(row, picks)
        planned_p, planned_q = partials[n]
        if p * planned_q != planned_p * q:
            raise ConstructionError("incremental and direct row sums disagree")
        row_values.append((n, Fraction(p, q)))
        if abs(p) * mq < mp * q:
            holds = False
    return EscapeResult(
        mode="row_finite",
        selector=selector,
        bound=m0,
        holds=holds,
        block_index=q0,
        block=block,
        row_values=tuple(row_values),
        detail={
            "stem_columns": j0,
            "vanishing_set": render(vanishing),
            "vanishing_reason": verdict.reason,
            "min_coefficient": str(Fraction(ap, aq)),
            "last_column": k_top,
        },
    )


# ----------------------------------------------------------------- adversary


@dataclass
class BoundaryMean:
    level: int
    at: int
    mean: Fraction
    target: Fraction
    error: Fraction
    allowance: Fraction

    @property
    def within(self) -> bool:
        return self.error <= self.allowance


@dataclass
class AdversaryReport:
    mode: str
    matrix_spec: str
    x_spec: str
    scale: int
    status: str  # "certified" | "diagnostic"
    certificate: OscillationCertificate
    boundary_means: tuple[BoundaryMean, ...] = ()
    evidence: dict = field(default_factory=dict, compare=False)


DELTA_FLOOR = Fraction(1, 10)
LOWER_THRESHOLD, UPPER_THRESHOLD = Fraction(2, 5), Fraction(3, 5)
ONE_THIRD, TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)


def _boundary_means(runs: list[tuple[int, int]], scale: int) -> tuple[BoundaryMean, ...]:
    # Row 2^k opens run k: the ones up to it are the earlier runs' and its bit.
    before = list(accumulate((bit * length for bit, length in runs), initial=0))
    out = []
    level = 1
    while (1 << (2 * level + 2)) <= scale:
        allowance = Fraction(4, 1 << (2 * level))
        # The mean peaks near 2/3 at the end of a block of ones and falls
        # back near 1/3 at the end of the following block of zeros.
        for k, target in ((2 * level + 1, TWO_THIRDS), (2 * level + 2, ONE_THIRD)):
            mean = Fraction(before[k] + runs[k][0], 1 << k)
            out.append(BoundaryMean(level, 1 << k, mean, target, abs(mean - target), allowance))
        level += 1
    return tuple(out)


def steinhaus_adversary(
    matrix: SummabilityMatrix,
    mode: str = "blocks",
    scale: int = 1 << 16,
) -> AdversaryReport:
    """A 0/1 sequence whose transform visits both threshold levels densely.

    ``blocks`` plays the fixed dyadic-block pattern; ``greedy`` builds the
    pattern adaptively, pushing the running average past 3/4 and back below
    1/4.  Both play every matrix with a run form (Cesàro, the identity and
    row drops over either): the bits are played as (bit, length) runs, and
    the certificate's exact hit counts come from ``matrix._threshold_runs``,
    per run.  If either density lands under 1/10 the report is downgraded to
    diagnostic.
    """
    if scale < 64:
        raise ValueError("adversary scales start at 64")
    if mode == "blocks":
        # Block j is [2^j, 2^(j+1)), all ones for even j.
        ends = [min(2 << j, scale + 1) for j in range(scale.bit_length())]
        runs = [(1 - j % 2, end - (1 << j)) for j, end in enumerate(ends)]
        x_spec = "blocks01"
        evidence = {}
    elif mode == "greedy":
        runs, phases = [], []
        n = ones = 0
        push_up = True
        while True:
            if push_up:
                # Push the running average past 3/4 (at least one step): s
                # more ones get there once 4(ones + s) >= 3(n + s).
                steps = max(1, 3 * n - 4 * ones)
                ones += steps
            else:
                # Pull the running average below 1/4: s zeros get there once
                # 4 ones <= n + s.
                steps = max(0, 4 * ones - n)
            n += steps
            runs.append((int(push_up), steps))
            phases.append({"direction": "up" if push_up else "down", "steps": steps, "at": n})
            if not push_up and n >= scale:
                break
            push_up = not push_up
        scale = n
        x_spec = "rle:" + render_rle(runs)
        # Every phase reaches its level in one step count, so none stalls.
        evidence = {"phases": phases, "stalled": False}
    else:
        raise ValueError(f"unknown adversary mode {mode!r}")
    scales = (scale // 2, scale)
    counts = matrix._threshold_runs(runs, LOWER_THRESHOLD, UPPER_THRESHOLD, scales)
    if counts is None:
        raise PreconditionError(
            "the adversary plays matrices with a run form only: cesaro, identity, "
            "and row drops over either"
        )
    cert = OscillationCertificate(
        x_spec, matrix.spec_string(), LOWER_THRESHOLD, UPPER_THRESHOLD, scales, *counts
    )
    certified = min(cert.delta_lower, cert.delta_upper) >= DELTA_FLOOR
    return AdversaryReport(
        mode=mode,
        matrix_spec=matrix.spec_string(),
        x_spec=x_spec,
        scale=scale,
        status="certified" if certified else "diagnostic",
        certificate=cert,
        boundary_means=(
            _boundary_means(runs, scale)
            if mode == "blocks" and isinstance(matrix, CesaroMatrix) else ()
        ),
        evidence={
            **evidence,
            "delta_lower": str(cert.delta_lower),
            "delta_upper": str(cert.delta_upper),
        },
    )


# ---------------------------------------------------------------- meagerness


@dataclass
class MeagernessDemo:
    """Transcript of repeated escapes: one selector family defeats every
    bound in the schedule on fresh partition blocks.

    Each result's ``block_index`` counts blocks of that round's restricted
    partition, which the next round renumbers; ``block`` holds the rows.
    """

    results: tuple[EscapeResult, ...]
    all_hold: bool


def meagerness_demo(
    matrix: SummabilityMatrix,
    x: SequenceSpec,
    ideal: IdealPresentation,
    schedule: tuple[int, ...] = (1, 2, 4, 8),
) -> MeagernessDemo:
    stem: tuple[int, ...] = ()
    last_row = 0
    results = []
    for m0 in schedule:
        # Fresh by row: a block index belongs to one round's partition.
        result = escape_rowfinite(stem, matrix, x, ideal, m0, after_row=last_row)
        results.append(result)
        stem = result.selector.stem
        last_row = result.block[-1]
    return MeagernessDemo(
        results=tuple(results),
        all_hold=all(r.holds for r in results),
    )
