"""Ideal presentations on N and certified membership verdicts.

Supported kinds: the finite sets, the density-zero sets, the Banach-density
zero sets, the nu2-column ideal (sets whose fibers {n : nu2(n) = k} are
finite for all but finitely many k), and ideals generated by a nonnegative
regular summability matrix.  A verdict is always one of ``in`` / ``not_in``
(backed by a closed-form argument about the set's structure) or
``undecided`` with finite-scale evidence attached; no amount of enumeration
alone upgrades evidence to a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count
from operator import sub
from typing import Callable, Iterator

from .setlang import (
    AP,
    ENUMERATION_CAP,
    Complement,
    DyadicBlocks,
    EnumerationCapError,
    Intersection,
    Nu2Ge,
    Powers2,
    SetDescription,
    Shift,
    Squares,
    Tri,
    Union,
    _chunks,
    _scan,
    _window_maxima,
    default_checkpoints,
    next_member,
    nu2,
    prefix_counts,
)

DEFAULT_SCALE = 10**4

IN = "in"
NOT_IN = "not_in"
UNDECIDED = "undecided"


class UnsupportedIdealError(ValueError):
    pass


class RestrictionError(ValueError):
    """The proposed domain's complement is not certified inside the ideal."""


@dataclass
class MembershipVerdict:
    status: str
    reason: str
    scale: int | None = None
    evidence: dict = field(default_factory=dict, compare=False)

    @property
    def decided(self) -> bool:
        return self.status != UNDECIDED


def _in(reason: str) -> MembershipVerdict:
    return MembershipVerdict(IN, reason)


def _not_in(reason: str) -> MembershipVerdict:
    return MembershipVerdict(NOT_IN, reason)


def _undecided(reason: str, scale: int, evidence: dict) -> MembershipVerdict:
    return MembershipVerdict(UNDECIDED, reason, scale, evidence)


def _density_evidence(s: SetDescription, scale: int) -> dict:
    counts = prefix_counts(s, default_checkpoints(scale))
    return {
        "prefix_counts": counts,
        "ratios": [str(Fraction(c, n)) for n, c in counts],
    }


# ---------------------------------------------------------------- verdicts


def _fin_closed_form(s: SetDescription) -> MembershipVerdict | None:
    fin = s._finiteness[0]
    if fin is Tri.YES:
        return _in("structurally finite")
    if fin is Tri.NO:
        return _not_in("structurally infinite")
    return None


def _z_closed_form(s: SetDescription) -> MembershipVerdict | None:
    if s._finiteness[0] is Tri.YES:
        return _in("finite sets have density 0")
    d = s._density
    if d == 0:
        return _in("exact density 0")
    if d is not None:
        return _not_in(f"exact density {d} > 0")
    return None


def _bd_window_evidence(s: SetDescription, scale: int) -> dict:
    lengths = []
    length = 8
    while length * 4 <= scale and length <= 4096:
        lengths.append(length)
        length *= 4
    maxima = _window_maxima(s, scale, lengths)
    return {"max_window_density": [(w, str(d)) for w, d in zip(lengths, maxima)]}


def _bd_closed_form(s: SetDescription) -> MembershipVerdict | None:
    b = s._banach
    if b == 0:
        return _in("exact Banach density 0")
    if b is not None:
        return _not_in(f"exact Banach density {b} > 0")
    return None


def nu2_column_audit(s: SetDescription, scale: int) -> dict:
    """Counts of {n <= scale : n in S, nu2(n) = k} for k <= 20."""
    counts = {k: 0 for k in range(21)}
    for start, flags in _chunks(s, 1, scale):
        for k in counts:
            # n = start + i has nu2(n) == k exactly when n == 2**k mod 2**(k+1).
            counts[k] += flags[((1 << k) - start) % (2 << k)::2 << k].count(1)
    return {"column_counts": counts, "scale": scale}


def _finxfin_closed_form(s: SetDescription) -> MembershipVerdict | None:
    if isinstance(s, Intersection):
        s = s._meet or s
    fin, cofin = s._finiteness
    if fin is Tri.YES:
        return _in("finite set")
    if cofin is Tri.YES:
        return _not_in("cofinite set meets every nu2 fiber infinitely often")
    if isinstance(s, AP):
        e = nu2(s.step)
        if nu2(s.first) < e:
            return _in(f"all members lie in the single nu2 fiber {nu2(s.first)}")
        return _not_in(f"every nu2 fiber from {e} on is met infinitely often")
    if isinstance(s, Squares):
        return _not_in("every even nu2 fiber contains infinitely many squares")
    if isinstance(s, Nu2Ge):
        return _not_in(f"every nu2 fiber from {s.threshold} on is full")
    if isinstance(s, Complement) and isinstance(s.inner, Nu2Ge):
        return _in(f"nu2 fibers from {s.inner.threshold} on are empty")
    form = s._form
    if form is None:
        return None
    # With p = 2**a * m, m odd, a residue r = 0 mod 2**a meets every fiber
    # from a on infinitely often; any other residue stays below fiber a.
    p, mask, atoms, _ = form
    a = nu2(p)
    if mask & ((1 << p) - 1) // ((1 << (1 << a)) - 1):
        return _not_in(f"every nu2 fiber from {a} on is met infinitely often")
    if not all(atom is Powers2 for atom, _ in atoms):
        return None
    # 2**j + o has nu2(o) for large j when o != 0; o = 0 is one per fiber.
    a = max([a] + [nu2(abs(o)) + 1 for _, o in atoms if o])
    return _in(f"every nu2 fiber from {a} on is finite")


# ---------------------------------------------------------------- smallness
# Limit search asks whether an exception set, one 0/1 flag byte per index 1..n,
# is small in the ideal's sense at scale n.


def _fin_small(flags: bytes, n: int) -> bool:
    return sum(flags[n // 2:]) == 0


def _z_small(flags: bytes, n: int) -> bool:
    # total/n <= (total - late)/half + 1/32, times 32 * n * half.
    half = n // 2
    total, late = sum(flags), sum(flags[half:])
    return 8 * total <= n and 32 * total * half <= 32 * (total - late) * n + n * half


def _bd_small(flags: bytes, n: int) -> bool:
    # The worst count over the windows [i, i + window) with n/2 <= i <= n - window.
    # No window holds more flags than the late half, so a late half with few
    # flags answers from one count; only a fuller one builds prefix sums.
    window = max(8, n // 8)
    late = flags[n // 2:n]
    if 8 * late.count(1) <= window:
        return True
    prefix = [0, *accumulate(late)]
    worst = max(map(sub, prefix[window:], prefix[:len(prefix) - window]), default=0)
    return 8 * worst <= window


def _finxfin_small(flags: bytes, n: int) -> bool:
    # No late flag in a nu2 fiber k with 4**k > n (under sqrt(n) late integers each).
    start, late = n // 2 + 1, flags[n // 2:n]
    return not any(1 in late[((1 << k) - start) % (2 << k)::2 << k]
                   for k in range((n.bit_length() + 1) // 2, n.bit_length()))


# ---------------------------------------------------------------- partitions


@dataclass(frozen=True)
class IntervalPartition:
    """Interval partition of a cofinite tail of N given by boundary(q).

    ``singletons``: blocks {1}, {2}, ...   ``dyadic``: blocks [2**q, 2**(q+1))
    for q >= 1.  Any set containing infinitely many whole blocks escapes the
    ideal the partition was built for.
    """

    kind: str  # "singletons" | "dyadic"

    def boundary(self, q: int) -> int:
        if q < 1:
            raise ValueError("block indices start at 1")
        return q if self.kind == "singletons" else 1 << q

    def block(self, q: int) -> range:
        return range(self.boundary(q), self.boundary(q + 1))

    def block_index(self, n: int) -> int:
        if self.kind == "singletons":
            return n
        if n < 2:
            raise ValueError("dyadic blocks start at 2")
        return n.bit_length() - 1


def restricted_blocks(ambient: IntervalPartition, domain: SetDescription) -> Iterator[tuple]:
    """Walk an interval partition traced on a subdomain, empties dropped.

    Each trace jumps to the domain's least member past the ambient blocks
    already traced and yields the ambient block holding it with its one
    range scan, the ``_scan`` flags, so a run of empty blocks costs one
    member search.  A trace past ENUMERATION_CAP raises EnumerationCapError.
    """
    traced = ambient.boundary(1) - 1  # the last integer the traces read
    for q in count(1):
        n = next_member(domain, traced)
        span = None if n is None else ambient.block(ambient.block_index(n))
        if span is None or span[-1] > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"restricted block {q} is not traced within {ENUMERATION_CAP} integers"
            )
        traced = span[-1]
        yield span, _scan(domain, span[0], traced)


# ---------------------------------------------------------------- presentation


@dataclass(frozen=True, eq=False)
class IdealPresentation:
    """A named ideal on N: one row stating what the ideal knows of itself.

    ``closed_form(s)`` decides a set from its structure alone, or returns
    None to leave the set to the ladder's rules; an undecided verdict from
    it ends the ladder.
    ``reasons`` word the rules every ideal obeys: a union of two members is
    a member, a superset of a non-member is not, a subset of a member is.
    ``shift_reason`` prefixes a shift's inner verdict when membership is
    shift invariant.  ``partition`` is the Talagrand interval partition: a
    set holding infinitely many of its whole blocks is not in the ideal.
    ``limit_rule``, the finite-scale smallness rule of limit search, backs
    regularity's evidence too; it reads an exception set at scale n as a 0/1
    byte string, byte i - 1 the flag of index i, and certifies nothing.
    """

    kind: str
    name: str
    closed_form: Callable[[SetDescription], MembershipVerdict | None]
    undecided_reason: str
    evidence: Callable[[SetDescription, int], dict]
    reasons: tuple[str, str, str]
    partition: IntervalPartition
    limit_rule: Callable[[bytes, int], bool]
    shift_reason: str | None = None

    def __repr__(self) -> str:
        return f"IdealPresentation({self.name})"

    # -- verdicts

    def decide(self, s: SetDescription) -> MembershipVerdict:
        """The verdict without evidence: an undecided one has no scale."""
        return _decide(self, s)

    def verdict(self, s: SetDescription, scale: int = DEFAULT_SCALE) -> MembershipVerdict:
        """The decision, with evidence at ``scale`` when it is undecided."""
        if scale < 1:
            raise ValueError("scale must be >= 1")
        verdict = _decide(self, s)
        if verdict.decided:
            return verdict
        return _undecided(verdict.reason, scale, self.evidence(s, scale))

    def dual_member(self, s: SetDescription) -> MembershipVerdict:
        """Verdict for membership of S in the dual filter (complement in
        ideal), without evidence."""
        return self.decide(Complement(s))

    # -- partitions and restriction

    def talagrand_partition(self) -> IntervalPartition:
        return self.partition

    def restrict(self, domain: SetDescription) -> "RestrictedIdeal":
        v = self.decide(Complement(domain))
        if v.status != IN:
            raise RestrictionError(
                f"complement of domain not certified in {self.name}: {v.reason}"
            )
        return RestrictedIdeal(self, domain)


# The ideal rules in words, for kinds with no more specific wording.
MEMBER_REASONS = (
    "union of two certified members", "contains a certified non-member subset",
    "subset of a certified member",
)

IDEALS = {
    # is_finite already composes through unions, intersections and shifts,
    # so fin's closed form answers every set that its rules could.
    "fin": IdealPresentation(
        "fin", "fin", _fin_closed_form, "finiteness not structurally decidable",
        _density_evidence,
        ("union of two finite sets", "contains an infinite subset", "subset of a finite set"),
        IntervalPartition("singletons"), _fin_small, "finiteness is shift invariant; ",
    ),
    "z": IdealPresentation(
        "z", "z", _z_closed_form, "no closed-form density argument", _density_evidence,
        ("union of two certified density-0 sets", "contains a certified positive-density subset",
         "subset of a certified density-0 set"),
        IntervalPartition("dyadic"), _z_small, "density is shift invariant; ",
    ),
    "bd": IdealPresentation(
        "bd", "bd", _bd_closed_form, "no closed-form Banach argument", _bd_window_evidence,
        ("union of two certified Banach-null sets",
         "contains a certified positive-Banach-density subset",
         "subset of a certified Banach-null set"),
        IntervalPartition("dyadic"), _bd_small, "Banach density is shift invariant; ",
    ),
    "finxfin": IdealPresentation(
        "finxfin", "finxfin", _finxfin_closed_form, "no closed-form nu2 fiber argument",
        lambda s, scale: nu2_column_audit(s, min(scale, 10**5)), MEMBER_REASONS,
        IntervalPartition("dyadic"), _finxfin_small,
    ),
}


def _decide(ideal: IdealPresentation, s: SetDescription) -> MembershipVerdict:
    """The verdict ladder of every ideal, computing no evidence: double
    complements cancel, then the ideal's closed form, its union and subset
    rules, shifts for shift-invariant ideals, the dyadic-block test of the
    ideal's Talagrand partition, and complements and other shifts pushed
    one level toward the atoms, each applied to the parts by the same
    ladder.  The facts and pushed nodes it reads are kept on each node."""
    if isinstance(s, Complement) and isinstance(s.inner, Complement):
        return _decide(ideal, s.inner.inner)
    verdict = ideal.closed_form(s)
    if verdict is not None:
        return verdict
    if isinstance(s, Union):
        left = _decide(ideal, s.left).status
        right = NOT_IN if left == NOT_IN else _decide(ideal, s.right).status
        if NOT_IN in (left, right):
            return _not_in(ideal.reasons[1])
        if left == right == IN:
            return _in(ideal.reasons[0])
    elif isinstance(s, Intersection):
        if _decide(ideal, s.left).status == IN or _decide(ideal, s.right).status == IN:
            return _in(ideal.reasons[2])
    elif isinstance(s, Shift) and ideal.shift_reason is not None:
        inner = _decide(ideal, s.inner)
        if inner.decided:
            return MembershipVerdict(inner.status, ideal.shift_reason + inner.reason)
    elif isinstance(blocks := s.inner if isinstance(s, Shift) else s, DyadicBlocks):
        # Talagrand's test: block [2**q, 2**(q+1)) holds a whole block of
        # every row's partition.  Shifted, it is a run of 2**q integers,
        # which meets every nu2 fiber j < q (only finxfin gets here).
        if blocks.selector._finiteness[0] is Tri.NO:
            return _not_in("contains infinitely many full dyadic blocks"
                           + (f" shifted by {s.offset}" if isinstance(s, Shift) else ""))
    elif s._pushed is not None:
        return _decide(ideal, s._pushed)
    return MembershipVerdict(UNDECIDED, ideal.undecided_reason)


class RestrictedIdeal:
    """Trace of an ideal on a codense-complement domain T.

    For S inside T, membership in the trace ideal coincides with membership
    in the ambient ideal, so verdicts delegate; the partition is the ambient
    one traced on T.
    """

    def __init__(self, base: IdealPresentation, domain: SetDescription):
        self.base = base
        self.domain = domain

    def verdict(self, s: SetDescription, scale: int = DEFAULT_SCALE) -> MembershipVerdict:
        return self.base.verdict(s, scale)

    def partition(self) -> Iterator[tuple]:
        return restricted_blocks(self.base.talagrand_partition(), self.domain)


def parse_ideal(spec: str) -> IdealPresentation:
    """Resolve an ideal name: fin | z | bd | finxfin | matrix:<matrix-spec>."""
    spec = spec.strip()
    if spec in IDEALS:
        return IDEALS[spec]
    if spec.startswith("matrix:"):
        from .summability import matrix_ideal_kind, parse_matrix

        return matrix_ideal_kind(parse_matrix(spec[len("matrix:"):]))
    raise UnsupportedIdealError(f"unknown ideal spec {spec!r}")
