"""Symbolic subsets of N = {1, 2, 3, ...}.

A set description is a small immutable AST written in a colon/pipe DSL,
e.g. ``ap:2,2``, ``complement:builtin:squares``, ``union:finite:{1,5}|ap:3,4``.
Every description has decidable membership.  Prefix counts use closed forms
where the shape allows them and fall back to bounded enumeration otherwise.
All quantities on verdict paths are exact ``fractions.Fraction`` values;
floats appear only in rendered reports.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt
from operator import sub

ENUMERATION_CAP = 10**7

# Deepest DSL nesting the parser accepts.  The structural analyses recurse
# once per level, so this stays well under Python's recursion limit.
MAX_NESTING = 256

ZERO = Fraction(0)
ONE = Fraction(1)


class SetSyntaxError(ValueError):
    """Malformed DSL input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EnumerationCapError(RuntimeError):
    """A count or scan would have to enumerate past ENUMERATION_CAP."""


class Tri(enum.Enum):
    """Three-valued answer for structural questions about infinite sets."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def nu2(n: int) -> int:
    """Exponent of 2 in n, i.e. nu2(12) == 2.  Requires n >= 1."""
    if n < 1:
        raise ValueError("nu2 is defined on positive integers")
    return (n & -n).bit_length() - 1


# ---------------------------------------------------------------- AST nodes


@dataclass(frozen=True)
class Finite:
    members: tuple[int, ...]

    def __post_init__(self):
        normalized = tuple(sorted(set(self.members)))
        if normalized and normalized[0] < 1:
            raise ValueError("finite set members must be >= 1")
        object.__setattr__(self, "members", normalized)


@dataclass(frozen=True)
class AP:
    """Arithmetic progression {first, first+step, first+2*step, ...}."""

    first: int
    step: int

    def __post_init__(self):
        if self.first < 1:
            raise ValueError("AP first term must be >= 1")
        if self.step < 1:
            raise ValueError("AP step must be >= 1")


@dataclass(frozen=True)
class Squares:
    pass


@dataclass(frozen=True)
class Powers2:
    pass


@dataclass(frozen=True)
class Nu2Ge:
    """All n with nu2(n) >= threshold, i.e. multiples of 2**threshold."""

    threshold: int

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("nu2_ge threshold must be >= 0")


@dataclass(frozen=True)
class DyadicBlocks:
    """Union of dyadic blocks [2**q, 2**(q+1)) over q in the selector.

    Block indices q are naturals (q >= 1), so the described set lives in
    [2, infinity) and never contains 1.
    """

    selector: "SetDescription"


@dataclass(frozen=True)
class Complement:
    inner: "SetDescription"


@dataclass(frozen=True)
class Union:
    left: "SetDescription"
    right: "SetDescription"


@dataclass(frozen=True)
class Intersection:
    left: "SetDescription"
    right: "SetDescription"


@dataclass(frozen=True)
class Shift:
    """{m + offset : m in inner} intersected with N; offset may be negative."""

    inner: "SetDescription"
    offset: int


SetDescription = (
    Finite
    | AP
    | Squares
    | Powers2
    | Nu2Ge
    | DyadicBlocks
    | Complement
    | Union
    | Intersection
    | Shift
)

NATURALS = AP(1, 1)
EMPTY = Finite(())


# ---------------------------------------------------------------- membership


def member(s: SetDescription, n: int) -> bool:
    """Decide n in S.  n must be >= 1."""
    if n < 1:
        raise ValueError("membership is defined on n >= 1")
    if isinstance(s, Finite):
        i = bisect_left(s.members, n)
        return i < len(s.members) and s.members[i] == n
    if isinstance(s, AP):
        return n >= s.first and (n - s.first) % s.step == 0
    if isinstance(s, Squares):
        r = isqrt(n)
        return r * r == n
    if isinstance(s, Powers2):
        return n & (n - 1) == 0
    if isinstance(s, Nu2Ge):
        return n % (1 << s.threshold) == 0
    if isinstance(s, DyadicBlocks):
        if n == 1:
            return False
        return member(s.selector, n.bit_length() - 1)
    if isinstance(s, Complement):
        return not member(s.inner, n)
    if isinstance(s, Union):
        return member(s.left, n) or member(s.right, n)
    if isinstance(s, Intersection):
        return member(s.left, n) and member(s.right, n)
    if isinstance(s, Shift):
        m = n - s.offset
        return m >= 1 and member(s.inner, m)
    raise TypeError(f"not a set description: {s!r}")


# ---------------------------------------------------------------- range scans
# Counts without a closed form, window densities and member searches read
# one 0/1 byte per integer, SCAN_CHUNK integers at a time, from _scan: one
# slice or byte operation per node instead of one tree walk per integer.

SCAN_CHUNK = 1 << 16
_STRETCH = 1 << 10  # window evidence compares added and dropped flags this many at a time
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _scan(s: SetDescription, lo: int, hi: int) -> bytearray:
    """Byte i is 1 exactly when lo + i is in S, for lo >= 1 or an empty range."""
    size = hi - lo + 1
    if size <= 0:
        return bytearray()
    flags = bytearray(size)
    if isinstance(s, (AP, Nu2Ge)):
        first, step = (s.first, s.step) if isinstance(s, AP) else (1 << s.threshold,) * 2
        start = max(first, first - (first - lo) // step * step)
        if start <= hi:
            flags[start - lo::step] = b"\x01" * ((hi - start) // step + 1)
    elif isinstance(s, Finite):
        for m in s.members[bisect_left(s.members, lo):bisect_right(s.members, hi)]:
            flags[m - lo] = 1
    elif isinstance(s, Squares):
        for i in range(isqrt(lo - 1) + 1, isqrt(hi) + 1):
            flags[i * i - lo] = 1
    elif isinstance(s, Powers2):
        for j in range((lo - 1).bit_length(), hi.bit_length()):
            flags[(1 << j) - lo] = 1
    elif isinstance(s, DyadicBlocks):
        first_q = max(1, lo.bit_length() - 1)
        selected = _scan(s.selector, first_q, hi.bit_length() - 1)
        for q, chosen in enumerate(selected, first_q):
            if chosen:
                a, b = max(lo, 1 << q), min(hi, (2 << q) - 1)
                flags[a - lo:b - lo + 1] = b"\x01" * (b - a + 1)
    elif isinstance(s, Complement):
        return _scan(s.inner, lo, hi).translate(_FLIP)
    elif isinstance(s, (Union, Intersection)):
        a = int.from_bytes(_scan(s.left, lo, hi), "little")
        b = int.from_bytes(_scan(s.right, lo, hi), "little")
        both = a | b if isinstance(s, Union) else a & b
        flags[:] = both.to_bytes(size, "little")
    elif isinstance(s, Shift):
        # m = n - offset; integers whose preimage falls below 1 stay out.
        pad = max(0, 1 + s.offset - lo)
        flags[pad:] = _scan(s.inner, lo + pad - s.offset, hi - s.offset)
    else:
        raise TypeError(f"not a set description: {s!r}")
    return flags


def _chunks(s: SetDescription, lo: int, hi: int, size: int = SCAN_CHUNK):
    """Yield (start, _scan(s, start, end)) over [lo, hi], in chunks whose
    length doubles from ``size`` up to SCAN_CHUNK (searches start small)."""
    if lo < 1 <= hi:
        raise ValueError("membership is defined on n >= 1")
    while lo <= hi:
        end = min(hi, lo + min(size, SCAN_CHUNK) - 1)
        yield lo, _scan(s, lo, end)
        lo, size = end + 1, 2 * size


# ---------------------------------------------------------------- counting


def _merge_aps(a: AP, b: AP) -> AP | Finite:
    """Intersection of two APs: another AP (via CRT) or the empty set."""
    g = gcd(a.step, b.step)
    if (b.first - a.first) % g != 0:
        return EMPTY
    lcm = a.step // g * b.step
    # Solve n == a.first (mod a.step), n == b.first (mod b.step).
    m = b.step // g
    t = ((b.first - a.first) // g) * pow(a.step // g, -1, m) % m
    n0 = a.first + t * a.step
    lo = max(a.first, b.first)
    if n0 < lo:
        n0 += ((lo - n0 + lcm - 1) // lcm) * lcm
    return AP(n0, lcm)


def _count_finite_vs(f: Finite, other: SetDescription, limit: int) -> int:
    return sum(1 for m in f.members if m <= limit and member(other, m))


def _count_closed(s: SetDescription, limit: int) -> int | None:
    """Exact |S ∩ [1, limit]| via structure, or None if no closed form."""
    if limit < 1:
        return 0
    if isinstance(s, Finite):
        return bisect_right(s.members, limit)
    if isinstance(s, AP):
        if limit < s.first:
            return 0
        return (limit - s.first) // s.step + 1
    if isinstance(s, Squares):
        return isqrt(limit)
    if isinstance(s, Powers2):
        return limit.bit_length()
    if isinstance(s, Nu2Ge):
        return limit >> s.threshold
    if isinstance(s, DyadicBlocks):
        total = 0
        q = 1
        while (1 << q) <= limit:
            if member(s.selector, q):
                hi = min((1 << (q + 1)) - 1, limit)
                total += hi - (1 << q) + 1
            q += 1
        return total
    if isinstance(s, Complement):
        inner = _count_closed(s.inner, limit)
        return None if inner is None else limit - inner
    if isinstance(s, Shift):
        upper = _count_closed(s.inner, limit - s.offset)
        if upper is None:
            return None
        if s.offset >= 0:
            return upper
        dropped = _count_closed(s.inner, -s.offset)
        return None if dropped is None else upper - dropped
    if isinstance(s, Union):
        a = _count_closed(s.left, limit)
        b = _count_closed(s.right, limit)
        if a is None or b is None:
            return None
        both = _count_intersection_closed(s.left, s.right, limit)
        return None if both is None else a + b - both
    if isinstance(s, Intersection):
        return _count_intersection_closed(s.left, s.right, limit)
    raise TypeError(f"not a set description: {s!r}")


def _count_intersection_closed(a, b, limit: int) -> int | None:
    if isinstance(a, Finite):
        return _count_finite_vs(a, b, limit)
    if isinstance(b, Finite):
        return _count_finite_vs(b, a, limit)
    if isinstance(a, AP) and isinstance(b, AP):
        return _count_closed(_merge_aps(a, b), limit)
    return None


def count_prefix(s: SetDescription, limit: int) -> int:
    """Exact |S ∩ [1, limit]|.

    Uses closed forms for the structured shapes; unions/intersections that
    do not reduce fall back to enumeration, capped at ENUMERATION_CAP.
    """
    return prefix_counts(s, [limit])[0][1]


def prefix_counts(s: SetDescription, checkpoints) -> list[tuple[int, int]]:
    """[(n, count_prefix(s, n)) for n in checkpoints], checkpoints increasing.

    Closed forms first; the checkpoints left over share one range scan.
    """
    checkpoints = list(checkpoints)
    counts = []
    for limit in checkpoints:
        if limit < 0:
            raise ValueError("limit must be >= 0")
        counts.append(_count_closed(s, limit))
        if counts[-1] is None and limit > ENUMERATION_CAP:
            raise EnumerationCapError(f"counting to {limit} needs enumeration past cap "
                                      f"{ENUMERATION_CAP}")
    todo = [i for i, c in enumerate(counts) if c is None]
    total = 0
    for start, flags in _chunks(s, 1, checkpoints[todo[-1]] if todo else 0):
        while todo and checkpoints[todo[0]] < start + len(flags):
            i = todo.pop(0)
            counts[i] = total + flags.count(1, 0, checkpoints[i] - start + 1)
        total += flags.count(1)
    return list(zip(checkpoints, counts))


def first_member(s: SetDescription, cap: int = ENUMERATION_CAP) -> int | None:
    """Least element of S, or None if none exists <= cap."""
    if isinstance(s, Finite):
        return s.members[0] if s.members else None
    if isinstance(s, AP):
        return s.first
    if isinstance(s, (Squares, Powers2)):
        return 1
    if isinstance(s, Nu2Ge):
        return 1 << s.threshold if s.threshold else 1
    if isinstance(s, DyadicBlocks):
        q = first_member(s.selector, cap)
        return None if q is None or q >= cap.bit_length() else 1 << q
    if isinstance(s, Union):
        a = first_member(s.left, cap)
        b = first_member(s.right, cap)
        if a is None or b is None:
            # The side with no member up to cap may still have one between
            # cap and the other side's least.
            least = b if a is None else a
            return None if least is None or least > cap else least
        return min(a, b)
    if isinstance(s, Shift):
        if s.offset >= 0:
            base = first_member(s.inner, cap)
        else:
            # The least inner member that lands on 1 or later.
            base = next_member(s.inner, -s.offset, cap)
        return None if base is None else base + s.offset
    return next_member(s, 0, cap)


def next_member(s: SetDescription, after: int, cap: int = ENUMERATION_CAP) -> int | None:
    """Least element of S strictly greater than ``after`` (<= cap), or None."""
    if isinstance(s, AP):
        if after < s.first:
            return s.first
        return s.first + ((after - s.first) // s.step + 1) * s.step
    if isinstance(s, Nu2Ge):
        step = 1 << s.threshold
        return (after // step + 1) * step
    if isinstance(s, Finite):
        i = bisect_right(s.members, after)
        return s.members[i] if i < len(s.members) else None
    for start, flags in _chunks(s, after + 1, cap, 16):
        i = flags.find(1)
        if i >= 0:
            return start + i
    return None


def iter_members(s: SetDescription, limit: int):
    """Yield the members of S up to ``limit`` in increasing order."""
    if limit > ENUMERATION_CAP and _count_closed(s, limit) is None:
        raise EnumerationCapError("member scan past cap")
    n = first_member(s, limit)
    while n is not None and n <= limit:
        yield n
        n = next_member(s, n, limit)


# ---------------------------------------------------------------- structure


def is_finite(s: SetDescription) -> Tri:
    """Is S finite?  Sound three-valued structural analysis."""
    return _finiteness(s)[0]


def is_cofinite(s: SetDescription) -> Tri:
    """Is the complement of S finite?  Sound three-valued analysis."""
    return _finiteness(s)[1]


def _both(a: Tri, b: Tri) -> Tri:
    """Does a property hold for both parts, given three-valued answers?"""
    if a is Tri.YES and b is Tri.YES:
        return Tri.YES
    return Tri.NO if Tri.NO in (a, b) else Tri.UNKNOWN


def _finiteness(s: SetDescription) -> tuple[Tri, Tri]:
    """(is_finite(s), is_cofinite(s)) from one recursion over the tree."""
    # Composite nodes first: deep trees are mostly unions and intersections.
    if isinstance(s, Union):
        (fin_a, cofin_a), (fin_b, cofin_b) = _finiteness(s.left), _finiteness(s.right)
        fin = _both(fin_a, fin_b)
        if Tri.YES in (cofin_a, cofin_b):
            return fin, Tri.YES
        return fin, Tri.NO if fin is Tri.YES else Tri.UNKNOWN
    if isinstance(s, Intersection):
        (fin_a, cofin_a), (fin_b, cofin_b) = _finiteness(s.left), _finiteness(s.right)
        cofin = _both(cofin_a, cofin_b)
        if Tri.YES in (fin_a, fin_b):
            return Tri.YES, cofin
        if isinstance(s.left, AP) and isinstance(s.right, AP):
            merged = _merge_aps(s.left, s.right)
            return Tri.YES if isinstance(merged, Finite) else Tri.NO, cofin
        return Tri.UNKNOWN, cofin
    if isinstance(s, DyadicBlocks):
        # Every block with index q >= 1 is nonempty, and the complement is
        # {1} plus the unselected blocks.
        return _finiteness(s.selector)
    if isinstance(s, Complement):
        fin, cofin = _finiteness(s.inner)
        return cofin, fin
    if isinstance(s, Shift):
        # A shift moves every member and drops at most finitely many below 1.
        return _finiteness(s.inner)
    if isinstance(s, Finite):
        return Tri.YES, Tri.NO
    if isinstance(s, AP):
        return Tri.NO, Tri.YES if s.step == 1 else Tri.NO
    if isinstance(s, (Squares, Powers2)):
        return Tri.NO, Tri.NO
    if isinstance(s, Nu2Ge):
        return Tri.NO, Tri.YES if s.threshold == 0 else Tri.NO
    raise TypeError(f"not a set description: {s!r}")


# ---------------------------------------------------------------- densities


def exact_density(s: SetDescription) -> Fraction | None:
    """Exact asymptotic density when the structure certifies one, else None.

    Every returned value is a certified fact about S, not an estimate: the
    limit of |S ∩ [1, n]| / n exists and equals the returned fraction.
    """
    if isinstance(s, Finite):
        return ZERO
    if isinstance(s, AP):
        return Fraction(1, s.step)
    if isinstance(s, (Squares, Powers2)):
        return ZERO
    if isinstance(s, Nu2Ge):
        return Fraction(1, 1 << s.threshold)
    if isinstance(s, DyadicBlocks):
        fin = is_finite(s.selector)
        if fin is Tri.YES:
            return ZERO
        if is_cofinite(s.selector) is Tri.YES:
            return ONE
        return None
    if isinstance(s, Complement):
        d = exact_density(s.inner)
        return None if d is None else ONE - d
    if isinstance(s, Shift):
        return exact_density(s.inner)
    if isinstance(s, Union):
        a = exact_density(s.left)
        b = exact_density(s.right)
        if a is None or b is None:
            return None
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        if a == ONE or b == ONE:
            return ONE
        if isinstance(s.left, AP) and isinstance(s.right, AP):
            both = exact_density(_merge_aps(s.left, s.right))
            return a + b - both
        return None
    if isinstance(s, Intersection):
        a = exact_density(s.left)
        b = exact_density(s.right)
        if a == ZERO or b == ZERO:
            return ZERO
        if a == ONE:
            return b
        if b == ONE:
            return a
        if isinstance(s.left, AP) and isinstance(s.right, AP):
            return exact_density(_merge_aps(s.left, s.right))
        return None
    raise TypeError(f"not a set description: {s!r}")


def banach_exact(s: SetDescription) -> Fraction | None:
    """Exact Banach (uniform upper) density when certified, else None."""
    # A union or shift is finite only through its parts, which answer ZERO.
    if not isinstance(s, (Union, Shift)) and is_finite(s) is Tri.YES:
        return ZERO
    if isinstance(s, AP):
        return Fraction(1, s.step)
    if isinstance(s, (Squares, Powers2)):
        # Gaps between consecutive members grow without bound, so any fixed
        # window length eventually holds at most one member.
        return ZERO
    if isinstance(s, Nu2Ge):
        return Fraction(1, 1 << s.threshold)
    if isinstance(s, DyadicBlocks):
        fin = is_finite(s.selector)
        if fin is Tri.YES:
            return ZERO
        if fin is Tri.NO:
            # Contains arbitrarily long intervals.
            return ONE
        return None
    if isinstance(s, Complement):
        if is_finite(s.inner) is Tri.YES:
            return ONE
        return None
    if isinstance(s, Shift):
        return banach_exact(s.inner)
    if isinstance(s, Union):
        a = banach_exact(s.left)
        b = banach_exact(s.right)
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        if a == ONE or b == ONE:
            return ONE
        return None
    if isinstance(s, Intersection):
        a = banach_exact(s.left)
        b = banach_exact(s.right)
        if a == ZERO or b == ZERO:
            return ZERO
        if is_cofinite(s.left) is Tri.YES:
            return b
        if is_cofinite(s.right) is Tri.YES:
            return a
        return None
    return None


def max_window_density(s: SetDescription, limit: int, window: int) -> Fraction:
    """Max of |S ∩ (t, t+window]| / window over windows inside [1, limit]."""
    return _window_maxima(s, limit, [window])[0]


def _window_maxima(s: SetDescription, limit: int, windows: list[int]) -> list[Fraction]:
    """max_window_density at each window length, from one range scan.

    A window's count is a running sum of added minus dropped flags; stretches
    where they agree change nothing, and a full window is done.  The scan
    keeps the last longest window's flags; zeros stand for integers below 1.
    """
    if not all(1 <= window <= limit for window in windows):
        raise ValueError("need 1 <= window <= limit")
    if limit > ENUMERATION_CAP:
        raise EnumerationCapError("window scan past cap")
    longest = max(windows, default=0)
    best, current = dict.fromkeys(windows, 0), dict.fromkeys(windows, 0)
    kept = bytearray(longest)
    for _, flags in _chunks(s, 1, limit):
        buf = kept + flags
        for w in [w for w in best if best[w] < w]:
            for a in range(longest, len(buf), _STRETCH):
                b = min(a + _STRETCH, len(buf))
                added, dropped = buf[a:b], buf[a - w:b - w]
                if added != dropped and best[w] < current[w] + added.count(1):
                    steps = accumulate(map(sub, added, dropped), initial=current[w])
                    best[w] = max(best[w], max(steps))
                current[w] += added.count(1) - dropped.count(1)
        if all(best[w] == w for w in best):
            break
        kept = buf[len(buf) - longest:]
    return [Fraction(best[w], w) for w in windows]


@dataclass(frozen=True)
class DensityReport:
    """Prefix-density evidence for a set at chosen checkpoints.

    ``lower_estimate``/``upper_estimate`` are the min/max observed prefix
    ratios; when ``exact`` is present both collapse to it.  ``banach_upper``
    is the max sliding-window density at the requested window length.
    """

    description: SetDescription
    prefix_counts: tuple[tuple[int, int], ...]
    lower_estimate: Fraction
    upper_estimate: Fraction
    exact: Fraction | None = None
    banach_upper: tuple[Fraction, int] | None = None

    def ratios(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((n, Fraction(c, n)) for n, c in self.prefix_counts)


def density_report(
    s: SetDescription,
    limit: int,
    checkpoints: tuple[int, ...] | list[int] | None = None,
    window: int | None = None,
) -> DensityReport:
    """Tabulate prefix counts and density estimates for S up to ``limit``."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if checkpoints is None:
        checkpoints = default_checkpoints(limit)
    checkpoints = tuple(checkpoints)
    if not checkpoints or list(checkpoints) != sorted(set(checkpoints)):
        raise ValueError("checkpoints must be nonempty and strictly increasing")
    if checkpoints[0] < 1 or checkpoints[-1] > limit:
        raise ValueError("checkpoints must lie in [1, limit]")
    counts = tuple(prefix_counts(s, checkpoints))
    ratios = [Fraction(c, n) for n, c in counts]
    exact = exact_density(s)
    if exact is not None:
        lower = upper = exact
    else:
        lower, upper = min(ratios), max(ratios)
    banach = None
    if window is not None:
        banach = (max_window_density(s, limit, window), window)
    return DensityReport(s, counts, lower, upper, exact, banach)


def default_checkpoints(limit: int) -> tuple[int, ...]:
    ladder = sorted({max(1, limit // 8), max(1, limit // 4), max(1, limit // 2), limit})
    return tuple(ladder)


def fraction_decimal(value: Fraction, places: int = 12) -> str:
    """Exact decimal rendering of a nonnegative rational, truncated."""
    if value < 0:
        return "-" + fraction_decimal(-value, places)
    scaled = value.numerator * 10**places // value.denominator
    whole, frac = divmod(scaled, 10**places)
    return f"{whole}.{frac:0{places}d}"


def density_csv(report: DensityReport) -> str:
    """CSV rendering (n, count, ratio) of a density report."""
    lines = ["n,count,ratio"]
    for n, c in report.prefix_counts:
        lines.append(f"{n},{c},{fraction_decimal(Fraction(c, n))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- DSL


class _Cursor:
    __slots__ = ("text", "pos", "depth")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise SetSyntaxError(f"expected {literal!r}", self.pos)

    def read_int(self, allow_sign: bool = False) -> int:
        start = self.pos
        if allow_sign and self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise SetSyntaxError("expected integer", start)
        return int(self.text[start:self.pos])

    def done(self) -> bool:
        return self.pos >= len(self.text)


def _parse(cur: _Cursor) -> SetDescription:
    # One frame per nesting level, so MAX_NESTING bounds the recursion.
    if cur.depth == MAX_NESTING:
        raise SetSyntaxError(f"nesting deeper than {MAX_NESTING} levels", cur.pos)
    cur.depth += 1
    if cur.take("finite:{"):
        members: list[int] = []
        if not cur.take("}"):
            members.append(cur.read_int())
            while cur.take(","):
                members.append(cur.read_int())
            cur.expect("}")
        try:
            node = Finite(tuple(members))
        except ValueError as exc:
            raise SetSyntaxError(str(exc), cur.pos) from exc
    elif cur.take("ap:"):
        first = cur.read_int()
        cur.expect(",")
        step = cur.read_int()
        try:
            node = AP(first, step)
        except ValueError as exc:
            raise SetSyntaxError(str(exc), cur.pos) from exc
    elif cur.take("builtin:"):
        if cur.take("squares"):
            node = Squares()
        elif cur.take("powers2"):
            node = Powers2()
        elif cur.take("nu2_ge("):
            node = Nu2Ge(cur.read_int())
            cur.expect(")")
        elif cur.take("dyadic_blocks("):
            node = DyadicBlocks(_parse(cur))
            cur.expect(")")
        else:
            raise SetSyntaxError("unknown builtin name", cur.pos)
    elif cur.take("complement:"):
        node = Complement(_parse(cur))
    elif cur.take("union:"):
        left = _parse(cur)
        cur.expect("|")
        node = Union(left, _parse(cur))
    elif cur.take("intersect:"):
        left = _parse(cur)
        cur.expect("|")
        node = Intersection(left, _parse(cur))
    elif cur.take("shift:"):
        inner = _parse(cur)
        cur.expect(",")
        node = Shift(inner, cur.read_int(allow_sign=True))
    else:
        raise SetSyntaxError("expected set expression", cur.pos)
    cur.depth -= 1
    return node


def parse_set(text: str) -> SetDescription:
    """Parse the DSL into its unique tree; round-trips through render()."""
    cur = _Cursor(text.strip())
    node = _parse(cur)
    if not cur.done():
        raise SetSyntaxError("trailing input", cur.pos)
    return node


def render(s: SetDescription) -> str:
    """Canonical DSL text for a description; parse_set(render(s)) == s."""
    if isinstance(s, Finite):
        return "finite:{" + ",".join(str(m) for m in s.members) + "}"
    if isinstance(s, AP):
        return f"ap:{s.first},{s.step}"
    if isinstance(s, Squares):
        return "builtin:squares"
    if isinstance(s, Powers2):
        return "builtin:powers2"
    if isinstance(s, Nu2Ge):
        return f"builtin:nu2_ge({s.threshold})"
    if isinstance(s, DyadicBlocks):
        return f"builtin:dyadic_blocks({render(s.selector)})"
    if isinstance(s, Complement):
        return "complement:" + render(s.inner)
    if isinstance(s, Union):
        return "union:" + render(s.left) + "|" + render(s.right)
    if isinstance(s, Intersection):
        return "intersect:" + render(s.left) + "|" + render(s.right)
    if isinstance(s, Shift):
        return "shift:" + render(s.inner) + f",{s.offset}"
    raise TypeError(f"not a set description: {s!r}")
