"""Symbolic subsets of N = {1, 2, 3, ...}.

A set description is a small immutable AST written in a colon/pipe DSL,
e.g. ``ap:2,2``, ``complement:builtin:squares``, ``union:finite:{1,5}|ap:3,4``.
Every description has decidable membership.  Prefix counts use closed forms
where the shape allows them and fall back to bounded enumeration otherwise.
Finiteness, density and Banach density are read off one eventually periodic
form per node (its ``_form``) wherever the structure gives one.
All quantities on verdict paths are exact ``fractions.Fraction`` values;
floats appear only in rendered reports.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, takewhile
from math import gcd, isqrt
from operator import and_, or_, sub

ENUMERATION_CAP = 10**7
# Rationals larger than this many bits print in a bounded form.
RENDER_BITS = 4096

# Deepest DSL nesting the parser accepts.  Nodes build their facts when they
# are built, so no fact query walks the tree.  The walks that remain take one
# frame a level (parse, member, count, scan, render): at this depth every
# chain needs a recursion limit of about 270, of Python's default 1000.
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
# Each node kind states its structural facts once, as methods; the module
# functions below check their arguments and ask the node.  Range scans read
# one 0/1 byte per integer, SCAN_CHUNK integers at a time: one slice or byte
# operation per node instead of one tree walk per integer.

SCAN_CHUNK = 1 << 16
_LEAST_BLOCK, _STRETCH = 1 << 5, 1 << 11  # window evidence blocks: shortest retry, longest
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
# Largest period of an eventually periodic form; above it a node has no form.
PERIOD_CAP = 1 << 16
# Most member steps a count spends on listed members; a scan to a limit
# costs about as much as 16 + limit / 2**7 of them (see ``_Pair._count_both``).
_LISTED = 1 << 16


class SetDescription:
    """A subset of N given by its structure.

    Every node kind defines ``member(n)`` for n >= 1, ``scan(lo, hi)`` (the
    flags of ``_scan`` for 1 <= lo <= hi), ``form()`` (its eventually
    periodic form, see below), ``count(limit)`` (exact |S ∩ [1, limit]| for
    limit >= 1, or None without a closed form) and ``render()``.  Kinds that
    can lack a form also define ``finiteness()`` (is S finite, is its
    complement finite) and ``banach()``; the defaults below mean "no
    structural shortcut": no certified density, and member searches scan.
    A node runs these rules once, in ``__post_init__``, on its children's
    facts and keeps its own: ``_form`` (or None), ``_finiteness`` (two Tri),
    ``_density`` and ``_banach`` (exact, or None), ``_nodes`` (the most
    nodes one ``member`` call visits), ``jumps`` and ``_scans`` (a walk of S
    scans a range), so no fact query walks the tree.  What a node derives
    from its children is cached on it when first asked for: a union's or
    intersection's ``_meet`` (the CRT meet of two progressions), a
    complement's or shift's ``_pushed`` (itself moved one level toward the
    atoms) and a negative shift's ``_dropped``.

    ``next_member(after, cap)`` is the one member search a node states: an
    answer is always the least member past ``after``, and None means there
    is none up to ``cap``.  A node that ``jumps`` (finite sets,
    progressions, dyadic blocks, and shifts and unions with a side that
    jumps) reads its answer off its structure and may answer past the cap;
    a node that scans never does.
    """

    jumps = False  # None on unions and shifts, see __post_init__
    listed = None  # finite sets, squares, powers of 2: ``listed(limit)``, the members up to it
    _pushed = None  # see Complement and Shift
    # A kind's fields are its annotated names after its bases': a node is built,
    # compared, hashed and printed by them, and refuses assignment.
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or given.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            args = [given[name] for name in fields]
        vars(self).update(zip(fields, args))
        self.__post_init__()

    def _key(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __post_init__(self):
        children = [v for v in vars(self).values() if isinstance(v, SetDescription)]
        form = self.form()
        if form is None:
            fin, d, b = self.finiteness(), self.density(), self.banach()
            if d is None or b is None:
                # A finite or cofinite set needs no density rule of its own.
                known = ZERO if fin[0] is Tri.YES else ONE if fin[1] is Tri.YES else None
                d, b = known if d is None else d, known if b is None else b
        elif form[0] > 1:
            fin, d = _NEITHER, Fraction(form[1].bit_count(), form[0])
            b = d
        else:
            known = Tri.YES if not form[2] else Tri.NO if form[3] else Tri.UNKNOWN
            fin = (known, Tri.NO) if form[1] == 0 else (Tri.NO, known)
            d = b = ONE if form[1] else ZERO
        jumps, scans = self.jumps, not self.jumps
        if jumps is None:  # a union or a shift jumps, and scans, when a child does
            jumps, scans = any(c.jumps for c in children), any(c._scans for c in children)
        # Nodes are frozen: each fact is written once, past __setattr__.
        vars(self).update(_form=form, _finiteness=fin, _density=d, _banach=b, jumps=jumps,
                          _scans=scans, _nodes=1 + sum(c._nodes for c in children))

    def density(self) -> Fraction | None:
        """Certified asymptotic density of a node without a form, or None."""
        return None

    def next_member(self, after: int, cap: int) -> int | None:
        """Least member past ``after`` (>= 0); a scan stops at ``cap``."""
        for start, flags in _chunks(self, after + 1, cap, 16):
            i = flags.find(1)
            if i >= 0:
                return start + i
        return None


def _marked(lo: int, hi: int, members) -> bytearray:
    """Flags over [lo, hi] with a 1 at each of ``members`` (all inside it)."""
    flags = bytearray(hi - lo + 1)
    for m in members:
        flags[m - lo] = 1
    return flags


class Finite(SetDescription):
    members: tuple[int, ...]
    jumps = True

    def __post_init__(self):
        members = vars(self)["members"] = tuple(sorted(set(self.members)))
        if members and members[0] < 1:
            raise ValueError("finite set members must be >= 1")
        super().__post_init__()

    def member(self, n):
        i = bisect_left(self.members, n)
        return i < len(self.members) and self.members[i] == n

    def scan(self, lo, hi):
        return _marked(lo, hi, self.members[bisect_left(self.members, lo):
                                            bisect_right(self.members, hi)])

    def count(self, limit):
        return bisect_right(self.members, limit)

    listed = lambda self, limit: self.members[:bisect_right(self.members, limit)]

    def next_member(self, after, cap):
        i = bisect_right(self.members, after)
        return self.members[i] if i < len(self.members) else None

    def form(self):
        return _FINITE

    def render(self):
        return "finite:{" + ",".join(map(str, self.members)) + "}"


class _Progression(SetDescription):
    """{first, first + step, first + 2*step, ...}; subclasses supply both."""

    jumps = True

    def member(self, n):
        return n >= self.first and (n - self.first) % self.step == 0

    def scan(self, lo, hi):
        flags = bytearray(hi - lo + 1)
        first, step = self.first, self.step
        start = max(first, first - (first - lo) // step * step)
        if start <= hi:
            flags[start - lo::step] = b"\x01" * ((hi - start) // step + 1)
        return flags

    def count(self, limit):
        return max(0, (limit - self.first) // self.step + 1)

    def next_member(self, after, cap):
        return self.first + max(0, (after - self.first) // self.step + 1) * self.step

    def form(self):
        step = self.step
        if step == 1:
            return _COFINITE
        return (step, 1 << self.first % step, _NO_ATOMS, False) if step <= PERIOD_CAP else None

    # Progressions with steps above PERIOD_CAP have no form.
    def finiteness(self):
        return Tri.NO, Tri.NO

    def density(self):
        return Fraction(1, self.step)

    banach = density


class AP(_Progression):
    """Arithmetic progression {first, first+step, first+2*step, ...}."""

    first: int
    step: int

    def __post_init__(self):
        if self.first < 1:
            raise ValueError("AP first term must be >= 1")
        if self.step < 1:
            raise ValueError("AP step must be >= 1")
        super().__post_init__()

    def render(self):
        return f"ap:{self.first},{self.step}"


class Nu2Ge(_Progression):
    """All n with nu2(n) >= threshold, i.e. multiples of 2**threshold."""

    threshold: int

    def __post_init__(self):
        # The node builds 2**threshold; the nu2 tower's last round is RENDER_BITS.
        if not 0 <= self.threshold <= RENDER_BITS:
            raise ValueError(f"nu2_ge threshold must be between 0 and {RENDER_BITS}")
        super().__post_init__()

    @property
    def step(self):
        return 1 << self.threshold

    first = step

    def render(self):
        return f"builtin:nu2_ge({self.threshold})"


class _Sparse(SetDescription):
    """An infinite set from 1 on whose gaps grow without bound, so any fixed
    window length eventually holds at most one member: density and Banach
    density 0."""

    def form(self):
        return _SPARSE_FORMS[type(self)]


class Squares(_Sparse):
    def member(self, n):
        r = isqrt(n)
        return r * r == n

    def scan(self, lo, hi):
        return _marked(lo, hi, (i * i for i in range(isqrt(lo - 1) + 1, isqrt(hi) + 1)))

    def count(self, limit):
        return isqrt(limit)

    listed = lambda self, limit: (i * i for i in range(1, isqrt(limit) + 1))

    def render(self):
        return "builtin:squares"


class Powers2(_Sparse):
    def member(self, n):
        return n & (n - 1) == 0

    def scan(self, lo, hi):
        return _marked(lo, hi, (1 << j for j in range((lo - 1).bit_length(), hi.bit_length())))

    def count(self, limit):
        return limit.bit_length()

    listed = lambda self, limit: (1 << j for j in range(limit.bit_length()))

    def render(self):
        return "builtin:powers2"


class DyadicBlocks(SetDescription):
    """Union of dyadic blocks [2**q, 2**(q+1)) over q in the selector.

    Block indices q are naturals (q >= 1), so the described set lives in
    [2, infinity) and never contains 1.
    """

    selector: SetDescription
    jumps = True

    def member(self, n):
        return n > 1 and self.selector.member(n.bit_length() - 1)

    def scan(self, lo, hi):
        flags = bytearray(hi - lo + 1)
        first_q = max(1, lo.bit_length() - 1)
        for q, chosen in enumerate(_scan(self.selector, first_q, hi.bit_length() - 1), first_q):
            if chosen:
                a, b = max(lo, 1 << q), min(hi, (2 << q) - 1)
                flags[a - lo:b - lo + 1] = b"\x01" * (b - a + 1)
        return flags

    def count(self, limit):
        return sum(min((2 << q) - 1, limit) - (1 << q) + 1
                   for q in range(1, limit.bit_length()) if self.selector.member(q))

    def next_member(self, after, cap):
        n = after + 1
        q = n.bit_length() - 1
        if q and self.selector.member(q):
            return n
        # The next selected block that starts at or below the cap.
        q = self.selector.next_member(q, cap.bit_length() - 1)
        return None if q is None or q >= cap.bit_length() else 1 << q

    def form(self):
        fin, cofin = self.selector._finiteness
        return _FINITE if fin is Tri.YES else _COFINITE if cofin is Tri.YES else None

    def finiteness(self):
        # Every block with index q >= 1 is nonempty, and the complement is
        # {1} plus the unselected blocks.
        return self.selector._finiteness

    def banach(self):
        # An infinite selector gives arbitrarily long intervals.
        return ONE if self.selector._finiteness[0] is Tri.NO else None

    def render(self):
        return f"builtin:dyadic_blocks({self.selector.render()})"


class Complement(SetDescription):
    inner: SetDescription

    def member(self, n):
        return not self.inner.member(n)

    def scan(self, lo, hi):
        return self.inner.scan(lo, hi).translate(_FLIP)

    def count(self, limit):
        inner = self.inner.count(limit)
        return None if inner is None else limit - inner

    def form(self):
        f = self.inner._form
        return f and (f[0], f[1] ^ (1 << f[0]) - 1, f[2], f[3])

    def finiteness(self):
        fin, cofin = self.inner._finiteness
        return cofin, fin

    def density(self):
        d = self.inner._density
        return None if d is None else ONE - d

    def banach(self):
        # A Banach-null inner set leaves every long enough window of the
        # complement nearly full.
        if isinstance(self.inner, Complement):
            return self.inner.inner._banach
        return ONE if self.inner._banach == ZERO else None

    @cached_property
    def _pushed(self):
        # Equal to S up to a finite set: De Morgan, and the complement of the
        # dyadic blocks over x is {1} and the blocks over the complement of x.
        inner = self.inner
        if isinstance(inner, _Pair):
            dual = Intersection if isinstance(inner, Union) else Union
            return dual(Complement(inner.left), Complement(inner.right))
        if isinstance(inner, DyadicBlocks):
            return DyadicBlocks(Complement(inner.selector))
        return None

    def render(self):
        return "complement:" + self.inner.render()


def _both(a: Tri, b: Tri) -> Tri:
    """Does a property hold for both parts, given three-valued answers?"""
    if a is Tri.YES and b is Tri.YES:
        return Tri.YES
    return Tri.NO if Tri.NO in (a, b) else Tri.UNKNOWN


def _combine(op, a: bytearray, b: bytearray) -> bytearray:
    """Flags of ``op`` applied bytewise to two flag arrays, as one big-integer op."""
    both = op(int.from_bytes(a, "little"), int.from_bytes(b, "little"))
    return bytearray(both.to_bytes(len(a), "little"))


class _Pair(SetDescription):
    """A union or an intersection of two sets."""

    left: SetDescription
    right: SetDescription

    @cached_property
    def _meet(self) -> SetDescription | None:
        """left ∩ right when both are progressions: another progression (by
        CRT) or EMPTY.  None for any other pair."""
        a, b = self.left, self.right
        if not (isinstance(a, _Progression) and isinstance(b, _Progression)):
            return None
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

    def _count_both(self, limit: int) -> int | None:
        """|left ∩ right ∩ [1, limit]| when both are progressions, or from the
        other side's ``member`` on the members one side lists (a finite side
        always; see _LISTED)."""
        if self._meet is not None:
            return self._meet.count(limit)
        a, b = self.left, self.right
        budget, cheapest = min(_LISTED, 16 + (limit >> 7)), None
        for side, other in ((a, b), (b, a)):
            if side.listed is not None:
                cost = 0 if isinstance(side, Finite) else side.count(limit) * other._nodes
                if cost <= budget:
                    budget, cheapest = cost, (side, other)
        return None if cheapest is None else sum(map(cheapest[1].member, cheapest[0].listed(limit)))


class Union(_Pair):
    def member(self, n):
        return self.left.member(n) or self.right.member(n)

    def scan(self, lo, hi):
        return _combine(or_, self.left.scan(lo, hi), self.right.scan(lo, hi))

    def count(self, limit):
        both = self._count_both(limit)
        a = None if both is None else self.left.count(limit)
        b = None if a is None else self.right.count(limit)
        return None if b is None else a + b - both

    jumps = None

    def next_member(self, after, cap):
        if not self.jumps:
            return super().next_member(after, cap)
        # The side that jumps goes first, so a scan stops at its answer.
        first, second = ((self.left, self.right) if self.left.jumps
                         else (self.right, self.left))
        a = first.next_member(after, cap)
        b = second.next_member(after, cap if a is None else min(cap, a - 1))
        if a is None or b is None:
            # The side with no member up to cap may still have one between
            # cap and the other side's least.
            least = b if a is None else a
            return None if least is None or least > cap else least
        return min(a, b)

    def form(self):
        return _join(self.left._form, self.right._form, True)

    def finiteness(self):
        (fin_a, cofin_a), (fin_b, cofin_b) = self.left._finiteness, self.right._finiteness
        fin = _both(fin_a, fin_b)
        if Tri.YES in (cofin_a, cofin_b):
            return fin, Tri.YES
        return fin, Tri.NO if fin is Tri.YES else Tri.UNKNOWN

    def density(self):
        a, b = self.left._density, self.right._density
        if a is None or b is None:
            return None
        if a == ZERO or b == ZERO:
            return a + b
        if ONE in (a, b):
            return ONE
        # Two progressions merge by CRT at any step, also above PERIOD_CAP.
        return None if self._meet is None else a + b - self._meet._density

    def banach(self):
        a, b = self.left._banach, self.right._banach
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        return ONE if ONE in (a, b) else None

    def render(self):
        return f"union:{self.left.render()}|{self.right.render()}"


class Intersection(_Pair):
    def member(self, n):
        return self.left.member(n) and self.right.member(n)

    def scan(self, lo, hi):
        return _combine(and_, self.left.scan(lo, hi), self.right.scan(lo, hi))

    def count(self, limit):
        return self._count_both(limit)

    def form(self):
        return _join(self.left._form, self.right._form, False)

    def finiteness(self):
        (fin_a, cofin_a), (fin_b, cofin_b) = self.left._finiteness, self.right._finiteness
        cofin = _both(cofin_a, cofin_b)
        if Tri.YES in (fin_a, fin_b):
            return Tri.YES, cofin
        return Tri.UNKNOWN if self._meet is None else self._meet._finiteness[0], cofin

    def density(self):
        a, b = self.left._density, self.right._density
        if ZERO in (a, b):
            return ZERO
        if a == ONE:
            return b
        if b == ONE:
            return a
        return None if self._meet is None else self._meet._density

    def banach(self):
        if self._meet is not None:
            return self._meet._banach
        a, b = self.left._banach, self.right._banach
        if ZERO in (a, b):
            return ZERO
        if self.left._finiteness[1] is Tri.YES:
            return b
        if self.right._finiteness[1] is Tri.YES:
            return a
        return None

    def render(self):
        return f"intersect:{self.left.render()}|{self.right.render()}"


class Shift(SetDescription):
    """{m + offset : m in inner} intersected with N; offset may be negative."""

    inner: SetDescription
    offset: int

    def member(self, n):
        m = n - self.offset
        return m >= 1 and self.inner.member(m)

    # Count and scan call the inner node's own, so a chain of shifts takes
    # one frame a level.
    def scan(self, lo, hi):
        # m = n - offset; integers whose preimage falls below 1 stay out.
        flags = bytearray(hi - lo + 1)
        pad = max(0, 1 + self.offset - lo)
        if lo + pad <= hi:
            flags[pad:] = self.inner.scan(lo + pad - self.offset, hi - self.offset)
        return flags

    def count(self, limit):
        upper = self.inner.count(limit - self.offset) if limit > self.offset else 0
        if upper is None or self.offset >= 0:
            return upper
        dropped = self._dropped
        return None if dropped is None else upper - dropped

    @cached_property
    def _dropped(self):
        # The inner members that a negative offset moves below 1: a fact of
        # the node, counted once, so nested shifts stay linear in depth.
        return self.inner.count(-self.offset)

    jumps = None

    def next_member(self, after, cap):
        # The inner search, cap included, in the inner set's coordinates;
        # inner members at or below -offset land below 1.
        o = self.offset
        m = self.inner.next_member(max(after - o, -o, 0), cap - o)
        return None if m is None else m + o

    def form(self):
        # A shift changes S only finitely beyond moving it, for either sign.
        f = self.inner._form
        if f is None:
            return None
        p, mask, atoms, rest = f
        o = self.offset % p
        mask = (mask << o | mask >> p - o) & (1 << p) - 1
        if atoms:
            atoms = frozenset((atom, at + self.offset) for atom, at in atoms)
        return p, mask, atoms, rest

    # A shift moves every member and drops at most finitely many below 1.
    def finiteness(self):
        return self.inner._finiteness

    def density(self):
        return self.inner._density

    def banach(self):
        return self.inner._banach

    @cached_property
    def _pushed(self):
        # A shift distributes over unions and intersections.
        inner, o = self.inner, self.offset
        if isinstance(inner, _Pair):
            return type(inner)(Shift(inner.left, o), Shift(inner.right, o))
        return None

    def render(self):
        return f"shift:{self.inner.render()},{self.offset}"


# ---------------------------------------------------------------- periodic forms
# Every ideal here is closed under finite changes, so its verdicts depend on
# S only modulo finite sets.  The form of S is a tuple (p, mask, atoms, rest):
# for all large n, n is in the periodic part P exactly when bit n mod p of
# the int ``mask`` is set, and S Δ P lies, up to a finite set, inside the
# shifted sparse atoms in ``atoms`` (pairs (Squares or Powers2, offset)).
# Those have Banach density 0, so |mask|/p is both the density and the Banach
# density of S.  ``rest`` says that S Δ P is known to be infinite; it is read
# only when the mask is empty or full, where S Δ P is S or its complement.
# An empty or full mask has period 1.

_NO_ATOMS = frozenset()
_FINITE = (1, 0, _NO_ATOMS, False)
_COFINITE = (1, 1, _NO_ATOMS, False)
_SPARSE_FORMS = {kind: (1, 0, frozenset({(kind, 0)}), True) for kind in (Squares, Powers2)}
_NEITHER = (Tri.NO, Tri.NO)
NATURALS = AP(1, 1)
EMPTY = Finite(())


def _join(a: tuple | None, b: tuple | None, union: bool) -> tuple | None:
    """The form of the union (or the intersection) of two sets from theirs:
    both masks lifted to the lcm of the periods, then OR (or AND)."""
    if a is None or b is None:
        return None
    for x, y in ((a, b), (b, a)):
        if x[0] == 1 and not x[2]:
            # A finite set changes no union and empties an intersection; a
            # cofinite set fills a union and changes no intersection.
            return y if (x[1] == 0) == union else x
    pa, pb = a[0], b[0]
    p = pa * pb // gcd(pa, pb)
    if p > PERIOD_CAP:
        return None
    ones = (1 << p) - 1
    la, lb = a[1] * (ones // ((1 << pa) - 1)), b[1] * (ones // ((1 << pb) - 1))
    mask, top = (la | lb, ones) if union else (la & lb, 0)
    # Where one side's periodic part is full (for a union) or empty (for an
    # intersection), S Δ P lies in that side's atoms alone; where it settles
    # every residue, the other side's atoms do not matter.  Where both sides
    # settle every residue, either side's atoms will do: keep powers of 2,
    # which the finxfin rule reads.
    keep_a, keep_b = lb != top, la != top
    if not (keep_a or keep_b):
        keep_a = all(kind is Powers2 for kind, _ in a[2])
        keep_b = not keep_a
    atoms = (a[2] if keep_a else _NO_ATOMS) | (b[2] if keep_b else _NO_ATOMS)
    # An empty union mask leaves S = S Δ P, infinite when a side says so; a
    # full intersection mask does the same for the complement.
    rest = mask == ones - top and (a[3] or b[3])
    if mask in (0, ones):
        return 1, int(mask != 0), atoms, rest
    return p, mask, atoms, rest


# ---------------------------------------------------------------- queries


def member(s: SetDescription, n: int) -> bool:
    """Decide n in S.  n must be >= 1."""
    if n < 1:
        raise ValueError("membership is defined on n >= 1")
    return s.member(n)


def _scan(s: SetDescription, lo: int, hi: int) -> bytearray:
    """Byte i is 1 exactly when lo + i is in S, for lo >= 1 or an empty range."""
    return s.scan(lo, hi) if lo <= hi else bytearray()


def _chunks(s: SetDescription, lo: int, hi: int, size: int = SCAN_CHUNK):
    """Yield (start, _scan(s, start, end)) over [lo, hi], in chunks whose
    length doubles from ``size`` up to SCAN_CHUNK (searches start small)."""
    if lo < 1 <= hi:
        raise ValueError("membership is defined on n >= 1")
    while lo <= hi:
        end = min(hi, lo + min(size, SCAN_CHUNK) - 1)
        yield lo, _scan(s, lo, end)
        lo, size = end + 1, 2 * size


def _count_closed(s: SetDescription, limit: int) -> int | None:
    """Exact |S ∩ [1, limit]| via structure, or None if no closed form."""
    return 0 if limit < 1 else s.count(limit)


def prefix_counts(s: SetDescription, checkpoints) -> list[tuple[int, int]]:
    """[(n, |S ∩ [1, n]|) for n in checkpoints], checkpoints increasing, exact.

    Closed forms first; the checkpoints left over (unions and intersections
    that do not reduce) share one range scan, capped at ENUMERATION_CAP.
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
    """Least element of S, or None; see ``next_member`` for the cap."""
    return s.next_member(0, cap)


def next_member(s: SetDescription, after: int, cap: int = ENUMERATION_CAP) -> int | None:
    """Least element of S strictly greater than ``after`` >= 0, or None if
    none exists <= cap.  A set that jumps may answer past the cap, a set
    that scans never does, and a union answers past it only when both of
    its sides name their least member (see ``SetDescription``)."""
    return s.next_member(after, cap)


def _walk(s: SetDescription, cap: int):
    """Yield the members of S in increasing order: by ``next_member`` jumps,
    which may pass ``cap``, on a set that jumps, else from one chunked scan
    of [1, cap]."""
    if s.jumps:
        n = s.next_member(0, cap)
        while n is not None:
            yield n
            n = s.next_member(n, cap)
    else:
        for start, flags in _chunks(s, 1, cap, 16):
            yield from compress(range(start, start + len(flags)), flags)


def iter_members(s: SetDescription, limit: int):
    """Yield the members of S up to ``limit`` in increasing order; a jump past
    it ends the walk.  Past ENUMERATION_CAP a set whose walk scans, or that has
    no closed count, refuses."""
    if limit > ENUMERATION_CAP and (s._scans or _count_closed(s, limit) is None):
        raise EnumerationCapError("member scan past cap")
    yield from takewhile(limit.__ge__, _walk(s, limit))


def is_finite(s: SetDescription) -> Tri:
    """Is S finite?  Sound three-valued structural analysis."""
    return s._finiteness[0]


def exact_density(s: SetDescription) -> Fraction | None:
    """Exact asymptotic density when the structure certifies one, else None.

    Every returned value is a certified fact about S, not an estimate: the
    limit of |S ∩ [1, n]| / n exists and equals the returned fraction.
    """
    return s._density


# ---------------------------------------------------------------- densities


def max_window_density(s: SetDescription, limit: int, window: int) -> Fraction:
    """Max of |S ∩ (t, t+window]| / window over windows inside [1, limit]."""
    return _window_maxima(s, limit, [window])[0]


def _window_maxima(s: SetDescription, limit: int, windows: list[int]) -> list[Fraction]:
    """max_window_density at each window length, from one range scan.

    Each window length walks its ends in blocks, the first w + p long (those
    windows repeat none before them).  A block is skipped when its span (the
    block and the window before it) holds no more ones than the best window so
    far, or equals the flags one period p earlier (p from the set's form,
    checked on the bytes).  Else it is retried shorter, down to _LEAST_BLOCK,
    where its density of ones says the count would pass or where the period
    holds beside it, or a running sum of added minus dropped flags reads it.
    The scan keeps the last longest window plus p flags; zeros stand for
    integers below 1.
    """
    if not all(1 <= window <= limit for window in windows):
        raise ValueError("need 1 <= window <= limit")
    if limit > ENUMERATION_CAP:
        raise EnumerationCapError("window scan past cap")
    p = (s._form or (0,))[0]
    reach = max(windows, default=0) + p
    best, kept = dict.fromkeys(windows, 0), bytearray(reach)
    for _, flags in _chunks(s, 1, limit):
        buf = kept + flags
        # Without new ones no window here beats one seen; w ones in a row fill one.
        for w in [w for w in best if best[w] < w] if 1 in flags else ():
            if b"\x01" * w in buf:
                best[w] = w
            a, size = reach, w + p
            while a < len(buf) and best[w] < w:
                b = min(a + size, len(buf))
                ones = buf.count(1, a - w, b)  # fit: the block whose span holds best[w] of them
                fit = best[w] * (b - a + w) // ones - w if ones else _STRETCH
                if ones <= best[w]:
                    a, size = b, min(fit if best[w] else 2 * size, _STRETCH)
                elif p and buf[a - w - p:b - p] == buf[a - w:b]:
                    a, size = b, _STRETCH
                elif fit >= _LEAST_BLOCK:
                    size = fit
                elif p and (m := (a + b) // 2) - a >= _LEAST_BLOCK and (
                        buf[m - w - p:b - p] == buf[m - w:b]):
                    size = m - a  # only the first half reads a change of period
                elif p and m - a >= _LEAST_BLOCK and buf[a - w - p:m - p] == buf[a - w:m]:
                    a, size = m, b - m  # only the second half does
                else:
                    steps = accumulate(map(sub, buf[a:b], buf[a - w:b - w]),
                                       initial=buf.count(1, a - w, a))
                    best[w] = max(best[w], max(steps))
                    a, size = b, min(2 * size, _STRETCH)
        if all(best[w] == w for w in best):
            break
        kept = buf[len(buf) - reach:]
    return [Fraction(best[w], w) for w in windows]


@dataclass
class DensityReport:
    """Prefix-density evidence for a set at the default checkpoints.

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
    window: int | None = None,
) -> DensityReport:
    """Tabulate prefix counts and density estimates for S up to ``limit``."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if window is not None and not 1 <= window <= limit:
        raise ValueError("need 1 <= window <= limit")
    counts = tuple(prefix_counts(s, default_checkpoints(limit)))
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


def fraction_decimal(value: Fraction) -> str:
    """Exact decimal rendering of a rational, truncated to 12 places."""
    if value < 0:
        return "-" + fraction_decimal(-value)
    whole, frac = divmod(value.numerator * 10**12 // value.denominator, 10**12)
    return f"{whole}.{frac:012d}"


def _bounded_str(value: Fraction) -> str:
    """``str(value)`` for short rationals; a truncated decimal plus the sizes
    otherwise, since Python refuses to print ints over 4300 digits."""
    p, q = value.numerator, value.denominator
    if max(abs(p).bit_length(), q.bit_length()) <= RENDER_BITS:
        return str(value)
    size = f"{abs(p).bit_length()}-bit numerator over {q.bit_length()}-bit denominator"
    if abs(p) // q >= 1 << RENDER_BITS:
        return f"({size})"
    return f"{fraction_decimal(value)}... ({size})"


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


def _leaf(cur: _Cursor, kind, *args) -> SetDescription:
    """``kind(*args)``, its refusal raised as a SetSyntaxError at the cursor."""
    try:
        return kind(*args)
    except ValueError as exc:
        raise SetSyntaxError(str(exc), cur.pos) from exc


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
        node = _leaf(cur, Finite, tuple(members))
    elif cur.take("ap:"):
        first = cur.read_int()
        cur.expect(",")
        node = _leaf(cur, AP, first, cur.read_int())
    elif cur.take("builtin:"):
        if cur.take("squares"):
            node = Squares()
        elif cur.take("powers2"):
            node = Powers2()
        elif cur.take("nu2_ge("):
            node = _leaf(cur, Nu2Ge, cur.read_int())
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
    return s.render()
