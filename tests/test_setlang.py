from __future__ import annotations

import time
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsum import setlang
from subsum.ideals import nu2_column_audit
from subsum.setlang import (
    AP,
    Complement,
    DyadicBlocks,
    EnumerationCapError,
    Finite,
    Intersection,
    Nu2Ge,
    Powers2,
    SetSyntaxError,
    Shift,
    Squares,
    Tri,
    Union,
    density_csv,
    density_report,
    exact_density,
    is_finite,
    max_window_density,
    member,
    nu2,
    parse_set,
    prefix_counts,
    render,
)

ROUND_TRIP_SPECS = [
    "finite:{}",
    "finite:{1,5,9}",
    "ap:3,4",
    "ap:1,1",
    "builtin:squares",
    "builtin:powers2",
    "builtin:nu2_ge(3)",
    "builtin:dyadic_blocks(ap:1,2)",
    "complement:builtin:squares",
    "union:ap:3,4|builtin:powers2",
    "intersect:ap:2,2|builtin:squares",
    "shift:builtin:squares,5",
    "shift:finite:{3,4},-2",
    "complement:union:builtin:squares|builtin:powers2",
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_parse_render_round_trip(spec):
    parsed = parse_set(spec)
    assert render(parsed) == spec
    assert parse_set(render(parsed)) == parsed


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "ap:3",
        "ap:0,4",
        "ap:3,0",
        "finite:{1,,2}",
        "finite:{0}",
        "builtin:nope",
        "builtin:nu2_ge(-1)",
        "union:ap:1,1",
        "ap:3,4trailing",
        "complement:",
        "shift:ap:1,1",
    ],
)
def test_parse_errors_carry_positions(bad):
    with pytest.raises(SetSyntaxError) as err:
        parse_set(bad)
    assert isinstance(err.value.position, int)
    assert err.value.position >= 0


def test_nu2_values():
    assert [nu2(n) for n in range(1, 13)] == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2]
    with pytest.raises(ValueError):
        nu2(0)


def _oracle_member(s, n: int) -> bool:
    """Membership straight from the definitions, no shared code paths."""
    if isinstance(s, Finite):
        return n in s.members
    if isinstance(s, AP):
        return n >= s.first and (n - s.first) % s.step == 0
    if isinstance(s, Squares):
        return isqrt(n) ** 2 == n
    if isinstance(s, Powers2):
        k = 1
        while k < n:
            k *= 2
        return k == n
    if isinstance(s, Nu2Ge):
        return n % (2**s.threshold) == 0
    if isinstance(s, DyadicBlocks):
        if n < 2:
            return False
        q = 0
        while 2 ** (q + 1) <= n:
            q += 1
        return _oracle_member(s.selector, q)
    if isinstance(s, Complement):
        return not _oracle_member(s.inner, n)
    if isinstance(s, Union):
        return _oracle_member(s.left, n) or _oracle_member(s.right, n)
    if isinstance(s, Intersection):
        return _oracle_member(s.left, n) and _oracle_member(s.right, n)
    if isinstance(s, Shift):
        return n - s.offset >= 1 and _oracle_member(s.inner, n - s.offset)
    raise AssertionError(f"unhandled shape {s!r}")


MEMBER_CORPUS = [
    Finite((2, 7, 30)),
    AP(3, 4),
    AP(1, 1),
    Squares(),
    Powers2(),
    Nu2Ge(0),
    Nu2Ge(3),
    DyadicBlocks(AP(1, 2)),
    DyadicBlocks(Finite((2, 4))),
    Complement(Squares()),
    Union(Squares(), Powers2()),
    Intersection(AP(2, 2), Squares()),
    Shift(Squares(), 5),
    Shift(Squares(), -3),
    Shift(Powers2(), 1),
    Complement(Union(AP(3, 3), Finite((1, 2)))),
]


@pytest.mark.parametrize("s", MEMBER_CORPUS, ids=render)
def test_member_matches_definition(s):
    for n in range(1, 300):
        assert member(s, n) == _oracle_member(s, n), (render(s), n)


@pytest.mark.parametrize("s", MEMBER_CORPUS, ids=render)
def test_count_matches_membership(s):
    running = 0
    for n in range(1, 300):
        running += member(s, n)
        assert prefix_counts(s, [n])[0][1] == running, (render(s), n)


def test_count_examples():
    assert prefix_counts(Squares(), [10**4])[0][1] == 100
    assert prefix_counts(Powers2(), [1024])[0][1] == 11  # 1, 2, 4, ..., 1024
    assert prefix_counts(AP(3, 4), [1000])[0][1] == 250
    assert prefix_counts(Nu2Ge(3), [100])[0][1] == 12
    assert prefix_counts(DyadicBlocks(AP(1, 1)), [2**13 - 1])[0][1] == 2**13 - 2


def test_count_large_closed_forms_stay_fast():
    # These shapes count in closed form well past the enumeration cap.
    assert prefix_counts(Squares(), [10**14])[0][1] == 10**7
    assert prefix_counts(Complement(Squares()), [10**14])[0][1] == 10**14 - 10**7
    assert prefix_counts(Nu2Ge(10), [10**12])[0][1] == 10**12 // 1024


def test_progressions_merge_past_the_cap():
    # A progression meets a dyadic class in a progression: closed form, no scan.
    assert prefix_counts(parse_set("intersect:ap:3,4|builtin:nu2_ge(1)"), [10**12])[0][1] == 0
    # 2 mod 6 and 0 mod 4 meet in 8 mod 12
    both = Union(Finite((1,)), Intersection(AP(2, 6), Nu2Ge(2)))
    assert prefix_counts(both, [10**12])[0][1] == 1 + (10**12 - 8) // 12 + 1
    assert is_finite(Intersection(Nu2Ge(2), AP(13, 12))) is Tri.YES
    assert exact_density(Union(AP(2, 6), Nu2Ge(2))) == Fraction(1, 6) + Fraction(1, 4) - Fraction(1, 12)


def test_enumeration_cap_raises():
    # Neither side lists its members, so the union has no closed count.
    awkward = Union(Shift(Squares(), 2), Shift(Squares(), 1))
    with pytest.raises(EnumerationCapError):
        prefix_counts(awkward, [2 * 10**7])[0][1]


def test_first_and_next_member():
    assert setlang.next_member(Complement(Finite((1, 2, 3))), 0) == 4
    assert setlang.next_member(DyadicBlocks(AP(2, 1)), 0) == 4
    # a negative shift starts at the inner set's first member past the offset,
    # without walking the members it shifts out of N
    assert setlang.next_member(Shift(AP(1, 1), -(10**12)), 0) == 1
    assert setlang.next_member(Shift(AP(3, 7), -(10**12)), 0) == 2
    assert setlang.next_member(Shift(Finite((2, 9)), -5), 0) == 4
    assert setlang.next_member(Shift(Finite((2, 5)), -5), 0) is None
    # a shift searches its inner set up to the cap moved by the offset
    assert setlang.next_member(Shift(Squares(), -4), 0, 5) == 5
    assert setlang.next_member(Shift(Squares(), -4), 5, 12) == 12
    assert setlang.next_member(Shift(Complement(Squares()), -10**7), 0) == 1
    assert setlang.next_member(Shift(Squares(), 3), 0, 3) is None
    assert setlang.next_member(Shift(Squares(), 3), 0, 4) == 4
    assert setlang.next_member(Squares(), 10) == 16
    assert setlang.next_member(AP(3, 4), 3) == 7


def test_first_member_never_builds_a_block_past_the_cap():
    s = parse_set("union:ap:1,1|builtin:dyadic_blocks(builtin:dyadic_blocks(finite:{60}))")
    assert setlang.next_member(s, 0) == 1
    assert setlang.next_member(DyadicBlocks(Finite((60,))), 0) is None
    assert setlang.next_member(DyadicBlocks(Finite((60,))), 0, 1 << 60) == 1 << 60
    # past the cap a union answers only when both sides name their least
    late = parse_set("union:ap:2000000000,1|builtin:dyadic_blocks(finite:{30})")
    assert setlang.next_member(late, 0) is None
    assert setlang.next_member(late, 0, 1 << 31) == 1 << 30
    assert setlang.next_member(Union(AP(1 << 40, 1), AP(1 << 41, 1)), 0) == 1 << 40
    # the same searches started past a member
    assert setlang.next_member(DyadicBlocks(Finite((60,))), 1) is None
    assert setlang.next_member(DyadicBlocks(Finite((60,))), 1, 1 << 60) == 1 << 60
    assert setlang.next_member(DyadicBlocks(Finite((60,))), 1 << 60) == (1 << 60) + 1
    assert setlang.next_member(late, 1) is None
    assert setlang.next_member(late, 1, 1 << 31) == 1 << 30
    assert setlang.next_member(late, 1 << 30, 1 << 31) == (1 << 30) + 1
    assert setlang.next_member(Union(AP(1 << 40, 1), AP(1 << 41, 1)), 1 << 40) == (1 << 40) + 1


def test_is_finite_and_cofinite():
    assert is_finite(Finite((1, 2))) is Tri.YES
    assert is_finite(AP(5, 7)) is Tri.NO
    assert is_finite(DyadicBlocks(Finite((2, 4)))) is Tri.YES
    assert is_finite(DyadicBlocks(AP(1, 2))) is Tri.NO
    assert is_finite(Complement(AP(1, 1))) is Tri.YES
    assert is_finite(Complement(AP(2, 2))) is Tri.NO
    assert is_finite(Complement(Complement(Squares()))) is not Tri.YES  # not claimed
    assert is_finite(Complement(AP(1, 1))) is Tri.YES  # empty complement


def test_exact_density_values():
    assert exact_density(AP(3, 4)) == Fraction(1, 4)
    assert exact_density(Squares()) == 0
    assert exact_density(Powers2()) == 0
    assert exact_density(Nu2Ge(5)) == Fraction(1, 32)
    assert exact_density(Complement(Squares())) == 1
    assert exact_density(Union(AP(2, 2), Squares())) == Fraction(1, 2)
    assert exact_density(Shift(AP(3, 4), 7)) == Fraction(1, 4)
    assert exact_density(DyadicBlocks(AP(1, 2))) is None


def test_exact_density_union_inclusion_exclusion():
    evens_or_threes = Union(AP(2, 2), AP(3, 3))
    assert exact_density(evens_or_threes) == Fraction(1, 2) + Fraction(1, 3) - Fraction(1, 6)


def test_exact_density_tracks_prefix_ratio():
    for s in (AP(3, 4), Union(AP(2, 2), AP(3, 3)), Nu2Ge(2)):
        d = exact_density(s)
        ratio = Fraction(prefix_counts(s, [10**4])[0][1], 10**4)
        assert abs(ratio - d) < Fraction(1, 100)


def test_banach_density():
    assert AP(2, 2)._banach == Fraction(1, 2)
    assert Finite((5, 6))._banach == 0
    assert DyadicBlocks(AP(1, 2))._banach == 1
    assert max_window_density(AP(2, 2), 1000, 10) == Fraction(1, 2)
    assert max_window_density(DyadicBlocks(AP(1, 2)), 2**12, 64) == 1


def test_fact_rules_of_nodes_without_a_form():
    # Progressions past PERIOD_CAP leave these unions without a form, so
    # each fact comes from a node rule: a full side fills a union's density,
    # two progressions merge by CRT, and a double complement keeps the inner
    # Banach density.
    full = parse_set("union:complement:intersect:builtin:squares|ap:1,131101|ap:2,131101")
    merged = parse_set("union:ap:1,100003|ap:2,131101")
    blocks = parse_set(
        "union:complement:complement:builtin:dyadic_blocks(builtin:squares)|ap:1,131101")
    assert full._form is merged._form is blocks._form is None
    assert exact_density(full) == 1
    assert exact_density(merged) == Fraction(231103, 13110493303)
    assert merged._banach is None
    assert blocks._banach == 1


def test_a_pair_keeps_its_meet_apart_from_its_children():
    # The CRT meet is built when first asked for (the intersection asks
    # while it builds its facts, its steps being past PERIOD_CAP), after the
    # node has counted its children.
    step = 70001 * 70003
    for text, meet, d in (("union:ap:1,2|ap:1,3", AP(1, 6), Fraction(2, 3)),
                          ("intersect:ap:2,70001|ap:3,70003", AP(2450105003, step),
                           Fraction(1, step))):
        s = parse_set(text)
        assert (s._meet, s._nodes, exact_density(s)) == (meet, 3, d)


def test_nu2_ge_thresholds_stop_at_the_render_bound():
    # A node builds its step 2**t with its facts: the nu2 tower's last
    # round builds, and one past it is refused before any power is built.
    assert Nu2Ge(setlang.RENDER_BITS).step == 1 << 4096
    assert parse_set("builtin:nu2_ge(4096)") == Nu2Ge(4096)
    with pytest.raises(ValueError, match="between 0 and 4096"):
        Nu2Ge(4097)
    with pytest.raises(SetSyntaxError, match="between 0 and 4096"):
        parse_set("builtin:nu2_ge(4097)")


def test_density_report_and_csv():
    report = density_report(AP(3, 4), 1000, window=100)
    assert report.exact == Fraction(1, 4)
    assert report.prefix_counts[-1] == (1000, 250)
    assert report.banach_upper == (Fraction(1, 4), 100)
    text = density_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "n,count,ratio"
    assert lines[-1].startswith("1000,250,")


def test_squares_report_collapses_to_exact_zero():
    report = density_report(Squares(), 10**4)
    # With a certified exact density both estimates collapse to it.
    assert report.exact == 0
    assert report.lower_estimate == report.upper_estimate == 0
    assert report.prefix_counts[-1] == (10**4, 100)
    assert max(r for _, r in report.ratios()) <= Fraction(1, 35)


def test_dyadic_blocks_never_contain_one():
    assert not member(DyadicBlocks(AP(1, 1)), 1)
    assert member(DyadicBlocks(AP(1, 1)), 2)


def test_fraction_decimal():
    assert setlang.fraction_decimal(Fraction(1, 4)) == "0.250000000000"
    assert setlang.fraction_decimal(Fraction(1, 3)) == "0.333333333333"
    assert setlang.fraction_decimal(Fraction(-1, 2)) == "-0.500000000000"


# ---------------------------------------------------------------- properties


def _base_sets():
    return st.one_of(
        st.builds(
            Finite,
            st.lists(st.integers(1, 60), max_size=5).map(tuple),
        ),
        st.builds(AP, st.integers(1, 12), st.integers(1, 12)),
        st.just(Squares()),
        st.just(Powers2()),
        st.builds(Nu2Ge, st.integers(0, 5)),
    )


def _set_descriptions():
    return st.recursive(
        _base_sets(),
        lambda inner: st.one_of(
            st.builds(Complement, inner),
            st.builds(Union, inner, inner),
            st.builds(Intersection, inner, inner),
            st.builds(Shift, inner, st.integers(-5, 8)),
            st.builds(DyadicBlocks, inner),
        ),
        max_leaves=4,
    )


@settings(max_examples=120, deadline=None)
@given(s=_set_descriptions(), limit=st.integers(1, 400))
def test_complement_count_identity(s, limit):
    assert prefix_counts(Complement(s), [limit])[0][1] == limit - prefix_counts(s, [limit])[0][1]


@settings(max_examples=120, deadline=None)
@given(s=_set_descriptions(), limit=st.integers(1, 250))
def test_count_is_membership_sum(s, limit):
    assert prefix_counts(s, [limit])[0][1] == sum(
        1 for n in range(1, limit + 1) if member(s, n)
    )


@settings(max_examples=100, deadline=None)
@given(first=st.integers(1, 50), step=st.integers(1, 50), limit=st.integers(1, 5000))
def test_ap_count_closed_form(first, step, limit):
    expected = 0 if limit < first else (limit - first) // step + 1
    assert prefix_counts(AP(first, step), [limit])[0][1] == expected


@settings(max_examples=80, deadline=None)
@given(s=_set_descriptions(), limit=st.integers(2, 300))
def test_render_parse_identity(s, limit):
    again = parse_set(render(s))
    for n in range(1, limit + 1):
        assert member(again, n) == member(s, n)


# ---------------------------------------------------------------- range scans


def _scan_trees():
    """Every node kind, shifts of both signs and nested dyadic blocks."""
    return st.recursive(
        _base_sets(),
        lambda inner: st.one_of(
            st.builds(Complement, inner),
            st.builds(Union, inner, inner),
            st.builds(Intersection, inner, inner),
            st.builds(Shift, inner, st.integers(-200, 200)),
            st.builds(DyadicBlocks, inner),
            st.builds(DyadicBlocks, st.builds(DyadicBlocks, inner)),
        ),
        max_leaves=6,
    )


@settings(max_examples=150, deadline=None)
@given(
    s=_scan_trees(),
    chunk=st.integers(0, 3),
    offset=st.integers(-40, 40),
    size=st.integers(0, 200),
)
def test_scan_matches_membership(s, chunk, offset, size):
    # Ranges start near multiples of SCAN_CHUNK and often straddle one.
    lo = max(1, chunk * setlang.SCAN_CHUNK + offset)
    expected = bytearray(member(s, n) for n in range(lo, lo + size))
    assert setlang._scan(s, lo, lo + size - 1) == expected


@settings(max_examples=80, deadline=None)
@given(
    s=_scan_trees(),
    limit=st.integers(1, 300),
    chunk=st.sampled_from([7, 64, setlang.SCAN_CHUNK]),
    data=st.data(),
)
def test_chunked_scans_match_member_loops(s, limit, chunk, data):
    flags = [member(s, n) for n in range(1, limit + 1)]
    checkpoints = sorted(data.draw(st.sets(st.integers(0, limit), min_size=1)))
    windows = data.draw(st.lists(st.integers(1, limit), max_size=4))
    columns = {k: 0 for k in range(21)}
    for n in range(1, limit + 1):
        columns[nu2(n)] += flags[n - 1] if nu2(n) <= 20 else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(setlang, "SCAN_CHUNK", chunk)
        assert prefix_counts(s, [limit])[0][1] == sum(flags)
        assert setlang.prefix_counts(s, checkpoints) == [(n, sum(flags[:n])) for n in checkpoints]
        assert setlang._window_maxima(s, limit, windows) == [
            Fraction(max(sum(flags[t:t + w]) for t in range(limit - w + 1)), w) for w in windows
        ]
        assert nu2_column_audit(s, limit)["column_counts"] == columns


# ---------------------------------------------------------------- window maxima


def _oracle_maxima(s, limit, windows):
    """Window maxima read off prefix sums of the scanned flags, every window."""
    prefix = [0, *accumulate(setlang._scan(s, 1, limit))]
    return [Fraction(max(map(sub, prefix[w:], prefix)), w) for w in windows]


def _window_trees():
    """Every atom and operator, a progression one step above PERIOD_CAP (it
    has no periodic form), and finite members spread over three scan chunks."""
    return st.recursive(
        st.one_of(
            st.builds(Finite, st.lists(st.integers(1, 3 * setlang.SCAN_CHUNK), max_size=4).map(tuple)),
            st.builds(AP, st.integers(1, 12), st.integers(1, 12)),
            st.builds(AP, st.integers(1, 12), st.just(setlang.PERIOD_CAP + 1)),
            st.just(Squares()),
            st.just(Powers2()),
            st.builds(Nu2Ge, st.integers(0, 5)),
        ),
        lambda inner: st.one_of(
            st.builds(Complement, inner),
            st.builds(Union, inner, inner),
            st.builds(Intersection, inner, inner),
            st.builds(Shift, inner, st.integers(-200, 200)),
            st.builds(DyadicBlocks, inner),
        ),
        max_leaves=5,
    )


@st.composite
def _limits_and_windows(draw):
    """Limits up to three scan chunks, so windows straddle a chunk boundary,
    with one to five window lengths up to the limit."""
    limit = draw(st.one_of(st.integers(1, 3000),
                           st.integers(setlang.SCAN_CHUNK - 3000, 3 * setlang.SCAN_CHUNK)))
    return limit, draw(st.lists(st.integers(1, limit), min_size=1, max_size=5))


@settings(max_examples=40, deadline=None)
# A member far past a periodic start: a scan that trusted the period after
# the first chunk would miss the window holding it.
@example(s=parse_set("union:ap:1,2|finite:{100000}"), case=(200000, [64]))
@example(s=AP(7, 6), case=(10**6, [8, 32, 128, 512, 2048]))
@given(s=_window_trees(), case=_limits_and_windows())
def test_window_maxima_match_prefix_sums(s, case):
    limit, windows = case
    assert setlang._window_maxima(s, limit, windows) == _oracle_maxima(s, limit, windows)


def test_a_member_far_past_a_periodic_start_is_in_a_window():
    assert max_window_density(parse_set("union:ap:1,2|finite:{100000}"), 200000, 64) == Fraction(33, 64)


# ---------------------------------------------------------------- closed counts


@settings(max_examples=80, deadline=None)
@given(s=_window_trees(), limit=st.integers(1, 40000))
def test_closed_counts_match_scans(s, limit):
    # Limits this large let the squares list their members (see _count_both).
    closed = setlang._count_closed(s, limit)
    assert closed is None or closed == setlang._scan(s, 1, limit).count(1)


def test_sparse_sides_count_by_listing_their_members():
    # Squares and powers of 2 meet in the powers of 4: ten of them up to 10^6.
    assert setlang._count_closed(parse_set("union:builtin:squares|builtin:powers2"), 10**6) == 1010
    assert setlang._count_closed(parse_set("intersect:builtin:squares|ap:1,3"), 10**6) == 667


def test_a_progression_meet_starts_at_the_later_first_term():
    # The CRT solution 1 lies below 100, so the meet catches up to 103.
    s = parse_set("intersect:ap:1,2|ap:100,3")
    assert s._meet == AP(103, 6)
    assert prefix_counts(s, [1000]) == [(1000, 150)]


def test_a_union_searches_the_side_that_jumps_first(monkeypatch):
    # Only the right side jumps: its answer bounds the left side's scan.
    s = parse_set("union:builtin:squares|ap:100,7")
    assert [setlang.next_member(s, a) for a in (0, 99, 100, 1000)] == [1, 100, 107, 1003]
    ends, scan = [], Squares.scan
    monkeypatch.setattr(Squares, "scan", lambda self, lo, hi: ends.append(hi) or scan(self, lo, hi))
    assert setlang.next_member(s, 1000) == 1003
    assert max(ends) == 1002


@pytest.mark.parametrize("text, after, want, ends", [
    ("union:finite:{}|ap:20000000,3", 0, 20000000, True),  # an empty side has no member at all
    ("union:ap:20000000,3|finite:{5}", 5, 20000000, True),
    ("shift:union:finite:{}|ap:20000000,3,4", 0, 20000004, True),
    ("union:finite:{}|finite:{}", 0, None, True),
    # The selected block starts past the cap: a member may lie below the progression's.
    ("union:builtin:dyadic_blocks(finite:{30})|ap:20000000,3", 0, None, False),
])
def test_a_union_answers_past_the_cap_beside_a_side_that_ends(text, after, want, ends):
    s = parse_set(text)
    assert setlang.next_member(s, after, 10**7) == want
    assert s.ends is ends


LEAST_BELOW_THE_CAP = {
    # No square is 2 mod 3: a walk would scan all 4 * 10^9 integers.
    "intersect:builtin:squares|ap:2,3": [],
    # The progression jumps, but the powers of 2 between its members scan:
    # past the last one below the cap the union names no least member.
    "union:ap:1,1000000000|builtin:powers2": [1 << k for k in range(24)],
}


@pytest.mark.parametrize("text", LEAST_BELOW_THE_CAP)
def test_a_closed_count_opens_no_scan_past_the_cap(text):
    s = parse_set(text)
    assert setlang._count_closed(s, 4 * 10**9) is not None
    started = time.perf_counter()
    assert setlang.least_members(s, 100) == LEAST_BELOW_THE_CAP[text]
    assert time.perf_counter() - started < 1


def test_a_listing_past_its_bound_still_refuses():
    # 10^7 squares up to 10^14: more than a count lists.
    with pytest.raises(EnumerationCapError):
        prefix_counts(parse_set("union:builtin:squares|ap:1,3"), [10**14])


def _within(n, limit):
    return None if n is None or n > limit else n


# A negative shift whose least member comes from an inner member past the
# limit: the inner search must stop at the limit moved by the offset.
@settings(max_examples=80, deadline=None)
@example(s=Shift(Squares(), -4), limit=5, after=0, chunk=64)
@given(
    s=_scan_trees(),
    limit=st.integers(1, 300),
    after=st.integers(0, 300),
    chunk=st.sampled_from([7, 64, setlang.SCAN_CHUNK]),
)
def test_member_searches_match_member_loops(s, limit, after, chunk):
    flags = [member(s, n) for n in range(1, limit + 1)]
    members = [n for n, f in enumerate(flags, 1) if f]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(setlang, "SCAN_CHUNK", chunk)
        # s may jump to an answer past the limit, which reads as None; its
        # intersection with N and its complement scan.
        for searched in (s, Intersection(s, setlang.NATURALS)):
            assert _within(setlang.next_member(searched, after, limit), limit) == next(
                (n for n in members if n > after), None
            )
            assert _within(setlang.next_member(searched, 0, limit), limit) == next(
                iter(members), None
            )
        assert setlang.least_members(s, len(members)) == members
        assert setlang.next_member(Complement(s), 0, limit) == next(
            (n for n, f in enumerate(flags, 1) if not f), None
        )


def test_counts_without_closed_forms_stay_fast():
    # Squares and powers of 2 meet in the powers of 4: no closed form.
    started = time.perf_counter()
    report = density_report(Union(Squares(), Powers2()), 10**6)
    assert time.perf_counter() - started < 1.0
    assert report.prefix_counts[-1] == (10**6, 1000 + 20 - 10)


def test_member_search_to_the_cap_stays_fast():
    # No square is 3 mod 4, so the search runs to ENUMERATION_CAP.
    started = time.perf_counter()
    assert setlang.next_member(Intersection(Squares(), AP(3, 4)), 0) is None
    assert time.perf_counter() - started < 1.0
