"""Tests for certified ideal membership verdicts and partition machinery.

Decided verdicts are cross-checked against independent finite-scale
enumeration oracles (fiber counts, prefix densities) — the enumeration can
never *prove* a verdict, but a decided verdict that disagrees with what the
first ten thousand integers show is wrong, and that is what we detect here.
"""

import time
from fractions import Fraction
from itertools import compress, islice

import pytest

from subsum import (
    AP,
    Complement,
    DyadicBlocks,
    Finite,
    Intersection,
    IntervalPartition,
    Nu2Ge,
    Powers2,
    RestrictionError,
    Shift,
    Squares,
    Union,
    UnsupportedIdealError,
    member,
    nu2,
    nu2_column_audit,
    parse_ideal,
    parse_matrix,
    parse_set,
    restricted_blocks,
    setlang,
    transform_prefix,
)
from subsum.ideals import IDEALS
from subsum.summability import indicator_sequence, matrix_ideal_kind

FIN = IDEALS["fin"]
Z = IDEALS["z"]
BD = IDEALS["bd"]
FXF = IDEALS["finxfin"]


# ---------------------------------------------------------------- oracles


def fiber_counts(s, scale, max_column=24):
    """Independent oracle: |{n <= scale : n in S, nu2(n) = k}| by raw scan."""
    counts = {}
    for n in range(1, scale + 1):
        if member(s, n):
            k = nu2(n)
            if k <= max_column:
                counts[k] = counts.get(k, 0) + 1
    return counts


def prefix_ratio(s, scale):
    return Fraction(sum(1 for n in range(1, scale + 1) if member(s, n)), scale)


# ---------------------------------------------------------------- fin


class TestFiniteSetsIdeal:
    def test_explicit_finite_set_is_in(self):
        v = FIN.verdict(Finite((3, 5, 1000)))
        assert v.status == "in"
        assert v.decided

    def test_arithmetic_progression_is_not_in(self):
        assert FIN.verdict(AP(7, 3)).status == "not_in"

    def test_squares_are_not_in(self):
        assert FIN.verdict(Squares()).status == "not_in"

    def test_complement_of_finite_set_is_not_in(self):
        assert FIN.verdict(Complement(Finite((1, 2)))).status == "not_in"

    def test_double_complement_of_finite_set_is_in(self):
        assert FIN.verdict(Complement(Complement(Finite((4,))))).status == "in"

    def test_unknown_finiteness_is_undecided_with_evidence(self):
        s = Intersection(Squares(), AP(1, 3))
        v = FIN.verdict(s)
        assert v.status == "undecided"
        assert not v.decided
        assert v.scale == 10**4
        assert "prefix_counts" in v.evidence
        # the attached counts must match a raw scan
        for n, c in v.evidence["prefix_counts"]:
            assert c == sum(1 for m in range(1, n + 1) if member(s, m))

    def test_union_of_finite_sets_is_in(self):
        v = FIN.verdict(Union(Finite((1,)), Finite((2, 3))))
        assert v.status == "in"


# ---------------------------------------------------------------- density


class TestDensityZeroIdeal:
    def test_squares_have_density_zero(self):
        v = Z.verdict(Squares())
        assert v.status == "in"

    def test_powers_of_two_have_density_zero(self):
        assert Z.verdict(Powers2()).status == "in"

    def test_even_numbers_have_positive_density(self):
        v = Z.verdict(AP(2, 2))
        assert v.status == "not_in"
        assert "1/2" in v.reason

    def test_verdicts_match_enumeration_direction(self):
        # density-0 claims must have shrinking prefix ratios; positive-density
        # claims must have ratios bounded away from 0.
        assert prefix_ratio(Squares(), 10**4) == Fraction(100, 10**4)
        assert prefix_ratio(AP(2, 2), 10**4) == Fraction(1, 2)

    def test_union_of_two_null_sets_is_in(self):
        v = Z.verdict(Union(Squares(), Powers2()))
        assert v.status == "in"

    def test_union_with_positive_density_part_is_not_in(self):
        assert Z.verdict(Union(Squares(), AP(2, 2))).status == "not_in"

    def test_subset_of_null_set_is_in(self):
        v = Z.verdict(Intersection(AP(1, 3), Squares()))
        assert v.status == "in"

    def test_shift_preserves_the_verdict(self):
        assert Z.verdict(Shift(Squares(), 5)).status == "in"
        assert Z.verdict(Shift(AP(2, 2), -1)).status == "not_in"

    def test_infinitely_many_whole_dyadic_blocks_is_not_in(self):
        # density 0 fails: prefix density exceeds 1/2 at each block's right edge
        v = Z.verdict(DyadicBlocks(AP(1, 2)))
        assert v.status == "not_in"

    def test_dyadic_blocks_over_finite_selector_is_in(self):
        assert Z.verdict(DyadicBlocks(Finite((2, 5)))).status == "in"

    def test_intersecting_progressions_merge_exactly(self):
        # 1 mod 2 intersected with 1 mod 3 is 1 mod 6: exact density 1/6
        v = Z.verdict(Intersection(AP(1, 2), AP(1, 3)))
        assert v.status == "not_in"
        assert "1/6" in v.reason

    def test_no_closed_form_gives_undecided_with_ratio_evidence(self):
        v = Z.verdict(DyadicBlocks(Intersection(Squares(), Powers2())))
        assert v.status == "undecided"
        assert "ratios" in v.evidence

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Z.verdict(Squares(), scale=0)


# ---------------------------------------------------------------- Banach


class TestBanachDensityZeroIdeal:
    def test_squares_are_in(self):
        # gaps grow without bound, so every fixed window eventually holds <= 1
        assert BD.verdict(Squares()).status == "in"

    def test_even_numbers_are_not_in(self):
        v = BD.verdict(AP(2, 2))
        assert v.status == "not_in"

    def test_dyadic_blocks_over_odd_selector_is_not_in(self):
        # contains arbitrarily long intervals => Banach density 1
        assert BD.verdict(DyadicBlocks(AP(1, 2))).status == "not_in"

    def test_union_of_null_sets_is_in(self):
        assert BD.verdict(Union(Squares(), Powers2())).status == "in"

    def test_complement_of_a_null_set_is_not_in(self):
        # every long window of the complement of the squares is nearly full
        v = BD.verdict(parse_set("complement:builtin:squares"))
        assert (v.status, v.reason) == ("not_in", "exact Banach density 1 > 0")

    def test_double_complement_keeps_the_inner_banach_density(self):
        v = BD.verdict(parse_set("complement:complement:builtin:squares"))
        assert (v.status, v.reason) == ("in", "exact Banach density 0")

    def test_deep_complements_of_a_null_set_are_decided(self):
        s = Squares()
        for _ in range(255):
            s = Complement(s)
        v = BD.verdict(s, 1024)
        assert (v.status, v.reason) == ("not_in", "exact Banach density 1 > 0")

    def test_intersecting_progressions_have_the_merged_density(self):
        # 1 mod 2 intersected with 1 mod 3 is 1 mod 6
        v = BD.verdict(Intersection(AP(1, 2), AP(1, 3)))
        assert (v.status, v.reason) == ("not_in", "exact Banach density 1/6 > 0")

    def test_undecided_comes_with_window_evidence(self):
        v = BD.verdict(DyadicBlocks(Intersection(Squares(), Powers2())))
        assert v.status == "undecided"
        assert "max_window_density" in v.evidence

    def test_window_evidence_scans_the_set_once(self, monkeypatch):
        real_member, real_chunks = setlang.member, setlang._chunks
        calls = {"top": 0, "depth": 0, "scans": 0}

        def counting(s, n):
            if calls["depth"]:
                return real_member(s, n)
            calls["top"] += 1
            calls["depth"] = 1
            try:
                return real_member(s, n)
            finally:
                calls["depth"] = 0

        def counting_chunks(s, lo, hi):
            calls["scans"] += 1
            return real_chunks(s, lo, hi)

        monkeypatch.setattr(setlang, "member", counting)
        monkeypatch.setattr(setlang, "_chunks", counting_chunks)
        monkeypatch.setattr(setlang, "SCAN_CHUNK", 1000)
        scale = 10**4
        v = BD.verdict(DyadicBlocks(Intersection(Squares(), AP(1, 2))), scale)
        assert v.status == "undecided"
        assert [w for w, _ in v.evidence["max_window_density"]] == [8, 32, 128, 512, 2048]
        # One range scan serves all five window lengths; at most the dyadic
        # selector is asked about single block indices.
        assert calls["scans"] == 1
        assert calls["top"] <= scale.bit_length()

    def test_banach_null_never_contradicts_density_null(self):
        # Banach-null implies density-null, so a bd "in" forbids a z "not_in".
        corpus = [
            Squares(),
            Powers2(),
            Union(Squares(), Powers2()),
            Shift(Powers2(), 3),
            DyadicBlocks(Finite((1, 2, 3))),
        ]
        for s in corpus:
            if BD.verdict(s).status == "in":
                assert Z.verdict(s).status != "not_in"


# ---------------------------------------------------------------- nu2 fibers


class TestNu2FiberIdeal:
    """The ideal of sets with finite trace on all but finitely many nu2 fibers."""

    def test_finite_sets_are_in(self):
        assert FXF.verdict(Finite((8, 16))).status == "in"

    def test_full_line_is_not_in(self):
        assert FXF.verdict(AP(1, 1)).status == "not_in"

    # -- arithmetic progressions: the verdict depends on nu2(first) vs nu2(step)

    @pytest.mark.parametrize(
        "first,step",
        [(2, 4), (3, 6), (1, 2), (4, 8), (6, 4)],
    )
    def test_progression_confined_to_one_fiber_is_in(self, first, step):
        assert nu2(first) < nu2(step)
        v = FXF.verdict(AP(first, step))
        assert v.status == "in"
        # oracle: at scale 10**4 all members fall in a single fiber
        counts = fiber_counts(AP(first, step), 10**4)
        assert set(counts) == {nu2(first)}

    @pytest.mark.parametrize(
        "first,step",
        [(2, 2), (4, 4), (1, 1), (8, 4), (12, 4)],
    )
    def test_progression_meeting_a_tail_of_fibers_is_not_in(self, first, step):
        assert nu2(first) >= nu2(step)
        v = FXF.verdict(AP(first, step))
        assert v.status == "not_in"
        # oracle: many distinct fibers already carry many members
        counts = fiber_counts(AP(first, step), 10**4)
        busy = [k for k, c in counts.items() if c >= 8]
        assert len(busy) >= 4

    def test_squares_meet_every_even_fiber_infinitely(self):
        v = FXF.verdict(Squares())
        assert v.status == "not_in"
        counts = fiber_counts(Squares(), 10**6)
        # fibers 0, 2, 4, 6 all busy; odd fibers empty
        assert all(counts.get(k, 0) >= 5 for k in (0, 2, 4, 6))
        assert all(counts.get(k, 0) == 0 for k in (1, 3, 5, 7))

    def test_powers_of_two_hit_each_fiber_exactly_once(self):
        v = FXF.verdict(Powers2())
        assert v.status == "in"
        counts = fiber_counts(Powers2(), 2**13)
        assert all(counts[k] == 1 for k in range(14))

    def test_high_divisibility_tail_is_not_in(self):
        assert FXF.verdict(Nu2Ge(3)).status == "not_in"

    def test_bounded_divisibility_set_is_in(self):
        v = FXF.verdict(Complement(Nu2Ge(3)))
        assert v.status == "in"
        counts = fiber_counts(Complement(Nu2Ge(3)), 10**4)
        assert set(counts) == {0, 1, 2}

    def test_infinitely_many_dyadic_blocks_is_not_in(self):
        assert FXF.verdict(DyadicBlocks(AP(1, 2))).status == "not_in"

    def test_union_and_intersection_recursion(self):
        good = AP(2, 4)  # single fiber
        assert FXF.verdict(Union(Powers2(), good)).status == "in"
        assert FXF.verdict(Union(Powers2(), Squares())).status == "not_in"
        assert FXF.verdict(Intersection(Squares(), Powers2())).status == "in"

    def test_intersected_progressions_merge_before_the_progression_rule(self):
        # 2 mod 6 meets the multiples of 4 in 8 mod 12
        v = FXF.verdict(parse_set("intersect:ap:2,6|builtin:nu2_ge(2)"))
        assert v.status == "not_in"
        assert v.reason == FXF.verdict(AP(8, 12)).reason

    def test_undecided_attaches_fiber_census(self):
        s = Intersection(Squares(), AP(1, 3))
        v = FXF.verdict(s)
        assert v.status == "undecided"
        audit = v.evidence
        assert audit["scale"] == 10**4
        oracle = fiber_counts(s, 10**4, max_column=20)
        for k, c in audit["column_counts"].items():
            assert c == oracle.get(k, 0)

    def test_column_audit_matches_raw_scan(self):
        audit = nu2_column_audit(AP(2, 2), 2000)
        oracle = fiber_counts(AP(2, 2), 2000, max_column=20)
        assert audit["column_counts"] == {k: oracle.get(k, 0) for k in range(21)}
        assert audit["scale"] == 2000


# ---------------------------------------------------------------- hierarchy


HIERARCHY_CORPUS = [
    parse_set(text)
    for text in [
        "finite:{1,2,3}",
        "builtin:squares",
        "builtin:powers2",
        "ap:2,2",
        "ap:2,4",
        "ap:1,1",
        "builtin:nu2_ge(2)",
        "complement:builtin:nu2_ge(2)",
        "union:builtin:squares|builtin:powers2",
        "builtin:dyadic_blocks(ap:1,2)",
        "builtin:dyadic_blocks(finite:{3})",
        "shift:builtin:squares,2",
        "complement:finite:{7}",
        "intersect:builtin:squares|ap:1,3",
    ]
]


@pytest.mark.parametrize("s", HIERARCHY_CORPUS, ids=lambda s: str(s)[:40])
def test_ideal_hierarchy_is_respected(s):
    """Finite => Banach-null => density-null, finite => fiber-finite.

    Decided verdicts must never invert a containment: if the smaller ideal
    certifies membership, the bigger one must not certify non-membership.
    """
    fin_v = FIN.verdict(s).status
    z_v = Z.verdict(s).status
    bd_v = BD.verdict(s).status
    fxf_v = FXF.verdict(s).status
    if fin_v == "in":
        assert z_v == "in" and bd_v == "in" and fxf_v == "in"
    if bd_v == "in":
        assert z_v != "not_in"
    if z_v == "not_in":
        assert bd_v != "in"
        assert fin_v != "in"  # positive density forces an infinite set
    if fxf_v == "not_in":
        assert fin_v != "in"  # meeting fibers infinitely forces an infinite set


@pytest.mark.parametrize("ideal", [FIN, Z, BD], ids=["fin", "z", "bd"])
def test_progression_meets_a_dyadic_class_exactly(ideal):
    # multiples of 4 against 1 mod 12 (so 1 mod 4): no member at all
    v = ideal.verdict(parse_set("intersect:builtin:nu2_ge(2)|ap:13,12"))
    assert v.status == "in"
    assert v.evidence == {}


def test_every_decided_verdict_has_a_reason():
    for s in HIERARCHY_CORPUS:
        for ideal in (FIN, Z, BD, FXF):
            v = ideal.verdict(s)
            assert v.reason
            if v.status == "undecided":
                assert v.evidence


# ---------------------------------------------------------------- dual filter


class TestDualFilter:
    def test_cobounded_set_is_in_the_density_filter(self):
        # complement of the squares: complement is null, so it's a filter set
        v = Z.dual_member(Complement(Squares()))
        assert v.status == "in"

    def test_small_set_is_not_in_the_filter(self):
        v = Z.dual_member(Squares())
        assert v.status == "not_in"

    def test_filter_membership_is_complement_verdict(self):
        s = AP(2, 2)
        assert Z.dual_member(s) == Z.verdict(Complement(s))


# ---------------------------------------------------------------- partitions


class TestIntervalPartitions:
    def test_fin_gets_singletons(self):
        p = FIN.talagrand_partition()
        assert p.kind == "singletons"
        assert p.block(7) == range(7, 8)
        assert p.block_index(12) == 12

    @pytest.mark.parametrize("ideal", [Z, BD])
    def test_density_ideals_get_dyadic_blocks(self, ideal):
        p = ideal.talagrand_partition()
        assert p.kind == "dyadic"
        assert p.boundary(1) == 2
        assert list(p.block(3)) == list(range(8, 16))

    def test_dyadic_block_index(self):
        p = IntervalPartition("dyadic")
        assert p.block_index(2) == 1
        assert p.block_index(15) == 3
        assert p.block_index(16) == 4
        with pytest.raises(ValueError):
            p.block_index(1)

    def test_block_indices_start_at_one(self):
        with pytest.raises(ValueError):
            IntervalPartition("dyadic").boundary(0)

    def test_blocks_tile_the_tail(self):
        p = IntervalPartition("dyadic")
        seen = []
        for q in range(1, 8):
            seen.extend(p.block(q))
        assert seen == list(range(2, 256))


def listed(walk, q):
    """The first q blocks of a restricted walk, each listed as a tuple."""
    return [tuple(compress(span, flags)) for span, flags in islice(walk, q)]


class TestRestrictedPartition:
    def test_traced_blocks_drop_excluded_points(self):
        rp = restricted_blocks(IntervalPartition("dyadic"), Complement(Squares()))
        assert listed(rp, 3) == [(2, 3), (5, 6, 7), tuple(n for n in range(8, 16) if n != 9)]

    def test_empty_traces_are_skipped_and_reindexed(self):
        # domain = powers of two: most dyadic blocks trace to one point
        blocks = listed(restricted_blocks(IntervalPartition("dyadic"), Powers2()), 5)
        assert blocks[0] == (2,)
        assert blocks[1] == (4,)
        assert blocks[4] == (32,)

    def test_singleton_ambient_traces(self):
        blocks = listed(restricted_blocks(IntervalPartition("singletons"), AP(2, 2)), 5)
        assert blocks[0] == (2,)
        assert blocks[4] == (10,)

    def test_scan_cap_is_enforced(self):
        rp = restricted_blocks(IntervalPartition("singletons"), Finite((1,)))
        assert listed(rp, 1) == [(1,)]
        with pytest.raises(setlang.EnumerationCapError):
            next(rp)  # no further nonempty trace ever appears

    def test_empty_ambient_blocks_cost_one_member_search(self):
        # 21 empty dyadic blocks, then 2**22 alone in its block: one jump to
        # it and one range scan of [2**22, 2**23), no walk over the integers.
        started = time.perf_counter()
        rp = restricted_blocks(IntervalPartition("dyadic"), Nu2Ge(22))
        assert listed(rp, 1) == [(4194304,)]
        assert time.perf_counter() - started < 1

    def test_traces_past_the_enumeration_cap_are_refused(self):
        # The dyadic block holding 2**23 ends past ENUMERATION_CAP.
        rp = restricted_blocks(IntervalPartition("dyadic"), Nu2Ge(23))
        with pytest.raises(setlang.EnumerationCapError):
            next(rp)


class TestEscapeSets:
    def test_union_of_selected_dyadic_blocks(self):
        partition = IntervalPartition("dyadic")
        s = DyadicBlocks(AP(1, 2))
        # the odd-indexed blocks lie wholly inside, the even-indexed outside
        for q in range(1, 8):
            assert {member(s, n) for n in partition.block(q)} == {q % 2 == 1}
        # it indeed escapes the density ideal
        assert Z.verdict(s).status == "not_in"

    def test_singleton_partition_returns_the_selector(self):
        # Singleton blocks are {q}: the selected blocks' union is the selector.
        partition = IntervalPartition("singletons")
        assert [partition.block(q) for q in (1, 4, 9)] == [range(1, 2), range(4, 5), range(9, 10)]
        assert FIN.verdict(Squares()).status == "not_in"

    def test_finite_selector_is_rejected(self):
        # A finite selector's block union is certified finite: no escape.
        s = DyadicBlocks(Finite((1, 2)))
        assert setlang.is_finite(s) is setlang.Tri.YES
        assert Z.verdict(s).status == "in"

    def test_uncertified_selector_is_rejected(self):
        # Without a certificate that the selector is infinite, the union is
        # not certified infinite either, and no escape verdict is claimed.
        s = DyadicBlocks(Intersection(Squares(), AP(1, 3)))
        assert setlang.is_finite(s) is setlang.Tri.UNKNOWN
        assert Z.verdict(s).status == "undecided"


# ---------------------------------------------------------------- restriction


class TestRestriction:
    def test_restrict_to_conull_domain(self):
        restricted = Z.restrict(Complement(Squares()))
        assert restricted.verdict(Powers2()).status == "in"
        assert listed(restricted.partition(), 2)[1] == (5, 6, 7)

    def test_restriction_needs_small_complement(self):
        with pytest.raises(RestrictionError):
            Z.restrict(AP(2, 2))  # complement has density 1/2

    def test_fin_restriction_to_cofinite_domain(self):
        restricted = FIN.restrict(Complement(Finite((1, 2, 3))))
        assert restricted.verdict(Finite((10,))).status == "in"
        assert listed(restricted.partition(), 1) == [(4,)]

    def test_restriction_rejects_undecided_domains(self):
        with pytest.raises(RestrictionError):
            Z.restrict(Complement(Intersection(AP(1, 2), AP(1, 3))))


# ---------------------------------------------------------------- parsing


class TestIdealParsing:
    @pytest.mark.parametrize("name", ["fin", "z", "bd", "finxfin"])
    def test_named_kinds_round_trip(self, name):
        ideal = parse_ideal(name)
        assert ideal.kind == name
        assert ideal.name == name

    def test_whitespace_is_tolerated(self):
        assert parse_ideal("  z ").kind == "z"

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(UnsupportedIdealError):
            parse_ideal("nope")

    def test_matrix_ideal_from_spec(self):
        ideal = parse_ideal("matrix:cesaro")
        assert ideal.kind == "matrix"
        assert ideal.name == "matrix:cesaro"


class TestMatrixGeneratedIdeal:
    def test_finite_sets_vanish(self):
        ideal = parse_ideal("matrix:cesaro")
        assert ideal.verdict(Finite((5, 9))).status == "in"

    def test_null_sets_vanish_under_averaging(self):
        ideal = parse_ideal("matrix:cesaro")
        v = ideal.verdict(Squares())
        assert v.status == "in"

    def test_positive_density_sets_survive_averaging(self):
        ideal = parse_ideal("matrix:cesaro")
        assert ideal.verdict(AP(2, 2)).status == "not_in"

    def test_cofinite_sets_survive(self):
        ideal = parse_ideal("matrix:identity")
        assert ideal.verdict(Complement(Finite((3,)))).status == "not_in"

    def test_undecided_attaches_transform_ladder(self):
        ideal = parse_ideal("matrix:identity")
        v = ideal.verdict(Intersection(Squares(), Powers2()))
        assert v.status == "undecided"
        assert "transform_values" in v.evidence
        n, value = v.evidence["transform_values"][0]
        assert isinstance(n, int) and isinstance(value, str)

    def test_identity_and_averaging_reduce_to_fin_and_z(self):
        assert parse_ideal("matrix:identity").verdict(Squares()).status == "not_in"
        cesaro = parse_ideal("matrix:cesaro")
        assert cesaro.verdict(DyadicBlocks(AP(1, 2))).status == "not_in"

    def test_row_dropped_averaging_still_counts_as_averaging(self):
        ideal = parse_ideal("matrix:rowdrop:cesaro:finite:{2,3}")
        assert ideal.verdict(Squares()).status == "in"
        assert ideal.verdict(AP(2, 2)).status == "not_in"

    @pytest.mark.parametrize(
        "spec", ["identity", "cesaro", "rowdrop:cesaro:finite:{2,3}",
                 "rowdrop:rowdrop:cesaro:finite:{1}:finite:{4,8}"]
    )
    @pytest.mark.parametrize("scale", [1, 6, 300, 10**6])
    def test_transform_ladder_reads_the_prefix_at_its_checkpoints(self, spec, scale):
        matrix = parse_matrix(spec)
        s = parse_set(NESTED_UNION)
        probe = min(scale, 2048)
        points = transform_prefix(matrix, indicator_sequence(s), probe)
        want = [(n, str(points[n - 1].value)) for n in setlang.default_checkpoints(probe)]
        assert matrix_ideal_kind(matrix).evidence(s, scale) == {"transform_values": want}

    def test_infinite_row_drop_breaks_the_required_regularity(self):
        # dropping the square-indexed rows is only regular along the density
        # ideal, not along the finite ideal the construction demands
        with pytest.raises(ValueError):
            parse_ideal("matrix:rowdrop:cesaro:builtin:squares")

    def test_negative_entries_are_rejected(self):
        from subsum import parse_matrix

        bad = parse_matrix("explicit:1;-1/2,1/2")
        with pytest.raises(ValueError):
            matrix_ideal_kind(bad)

    def test_non_regular_matrices_are_rejected(self):
        from subsum import parse_matrix

        # finitely many rows, all zero beyond: row sums do not tend to 1
        bad = parse_matrix("explicit:1;1/2,1/2")
        with pytest.raises(UnsupportedIdealError):
            matrix_ideal_kind(bad)


# ---------------------------------------------------------------- evidence


NESTED_UNION = "union:builtin:dyadic_blocks(intersect:builtin:squares|ap:1,2)|ap:1,2"


def _no_evidence(monkeypatch):
    """Make every finite-scale evidence scan raise."""
    import subsum.ideals as ideals_mod
    import subsum.summability as summability_mod

    def boom(*args, **kwargs):
        raise AssertionError("a decided verdict computed evidence")

    for module, name in (
        (ideals_mod, "prefix_counts"),
        (ideals_mod, "_window_maxima"),
        (ideals_mod, "_chunks"),
        (ideals_mod, "_scan"),
        (ideals_mod, "next_member"),
        (summability_mod, "transform_prefix"),
    ):
        monkeypatch.setattr(module, name, boom)


@pytest.mark.parametrize(
    "ideal, text, status",
    [
        ("finxfin", "intersect:complement:builtin:powers2|ap:3,4", "in"),
        ("z", NESTED_UNION, "not_in"),
        ("bd", NESTED_UNION, "not_in"),
        ("matrix:cesaro", NESTED_UNION, "not_in"),
    ],
)
def test_decided_verdicts_compute_no_evidence(monkeypatch, ideal, text, status):
    # Each set has a part that stays undecided on its own; only the whole
    # is decided, so evidence for the part would be thrown away.
    ideal_obj = parse_ideal(ideal)
    _no_evidence(monkeypatch)
    verdict = ideal_obj.verdict(parse_set(text), 1024)
    assert verdict.status == status
    assert verdict.evidence == {}


def test_decide_leaves_undecided_sets_without_evidence(monkeypatch):
    ideals = (FIN, Z, BD, FXF, parse_ideal("matrix:identity"))
    _no_evidence(monkeypatch)
    for ideal in ideals:
        verdict = ideal.decide(DyadicBlocks(Intersection(Squares(), AP(1, 2))))
        assert verdict.status == "undecided" and verdict.reason
        assert verdict.scale is None and verdict.evidence == {}


def test_every_ideal_row_states_its_limit_rule():
    assert all(callable(ideal.limit_rule) for ideal in IDEALS.values())
    # A matrix ideal reads its null ideal's rule, as it takes its partition.
    assert parse_ideal("matrix:cesaro").limit_rule is Z.limit_rule
    assert parse_ideal("matrix:identity").limit_rule is FIN.limit_rule


def test_deep_union_chains_decide_in_linear_passes():
    # 255 left-nested unions, just under MAX_NESTING: finiteness and
    # cofiniteness come from one recursion, so no level rescans its subtree
    # once per question.
    chain = parse_set("union:" * 255 + "ap:1,2" + "|builtin:squares" * 255)
    started = time.perf_counter()
    verdicts = [ideal.verdict(chain) for ideal in (FIN, Z, BD, FXF)]
    assert time.perf_counter() - started < 0.2
    assert [(v.status, v.reason) for v in verdicts] == [
        ("not_in", "structurally infinite"),
        ("not_in", "exact density 1/2 > 0"),
        ("not_in", "exact Banach density 1/2 > 0"),
        ("not_in", "contains a certified non-member subset"),
    ]


def test_deep_undecided_trees_under_a_matrix_ideal_take_one_ladder_pass():
    # The null ideal's ladder already tries every part; the matrix ideal does
    # not rerun it on each of the 151 parts.
    part = "|builtin:dyadic_blocks(intersect:builtin:squares|ap:1,2)"
    chain = parse_set("union:" * 150 + part[1:] + part * 150)
    started = time.perf_counter()
    verdict = parse_ideal("matrix:cesaro").decide(chain)
    assert time.perf_counter() - started < 1.0
    assert (verdict.status, verdict.reason) == (
        "undecided", "no certified argument for this matrix ideal"
    )


@pytest.mark.parametrize("ideal", (FIN, Z, BD, FXF), ids=lambda ideal: ideal.name)
@pytest.mark.parametrize("depth", (2, 254))
def test_double_complements_are_decided_as_their_inner_set(ideal, depth):
    s = Squares()
    for _ in range(depth):
        s = Complement(s)
    inner = ideal.verdict(Squares())
    v = ideal.verdict(s)
    assert v.decided and (v.status, v.reason) == (inner.status, inner.reason)


def test_density_evidence_without_closed_forms_stays_fast():
    # No square is 3 mod 4, but only a scan shows it: one pass serves all
    # four checkpoints.
    started = time.perf_counter()
    v = FIN.verdict(Intersection(Squares(), AP(3, 4)), 10**6)
    assert time.perf_counter() - started < 1.0
    assert v.status == "undecided"
    assert v.evidence["prefix_counts"] == [(125000, 0), (250000, 0), (500000, 0), (10**6, 0)]


# ---------------------------------------------------------------- periodic forms

# One instance of each bench tree shape that the eventually periodic form
# settles (seed-0 parameters of the verdict workload), with its reason.
PERIODIC_CASES = [
    # complement of the squares: every residue, so every fiber, is met
    ("complement:builtin:squares", "finxfin", "not_in",
     "every nu2 fiber from 0 on is met infinitely often"),
    # the complement of 7 mod 10 and a finite set
    ("complement:union:ap:7,10|finite:{2,9,10,13,33,46}", "fin", "not_in", "structurally infinite"),
    ("complement:union:ap:7,10|finite:{2,9,10,13,33,46}", "bd", "not_in",
     "exact Banach density 9/10 > 0"),
    ("complement:union:ap:7,10|finite:{2,9,10,13,33,46}", "finxfin", "not_in",
     "every nu2 fiber from 1 on is met infinitely often"),
    # 5 mod 10 minus the powers of 2, a Banach-null part
    ("intersect:complement:builtin:powers2|ap:15,10", "fin", "not_in", "structurally infinite"),
    ("intersect:complement:builtin:powers2|ap:15,10", "bd", "not_in",
     "exact Banach density 1/10 > 0"),
    # 3 mod 8 and 2**j + 3, all odd from j = 1 on
    ("shift:union:builtin:powers2|builtin:nu2_ge(3),3", "finxfin", "in",
     "every nu2 fiber from 3 on is finite"),
    # De Morgan: the complement of 3 mod 2 is part of the set
    ("complement:intersect:builtin:dyadic_blocks(builtin:powers2)|ap:3,2", "z", "not_in",
     "contains a certified positive-density subset"),
    ("complement:intersect:builtin:dyadic_blocks(builtin:powers2)|ap:3,2", "bd", "not_in",
     "contains a certified positive-Banach-density subset"),
    ("complement:intersect:builtin:dyadic_blocks(builtin:powers2)|ap:3,2", "finxfin", "not_in",
     "contains a certified non-member subset"),
    # 4**j - 12 lies in fiber 2 from j = 2 on; whether it is finite stays open
    ("shift:intersect:builtin:squares|builtin:powers2,-12", "finxfin", "in",
     "every nu2 fiber from 3 on is finite"),
    ("shift:intersect:builtin:squares|builtin:powers2,-12", "fin", "undecided",
     "finiteness not structurally decidable"),
]


@pytest.mark.parametrize("text, ideal, status, reason", PERIODIC_CASES)
def test_periodic_forms_settle_the_bench_shapes(monkeypatch, text, ideal, status, reason):
    ideal_obj = parse_ideal(ideal)
    _no_evidence(monkeypatch)
    verdict = ideal_obj.decide(parse_set(text))
    assert (verdict.status, verdict.reason) == (status, reason)


# The ladder's one dyadic-block rung and the rules that reach it, one case
# per kind of reason it gives; finxfin's Powers2 is read off the form.
DYADIC_BLOCK_CASES = [
    ("builtin:dyadic_blocks(ap:1,2)", "finxfin", "not_in",
     "contains infinitely many full dyadic blocks"),
    # a shifted block of length 2**q meets every nu2 fiber j < q
    ("shift:builtin:dyadic_blocks(builtin:squares),-1", "finxfin", "not_in",
     "contains infinitely many full dyadic blocks shifted by -1"),
    ("builtin:powers2", "finxfin", "in", "every nu2 fiber from 0 on is finite"),
    ("union:builtin:squares|builtin:dyadic_blocks(builtin:squares)", "z", "not_in",
     "contains a certified positive-density subset"),
    ("shift:builtin:dyadic_blocks(builtin:squares),0", "z", "not_in",
     "density is shift invariant; contains infinitely many full dyadic blocks"),
    ("union:builtin:squares|builtin:dyadic_blocks(builtin:squares)", "matrix:cesaro", "not_in",
     "the null ideal is z; contains a certified positive-density subset"),
    ("shift:builtin:dyadic_blocks(builtin:squares),0", "matrix:rowdrop:cesaro:finite:{2,9}",
     "not_in", "the null ideal is z; density is shift invariant; "
     "contains infinitely many full dyadic blocks"),
]


@pytest.mark.parametrize("text, ideal, status, reason", DYADIC_BLOCK_CASES)
def test_dyadic_blocks_are_decided_by_one_ladder_rung(monkeypatch, text, ideal, status, reason):
    ideal_obj = parse_ideal(ideal)
    _no_evidence(monkeypatch)
    verdict = ideal_obj.decide(parse_set(text))
    assert (verdict.status, verdict.reason) == (status, reason)


@pytest.mark.parametrize(
    "text, statuses",
    [
        # CRT above the period cap: 1 mod 1000003 and 2 mod 999983
        ("intersect:ap:1,1000003|ap:2,999983", ("not_in",) * 4),
        ("complement:shift:ap:1,1,1000000000000", ("in",) * 4),
        ("shift:ap:1,1,-1000000000000", ("not_in",) * 4),
        ("complement:" * 255 + "finite:{5}", ("not_in",) * 4),
        ("complement:" * 254 + "ap:3,4", ("not_in", "not_in", "not_in", "in")),
        # bd and finxfin read this one off the periodic form.
        ("complement:" * 255 + "ap:3,4", ("not_in",) * 4),
    ],
    ids=["crt", "huge-shift-out", "huge-shift-in", "255-complements", "254-complements",
         "255-complements-ap"],
)
def test_hostile_sets_keep_their_verdicts_and_answer_fast(text, statuses):
    s = parse_set(text)
    started = time.perf_counter()
    got = tuple(ideal.decide(s).status for ideal in (FIN, Z, BD, FXF))
    assert time.perf_counter() - started < 0.1
    assert got == statuses


@pytest.mark.parametrize("complements", [1, 253])
@pytest.mark.parametrize("ideal", [Z, BD, FXF], ids=["z", "bd", "finxfin"])
def test_a_complement_passes_through_dyadic_blocks(ideal, complements):
    # Up to {1}, the blocks off the squares are the blocks over the
    # non-squares: infinitely many whole blocks.
    text = "complement:" * complements + "builtin:dyadic_blocks(builtin:squares)"
    s = parse_set(text)
    assert ideal.decide(s).status == "not_in"
    pushed = parse_set("complement:builtin:dyadic_blocks(builtin:squares)")._pushed
    assert pushed == DyadicBlocks(Complement(Squares()))
    assert setlang._scan(pushed, 2, 4096) == setlang._scan(s, 2, 4096)


def test_a_second_decide_builds_no_node(monkeypatch):
    # A complement keeps the node it pushes to, so a second verdict on the
    # same tree builds none.
    built = []
    real = setlang.SetDescription.__post_init__
    monkeypatch.setattr(setlang.SetDescription, "__post_init__",
                        lambda self: built.append(self) or real(self))
    s = parse_set("complement:intersect:builtin:dyadic_blocks(builtin:powers2)|ap:3,7")
    sizes = []
    for _ in range(2):
        built.clear()
        assert [ideal.decide(s).status for ideal in (Z, BD, FXF)] == ["not_in"] * 3
        sizes.append(len(built))
    assert sizes[0] > 0 and sizes[1] == 0


def test_finxfin_unites_two_certified_members():
    # Periods 2**17 and 2**18 are past PERIOD_CAP, so no form decides the
    # union; each side is certified alone.
    v = FXF.decide(parse_set("union:complement:builtin:nu2_ge(17)|complement:builtin:nu2_ge(18)"))
    assert (v.status, v.reason) == ("in", "union of two certified members")


def test_deep_undecided_unions_build_each_form_once(monkeypatch):
    # 200 left-nested unions of a set whose finiteness stays open: every
    # node's form is built once, when the node is built, however deep the
    # ladder goes and however many ideals ask.
    part = "|shift:intersect:builtin:squares|builtin:powers2,-12"
    nodes = 200 + 201 * 4
    visits = []
    for cls in (Union, Shift, Intersection, Squares, Powers2):
        real = cls.form
        monkeypatch.setattr(
            cls, "form", lambda self, real=real: visits.append(id(self)) or real(self)
        )
    chain = parse_set("union:" * 200 + part[1:] + part * 200)
    for ideal, status in ((FIN, "undecided"), (Z, "in"), (FXF, "in")):
        assert ideal.decide(chain).status == status
        assert len(visits) == len(set(visits)) == nodes


@pytest.mark.parametrize("depth", [16, 127])
def test_nested_negative_shifts_count_their_evidence_in_linear_time(depth):
    # Each shift by -1 counts the inner members it drops below 1 once per
    # node; counting them per call made k nested shifts cost 2^k.
    text = "shift:complement:" * depth + "builtin:dyadic_blocks(builtin:squares)" + ",-1" * depth
    s = parse_set(text)
    started = time.perf_counter()
    v = Z.verdict(s, scale=1024)
    assert time.perf_counter() - started < 1.0
    assert v.status == "undecided"
    flags = setlang._scan(s, 1, 1024)
    assert v.evidence["prefix_counts"] == [(n, sum(flags[:n])) for n in (128, 256, 512, 1024)]


def test_a_shift_of_a_union_is_pushed_onto_its_sides():
    # The shift distributes over the union, whose dyadic-blocks side is no
    # member of finxfin.
    s = parse_set("shift:union:builtin:dyadic_blocks(builtin:squares)|finite:{1},1")
    v = FXF.decide(s)
    assert (v.status, v.reason) == ("not_in", "contains a certified non-member subset")


def test_a_join_past_the_period_cap_leaves_the_density_rule_deciding():
    # The lcm of the two steps is past PERIOD_CAP, so the union has no
    # periodic form; the progressions' exact density decides it.
    s = parse_set("union:ap:1,65521|ap:2,65519")
    assert s._form is None
    v = Z.decide(s)
    assert (v.status, v.reason) == ("not_in", "exact density 131039/4292870399 > 0")
