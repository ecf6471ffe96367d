"""Tests for index selectors, the image metric, and row functionals.

Metric values are checked against hand-computed geometric sums over the
image symmetric difference; functional values against independent series
sums; the modulus radius against the tail inequality that defines it.
"""

import time
from fractions import Fraction

import pytest

from subsum import (
    Consecutive,
    DomainRiskError,
    IDENTITY_SELECTOR,
    ImageUndecidableError,
    RowSeq,
    RuleTail,
    Selector,
    SelectorSpecError,
    TailToleranceError,
    metric,
    modulus_of_continuity,
    parse_row,
    parse_selector,
    parse_sequence,
    sample_selector,
    selector_transform,
)
from subsum.sigma import _NAMED_RULES

F = Fraction


# ---------------------------------------------------------------- selectors


class TestSelectorBasics:
    def test_identity_walks_the_naturals(self):
        assert IDENTITY_SELECTOR.values(5) == [1, 2, 3, 4, 5]
        assert IDENTITY_SELECTOR.total

    def test_stem_then_consecutive(self):
        s = parse_selector("stem:{3,5}+consec")
        assert s.values(5) == [3, 5, 6, 7, 8]

    def test_stem_then_jump(self):
        s = parse_selector("stem:{3,5}+consec@9")
        assert s.values(4) == [3, 5, 9, 10]

    def test_named_rules(self):
        assert parse_selector("even").values(4) == [2, 4, 6, 8]
        assert parse_selector("odd").values(4) == [1, 3, 5, 7]
        assert parse_selector("evenshift").values(4) == [4, 6, 8, 10]
        assert parse_selector("gen:squares").values(4) == [1, 4, 9, 16]

    def test_stems_must_increase_strictly(self):
        with pytest.raises(SelectorSpecError):
            Selector((3, 3))
        with pytest.raises(SelectorSpecError):
            Selector((5, 2))

    def test_consecutive_tail_must_clear_the_stem(self):
        with pytest.raises(SelectorSpecError):
            Selector((4,), Consecutive(3))
        with pytest.raises(SelectorSpecError):
            Consecutive(0)

    def test_rule_tail_must_clear_the_stem(self):
        s = Selector((10,), RuleTail("even", lambda n: 2 * n))
        with pytest.raises(SelectorSpecError):
            s.value(2)  # rule gives 4, below the stem's last value

    def test_a_subsequence_reads_x_at_the_selector(self):
        s = parse_selector("stem:{2,5}+consec@9")
        y = s.subsequence(parse_sequence("n"))
        assert [y.value(k) for k in range(1, 6)] == [2, 5, 9, 10, 11]
        assert y.name == "n[sigma]"
        # It keeps x's sup bound and declares nothing else.
        assert (y.sup_bound, y.ratio_bound, y.unbounded) == (None, None, False)
        assert parse_selector("even").subsequence(parse_sequence("alt")).sup_bound == 1

    def test_positions_start_at_one(self):
        with pytest.raises(ValueError):
            IDENTITY_SELECTOR.value(0)
        with pytest.raises(ValueError):
            IDENTITY_SELECTOR.image_contains(0)


class TestPartialSelectors:
    def test_values_beyond_the_stem_are_refused(self):
        s = parse_selector("stem:{1,26}")
        assert not s.total
        assert s.values(2) == [1, 26]
        with pytest.raises(ImageUndecidableError):
            s.value(3)

    def test_image_queries_below_the_stem_top_are_decided(self):
        s = parse_selector("stem:{1,26}")
        assert s.image_contains(1)
        assert s.image_contains(26)
        assert not s.image_contains(7)
        with pytest.raises(ImageUndecidableError):
            s.image_contains(27)


class TestImageMembership:
    def test_rule_images_are_scanned(self):
        sq = parse_selector("gen:squares")
        assert sq.image_contains(16)
        assert not sq.image_contains(15)

    def test_consecutive_images(self):
        s = parse_selector("stem:{2}+consec@5")
        assert s.image_contains(2)
        assert not s.image_contains(3)
        assert s.image_contains(5)
        assert s.image_contains(100)

    def test_non_increasing_rules_are_detected(self):
        bad = Selector((), RuleTail("stuck", lambda n: 5))
        with pytest.raises(SelectorSpecError):
            bad.image_contains(7)


class TestSelectorParsing:
    @pytest.mark.parametrize(
        "spec",
        ["stem:{}+consec", "stem:{3,5}+consec", "stem:{3,5}+consec@9", "stem:{1,26}"],
    )
    def test_spec_round_trip(self, spec):
        s = parse_selector(spec)
        assert s.spec_string() == spec
        assert parse_selector(s.spec_string()) == s

    def test_id_alias(self):
        assert parse_selector("id") == IDENTITY_SELECTOR

    def test_named_rules_round_trip(self):
        s = parse_selector("gen:even")
        assert parse_selector(s.spec_string()) == s
        assert parse_selector("even") == s

    @pytest.mark.parametrize("name", sorted(_NAMED_RULES))
    def test_named_rules_are_shared_values(self, name):
        s = parse_selector(name)
        assert parse_selector(name) is s
        assert parse_selector(s.spec_string()) == s
        assert parse_selector(s.spec_string()).tail is s.tail

    @pytest.mark.parametrize(
        "spec",
        ["wat", "stem:{2,1}+consec", "stem:{1}+wat", "random:1", "gen:unknown"],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(SelectorSpecError):
            parse_selector(spec)


class TestSampledSelectors:
    def test_one_seed_one_selector(self):
        a = sample_selector(42, 0.5, 16)
        b = sample_selector(42, 0.5, 16)
        assert a == b
        assert a.stem == (2, 3, 4, 8, 9, 10, 11, 13, 14)
        assert a.tail == Consecutive(17)

    def test_seeds_change_the_stem(self):
        stems = {sample_selector(seed, 0.5, 32).stem for seed in range(8)}
        assert len(stems) == 8

    def test_probability_extremes(self):
        assert sample_selector(7, 0.0, 8) == Selector((), Consecutive(9))
        assert sample_selector(7, 1.0, 8).stem == tuple(range(1, 9))

    def test_probability_out_of_range(self):
        with pytest.raises(SelectorSpecError):
            sample_selector(1, 1.5)

    def test_parse_random_spec(self):
        assert parse_selector("random:42:0.5:16") == sample_selector(42, 0.5, 16)


# ---------------------------------------------------------------- the metric


class TestMetric:
    def test_dropping_the_first_point_costs_a_half(self):
        d = metric(parse_selector("id"), parse_selector("stem:{}+consec@2"))
        assert d.lo == F(1, 2)
        assert d.hi == F(1, 2) + F(1, 1 << 40)
        assert d.resolution == 40

    def test_shifted_even_rules_differ_at_two(self):
        d = metric(parse_selector("even"), parse_selector("evenshift"))
        assert d.lo == F(1, 4)

    def test_disjoint_images_approach_distance_one(self):
        d = metric(parse_selector("even"), parse_selector("odd"))
        assert d.lo == 1 - F(1, 1 << 40)
        assert d.hi == 1

    def test_rule_tails_walk_their_image_once(self):
        # One walk per selector: linear in the resolution, where one image
        # query per column made step-2 rules quadratic (1.7 s at 4000).
        started = time.perf_counter()
        d = metric(parse_selector("odd"), parse_selector("even"), resolution=4000)
        assert time.perf_counter() - started < 0.5
        assert d.lo == 1 - F(1, 1 << 4000)
        assert d.hi == 1

    def test_stem_detour_sums_the_missing_block(self):
        d = metric(parse_selector("stem:{1,26}+consec"), parse_selector("id"))
        # symmetric difference is {2, ..., 25}: sums to 1/2 - 2**-25
        assert d.lo == F(1, 2) - F(1, 1 << 25)

    def test_equal_selectors_have_width_only(self):
        d = metric(parse_selector("even"), parse_selector("even"))
        assert d.lo == 0
        assert d.width == F(1, 1 << 40)
        assert d.hi < F(1, 1 << 39)

    def test_higher_resolution_nests_the_interval(self):
        s1, s2 = parse_selector("id"), parse_selector("stem:{}+consec@2")
        coarse = metric(s1, s2, resolution=12)
        fine = metric(s1, s2, resolution=30)
        assert coarse.lo <= fine.lo
        assert fine.hi <= coarse.hi

    def test_separation_decides_distinctness(self):
        near = metric(parse_selector("even"), parse_selector("even"))
        far = metric(parse_selector("even"), parse_selector("odd"))
        assert near.lo > far.hi or far.lo > near.hi
        assert near.lo <= near.hi  # never separated from itself

    def test_resolution_must_be_positive(self):
        with pytest.raises(ValueError):
            metric(IDENTITY_SELECTOR, IDENTITY_SELECTOR, resolution=0)

    def test_metric_axioms_on_sampled_selectors(self):
        sels = [sample_selector(seed, 0.4, 24) for seed in range(6)]
        for a in sels:
            assert metric(a, a).lo == 0
        for a in sels:
            for b in sels:
                dab, dba = metric(a, b), metric(b, a)
                assert dab.lo == dba.lo  # symmetry
        for a in sels:
            for b in sels:
                for c in sels:
                    # triangle inequality up to the interval widths
                    lhs = metric(a, c).lo
                    rhs = metric(a, b).hi + metric(b, c).hi
                    assert lhs <= rhs


class TestBallsAndStems:
    def test_ball_membership_checks_positions(self):
        stem = (1, 26)
        assert tuple(parse_selector("stem:{1,26}+consec").values(len(stem))) == stem
        assert tuple(parse_selector("stem:{1,26}").values(len(stem))) == stem
        assert tuple(parse_selector("id").values(len(stem))) != stem

    def test_partial_selectors_short_of_the_stem_do_not_qualify(self):
        with pytest.raises(ImageUndecidableError):
            parse_selector("stem:{1,26}").values(3)

    def test_shared_stem_distance_bound(self):
        # selectors sharing the stem (1, 26) agree on [1, 26]: d <= 2**-26
        a = parse_selector("stem:{1,26}+consec")
        b = parse_selector("stem:{1,26,30}+consec")
        assert metric(a, b).hi <= F(1, 1 << 26)
        # with no shared stem the only bound is the diameter, 1
        assert metric(a, parse_selector("id")).hi <= 1

    def test_bound_dominates_measured_distances(self):
        # extensions of a common stem stay within 2**-last of each other
        stem = (2, 5, 7)
        exts = [
            Selector(stem, Consecutive(start)) for start in (8, 9, 12, 20)
        ]
        bound = F(1, 1 << stem[-1])
        for a in exts:
            for b in exts:
                assert metric(a, b).lo <= bound


# ---------------------------------------------------------------- functionals


class TestSelectorFunctionals:
    def test_finite_rows_give_exact_values(self):
        fv = selector_transform(
            parse_row("list:1/2,0,1/3"), parse_sequence("n"), parse_selector("even")
        )
        # 1/2 * x_2 + 0 * x_4 + 1/3 * x_6 = 1 + 2
        assert fv.value == 3
        assert fv.exact

    def test_geometric_row_reweighs_the_alternating_sequence(self):
        row, alt = parse_row("geometric"), parse_sequence("alt")
        fv = selector_transform(row, alt, parse_selector("id"), tail_tol=F(1, 1 << 20))
        # sum over even k of 2**-k = 1/3
        assert abs(fv.value - F(1, 3)) <= fv.tail_bound
        assert fv.tail_bound <= F(1, 1 << 20)

    def test_selector_changes_the_value(self):
        row, alt = parse_row("geometric"), parse_sequence("alt")
        fv = selector_transform(row, alt, parse_selector("even"), tail_tol=F(1, 1 << 20))
        # x at even positions is identically 1: sum 2**-k = 1
        assert abs(fv.value - 1) <= fv.tail_bound

    def test_partial_selectors_are_refused(self):
        with pytest.raises(ImageUndecidableError):
            selector_transform(
                parse_row("geometric"), parse_sequence("alt"), parse_selector("stem:{1,26}")
            )

    def test_undeclared_rows_are_refused(self):
        with pytest.raises(DomainRiskError):
            selector_transform(
                parse_row("harmonic"), parse_sequence("alt"), parse_selector("id")
            )

    def test_unbounded_sequences_are_refused(self):
        with pytest.raises(DomainRiskError):
            selector_transform(
                parse_row("geometric"), parse_sequence("n"), parse_selector("id")
            )

    def test_unreachable_tolerances_fail_before_summing(self):
        # The tail bound alone shows that no width meets a zero tolerance, so
        # the call must not sum a million columns first.
        started = time.perf_counter()
        with pytest.raises(TailToleranceError):
            selector_transform(
                parse_row("geometric"), parse_sequence("alt"), parse_selector("id"),
                tail_tol=F(0),
            )
        assert time.perf_counter() - started < 5

    def test_exact_tolerance_is_unreachable_for_infinite_rows(self, monkeypatch):
        # The width search is the summability module's, and reads its cap.
        import subsum.summability as summability_mod

        monkeypatch.setattr(summability_mod, "DEFAULT_COLUMN_CAP", 256)
        with pytest.raises(TailToleranceError, match="within 256 columns"):
            selector_transform(
                parse_row("geometric"), parse_sequence("alt"), parse_selector("id"),
                tail_tol=F(0),
            )


class TestModulus:
    def test_geometric_row_modulus(self):
        delta = modulus_of_continuity(
            parse_sequence("alt"), parse_row("geometric"), F(1, 4)
        )
        # least k with 2**-k < (1/4) / 2 is 4
        assert delta == F(1, 16)

    def test_finite_rows_use_their_support(self):
        delta = modulus_of_continuity(parse_sequence("alt"), parse_row("list:1,2,3"), F(1, 4))
        assert delta == F(1, 8)

    def test_zero_sequences_are_flat(self):
        assert modulus_of_continuity(parse_sequence("const:0"), parse_row("geometric"), F(1, 4)) == 1

    def test_slowly_decaying_tails_use_the_binary_search(self):
        slow = RowSeq(name="slow", fn=lambda k: F(1, k * k), l1_tail=lambda k: F(1, k))
        delta = modulus_of_continuity(parse_sequence("alt"), slow, F(1, 500))
        # least k with 1/k < 1/1000 is 1001
        assert delta == F(1, 1 << 1001)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            modulus_of_continuity(parse_sequence("alt"), parse_row("geometric"), F(0))

    def test_a_tail_that_never_falls_is_refused(self):
        flat = RowSeq("flat", lambda k: 1, l1_tail=lambda k: 1)
        with pytest.raises(TailToleranceError):
            modulus_of_continuity(parse_sequence("alt"), flat, F(1, 2))

    def test_undeclared_rows_are_refused(self):
        with pytest.raises(DomainRiskError):
            modulus_of_continuity(parse_sequence("alt"), parse_row("harmonic"), F(1, 4))

    def test_radius_guarantee_on_stem_sharing_pairs(self):
        """Pairs within the radius move the functional by less than eps."""
        row, x, eps = parse_row("geometric"), parse_sequence("alt"), F(1, 4)
        delta = modulus_of_continuity(x, row, eps)
        stem = (1, 2, 3, 4, 5)  # shared stem deep enough to certify d < delta
        exts = [Selector(stem, Consecutive(start)) for start in range(6, 14)]
        tol = F(1, 1 << 30)
        for a in exts:
            for b in exts:
                assert metric(a, b).hi < delta
                va = selector_transform(row, x, a, tail_tol=tol)
                vb = selector_transform(row, x, b, tail_tol=tol)
                assert abs(va.value - vb.value) <= eps + va.tail_bound + vb.tail_bound
