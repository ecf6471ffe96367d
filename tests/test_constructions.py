"""Tests for limit search, oscillation certificates, escapes, adversaries.

The worked escape instances are frozen end to end (pivot column, chosen
position, exact partial sum); adversary certificates are frozen against
closed-form block counts; every certificate is re-audited through its own
recount path and through independent tallies computed here.
"""

import time
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsum import (
    CesaroMatrix,
    Consecutive,
    ConstructionError,
    GeneratorMatrix,
    OscillationCertificate,
    PreconditionError,
    RowDropMatrix,
    Selector,
    SequenceSpec,
    escape_rowfinite,
    escape_unbounded,
    ideal_limit,
    meagerness_demo,
    oscillation_pair,
    parse_ideal,
    parse_matrix,
    parse_row,
    parse_sequence,
    quantile_candidates,
    random_rowfinite_matrix,
    steinhaus_adversary,
)
from subsum import constructions
from subsum.constructions import EPS_GRID, _least_index_with_magnitude
from subsum.ideals import IDEALS
from subsum.setlang import Finite
from subsum import summability
from subsum.summability import (
    DEFAULT_COLUMN_CAP,
    AuditBudgetError,
    DomainRiskError,
    ExplicitMatrix,
    _threshold_counts,
)

F = Fraction
FIN = IDEALS["fin"]
Z = IDEALS["z"]
BD = IDEALS["bd"]
FXF = IDEALS["finxfin"]


def _prefix(spec, n):
    """x_1 .. x_n of a parsed sequence, as Fractions."""
    x = parse_sequence(spec)
    return [x.value(k) for k in range(1, n + 1)]


# ---------------------------------------------------------------- candidates


class TestQuantileCandidates:
    def test_empty_stream(self):
        assert quantile_candidates([]) == []

    def test_order_statistics_and_snaps(self):
        vals = [F(3, 4), F(1, 4), F(1, 2), F(1)]
        assert quantile_candidates(vals) == [F(1, 4), F(1, 2), F(3, 4), F(1)]

    def test_off_grid_values_also_snap(self):
        assert quantile_candidates([F(1, 3)]) == [F(21, 64), F(1, 3)]


# ---------------------------------------------------------------- limit search


class TestIdealLimit:
    def test_perturbed_sequence_settles_along_density(self):
        values = _prefix("sqperturb", 4096)
        v = ideal_limit(values, Z)
        assert v.status == "limit"
        assert v.eta == 1
        assert v.eps == F(1, 64)
        # exception counts in the evidence match a direct recount
        for checkpoint, count in v.evidence["exception_counts"]:
            direct = sum(1 for x in values[:checkpoint] if abs(x - 1) > F(1, 64))
            assert count == direct

    def test_perturbed_sequence_has_no_plain_limit(self):
        # the squares keep spiking, so the finite-ideal rule never settles
        values = _prefix("sqperturb", 4096)
        assert ideal_limit(values, FIN).status == "undecided"

    def test_alternating_bits_have_no_density_limit(self):
        values = _prefix("alt", 4096)
        v = ideal_limit(values, Z)
        assert v.status == "no_limit"
        assert (v.lower, v.upper) == (F(0), F(1))
        assert v.delta_lower == F(1, 2)
        assert v.delta_upper == F(1, 2)

    def test_running_averages_of_alternating_bits_settle(self):
        means = []
        ones = 0
        for n in range(1, 2049):
            ones += 1 if n % 2 == 1 else 0
            means.append(F(ones, n))
        for ideal in (FIN, Z, BD):
            v = ideal_limit(means, ideal)
            assert v.status == "limit"
            assert v.eta == F(1, 2)
            assert v.eps == F(1, 64)

    def test_constant_streams_settle_everywhere(self):
        v = ideal_limit([F(2, 7)] * 64, Z)
        assert v.status == "limit" and v.eta == F(2, 7) and v.eps == F(1, 64)

    def test_clustered_exceptions_separate_the_two_density_rules(self):
        # 32 exceptions in 1024 values: sparse enough for asymptotic density,
        # but 24 of them sit in one verse of length 24 — a window violation.
        values = [F(0)] * 1024
        for pos in range(60, 481, 60):
            values[pos - 1] = F(1)
        for pos in range(900, 924):
            values[pos - 1] = F(1)
        v_z = ideal_limit(values, Z)
        assert v_z.status == "limit" and v_z.eta == 0
        v_bd = ideal_limit(values, BD)
        assert v_bd.status == "undecided"

    def test_spread_exceptions_pass_the_window_rule(self):
        values = [F(0)] * 1024
        for pos in range(60, 481, 60):
            values[pos - 1] = F(1)
        for pos in range(520, 1024, 21):
            values[pos - 1] = F(1)
        assert ideal_limit(values, BD).status == "limit"

    @pytest.mark.parametrize("eta", [F(0), F(1, 3), F(123456789, 2**61 - 1)])
    @pytest.mark.parametrize("ideal", [FIN, Z, BD], ids=["fin", "z", "bd"])
    def test_values_exactly_eps_away_are_not_exceptions(self, eta, ideal):
        # Half the values sit at eta, a quarter at each of eta -/+ eps.  The
        # exception test |v - eta| > eps is strict, so eta's chain ends at
        # exactly eps; moved 2^-80 further out, the upper quarter are
        # exceptions at eps and no level gets that far.
        for eps in EPS_GRID:
            v = ideal_limit([eta, eta + eps, eta, eta - eps] * 64, ideal)
            assert (v.status, v.eta, v.eps) == ("limit", eta, eps)
            v = ideal_limit([eta, eta + eps + F(1, 2**80), eta, eta - eps] * 64, ideal)
            assert v.status != "limit" or v.eps > eps

    def test_short_streams_are_undecided(self):
        v = ideal_limit([F(1)] * 8, Z)
        assert v.status == "undecided"
        assert v.evidence["reason"] == "scale too small"

    @pytest.mark.parametrize("name", [*IDEALS, "matrix:cesaro", "matrix:identity"])
    def test_every_ideal_kind_searches_limits(self, name):
        v = ideal_limit([F(0)] * 64, parse_ideal(name))
        assert (v.status, v.eta, v.eps) == ("limit", 0, F(1, 64))

    def test_limits_depend_on_the_ideal(self):
        # The odd indices are one nu2 fiber, a finxfin member and no other
        # ideal's; the non-multiples of 8 are the three fibers 0-2.
        alt10 = _prefix("alt10", 512)
        v = ideal_limit(alt10, FXF)
        assert (v.status, v.eta, v.eps) == ("limit", 0, F(1, 64))
        for ideal in (FIN, Z, BD):
            v = ideal_limit(alt10, ideal)
            assert (v.status, v.lower, v.upper) == ("no_limit", 0, 1)
        eighths = [F(n % 8 == 0) for n in range(1, 513)]
        v = ideal_limit(eighths, FXF)
        assert (v.status, v.eta, v.eps) == ("limit", 1, F(1, 64))
        for ideal in (Z, BD):
            v = ideal_limit(eighths, ideal)
            assert (v.status, v.eta) == ("limit", 0)

    def test_attempts_are_recorded(self):
        values = _prefix("alt", 256)
        v = ideal_limit(values, Z)
        assert "attempts" in v.evidence
        assert v.evidence["attempts"]  # every candidate level was tried


# ---------------------------------------------------------------- certificates


def alt_values(n):
    return _prefix("alt", n)


class TestOscillationCertificates:
    def make(self):
        pairs = (v.as_integer_ratio() for v in alt_values(256))
        counts = _threshold_counts(pairs, F(0), F(1), (128, 256))
        return OscillationCertificate("alt", "identity", F(0), F(1), (128, 256), *counts)

    def test_counts_match_independent_tally(self):
        cert = self.make()
        assert cert.lower_counts == (64, 128)
        assert cert.upper_counts == (64, 128)
        assert cert.delta_lower == F(1, 2)
        assert cert.delta_upper == F(1, 2)

    def test_json_round_trip(self):
        cert = self.make()
        data = cert.to_json_dict()
        assert data["kind"] == "oscillation"
        assert OscillationCertificate.from_json_dict(data) == cert

    def test_audit_passes_on_the_true_stream(self):
        assert self.make().audit_values(alt_values(256))

    def test_audit_catches_tampered_counts(self):
        cert = self.make()
        tampered = OscillationCertificate(
            cert.x_spec,
            cert.matrix_spec,
            cert.lower,
            cert.upper,
            cert.scales,
            (64, 129),
            cert.upper_counts,
        )
        assert not tampered.audit_values(alt_values(256))

    def test_audit_requires_enough_values(self):
        assert not self.make().audit_values(alt_values(255))

    def test_audit_recounts_the_kernel_rows(self):
        cert, alt = self.make(), parse_sequence("alt")
        assert cert.audit(parse_matrix("identity"), alt)
        assert not cert.audit(CesaroMatrix(), alt)
        with pytest.raises(DomainRiskError, match="not identity"):
            cert.audit(parse_matrix("gen:geometric"), alt)
        with mock.patch.object(summability, "DEFAULT_COLUMN_CAP", 255):
            with pytest.raises(AuditBudgetError, match="certificate scale 256"):
                cert.audit(parse_matrix("identity"), alt)

    def test_levels_must_be_ordered(self):
        with pytest.raises(ConstructionError):
            OscillationCertificate("x", "m", F(1), F(0), (8,), (1,), (1,))

    def test_arrays_must_align(self):
        with pytest.raises(ConstructionError):
            OscillationCertificate("x", "m", F(0), F(1), (8, 16), (1,), (1, 2))

    def test_scales_must_increase(self):
        with pytest.raises(ConstructionError):
            OscillationCertificate("x", "m", F(0), F(1), (16, 8), (1, 2), (1, 2))

    def test_wrong_kind_is_rejected(self):
        with pytest.raises(ConstructionError):
            OscillationCertificate.from_json_dict({"kind": "other"})

    def test_no_limit_verdicts_export_certificates(self):
        values = alt_values(512)
        verdict = ideal_limit(values, Z)
        assert verdict.status == "no_limit"
        pairs = (v.as_integer_ratio() for v in values)
        counts = _threshold_counts(pairs, verdict.lower, verdict.upper, (256, 512))
        cert = OscillationCertificate(
            "alt", "identity", verdict.lower, verdict.upper, (256, 512), *counts
        )
        assert cert.audit_values(values)


# ---------------------------------------------------------------- pairs


class TestOscillationPairs:
    def test_alternating_sequence_separates_under_averaging(self):
        pair = oscillation_pair((), parse_sequence("alt"), CesaroMatrix())
        assert pair.row == 64
        assert (pair.lower_target, pair.upper_target) == (F(0), F(1))
        assert pair.gap >= F(1, 2)
        # exact recomputation of the decision row for both extensions
        for sel, expected in (
            (pair.lower_selector, pair.lower_value),
            (pair.upper_selector, pair.upper_value),
        ):
            direct = sum(
                (F(1, 64) * parse_sequence("alt").value(sel.value(k)) for k in range(1, 65)),
                F(0),
            )
            assert direct == expected

    def test_extensions_respect_the_stem(self):
        stem = (2, 3)
        pair = oscillation_pair(stem, parse_sequence("alt"), CesaroMatrix())
        assert pair.lower_selector.stem[:2] == stem
        assert pair.upper_selector.stem[:2] == stem

    def test_flat_sequences_cannot_separate(self):
        with pytest.raises(ConstructionError):
            oscillation_pair((), parse_sequence("const:1"), CesaroMatrix())

    def test_deep_stems_exhaust_the_scan(self):
        with pytest.raises(ConstructionError):
            oscillation_pair((4000,), parse_sequence("alt"), CesaroMatrix(), scan=4096)

    def test_infinite_rows_are_refused(self):
        with pytest.raises(PreconditionError):
            oscillation_pair((), parse_sequence("alt"), parse_matrix("gen:geometric"))

    def test_a_decision_row_past_the_picks_reads_the_tails(self):
        # Row 64 weighs column 65, past the 64 picks, where each extension's
        # consecutive tail answers: x_128 = 1 below, x_129 = 0 above.
        matrix = ExplicitMatrix([[]] * 63 + [[F(1, 64)] * 64 + [F(1, 2)]])
        pair = oscillation_pair((), parse_sequence("alt"), matrix)
        assert (pair.row, pair.lower_value, pair.upper_value) == (64, F(1, 2), F(1))


# ---------------------------------------------------------------- escapes


class TestUnboundedEscape:
    def test_worked_instance_is_frozen(self):
        result = escape_unbounded((1,), parse_row("geometric"), parse_sequence("n"), 5)
        assert result.holds
        assert result.pivot_index == 2
        assert result.pivot_position == 26
        assert result.partial_sum == 7
        assert result.selector.spec_string() == "stem:{1,26}+consec"
        assert result.bound == 6

    def test_zero_prefix_rows_get_consecutive_fill(self):
        result = escape_unbounded((), parse_row("list:0,0,1"), parse_sequence("n"), 2)
        assert result.holds
        assert result.pivot_index == 3
        assert result.detail["fill"] == [1, 2]
        assert result.selector.values(4) == [1, 2, 3, 4]
        assert result.partial_sum == 3

    def test_committed_prefix_is_subtracted(self):
        result = escape_unbounded((2, 4), parse_row("list:1,0,1/3"), parse_sequence("n"), 3)
        assert result.holds
        assert result.pivot_index == 3
        assert result.pivot_position == 18
        assert result.partial_sum == 2 + 6

    def test_signed_sequences_work_through_magnitudes(self):
        result = escape_unbounded((1,), parse_row("geometric"), parse_sequence("nalt"), 5)
        assert result.holds
        assert abs(result.partial_sum) >= 6

    def test_bounded_sequences_are_refused(self):
        with pytest.raises(PreconditionError):
            escape_unbounded((), parse_row("geometric"), parse_sequence("alt"), 1)

    def test_rows_ending_before_the_stem_are_refused(self):
        with pytest.raises(PreconditionError):
            escape_unbounded((5,), parse_row("list:1"), parse_sequence("n"), 1)

    def test_negative_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            escape_unbounded((), parse_row("geometric"), parse_sequence("n"), -1)

    def test_slow_growth_exhausts_the_search_cap(self):
        # The search answers its floor, where |x| is short of the target, so
        # the one check of that index refuses it.
        crawl = SequenceSpec(
            name="crawl",
            fn=lambda n: F(n, 10**6).as_integer_ratio(),
            abs_search=lambda p, q, floor=1: floor,
        )
        with pytest.raises(ConstructionError):
            escape_unbounded((), parse_row("geometric"), crawl, 10)


class TestRowFiniteEscape:
    def test_averaging_block_instance_is_frozen(self):
        result = escape_rowfinite((), CesaroMatrix(), parse_sequence("n"), Z, 1)
        assert result.holds
        assert result.block_index == 2
        assert result.block == (4, 5, 6, 7)
        assert result.detail["vanishing_set"] == "finite:{}"
        assert all(abs(v) >= 1 for _, v in result.row_values)
        # the selector really is strictly increasing
        vals = result.selector.values(10)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_dropped_rows_are_excluded_from_the_block(self):
        matrix = parse_matrix("rowdrop:cesaro:builtin:squares")
        result = escape_rowfinite((1,), matrix, parse_sequence("n"), Z, 1)
        assert result.holds
        assert result.block == (5, 6, 7)  # the square row 4 is skipped
        assert "squares" in result.detail["vanishing_set"]

    def test_singleton_partition_for_the_finite_ideal(self):
        result = escape_rowfinite((), CesaroMatrix(), parse_sequence("n"), FIN, 2)
        assert result.holds
        assert result.block == (2,)

    def test_random_matrices_with_signed_entries(self):
        result = escape_rowfinite((), random_rowfinite_matrix(3), parse_sequence("n"), Z, 3)
        assert result.holds
        assert all(abs(v) >= 3 for _, v in result.row_values)

    def test_a_magnitude_floor_past_the_hinted_square_still_finds_one(self):
        # The floor passes the least square with a value >= m0 + 1, so the
        # search must land on the next square, not scan values 1 + 1/h.
        m0 = 10**30
        result = escape_rowfinite((), parse_matrix("identity"), parse_sequence("sqperturb"), Z, m0)
        assert result.holds
        assert all(abs(v) >= m0 for _, v in result.row_values)

    def test_block_floor_requests_fresh_blocks(self):
        low = escape_rowfinite((), CesaroMatrix(), parse_sequence("n"), Z, 1)
        high = escape_rowfinite((), CesaroMatrix(), parse_sequence("n"), Z, 1, p0=5)
        assert high.block_index == 5
        assert min(high.block) > max(low.block)

    def test_blocks_of_more_rows_than_the_budget_are_refused_unread(self, monkeypatch):
        # Rows 1..2^20 are dropped, so restricted dyadic block 2 is the 2^21
        # rows [2^21, 2^22); every row has support >= 1, so the row count
        # alone refuses it, before any row support is asked for.
        matrix = parse_matrix("rowdrop:cesaro:complement:ap:1048577,1")
        calls = []
        for cls in (RowDropMatrix, CesaroMatrix):
            real = cls.row_support
            monkeypatch.setattr(cls, "row_support",
                                lambda self, n, real=real: calls.append(n) or real(self, n))
        with pytest.raises(AuditBudgetError,
                           match="escape block 2 row count 2097152 is over the audit "
                                 f"budget of {DEFAULT_COLUMN_CAP} rows"):
            escape_rowfinite((), matrix, parse_sequence("n"), Z, 1)
        assert calls == []

    def test_bounded_sequences_are_refused(self):
        with pytest.raises(PreconditionError):
            escape_rowfinite((), CesaroMatrix(), parse_sequence("alt"), Z, 1)

    def test_infinite_rows_are_refused(self):
        with pytest.raises(PreconditionError):
            escape_rowfinite((), parse_matrix("gen:geometric"), parse_sequence("n"), Z, 1)

    def test_uncertified_vanishing_set_is_refused(self):
        matrix = parse_matrix("rowdrop:cesaro:ap:2,2")
        with pytest.raises(PreconditionError):
            escape_rowfinite((1,), matrix, parse_sequence("n"), Z, 1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            escape_rowfinite((), CesaroMatrix(), parse_sequence("n"), Z, -1)
        with pytest.raises(ValueError):
            escape_rowfinite((), CesaroMatrix(), parse_sequence("n"), Z, 1, p0=0)


def _per_row_escape(stem, matrix, x, m0, block):
    """The escape's column loop as first written, on a given block: every
    row's partial is updated at every column and the worst is a max over the
    whole block.  The reference for the shared-prefix loop."""
    supports = {n: matrix.row_support(n) for n in block}
    alpha = min(
        abs(matrix.entry(n, k))
        for n in block
        for k in range(1, supports[n] + 1)
        if matrix.entry(n, k) != 0
    )
    k_top = max(supports.values())
    partials = {
        n: sum((matrix.entry(n, k) * x.value(v) for k, v in enumerate(stem, 1)), F(0))
        for n in block
    }
    values = list(stem)
    prev = stem[-1] if stem else 0
    for s in range(len(stem) + 1, k_top + 1):
        worst = max(abs(p) for p in partials.values())
        prev, _ = _least_index_with_magnitude(
            x, prev + 1, *((m0 + worst) / alpha).as_integer_ratio()
        )
        values.append(prev)
        for n in block:
            partials[n] += matrix.entry(n, s) * x.value(prev)
    row_values = tuple((n, partials[n]) for n in block)
    return {
        "selector": Selector(tuple(values), Consecutive(prev + 1)),
        "row_values": row_values,
        "holds": all(abs(v) >= m0 for _, v in row_values),
        "min_coefficient": str(alpha),
        "last_column": k_top,
    }


ESCAPE_MATRICES = (
    "cesaro",
    "rowdrop:cesaro:finite:{2,5,6}",
    "rowdrop:cesaro:ap:3,4",
    "rowdrop:cesaro:builtin:squares",
    "identity",
    "explicit:1;1/2,1/2;0,1/3,2/3",
    "gen:rand_rowfinite_4",
    "gen:rand_rowfinite_17",
)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(ESCAPE_MATRICES),
    ideal=st.sampled_from((Z, FIN)),
    x=st.sampled_from(("n", "nalt", "sqperturb")),
    stem=st.sets(st.integers(1, 9), max_size=3).map(lambda v: tuple(sorted(v))),
    m0=st.fractions(min_value=0, max_value=6, max_denominator=4),
    p0=st.integers(1, 4),
)
def test_row_finite_escape_matches_the_per_row_loop(spec, ideal, x, stem, m0, p0):
    matrix, seq = parse_matrix(spec), parse_sequence(x)
    try:
        result = escape_rowfinite(stem, matrix, seq, ideal, m0, p0=p0)
    except PreconditionError:
        return  # refused before any column: ap drops, explicit tables, ...
    want = _per_row_escape(stem, matrix, seq, m0, result.block)
    assert result.selector == want["selector"]
    assert result.row_values == want["row_values"]
    assert result.holds == want["holds"]
    assert result.detail["min_coefficient"] == want["min_coefficient"]
    assert result.detail["last_column"] == want["last_column"]
    assert result.detail["stem_columns"] == len(stem)


# Each ideal escapes as its twin does: finxfin takes z's dyadic partition,
# and a matrix ideal is its null ideal.
ESCAPE_TWINS = (
    ("finxfin", "z"),
    ("matrix:cesaro", "z"),
    ("matrix:rowdrop:cesaro:finite:{2,9}", "z"),
    ("matrix:identity", "fin"),
)


def _escape_outcome(*args, **kwargs):
    try:
        return escape_rowfinite(*args, **kwargs)
    except PreconditionError:
        return PreconditionError


@pytest.mark.parametrize("spec, twin", ESCAPE_TWINS)
def test_escape_under_an_ideal_matches_its_twin(spec, twin):
    ideal, held = parse_ideal(spec), 0
    for matrix_spec, x, stem, m0, p0 in product(
        ("cesaro", "identity", "rowdrop:cesaro:finite:{3,5}", "rowdrop:cesaro:builtin:squares"),
        ("n", "nalt", "sqperturb"),
        ((), (1,), (2, 5), (1, 3, 4)),
        (0, 1, F(5, 2)),
        (1, 2, 3),
    ):
        matrix, seq = parse_matrix(matrix_spec), parse_sequence(x)
        got = _escape_outcome(stem, matrix, seq, ideal, m0, p0=p0)
        want = _escape_outcome(stem, matrix, seq, IDEALS[twin], m0, p0=p0)
        held += want is not PreconditionError and want.holds
        if spec == "finxfin" and "squares" in matrix_spec:
            assert got is PreconditionError and want.holds  # see the test below
        else:
            assert got == want
    # Every escape under the twin holds, but fin refuses the 108 dropped-squares cases.
    assert held == (324 if twin == "fin" else 432)


def test_dropped_squares_are_refused_under_finxfin():
    # The squares vanish below every stem, and every even nu2 fiber holds
    # infinitely many of them, so they are no member of finxfin.
    matrix = parse_matrix("rowdrop:cesaro:builtin:squares")
    with pytest.raises(PreconditionError, match="not certified inside the ideal"):
        escape_rowfinite((), matrix, parse_sequence("n"), FXF, 1)
    assert escape_rowfinite((), matrix, parse_sequence("n"), Z, 1).holds


class _NoVanishingCesaro(CesaroMatrix):
    """The running average, except that its vanishing description names no
    row: it claims that rows supported below the stem's next column do not
    vanish there."""

    def vanish_rows(self, w):
        return Finite(())


def test_a_vanishing_description_that_disagrees_with_the_supports_is_refused():
    # Past a stem of 8 columns the block rows (4, 5, 6, 7) vanish, yet survive.
    with pytest.raises(ConstructionError, match="disagrees with the row supports"):
        escape_rowfinite(tuple(range(1, 9)), _NoVanishingCesaro(), parse_sequence("n"), Z, 1)
    assert escape_rowfinite(tuple(range(1, 9)), CesaroMatrix(), parse_sequence("n"), Z, 1).holds


class _LateTamperCesaro(CesaroMatrix):
    """The running average, except that one entry changes once it has been
    read: the entry pass sees 1/n there, every later read 2/n."""

    def __init__(self, spot):
        self.spot = spot
        self.reads = 0

    def _row(self, n, width):
        nums, den = super()._row(n, width)
        spot_row, k = self.spot
        if n == spot_row and k <= width:
            self.reads += 1
            if self.reads > 1:
                return nums[:k - 1] + (2,) + nums[k:], den
        return nums, den


def test_the_escape_recheck_reads_every_entry_again():
    # Block (4, 5, 6, 7); only a direct re-read of entry (5, 2) sees the
    # change, so a re-check through the entry pass or a kernel would pass.
    matrix = _LateTamperCesaro((5, 2))
    with pytest.raises(ConstructionError, match="disagree"):
        escape_rowfinite((), matrix, parse_sequence("n"), Z, 1)
    assert matrix.reads == 2


class _LateTamperCesaroRow(CesaroMatrix):
    """The running average, except that row ``row`` reads 2/row on every
    column from its second read on: the re-read row is still constant."""

    def __init__(self, row):
        self.row = row
        self.reads = 0  # entries of row ``row`` read

    def _row(self, n, width):
        nums, den = super()._row(n, width)
        if n != self.row:
            return nums, den
        start, self.reads = self.reads, self.reads + width
        return tuple(p if start + k <= n else 2 for k, p in enumerate(nums, 1)), den


class _CountedCesaro(CesaroMatrix):
    reads = 0  # entries read

    def _row(self, n, width):
        self.reads += width
        return super()._row(n, width)


@pytest.fixture
def dot_rows(monkeypatch):
    """The numerators of the rows that escapes sum term by term through ``_dot``."""
    rows = []
    real = constructions._dot

    def counted(row, values):
        rows.append(row[0])
        return real(row, values)

    monkeypatch.setattr(constructions, "_dot", counted)
    return rows


def test_the_escape_recheck_sums_a_tampered_constant_row_again(dot_rows):
    # Row 5 of block (4, 5, 6, 7) re-reads as 2/5 throughout, so only the
    # prefix-sum branch of the re-check sees the change.
    matrix = _LateTamperCesaroRow(5)
    with pytest.raises(ConstructionError, match="disagree"):
        escape_rowfinite((), matrix, parse_sequence("n"), Z, 1)
    assert matrix.reads == 10
    assert dot_rows == []


def test_an_escape_reads_each_entry_twice_and_sums_constant_rows_by_prefix(dot_rows):
    matrix = _CountedCesaro()
    result = escape_rowfinite((), matrix, parse_sequence("n"), Z, 4, p0=7)
    assert result.block == tuple(range(128, 256)) and result.holds
    assert matrix.reads == 2 * sum(result.block)  # row n is supported on 1..n
    assert dot_rows == []


def test_the_escape_recheck_reads_the_structural_row_again():
    # The diagonal entry of the block's last row: its last column.
    matrix = _LateTamperCesaro((7, 7))
    with pytest.raises(ConstructionError, match="disagree"):
        escape_rowfinite((), matrix, parse_sequence("n"), Z, 1)
    assert matrix.reads == 2


def test_a_cesaro_escape_reads_no_entry_one_at_a_time(monkeypatch):
    def refused(self, n, k):
        raise AssertionError(f"entry ({n}, {k}) read one at a time")

    monkeypatch.setattr(CesaroMatrix, "entry", refused)
    result = escape_rowfinite((), CesaroMatrix(), parse_sequence("n"), Z, 4, p0=7)
    assert result.block == tuple(range(128, 256)) and result.holds


def test_picks_short_of_their_targets_leave_the_escape_not_holding(monkeypatch):
    # Picks taken at the floor, whatever the target, push no row past m0,
    # and the exact re-check says so.
    monkeypatch.setattr(constructions, "_least_index_with_magnitude",
                        lambda x, floor, p, q: (floor, x.pair(floor)))
    result = escape_rowfinite((), CesaroMatrix(), parse_sequence("n"), Z, 100)
    assert result.block == (4, 5, 6, 7) and not result.holds
    assert result.row_values == ((4, F(5, 2)), (5, F(3)), (6, F(7, 2)), (7, F(4)))


def test_only_rows_that_are_not_constant_are_summed_term_by_term(dot_rows):
    # Odd rows average, even rows weigh column k by k / n^2.
    matrix = GeneratorMatrix("mixed", lambda n, k: n if n % 2 else k, lambda n: n * n)
    result = escape_rowfinite((), matrix, parse_sequence("nalt"), Z, 3)
    assert result.block == (4, 5, 6, 7) and result.holds
    assert [len(row) for row in dot_rows] == [4, 6]


def test_an_escape_computes_each_generator_entry_once():
    # The re-check reads the block again through the generator's row cache.
    matrix = random_rowfinite_matrix(4)
    calls = Counter()
    fn = matrix.entry_fn

    def entry_fn(n, k):
        calls[n, k] += 1
        return fn(n, k)

    matrix.entry_fn = entry_fn
    result = escape_rowfinite((), matrix, parse_sequence("n"), Z, 2, p0=3)
    assert set(calls) == {(n, k) for n in result.block for k in range(1, n + 1)}
    assert max(calls.values()) == 1


class TestMeagernessDemo:
    def test_every_bound_in_the_schedule_is_defeated(self):
        demo = meagerness_demo(CesaroMatrix(), parse_sequence("n"), Z, schedule=(1, 2, 4))
        assert demo.all_hold
        assert len(demo.results) == 3
        indices = [r.block_index for r in demo.results]
        assert indices == sorted(indices)
        # fresh blocks: each one starts after the previous one ends
        for prev, cur in zip(demo.results, demo.results[1:]):
            assert cur.block[0] > prev.block[-1]
        # each round extends the previous round's stem
        for prev, cur in zip(demo.results, demo.results[1:]):
            stem_prev = prev.selector.stem
            assert cur.selector.stem[: len(stem_prev)] == stem_prev
        assert demo.results[-1].selector.total

    def test_the_default_schedule_finishes_on_rows_by_powers_of_four(self):
        started = time.perf_counter()
        demo = meagerness_demo(CesaroMatrix(), parse_sequence("n"), Z)
        assert time.perf_counter() - started < 5
        assert demo.all_hold
        assert [(r.block[0], r.block[-1]) for r in demo.results] == [
            (4, 7), (16, 31), (64, 127), (256, 511)
        ]
        assert [r.bound for r in demo.results] == [1, 2, 4, 8]

    def test_blocks_after_a_row_on_the_fin_ideal(self):
        demo = meagerness_demo(CesaroMatrix(), parse_sequence("n"), FIN)
        assert demo.all_hold
        assert [r.block for r in demo.results] == [(2,), (4,), (6,), (8,)]

    def test_after_row_skips_blocks_that_start_too_early(self):
        x = parse_sequence("n")
        first = escape_rowfinite((), CesaroMatrix(), x, FIN, 1)
        assert first.block == (2,)
        later = escape_rowfinite((), CesaroMatrix(), x, FIN, 1, after_row=6)
        assert later.block == (7,)
        # p0 keeps its meaning: the larger of the two floors wins
        floor = escape_rowfinite((), CesaroMatrix(), x, FIN, 1, p0=9, after_row=6)
        assert floor.block == (9,) and floor.block_index == 9


# ---------------------------------------------------------------- adversary


def _assert_boundary_closed_forms(means):
    for bm in means:
        # closed forms: up edges hold (4**(j+1) - 1) / 3 ones, down edges
        # (4**(j+1) + 2) / 3, against targets 2/3 and 1/3
        j = bm.level
        if bm.target == F(2, 3):
            assert bm.at == 1 << (2 * j + 1)
            assert bm.mean == F((4 ** (j + 1) - 1) // 3, bm.at)
        else:
            assert bm.at == 1 << (2 * j + 2)
            assert bm.mean == F((4 ** (j + 1) + 2) // 3, bm.at)
        assert bm.allowance == F(4, 1 << (2 * j))
        assert bm.within


@pytest.fixture(scope="module")
def blocks_report():
    return steinhaus_adversary(CesaroMatrix(), mode="blocks")


class TestBlocksAdversary:
    def test_certified_with_frozen_densities(self, blocks_report):
        assert blocks_report.status == "certified"
        assert blocks_report.x_spec == "blocks01"
        cert = blocks_report.certificate
        assert cert.delta_upper == F(12149, 65536)
        assert cert.delta_lower == F(16991, 65536)
        assert cert.lower == F(2, 5) and cert.upper == F(3, 5)

    def test_boundary_means_match_closed_forms(self, blocks_report):
        means = blocks_report.boundary_means
        assert len(means) == 14  # levels 1..7, two edges each
        by_at = {bm.at: bm for bm in means}
        assert by_at[8].mean == F(5, 8) and by_at[8].error == F(1, 24)
        assert by_at[16].mean == F(3, 8) and by_at[16].error == F(1, 24)
        assert by_at[32].mean == F(21, 32) and by_at[32].error == F(1, 96)
        assert by_at[64].mean == F(11, 32)
        _assert_boundary_closed_forms(means)

    def test_report_is_deterministic(self, blocks_report):
        again = steinhaus_adversary(CesaroMatrix(), mode="blocks")
        assert again == blocks_report

    def test_certificate_audits_against_recomputed_means(self, blocks_report):
        points = CesaroMatrix()._transform(parse_sequence("blocks01"), range(1, 65537))
        pairs = (pair for pair, _ in points)
        values = [F(p, q) for p, q in pairs]
        assert blocks_report.certificate.audit_values(values)

    def test_identity_plays_the_dyadic_blocks(self):
        # Row n of the identity is x_n, so the counts are the zeros and the
        # ones of blocks01 up to each scale.
        report = steinhaus_adversary(parse_matrix("identity"), mode="blocks", scale=4096)
        assert report.x_spec == "blocks01"
        assert report.status == "certified"
        bits = [parse_sequence("blocks01").fn(n)[0] for n in range(1, 4097)]
        cert = report.certificate
        assert cert.scales == (2048, 4096)
        assert cert.lower_counts == tuple(s - sum(bits[:s]) for s in cert.scales)
        assert cert.upper_counts == tuple(sum(bits[:s]) for s in cert.scales)
        assert report.boundary_means == ()

    def test_dropped_rows_are_recomputed_honestly(self):
        report = steinhaus_adversary(
            parse_matrix("rowdrop:cesaro:builtin:squares"), mode="blocks", scale=4096
        )
        assert report.status == "certified"
        assert report.boundary_means == ()  # closed forms are for the pure average

    def test_non_averaging_matrices_are_refused(self):
        with pytest.raises(PreconditionError):
            steinhaus_adversary(parse_matrix("gen:geometric"), mode="blocks")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            steinhaus_adversary(CesaroMatrix(), mode="blocks", scale=32)
        with pytest.raises(ValueError):
            steinhaus_adversary(CesaroMatrix(), mode="wat")


class TestGreedyAdversary:
    def test_certified_on_the_running_average(self):
        report = steinhaus_adversary(CesaroMatrix(), mode="greedy", scale=1024)
        assert report.status == "certified"
        assert not report.evidence["stalled"]
        assert report.certificate.delta_lower >= F(1, 10)
        assert report.certificate.delta_upper >= F(1, 10)
        directions = [p["direction"] for p in report.evidence["phases"]]
        assert directions[:4] == ["up", "down", "up", "down"]

    def test_played_bits_round_trip_through_their_spec(self):
        report = steinhaus_adversary(CesaroMatrix(), mode="greedy", scale=512)
        assert report.x_spec.startswith("rle:")
        replay = parse_sequence(report.x_spec)
        points = CesaroMatrix()._transform(replay, range(1, report.scale + 1))
        values = [F(*pair) for pair, _ in points]
        assert report.certificate.audit_values(values)

    def test_greedy_plays_the_identity_and_refuses_kinds_without_a_run_form(self):
        report = steinhaus_adversary(parse_matrix("identity"), mode="greedy", scale=256)
        assert report.status == "certified"
        replay = parse_sequence(report.x_spec)
        values = [F(*replay.fn(n)) for n in range(1, report.scale + 1)]
        assert report.certificate.audit_values(values)
        for mode in ("blocks", "greedy"):
            with pytest.raises(PreconditionError):
                steinhaus_adversary(parse_matrix("gen:geometric"), mode=mode, scale=256)


@pytest.mark.parametrize("spec", ["cesaro", "identity", "rowdrop:identity:finite:{2}"])
@pytest.mark.parametrize("mode", ["blocks", "greedy"])
def test_run_form_certifies_at_scale_2_to_the_40(mode, spec):
    # Hit counts come per run, so no row is streamed.
    started = time.perf_counter()
    report = steinhaus_adversary(parse_matrix(spec), mode=mode, scale=1 << 40)
    assert time.perf_counter() - started < 0.5
    assert report.status == "certified" and report.scale >= 1 << 40
    assert parse_sequence(report.x_spec).name == report.x_spec
    if mode == "blocks" and spec == "cesaro":
        assert len(report.boundary_means) == 38  # levels 1..19
        _assert_boundary_closed_forms(report.boundary_means)
