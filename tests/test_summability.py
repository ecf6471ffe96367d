"""Tests for matrices, transforms, tail certificates, and regularity.

Transform values are cross-checked against a naive independent summation
oracle; tail certificates are checked against hand-derived closed forms
(geometric series sums); regularity verdicts are checked against the
structural facts that make them true or false.
"""

import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsum import (
    AP,
    CesaroMatrix,
    DomainRiskError,
    ExplicitMatrix,
    Finite,
    GeneratorMatrix,
    GeometricMatrix,
    IdentityMatrix,
    MatrixSpecError,
    RowDropMatrix,
    SequenceSpecError,
    Squares,
    TailToleranceError,
    Union,
    indicator_sequence,
    member,
    parse_ideal,
    parse_matrix,
    parse_rle,
    parse_row,
    parse_selector,
    parse_sequence,
    random_rowfinite_matrix,
    regularity_verdict,
    render_rle,
    selector_transform,
    sequence_from_rle,
    transform_prefix,
    validate_matrix_ideal,
)
from subsum import summability
from subsum.ideals import IDEALS
from subsum.setlang import _bounded_str
from subsum.summability import DOMAIN_SCAN_COLUMNS, AuditBudgetError, domain_check

F = Fraction
FIN = IDEALS["fin"]
Z = IDEALS["z"]


def prefix(x, n):
    """x_1 .. x_n as Fractions."""
    return [x.value(k) for k in range(1, n + 1)]


def oracle_transform(matrix, x, n, width):
    """Independent direct summation over the first ``width`` columns."""
    return sum((matrix.entry(n, k) * x.value(k) for k in range(1, width + 1)), F(0))


def drained(points):
    """The streamed transform points as a list, or the type and message of
    the error that refused them."""
    try:
        return list(points)
    except (AuditBudgetError, DomainRiskError, TailToleranceError) as error:
        return type(error), str(error)


def recipe_entry(seed, n, k):
    """Entry (n, k <= n) of ``gen:rand_rowfinite_<seed>`` from its own
    ``random.Random`` stream, as the docstring states the recipe."""
    rng = random.Random(f"rowfinite:{seed}:{n}:{k}")
    num = rng.randrange(-9, 10)
    if k == n and num == 0:
        num = rng.choice([-3, -2, -1, 1, 2, 3])
    return F(num, rng.randrange(1, 10))


# ---------------------------------------------------------------- sequences


class TestSequences:
    def test_alternating_prefix(self):
        alt = parse_sequence("alt")
        assert prefix(alt, 6) == [0, 1, 0, 1, 0, 1]
        alt10 = parse_sequence("alt10")
        assert prefix(alt10, 6) == [1, 0, 1, 0, 1, 0]

    def test_natural_numbers_are_declared_unbounded(self):
        n = parse_sequence("n")
        assert n.unbounded and n.sup_bound is None
        assert n.value(17) == 17
        assert n.abs_search(17, 2) == 9
        assert n.ratio_bound(4) == F(5, 4)

    def test_named_sequences_and_rows_are_shared_values(self):
        for name in summability._NAMED_SEQUENCES:
            x = parse_sequence(name)
            assert parse_sequence(name) is x and parse_sequence(x.name) is x
        for name in summability._NAMED_ROWS:
            row = parse_row(name)
            assert parse_row(name) is row and parse_row(row.name) is row

    def test_unbounded_means_a_stated_magnitude_search(self):
        named = {name for name in summability._NAMED_SEQUENCES if parse_sequence(name).unbounded}
        assert named == {"n", "nalt", "sqperturb"}
        for spec in ("const:5", "list:1,-7,3", "rle:1x3,0x2"):
            assert not parse_sequence(spec).unbounded
        assert not indicator_sequence(AP(1, 2)).unbounded

    def test_signed_naturals_alternate_sign(self):
        assert prefix(parse_sequence("nalt"), 4) == [-1, 2, -3, 4]

    def test_block_indicator_follows_dyadic_levels(self):
        b = parse_sequence("blocks01")
        assert b.value(1) == 1
        assert [b.value(n) for n in (2, 3)] == [0, 0]
        assert all(b.value(n) == 1 for n in range(4, 8))
        assert all(b.value(n) == 0 for n in range(8, 16))
        assert all(b.value(n) == 1 for n in range(16, 32))

    def test_square_perturbed_sequence(self):
        s = parse_sequence("sqperturb")
        assert s.value(9) == 9
        assert s.value(10) == 1 + F(1, 10)
        assert s.value(15) == 1 + F(1, 15)
        assert s.value(16) == 16
        # the search hint lands on the next square with a big enough value
        assert s.abs_search(10, 1) == 16
        assert s.value(s.abs_search(50, 1)) >= 50

    @pytest.mark.parametrize("name", ["n", "nalt", "sqperturb"])
    def test_magnitude_searches_start_at_their_floor(self, name):
        x = parse_sequence(name)
        for p, q, floor in product((0, 1, 3, 10, 50), (1, 2), (1, 2, 3, 5, 17, 26, 100)):
            h = x.abs_search(p, q, floor)
            assert h >= floor and abs(x.value(h)) >= F(p, q)
            # the least such h at or past the floor
            assert all(abs(x.value(k)) < F(p, q) for k in range(floor, h))

    def test_constant_and_list_sequences(self):
        c = parse_sequence("const:3/7")
        assert c.value(123) == F(3, 7)
        assert c.sup_bound == F(3, 7)
        lst = parse_sequence("list:1,1/2,-2")
        assert prefix(lst, 5) == [1, F(1, 2), -2, 0, 0]
        assert lst.sup_bound == 2

    def test_rle_round_trip(self):
        runs = parse_rle("1x3,0x2,1x1")
        assert runs == [(1, 3), (0, 2), (1, 1)]
        seq = sequence_from_rle(runs)
        assert prefix(seq, 8) == [1, 1, 1, 0, 0, 1, 0, 0]
        assert render_rle([(1, 2), (1, 1), (0, 2), (1, 0), (0, 0), (1, 1)]) == "1x3,0x2,1x1"
        assert prefix(parse_sequence("rle:1x2,0x1"), 4) == [1, 1, 0, 0]

    def test_negative_run_length_is_rejected(self):
        with pytest.raises(SequenceSpecError):
            sequence_from_rle([(1, -2)])

    def test_unknown_sequence_spec(self):
        with pytest.raises(SequenceSpecError):
            parse_sequence("mystery")

    def test_indexing_starts_at_one(self):
        with pytest.raises(ValueError):
            parse_sequence("alt").value(0)

    def test_every_form_states_reduced_pairs(self):
        # Each named sequence against its statement as Fractions, and every
        # form's pair(n) reduced, over a positive denominator, equal to value(n).
        oracles = {
            "n": lambda n: F(n),
            "nalt": lambda n: F(n if n % 2 == 0 else -n),
            "alt": lambda n: F(n % 2 == 0),
            "alt10": lambda n: F(n % 2 == 1),
            "blocks01": lambda n: F(n.bit_length() % 2),
            "sqperturb": lambda n: F(n) if isqrt(n) ** 2 == n else 1 + F(1, n),
        }
        forms = [parse_sequence(spec) for spec in (
            *oracles, "const:-6/4", "const:0", "list:1,1/2,-2,4/6", "rle:1x3,0x200,1x100",
        )] + [indicator_sequence(Squares())]
        for x in forms:
            oracle = oracles.get(x.name)
            for n in range(1, 513):
                p, q = x.pair(n)
                assert type(p) is int and type(q) is int and q > 0 and gcd(p, q) == 1
                assert F(p, q) == x.value(n)
                if oracle is not None:
                    assert x.value(n) == oracle(n)

    @pytest.mark.parametrize("name", ["n", "nalt", "sqperturb"])
    def test_magnitude_searches_read_their_target_as_a_pair(self, name):
        x = parse_sequence(name)
        magnitudes = [abs(x.value(n)) for n in range(1, 1024)]
        for q in (1, 2, 3, 7):
            for p in range(0, 513 * q, q // 2 + 1):
                h = x.abs_search(p, q)
                assert magnitudes[h - 1] >= F(p, q)
                if name != "sqperturb":  # |x| is monotone: the least such h
                    assert h == 1 or magnitudes[h - 2] < F(p, q)

    def test_indicator_sequence_matches_membership(self):
        seq = indicator_sequence(Squares())
        assert [seq.value(n) for n in range(1, 11)] == [
            1, 0, 0, 1, 0, 0, 0, 0, 1, 0,
        ]
        assert seq.sup_bound == 1


# ---------------------------------------------------------------- rows


def test_rationals_refuse_an_exponent_past_twice_the_render_bound():
    # Checked before Fraction builds 10**e, however the exponent is spelled.
    assert summability.parse_rational("1e-8192") == F(1, 10**8192)
    assert summability.parse_rational(" 25E-00002 ") == F(1, 4)
    started = time.perf_counter()
    for text in ("1e8193", "1e-8193", " 1E+99_999_999 ", "3.5e-000010000000"):
        with pytest.raises(summability.RationalSyntaxError, match="exponent past 8192"):
            summability.parse_rational(text)
    assert time.perf_counter() - started < 0.1


class TestRows:
    def test_geometric_row_declarations(self):
        row = parse_row("geometric")
        assert row.fn(3) == F(1, 8)
        assert row.l1_tail(5) == F(1, 32)

    def test_list_row_is_finitely_supported(self):
        row = parse_row("list:1/2,0,1/3")
        assert row.support == 3
        assert row.fn(3) == F(1, 3)
        assert row.fn(4) == 0

    def test_unknown_row_spec(self):
        with pytest.raises(MatrixSpecError):
            parse_row("nope")


# ---------------------------------------------------------------- matrices


class TestMatrixEntries:
    def test_running_average_entries(self):
        m = CesaroMatrix()
        assert m.entry(4, 3) == F(1, 4)
        assert m.entry(4, 5) == 0
        assert m.row_support(7) == 7
        assert m.row_sum(7) == 1
        assert m.l1_tail(7, 0) == 1

    def test_identity_entries(self):
        m = IdentityMatrix()
        assert m.entry(5, 5) == 1
        assert m.entry(5, 4) == 0

    def test_row_drop_produces_zero_rows(self):
        m = RowDropMatrix(CesaroMatrix(), Squares())
        assert m.entry(4, 2) == 0
        assert m.row_support(4) == 0
        assert m.entry(5, 2) == F(1, 5)
        assert m.row_support(5) == 5

    def test_a_row_drop_reads_no_entry_of_a_dropped_row(self):
        def counted():
            read = set()

            def entry(n, k):
                read.add(n)
                return F(k, n)

            return read, GeneratorMatrix("counted", entry)

        x = parse_sequence("n")
        plain = [p.value for p in transform_prefix(counted()[1], x, 40)]
        for drops in ([AP(1, 3)], [AP(1, 3), Squares()]):  # one drop, and a nested one
            read, m = counted()
            for drop in drops:
                m = RowDropMatrix(m, drop)
            kept = {n for n in range(1, 41) if not any(member(d, n) for d in drops)}
            assert [p.value for p in transform_prefix(m, x, 40)] == [
                v if n in kept else 0 for n, v in enumerate(plain, 1)
            ]
            assert read == kept

    def test_explicit_rows_and_zero_padding(self):
        m = ExplicitMatrix([[F(1)], [F(0), F(1, 2)]])
        assert m.entry(1, 1) == 1
        assert m.entry(1, 2) == 0  # beyond the stored row width
        assert m.entry(2, 2) == F(1, 2)
        assert m.entry(3, 1) == 0  # beyond the stored rows entirely
        assert m.row_support(2) == 2
        assert m.row_support(3) == 0

    def test_generator_rows_end_on_the_diagonal(self):
        # Row n ends on its declared nonzero diagonal entry, and entry_fn is
        # never asked past it.
        asked = []
        m = GeneratorMatrix("tri", lambda n, k: asked.append((n, k)) or F(1))
        assert m._row(3, 5) == (1, 1, 1, 0, 0)
        assert (m.row_support(3), m.vanish_rows(3), m.row_finite) == (3, Finite((1, 2)), True)
        assert m.entry(4, 6) == 0
        assert asked == [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)]

    def test_generator_zeroes_past_declared_support(self):
        m = GeneratorMatrix("tri", lambda n, k: F(1))
        assert m.entry(3, 3) == 1
        assert m.entry(3, 4) == 0

    def test_indices_start_at_one(self):
        for m in (CesaroMatrix(), IdentityMatrix(), ExplicitMatrix([[F(1)]])):
            with pytest.raises(ValueError):
                m.entry(0, 1)
            with pytest.raises(ValueError):
                m.entry(1, 0)

    @pytest.mark.parametrize(
        "spec",
        ["cesaro", "identity", "rowdrop:cesaro:finite:{3,5}", "rowdrop:identity:builtin:squares"],
    )
    def test_structural_rows_match_the_generic_reader(self, spec):
        # Each row against the kind's definition, at widths below, at and
        # past the row's support, and the n = 0 edge; ``entry`` reads the
        # row's last column.
        m = parse_matrix(spec)
        base = getattr(m, "base", m)
        drop = getattr(m, "drop", Finite(()))

        def defined(n, k):
            if member(drop, n):
                return F(0)
            if isinstance(base, CesaroMatrix):
                return F(1, n) if k <= n else F(0)
            return F(int(k == n))

        for n in range(1, 71):
            for w in range(81):
                want = tuple(defined(n, k) for k in range(1, w + 1))
                assert m._row(n, w) == want, (n, w)
                assert w == 0 or m.entry(n, w) == want[-1], (n, w)
        assert m._row(0, 0) == ()
        for w in (1, 5):
            with pytest.raises(ValueError):
                m._row(0, w)
            with pytest.raises(ValueError):
                m.entry(0, w)

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(["gen:geometric", "gen:rand_rowfinite_3", "gen:rand_rowfinite_11",
                              "explicit:1;0,1/2;-3,0,2/7", "explicit:;5"]),
        drop=st.sampled_from([None, "finite:{2,3}", "ap:1,2"]),
        n=st.integers(1, 30),
        width=st.integers(0, 40),
    )
    def test_overridden_entries_read_like_the_rows(self, spec, drop, n, width):
        # The geometric kind and row drops keep their own ``entry``; it
        # answers like the row, cached or not.
        m = parse_matrix(spec if drop is None else f"rowdrop:{spec}:{drop}")
        fresh = [m.entry(n, k) for k in range(1, width + 1)]
        row = m._row(n, width)
        assert fresh == list(row) == [m.entry(n, k) for k in range(1, width + 1)]

    def test_a_far_column_is_read_without_its_row_prefix(self):
        # Tail bounds probe single columns up to 2^20; a prefix that wide of
        # the geometric row would hold Fractions of up to 2^20 bits each.
        m = parse_matrix("rowdrop:gen:geometric:finite:{2}")
        started = time.perf_counter()
        assert m.entry(1, 1 << 20) == F(1, 1 << (1 << 20))
        assert m.entry(2, 1 << 20) == 0
        assert time.perf_counter() - started < 0.5
        assert len(m.base._prefix) <= DOMAIN_SCAN_COLUMNS


class TestGeometricMatrix:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 10**30), width=st.integers(0, 80))
    def test_every_row_is_the_geometric_row(self, n, width):
        m = parse_matrix("gen:geometric")
        want = tuple(F(1, 1 << k) for k in range(1, width + 1))
        assert m._row(n, width) == want
        assert [m.entry(n, k) for k in range(1, width + 1)] == list(want)

    def test_tails_and_ratio_are_closed_forms(self):
        m, const, nat = GeometricMatrix(), parse_sequence("const:3"), parse_sequence("n")
        for n, after in product((1, 7, 10**20), (0, 1, 5, 64)):
            assert m.l1_tail(n, after) == F(1, 1 << after)
            assert m._tail(n, const, after) == F(3, 1 << after)
            want = None
            if after >= 2:  # n bounds its ratio by (after + 1) / after: r < 1 from here on
                r = F(after + 1, 2 * after)
                want = F(after, 1 << after) * r / (1 - r)
            assert m._tail(n, nat, after) == want
        assert (m.nonneg, m.row_finite, m.row_support(3)) == (True, False, None)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.one_of(
            st.sampled_from(["n", "nalt", "alt", "alt10", "blocks01"]),
            st.builds("const:{}/{}".format, st.integers(-50, 50), st.integers(1, 50)),
        ),
        after=st.integers(1, 80),
    )
    def test_the_tail_rule_bounds_the_summed_tail(self, spec, after):
        x = parse_sequence(spec)
        bound = GeometricMatrix()._tail(1, x, after)
        pairs = ((k, *x.pair(k)) for k in range(after + 1, after + 257))
        summed = sum((F(abs(p), q << k) for k, p, q in pairs), F(0))
        assert bound is None or bound >= summed
        # A ratio bound certifies every tail of an unbounded x past column 1.
        assert bound is not None or x.ratio_bound is None or after == 1

    def test_rows_share_one_prefix_of_at_most_the_scan_width(self):
        m = parse_matrix("gen:geometric")
        transform_prefix(m, parse_sequence("alt"), 256, F(1, 10**6))
        assert m._prefix == m._row(1, 32)  # one 32-entry prefix for 256 rows
        wide = m._row(9, DOMAIN_SCAN_COLUMNS + 5)
        assert wide[-1] == F(1, 1 << (DOMAIN_SCAN_COLUMNS + 5))
        assert len(m._prefix) <= DOMAIN_SCAN_COLUMNS

    @settings(max_examples=40, deadline=None)
    @example(x="n", tol=F(1, 10**30), rows=range(1, 65))
    @example(x="alt", tol=F(0), rows=(7,))
    @given(
        x=st.sampled_from(["alt", "alt10", "n", "nalt", "const:3/7", "const:-5", "sqperturb"]),
        tol=st.sampled_from([F(1, 10**6), F(1, 10**30), F(0)]),
        rows=st.one_of(
            st.builds(lambda lo, size: range(lo, lo + size), st.integers(1, 10**6),
                      st.integers(0, 64)),
            st.integers(1, 10**30).map(lambda n: (n,)),
            # the kept rows of a drop, as a row drop asks its base for them
            st.builds(lambda lo, step: [n for n in range(lo, lo + 64) if n % step],
                      st.integers(1, 10**6), st.integers(2, 5)),
        ),
    )
    def test_the_kernel_answers_like_the_default_one(self, x, tol, rows):
        x = parse_sequence(x)
        default = summability.SummabilityMatrix._transform(GeometricMatrix(), x, rows, tol)
        assert drained(GeometricMatrix()._transform(x, rows, tol)) == drained(default)

    @pytest.mark.parametrize("x, rows, tol, error", [
        ("alt", range(1, 40001), F(1, 10**6), AuditBudgetError),
        ("const:1", range(1, 9), F(0), TailToleranceError),
        ("sqperturb", (3,), F(1, 10**6), DomainRiskError),
    ])
    def test_the_kernel_refuses_like_the_default_one(self, x, rows, tol, error):
        x = parse_sequence(x)
        default = drained(summability.SummabilityMatrix._transform(GeometricMatrix(), x, rows, tol))
        assert default[0] is error
        assert drained(GeometricMatrix()._transform(x, rows, tol)) == default
        if error is AuditBudgetError:
            assert default[1] == ("transform rows 1..32769 entry count 1048608 is over the"
                                  " audit budget of 1048576 entries")

    def test_a_transform_sums_its_one_row_once(self):
        m, x, tol = GeometricMatrix(), parse_sequence("alt"), F(1, 10**6)
        read, row = [], m._row
        m._row = lambda n, width: read.append(n) or row(n, width)
        assert len(transform_prefix(m, x, 256, tol)) == 256
        assert read == [1]
        drained(summability.SummabilityMatrix._transform(m, x, range(1, 257), tol))
        assert len(read) == 1 + 256  # the default kernel reads every row


class TestMatrixParsing:
    @pytest.mark.parametrize(
        "spec",
        [
            "cesaro",
            "identity",
            "rowdrop:cesaro:builtin:squares",
            "rowdrop:identity:finite:{1,4}",
            "explicit:1;0,1/2",
            "gen:geometric",
            "gen:rand_rowfinite_3",
        ],
    )
    def test_spec_round_trip(self, spec):
        m = parse_matrix(spec)
        assert m.spec_string() == spec
        assert parse_matrix(m.spec_string()) == m

    def test_explicit_from_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("1\n0,1/2\n", encoding="ascii")
        m = parse_matrix(f"explicit:@{path}")
        assert m == ExplicitMatrix([[F(1)], [F(0), F(1, 2)]])

    def test_unknown_specs_are_rejected(self):
        with pytest.raises(MatrixSpecError):
            parse_matrix("wat")
        with pytest.raises(MatrixSpecError):
            parse_matrix("rowdrop:cesaro")  # missing drop set
        with pytest.raises(MatrixSpecError):
            parse_matrix("gen:unheard_of")

    def test_distinct_matrices_compare_unequal(self):
        assert parse_matrix("cesaro") != parse_matrix("identity")
        assert parse_matrix("rowdrop:cesaro:builtin:squares") != parse_matrix(
            "rowdrop:cesaro:finite:{1}"
        )


class TestRandomRowFinite:
    def test_deterministic_across_instances(self):
        a = random_rowfinite_matrix(7)
        b = random_rowfinite_matrix(7)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert a.entry(n, k) == b.entry(n, k)

    def test_different_seeds_differ(self):
        a = random_rowfinite_matrix(1)
        b = random_rowfinite_matrix(2)
        grid_a = [a.entry(n, k) for n in range(1, 9) for k in range(1, n + 1)]
        grid_b = [b.entry(n, k) for n in range(1, 9) for k in range(1, n + 1)]
        assert grid_a != grid_b

    def test_diagonal_is_nonzero_and_support_exact(self):
        m = random_rowfinite_matrix(5)
        for n in range(1, 40):
            assert m.entry(n, n) != 0
            assert m.row_support(n) == n
            assert m.entry(n, n + 1) == 0

    def test_entries_are_small_rationals(self):
        m = random_rowfinite_matrix(9)
        for n in range(1, 15):
            for k in range(1, n + 1):
                v = m.entry(n, k)
                assert abs(v.numerator) <= 9 * 9 and v.denominator <= 9

    @pytest.mark.parametrize("seed", [3, 17, 52])
    def test_entries_follow_the_documented_recipe(self, seed):
        # One mt19937 stream per (seed, n, k), recomputed here on its own.
        m = random_rowfinite_matrix(seed)
        forced = 0
        for n in range(1, 151):
            for k in range(1, n + 2):
                want = F(0)
                if k <= n:
                    rng = random.Random(f"rowfinite:{seed}:{n}:{k}")
                    num = rng.randrange(-9, 10)
                    if k == n and num == 0:
                        num = rng.choice([-3, -2, -1, 1, 2, 3])
                        forced += 1
                    want = F(num, rng.randrange(1, 10))
                got = m.entry(n, k)
                assert type(got) is F and got == want, (n, k)
        assert forced > 0

    def test_whole_rows_follow_the_documented_recipe(self):
        m, n = random_rowfinite_matrix(3), 1024
        assert m._row(n, n) == tuple(recipe_entry(3, n, k) for k in range(1, n + 1))

    def test_reading_an_entry_loads_no_hashlib(self):
        # The seed hash comes from the digest that random loads, so a cold
        # start that reads this family pays for no hashlib import.
        code = ("import sys; from subsum.summability import parse_matrix; "
                "parse_matrix('gen:rand_rowfinite_3').entry(5, 5); "
                "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(Path(summability.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestRowL1Norms:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(st.lists(st.one_of(st.integers(-4, 4), st.fractions(max_denominator=12)),
                               max_size=9), min_size=1, max_size=5),
        after=st.integers(0, 10),
    )
    def test_explicit_rows_sum_by_sign(self, rows, after):
        m = ExplicitMatrix(rows)
        for n, row in enumerate([*rows, []], 1):  # and the zero row past them
            assert m.l1_tail(n, after) == sum((abs(F(v)) for v in row[after:]), F(0))

    @pytest.mark.parametrize("spec", ["gen:rand_rowfinite_3", "gen:rand_rowfinite_17",
                                      "rowdrop:gen:rand_rowfinite_3:ap:2,3"])
    def test_generator_rows_sum_by_sign(self, spec):
        m = parse_matrix(spec)
        for n in (1, 2, 3, 10, 64, 129):
            entries = [m.entry(n, k) for k in range(1, n + 1)]
            for after in (0, 1, n // 2, n - 1, n):
                tail = m.l1_tail(n, after)
                assert type(tail) is F and tail == sum(map(abs, entries[after:]), F(0))


def counted(m):
    """Wrap the entry_fn of the generator matrix m; the counter it returns
    holds the calls per (n, k)."""
    calls = Counter()
    fn = m.entry_fn

    def entry_fn(n, k):
        calls[n, k] += 1
        return fn(n, k)

    m.entry_fn = entry_fn
    return calls


def sparse_generator():
    """A cheap generator with zero entries below its nonzero diagonal."""
    return GeneratorMatrix(
        "sparse",
        lambda n, k: F((3 * n + 5 * k) % 7 - 3 if k < n else n % 5 + 1, 1 + (n + k) % 4),
    )


def stored_entries(m):
    return sum(map(len, m._rows.values()))


class TestGeneratorRowCache:
    def test_repeated_calls_read_no_entry_again(self):
        m, x = parse_matrix("gen:rand_rowfinite_52"), parse_sequence("const:-1/6")
        calls = counted(m)
        first = transform_prefix(m, x, 128)
        verdict = regularity_verdict(m, FIN, n_rows=256)
        read = sum(calls.values())
        assert transform_prefix(m, x, 128) == first
        assert regularity_verdict(m, FIN, n_rows=256) == verdict
        assert sum(calls.values()) == read

    def test_one_regularity_verdict_reads_each_entry_once(self):
        m = random_rowfinite_matrix(52)
        calls = counted(m)
        regularity_verdict(m, FIN, n_rows=256)
        # r1 reads rows 1..64, 128 and 256; r3 sums the same head rows.
        assert calls[64, 64] == calls[256, 1] == 1
        assert max(calls.values()) == 1

    def test_rows_past_the_cap_are_computed_not_stored(self):
        m = random_rowfinite_matrix(3)
        calls = counted(m)
        with mock.patch.object(summability, "DEFAULT_COLUMN_CAP", 10):
            assert m.row_sum(4) == m.row_sum(4)  # 4 entries, stored
            assert m.row_sum(7) == m.row_sum(7)  # 7 more would pass 10
        assert m._stored == stored_entries(m) == 4  # small entries count once
        assert calls[4, 1] == 1 and calls[7, 1] == 2


# Cheap entries keep the property fast; rand_rowfinite's repeated calls are
# checked in TestGeneratorRowCache.
_CACHED_MATRICES = {
    "sparse": sparse_generator,
    "geometric": lambda: parse_matrix("gen:geometric"),
    "rowdrop": lambda: RowDropMatrix(sparse_generator(), AP(1, 3)),
}


@settings(max_examples=12, deadline=None)
@example(kind="sparse", x="nalt", rows=40, warm=[(40, 45), (39, 2), (5, 0)], cap=40)
@example(kind="rowdrop", x="n", rows=12, warm=[(2, 3)], cap=0)
@given(
    kind=st.sampled_from(sorted(_CACHED_MATRICES)),
    x=st.sampled_from(["alt", "n", "nalt", "const:-2/3"]),
    rows=st.integers(1, 40),
    warm=st.lists(st.tuples(st.integers(1, 40), st.integers(0, 45)), max_size=8),
    cap=st.sampled_from([None, 0, 1, 40, 300]),
)
def test_a_warmed_matrix_answers_like_a_fresh_one(kind, x, rows, warm, cap):
    x = parse_sequence(x)
    tol = F(1, 10**6)
    cap = summability.DEFAULT_COLUMN_CAP if cap is None else cap

    def outcome(call, *args, **kwargs):
        # A small cap also bounds the tail widths and the entries summed, so
        # errors are answers too.
        try:
            return call(*args, **kwargs)
        except (AuditBudgetError, DomainRiskError, TailToleranceError) as error:
            return type(error), str(error)

    def answers(m):
        return (
            outcome(transform_prefix, m, x, rows, tail_tol=tol),
            [m.row_sum(n) for n in range(1, rows + 1)] if m.row_finite else None,
            [m.l1_tail(n, n // 2) for n in range(1, rows + 1)],
            outcome(domain_check, m, x, rows, tol),
            outcome(regularity_verdict, m, FIN, n_rows=rows),
        )

    with mock.patch.object(summability, "DEFAULT_COLUMN_CAP", cap):
        fresh, warmed = _CACHED_MATRICES[kind](), _CACHED_MATRICES[kind]()
        for n, width in warm:
            warmed._row(n, width)
            warmed.entry(n, width + 1)
        want = answers(fresh)
        assert answers(warmed) == want
        assert answers(warmed) == want  # now warmed by its own answers too
        for m in (fresh, warmed):
            m = getattr(m, "base", m)  # the generator under a row drop
            if isinstance(m, GeometricMatrix):
                assert len(m._prefix) <= DOMAIN_SCAN_COLUMNS
            else:
                assert stored_entries(m) == m._stored <= cap


# ---------------------------------------------------------------- transforms


class TestTransforms:
    def test_running_average_of_alternating(self):
        m, alt = CesaroMatrix(), parse_sequence("alt")
        for n in (1, 2, 5, 10, 33):
            point = transform_prefix(m, alt, n)[-1]
            assert point.value == F(n // 2, n)
            assert point.tail_bound == 0
            assert point.exact

    def test_running_average_of_naturals(self):
        m, nat = CesaroMatrix(), parse_sequence("n")
        assert transform_prefix(m, nat, 9)[-1].value == F(10, 2) == 5

    def test_row_finite_matches_direct_oracle(self):
        m = random_rowfinite_matrix(11)
        x = parse_sequence("nalt")
        for n in (1, 3, 8, 20):
            point = transform_prefix(m, x, n)[-1]
            assert point.value == oracle_transform(m, x, n, n)

    def test_generic_rows_stop_at_the_entry_budget(self):
        # Rows 1..13 of a support-n matrix hold 91 entries; row 14 would pass 100.
        m, x = random_rowfinite_matrix(3), parse_sequence("n")
        with mock.patch.object(summability, "DEFAULT_COLUMN_CAP", 100):
            assert len(transform_prefix(m, x, 13)) == 13
            with pytest.raises(AuditBudgetError, match="entry count 105"):
                transform_prefix(m, x, 14)

    def test_geometric_row_against_constant_one(self):
        m = parse_matrix("gen:geometric")
        point = transform_prefix(m, parse_sequence("const:1"), 3, tail_tol=F(1, 1 << 20))[-1]
        # partial sum 1 - 2**-K plus a certified tail bound that reaches 1
        assert point.tail_bound <= F(1, 1 << 20)
        assert point.value < 1 < point.value + 2 * point.tail_bound

    def test_geometric_row_against_naturals_brackets_two(self):
        # sum k/2**k = 2; the ratio certificate must bracket it
        m = parse_matrix("gen:geometric")
        point = transform_prefix(m, parse_sequence("n"), 1, tail_tol=F(1, 1 << 20))[-1]
        assert point.tail_bound == F(33, 4160749568)
        assert abs(point.value - 2) <= point.tail_bound

    def test_undeclared_tails_are_refused(self):
        m = parse_matrix("gen:geometric")
        with pytest.raises(DomainRiskError):
            transform_prefix(m, parse_sequence("sqperturb"), 1)

    def test_unreachable_tolerance_is_reported(self):
        m = parse_matrix("gen:geometric")
        with pytest.raises(TailToleranceError):
            transform_prefix(m, parse_sequence("const:1"), 1, tail_tol=F(0))

    def test_a_tail_bound_equal_to_the_tolerance_is_met_at_its_width(self):
        # The geometric row's tail past column w is 2^-w, times sup |x| = 1:
        # the transform, the domain check and a selector functional each
        # stop at the first width whose bound is at most the tolerance.
        m, ones = parse_matrix("gen:geometric"), parse_sequence("const:1")
        assert transform_prefix(m, ones, 1, F(1, 1 << 32))[-1].tail_bound == F(1, 1 << 32)
        check = domain_check(m, ones, 1, F(1, 1 << 64))
        assert (check.tail_bound, check.evidence) == (F(1, 1 << 64), {"columns_used": 64})
        functional = selector_transform(parse_row("geometric"), ones, parse_selector("id"),
                                        F(1, 1 << 16))
        assert functional.tail_bound == F(1, 1 << 16)
        assert functional.value == 1 - F(1, 1 << 16)

    def test_prefix_shape(self):
        pts = transform_prefix(CesaroMatrix(), parse_sequence("alt"), 10)
        assert [p.n for p in pts] == list(range(1, 11))
        with pytest.raises(ValueError):
            transform_prefix(CesaroMatrix(), parse_sequence("alt"), 0)


# ---------------------------------------------------------------- domain


class SpikedTailMatrix(GeometricMatrix):
    """Row entries 2**-k with a single unit spike at column 40.

    The declared tail bound is honest: for K < 40 the tail really does
    contain the spike, so the bound includes it; it needs a bounded x.
    """

    def entry(self, n, k):
        return F(1) if k == 40 else F(1, 1 << k)

    def _row(self, n, width):
        return tuple(self.entry(n, k) for k in range(1, width + 1))

    def _tail(self, n, x, after):
        if x.sup_bound is not None:
            return (F(1, 1 << after) + (1 if after < 40 else 0)) * x.sup_bound
        return None


class AllOnesMatrix(GeometricMatrix):
    """Every entry is 1, and no tail bound is stated."""

    def entry(self, n, k):
        return F(1)

    def _row(self, n, width):
        return (F(1),) * width

    def _tail(self, n, x, after):
        return None


class TestDomainCheck:
    def test_row_finite_rows_always_converge(self):
        report = domain_check(CesaroMatrix(), parse_sequence("n"), 9, tol=F(1, 100))
        assert report.status == "converged"
        assert report.value == 5
        assert report.tail_bound == 0
        assert report.evidence == {"row_finite": True}

    def test_certified_tail_convergence(self):
        report = domain_check(
            parse_matrix("gen:geometric"), parse_sequence("const:1"), 2, tol=F(1, 1024)
        )
        assert report.status == "converged"
        assert abs(report.value + report.tail_bound - 1) <= 2 * report.tail_bound
        assert report.evidence["columns_used"] == 32

    def test_growing_partials_are_flagged(self):
        report = domain_check(AllOnesMatrix(), parse_sequence("n"), 1, tol=F(1, 100))
        assert report.status == "diverging"
        assert report.evidence["kind"] == "growth"
        # 1 + 2 + ... + k first exceeds the growth bound 10^6 at k = 1414
        assert report.evidence["column"] == 1414

    def test_late_spike_after_stability_is_flagged(self):
        # n declares no sup bound, so no width is certified and the scan runs.
        report = domain_check(
            SpikedTailMatrix(), parse_sequence("n"), 1, tol=F(1, 256)
        )
        assert report.status == "diverging"
        assert report.evidence["kind"] == "late_term"
        assert report.evidence["column"] == 40

    def test_a_certified_width_wins_over_a_late_spike(self):
        # The declared tail bound covers the spike, so width 64 is certified
        # and the spike is summed, not read as evidence.
        report = domain_check(
            SpikedTailMatrix(), parse_sequence("alt"), 1, tol=F(1, 256)
        )
        assert report.status == "converged"
        assert report.evidence == {"columns_used": 64}
        assert report.tail_bound == F(1, 1 << 64)

    def test_a_certified_width_wins_over_a_late_term(self):
        x = parse_sequence("list:" + "0," * 19 + "1000")
        matrix = parse_matrix("gen:geometric")
        report = domain_check(matrix, x, 1, tol=F(1, 10**6))
        point = transform_prefix(matrix, x, 1, F(1, 10**6))[-1]
        assert report.status == "converged"
        assert (report.value, report.tail_bound) == (F(125, 131072), F(125, 536870912))
        assert (point.value, point.tail_bound) == (report.value, report.tail_bound)

    def test_wide_rows_are_summed_by_the_kind_not_read_as_rows(self, monkeypatch):
        # Row 2^20 through the kind's transform kernel: Cesaro reads a
        # running sum, the identity one value, a row drop asks its base.
        def refused(self, n, width):
            raise AssertionError(f"row {n} read to width {width}")

        for kind in (CesaroMatrix, IdentityMatrix, RowDropMatrix):
            monkeypatch.setattr(kind, "_row", refused)
        x, n = parse_sequence("n"), 1 << 20
        for spec, value in (("cesaro", F(n + 1, 2)), ("identity", F(n)),
                            ("rowdrop:cesaro:ap:1,2", F(n + 1, 2))):
            check = domain_check(parse_matrix(spec), x, n, F(1, 100))
            assert (check.status, check.value, check.tail_bound) == ("converged", value, 0)
            assert check.evidence == {"row_finite": True}

    def test_a_far_row_of_a_row_drop_scans_one_flag(self):
        # A tail-bounded row 10^20 sums 32 columns; the drop is not scanned
        # from row 1.
        matrix = parse_matrix("rowdrop:gen:geometric:finite:{2}")
        check = domain_check(matrix, parse_sequence("alt"), 10**20, F(1, 10**6))
        assert (check.status, check.evidence) == ("converged", {"columns_used": 32})
        assert check.value == F(1431655765, 1 << 32)

    def test_both_branches_read_x_as_integer_pairs(self, monkeypatch):
        def refused(self, n):
            raise AssertionError(f"x_{n} built as a Fraction")

        monkeypatch.setattr(summability.SequenceSpec, "value", refused)
        n, tol = parse_sequence("n"), F(1, 100)
        summed = domain_check(CesaroMatrix(), n, 4096, tol)
        assert (summed.status, summed.value) == ("converged", F(4097, 2))
        ratio = domain_check(parse_matrix("gen:geometric"), n, 2, F(1, 1024))
        assert (ratio.value, ratio.tail_bound) == (F(4294967279, 2147483648), F(33, 4160749568))
        scan = domain_check(parse_matrix("gen:geometric"), parse_sequence("sqperturb"), 3, F(0))
        assert (scan.status, scan.evidence["columns_used"]) == ("inconclusive", DOMAIN_SCAN_COLUMNS)
        late = domain_check(SpikedTailMatrix(), n, 1, F(1, 256))
        assert (late.status, late.evidence["column"]) == ("diverging", 40)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rows_start_at_one(self, n):
        with pytest.raises(ValueError, match="rows start at 1"):
            domain_check(CesaroMatrix(), parse_sequence("n"), n, tol=F(1, 100))
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            transform_prefix(CesaroMatrix(), parse_sequence("n"), n)

    def test_scans_without_a_certified_tail_stop_at_the_budget(self):
        # The last partial is too long for str(); it prints in bounded form.
        started = time.perf_counter()
        report = domain_check(
            parse_matrix("gen:geometric"), parse_sequence("sqperturb"), 3, F(0)
        )
        assert time.perf_counter() - started < 2
        assert report.status == "inconclusive"
        assert report.evidence["budget"] == "DOMAIN_SCAN_COLUMNS"
        assert report.evidence["columns_used"] == DOMAIN_SCAN_COLUMNS

    def test_oversized_rationals_render_in_bounded_form(self):
        assert _bounded_str(F(-7, 3)) == "-7/3"
        near_one = _bounded_str(F((1 << 20000) + 1, 1 << 20000))
        assert near_one == "1.000000000000... (20001-bit numerator over 20001-bit denominator)"
        assert _bounded_str(F(3**30000, 7)) == "(47549-bit numerator over 3-bit denominator)"


# ---------------------------------------------------------------- profiles


class TestRowProfiles:
    def test_running_average_profile(self):
        m = CesaroMatrix()
        assert m.row_support(17) == 17
        assert m.vanish_rows(5) == Finite((1, 2, 3, 4))

    def test_row_drop_profile_includes_dropped_rows(self):
        m = RowDropMatrix(CesaroMatrix(), Squares())
        assert m.row_support(4) == 0
        assert m.row_support(5) == 5
        assert m.vanish_rows(3) == Union(Finite((1, 2)), Squares())

    def test_explicit_profile_covers_the_zero_tail(self):
        # The trailing stored zero row is dropped: it equals the zero tail.
        m = ExplicitMatrix([[F(1)], [F(0), F(1, 2)], [F(0)]])
        assert m.row_support(2) == 2
        assert m.row_support(3) == 0
        assert m.vanish_rows(2) == Union(Finite((1,)), AP(3, 1))

    def test_vanish_sets_grow_with_the_threshold(self):
        m = RowDropMatrix(CesaroMatrix(), Squares())
        small = m.vanish_rows(3)
        big = m.vanish_rows(7)
        for n in range(1, 129):
            if member(small, n):
                assert member(big, n)


# ---------------------------------------------------------------- regularity


class TestRegularity:
    def test_running_average_is_regular(self):
        v = regularity_verdict(CesaroMatrix(), FIN, n_rows=256)
        assert v.overall == "regular"
        assert all(rep.holds == "yes" and rep.certified for rep in (v.r1, v.r2, v.r3))

    def test_identity_is_regular_along_density(self):
        assert regularity_verdict(IdentityMatrix(), Z, n_rows=256).overall == "regular"

    def test_dropping_square_rows_fails_along_fin(self):
        m = parse_matrix("rowdrop:cesaro:builtin:squares")
        v = regularity_verdict(m, FIN, n_rows=256)
        assert v.overall == "not_regular"
        assert v.r3.holds == "no" and v.r3.certified
        assert v.witness["condition"] == "r3"
        assert v.witness["witness_rows"] == [1, 4, 9, 16, 25]

    def test_dropping_square_rows_is_fine_along_density(self):
        m = parse_matrix("rowdrop:cesaro:builtin:squares")
        v = regularity_verdict(m, Z, n_rows=256)
        assert v.overall == "regular"
        assert "squares" in v.r3.data["exception_set"]

    def test_dropping_finitely_many_rows_keeps_fin_regularity(self):
        m = parse_matrix("rowdrop:cesaro:finite:{2,3}")
        assert regularity_verdict(m, FIN, n_rows=256).overall == "regular"

    def test_explicit_matrices_are_never_regular(self):
        m = parse_matrix("explicit:1;0,1")
        v = regularity_verdict(m, FIN, n_rows=64)
        assert v.overall == "not_regular"
        assert v.r3.holds == "no"

    def test_generator_matrices_stay_undecided(self):
        v = regularity_verdict(parse_matrix("gen:rand_rowfinite_3"), Z, n_rows=256)
        assert v.overall == "undecided"
        assert not v.r2.certified

    @pytest.mark.parametrize("ideal", ["fin", "z", "bd", "finxfin", "matrix:cesaro",
                                       "matrix:identity"])
    def test_the_geometric_matrix_is_certified_not_regular(self, ideal):
        # Every row is (1/2, 1/4, ...): l1 norm and row sum 1, and column 1
        # is the constant 1/2, which tends to 0 along no proper ideal.
        v = regularity_verdict(parse_matrix("gen:geometric"), parse_ideal(ideal))
        assert v.overall == "not_regular"
        assert [rep.holds for rep in (v.r1, v.r2, v.r3)] == ["yes", "no", "yes"]
        assert v.witness == {"condition": "r2", "column": 1, "entry": "1/2"}

    @pytest.mark.parametrize("drop, fin_r2, z_r2", [
        ("builtin:squares", "no", "no"),
        ("finite:{2}", "no", "no"),
        ("complement:finite:{1}", "yes", "yes"),  # one kept row, in both ideals: r3 fails
        # Kept rows inside the squares: in z, but fin cannot tell whether finitely many.
        ("complement:intersect:builtin:squares|shift:builtin:powers2,1", "undecided", "yes"),
        ("ap:2,2", "no", "no"),
    ])
    def test_a_geometric_row_drop_fails_column_1_on_the_kept_rows(self, drop, fin_r2, z_r2):
        m = parse_matrix(f"rowdrop:gen:geometric:{drop}")
        for ideal, r2 in ((FIN, fin_r2), (Z, z_r2)):
            v = regularity_verdict(m, ideal)
            assert (v.overall, v.r2.holds) == ("not_regular", r2)
            assert v.r2.data["kept_rows"] == f"complement:{drop}"

    def test_nested_geometric_drops_decide_the_rows_both_keep(self):
        # Each drop alone keeps infinitely many rows, but the two together
        # keep none, so every column vanishes: r2 holds, r3 does not.
        v = regularity_verdict(parse_matrix("rowdrop:rowdrop:gen:geometric:ap:2,2:ap:1,2"), FIN)
        assert (v.overall, v.r2.holds, v.r3.holds) == ("not_regular", "yes", "no")
        assert v.r2.data == {"verdict": "in", "kept_rows": "complement:union:ap:2,2|ap:1,2"}

    @pytest.mark.parametrize("base", ["gen:rand_rowfinite_3", "gen:geometric"])
    def test_kept_rows_in_the_ideal_certify_vanishing_columns(self, base):
        # Every column is 0 off the kept rows: a sampled base or a "no" base alike.
        v = regularity_verdict(parse_matrix(f"rowdrop:{base}:complement:finite:{{1,2}}"), FIN)
        assert (v.r2.holds, v.r2.detail) == ("yes", "columns are 0 off the kept rows, in the ideal")
        assert v.r2.data == {"kept_rows": "complement:complement:finite:{1,2}", "verdict": "in"}

    def test_a_drop_outside_the_ideal_certifies_that_rows_miss_1(self):
        # The random base states no row-sum exception, but the dropped rows
        # sum to 0 and escape fin, so r3 fails on them; a drop inside the
        # ideal leaves the sampled evidence as it was.
        v = regularity_verdict(parse_matrix("rowdrop:gen:rand_rowfinite_3:complement:finite:{1,2}"),
                               FIN, n_rows=256)
        assert (v.overall, v.r3.holds) == ("not_regular", "no")
        assert v.r3.detail == "dropped rows sum to 0 and escape the ideal"
        assert v.witness == {"condition": "r3", "dropped_rows": "complement:finite:{1,2}",
                             "verdict": "not_in", "witness_rows": [3, 4, 5, 6, 7]}
        kept = regularity_verdict(parse_matrix("rowdrop:gen:rand_rowfinite_3:finite:{1,2}"),
                                  FIN, n_rows=256)
        assert (kept.overall, kept.r3.holds) == ("undecided", "undecided")

    def test_a_sampled_matrix_can_show_both_trends_at_scale(self):
        # Running averages as a generator: r2 and r3 are evidence only.
        v = regularity_verdict(GeneratorMatrix("avg", lambda n, k: F(1, n)), FIN, n_rows=256)
        assert v.overall == "undecided"
        assert (v.r2.holds, v.r2.detail) == ("at_scale", "columns vanish at scale 256")
        assert (v.r3.holds, v.r3.detail) == ("at_scale", "row sums near 1 at scale 64")

    def test_an_undecided_row_sum_exception_leaves_r3_undecided(self):
        m = parse_matrix("rowdrop:cesaro:builtin:dyadic_blocks("
                         "intersect:builtin:squares|shift:builtin:powers2,1)")
        v = regularity_verdict(m, Z)
        assert (v.overall, v.r3.holds, v.r3.data["verdict"]) == ("undecided", "undecided",
                                                                 "undecided")

    def test_random_rowfinite_is_undecided_not_misjudged(self):
        v = regularity_verdict(random_rowfinite_matrix(3), FIN, n_rows=128)
        assert v.overall == "undecided"

    def test_random_rowfinite_at_the_default_scale_is_bounded(self):
        m = random_rowfinite_matrix(3)
        started = time.perf_counter()
        v = regularity_verdict(m, FIN)
        assert time.perf_counter() - started < 2
        assert v.overall == "undecided"
        head = max(sum(abs(m.entry(n, k)) for k in range(1, n + 1)) for n in range(1, 65))
        assert v.r1.holds == "at_scale" and F(v.r1.data["bound"]) >= head
        assert v.r1.data["bound"] == "4370789/360"  # what `regularity` prints at this scale
        # r3 can only be evidence here, so it reads the 64 head rows r1 samples.
        assert v.r3.holds == "undecided" and not v.r3.certified
        assert v.r3.data["rows"] == 64

    @pytest.mark.parametrize("spec", ["gen:rand_rowfinite_3", "rowdrop:gen:rand_rowfinite_3:ap:2,3"])
    def test_r1_samples_over_the_entry_budget_are_refused_unread(self, spec):
        # Rows 1..64 and 2^7..2^19 hold 2080 + 1048448 entries, over 2^20.
        m = parse_matrix(spec)
        base = getattr(m, "base", m)
        with pytest.raises(AuditBudgetError, match="up to 524288 entry count 1050528"):
            regularity_verdict(m, FIN, n_rows=10**20)
        assert base._stored == 0


class TestMatrixIdealValidation:
    def test_averaging_matrix_is_accepted(self):
        validate_matrix_ideal(CesaroMatrix())

    def test_uncertified_matrices_are_rejected(self):
        with pytest.raises(ValueError):
            validate_matrix_ideal(parse_matrix("gen:geometric"))

    def test_signed_matrices_are_rejected(self):
        with pytest.raises(ValueError):
            validate_matrix_ideal(parse_matrix("explicit:-1,2"))

    def test_a_matrix_without_a_decided_null_ideal_is_rejected(self):
        # Every accepted kind states its null ideal, which the closed form asks.
        class Opaque(CesaroMatrix):
            def null_ideal(self):
                return None

        assert validate_matrix_ideal(CesaroMatrix()).name == "z"
        with pytest.raises(ValueError, match="decided null ideal"):
            validate_matrix_ideal(Opaque())
