"""Acceptance suite: eight primary criteria, one pass/fail line each.

Every quantitative target is checked in exact rational arithmetic; evidence
the library reports is re-derived here from scratch (raw bit streams, direct
summation, independent membership scans) before the criterion is declared
met.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from subsum import (
    CesaroMatrix,
    PrefixDensityStrategy,
    Selector,
    Consecutive,
    DyadicBlocks,
    adjudicate,
    escape_rowfinite,
    escape_unbounded,
    ideal_limit,
    metric,
    modulus_of_continuity,
    nu2_tower_move,
    parse_matrix,
    parse_row,
    parse_sequence,
    parse_set,
    parse_strategy,
    play_game,
    random_rowfinite_matrix,
    regularity_verdict,
    sample_selector,
    selector_transform,
    steinhaus_adversary,
)
from subsum.ideals import IDEALS
from subsum.setlang import AP, member, nu2, prefix_counts

F = Fraction
FIN = IDEALS["fin"]
Z = IDEALS["z"]


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE CRITERION {number}: FAIL — {summary}")
        raise
    print(f"\nACCEPTANCE CRITERION {number}: PASS — {summary}")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_blocks_adversary_against_the_running_average():
    with criterion(1, "blocks adversary: boundary means within 2^(2-2j), "
                      "certificate densities >= 1/10 at N=2^16, under 5 s"):
        started = time.monotonic()
        report = steinhaus_adversary(CesaroMatrix(), mode="blocks")
        assert report.scale == 1 << 16

        # Independent recount: bit n is 1 exactly when the dyadic level of n
        # is even; accumulate running means from scratch.
        ones = 0
        means = []
        for n in range(1, (1 << 16) + 1):
            if (n.bit_length() - 1) % 2 == 0:
                ones += 1
            means.append(F(ones, n))
        for j in range(2, 8):
            up_edge = 1 << (2 * j + 1)
            down_edge = 1 << (2 * j + 2)
            allowance = F(1, 1 << (2 * j - 2))
            assert abs(means[up_edge - 1] - F(2, 3)) <= allowance
            assert abs(means[down_edge - 1] - F(1, 3)) <= allowance

        cert = report.certificate
        assert report.status == "certified"
        assert (cert.lower, cert.upper) == (F(2, 5), F(3, 5))
        assert cert.delta_lower >= F(1, 10)
        assert cert.delta_upper >= F(1, 10)
        assert cert.delta_lower == F(16991, 65536)
        assert cert.delta_upper == F(12149, 65536)
        # the certificate's counts hold against the independent means
        assert cert.audit_values(means)

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 2


def test_criterion_2_regularity_verdicts():
    with criterion(2, "averaging matrix regular under fin and z with exact "
                      "bounds; dropped squares break fin but not z, under 5 s"):
        started = time.monotonic()

        for ideal in (FIN, Z):
            verdict = regularity_verdict(CesaroMatrix(), ideal)
            assert verdict.overall == "regular"
            assert F(verdict.r1.data["bound"]) == 1
            assert verdict.r3.data["exception_set"] == "finite:{}"
        # the row-sum claim, re-derived: every row sums to exactly one
        matrix = CesaroMatrix()
        for n in (1, 2, 3, 7, 32, 100):
            assert sum(matrix.entry(n, k) for k in range(1, n + 1)) == 1

        dropped = parse_matrix("rowdrop:cesaro:builtin:squares")
        bad = regularity_verdict(dropped, FIN)
        assert bad.overall == "not_regular"
        witness_rows = bad.witness["witness_rows"]
        assert witness_rows and all(isqrt(r) ** 2 == r for r in witness_rows)

        good = regularity_verdict(dropped, Z, n_rows=10**4)
        assert good.overall == "regular"

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 3


def test_criterion_3_randomized_escape_postconditions():
    with criterion(3, "100 unbounded-row and 50 row-finite escapes meet their "
                      "exact postconditions with zero tolerance, under 60 s"):
        started = time.monotonic()
        x = parse_sequence("n")
        rng = random.Random("escape-acceptance")

        for i in range(100):
            if i % 3 == 0:
                row = parse_row("geometric")
            else:
                length = rng.randrange(4, 9)
                cells = [
                    F(rng.randrange(-3, 4), rng.randrange(1, 5))
                    for _ in range(length)
                ]
                cells[-1] = F(rng.randrange(1, 4), rng.randrange(1, 5))
                row = parse_row("list:" + ",".join(str(c) for c in cells))
            stem_len = rng.randrange(0, 3)
            stem = tuple(sorted(rng.sample(range(1, 13), stem_len)))
            m0 = F(rng.randrange(0, 10))
            result = escape_unbounded(stem, row, x, m0)
            assert result.holds
            assert abs(result.partial_sum) >= m0 + 1
            assert result.selector.stem[:stem_len] == stem

        for i in range(50):
            matrix = CesaroMatrix() if i % 2 == 0 else random_rowfinite_matrix(i)
            ideal = Z if i % 3 else FIN
            stem_len = rng.randrange(0, 3)
            stem = tuple(sorted(rng.sample(range(1, 11), stem_len)))
            m0 = F(rng.randrange(0, 7))
            p0 = rng.randrange(1, 5)
            result = escape_rowfinite(stem, matrix, x, ideal, m0, p0=p0)
            assert result.holds
            assert result.block_index >= p0
            assert result.block and result.row_values
            assert all(abs(v) >= m0 for _, v in result.row_values)

        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 4


def test_criterion_4_worked_escape_instance():
    with criterion(4, "geometric row, x_n = n, stem (1), bound 5: pivot "
                      "column 2, pick 26, partial sum exactly 7 >= 6"):
        result = escape_unbounded((1,), parse_row("geometric"), parse_sequence("n"), 5)
        assert result.pivot_index == 2
        assert result.pivot_position == 26
        assert result.partial_sum == 7
        assert result.partial_sum >= 6
        assert result.holds


# --------------------------------------------------------------- criterion 5


LEGAL_DENSITY_CORPUS = [
    "complement:builtin:squares",
    "complement:builtin:powers2",
    "complement:shift:builtin:squares,5",
    "complement:union:builtin:squares|builtin:powers2",
    "complement:finite:{1,2,3}",
    "complement:shift:builtin:powers2,3",
    "complement:union:builtin:squares|finite:{7,8}",
    "complement:shift:builtin:squares,1",
    "complement:union:builtin:powers2|finite:{10}",
    "complement:finite:{}",
]


def test_criterion_5_game_dichotomy():
    with criterion(5, "20-round density game: union fills half its witnessed "
                      "scale; 30-round tower game: fiber k frozen after "
                      "round k+1 for k <= 20, for three reply strategies"):
        moves = [parse_set(s) for s in LEGAL_DENSITY_CORPUS]
        assert len(moves) == 10
        transcript = play_game(Z, moves, PrefixDensityStrategy(), rounds=20)
        union = set(transcript.union_reply())
        scale = 0
        for r in transcript.rounds:
            scale = max(scale, r.witness.get("scale", 0), max(r.reply))
        count = sum(1 for v in union if v <= scale)
        assert scale > 0
        assert F(count, scale) >= F(1, 2)
        ruling = adjudicate(transcript, Z)
        assert ruling.favored == "II"

        tower = [nu2_tower_move(r) for r in range(1, 31)]
        for spec in ("greedy_min", "prefix_take", "seeded_random:11"):
            game = play_game(
                IDEALS["finxfin"], tower, parse_strategy(spec), rounds=30
            )
            # independent column audit from the raw transcript
            last_new: dict[int, int] = {}
            seen: set[int] = set()
            for r in game.rounds:
                for v in r.reply:
                    assert v % (1 << r.index) == 0  # obeys the round's demand
                    if v not in seen:
                        seen.add(v)
                        col = nu2(v)
                        last_new[col] = max(last_new.get(col, 0), r.index)
            for col, last in last_new.items():
                if col <= 20:
                    assert last <= col + 1, (spec, col, last)
            ruling = adjudicate(game, IDEALS["finxfin"])
            assert ruling.favored == "I"
            assert ruling.evidence["fibers_frozen_by_index"]


# --------------------------------------------------------------- criterion 6


def test_criterion_6_metric_and_modulus_contracts():
    with criterion(6, "200 metric intervals of width <= 2^(1-40); 200 "
                      "triangle triples on decided mass; modulus contract "
                      "on 100 stem-sharing pairs at eps = 1/4"):
        width_cap = F(1, 1 << 39)
        for i in range(200):
            a = sample_selector(2 * i, 0.5)
            b = sample_selector(2 * i + 1, 0.5)
            interval = metric(a, b, 40)
            assert interval.width <= width_cap
            assert 0 <= interval.lo <= interval.hi <= 1

        for i in range(200):
            a = sample_selector(3 * i, 0.5)
            b = sample_selector(3 * i + 1, 0.5)
            c = sample_selector(3 * i + 2, 0.5)
            d_ac = metric(a, c, 40)
            d_ab = metric(a, b, 40)
            d_bc = metric(b, c, 40)
            assert d_ac.lo <= d_ab.hi + d_bc.hi

        row = parse_row("geometric")
        x = parse_sequence("alt")  # sup |x| = 1
        eps = F(1, 4)
        delta = modulus_of_continuity(x, row, eps)
        assert delta == F(1, 16)
        tol = F(1, 1 << 20)
        for i in range(100):
            rng = random.Random(f"modulus:{i}")
            stem_len = rng.randrange(3, 7)
            stem = tuple(sorted(rng.sample(range(1, 13), stem_len)))
            if stem[-1] < 5:
                stem = stem + (rng.randrange(5, 9),)
            start_a = stem[-1] + 1 + rng.randrange(0, 4)
            start_b = stem[-1] + 1 + rng.randrange(4, 9)
            a = Selector(stem, Consecutive(start_a))
            b = Selector(stem, Consecutive(start_b))
            interval = metric(a, b, 40)
            assert interval.hi < delta  # certified inside the modulus radius
            fa = selector_transform(row, x, a, tol)
            fb = selector_transform(row, x, b, tol)
            slack = fa.tail_bound + fb.tail_bound
            assert abs(fa.value - fb.value) <= eps + slack


# --------------------------------------------------------------- criterion 7


def test_criterion_7_partition_escapes_are_sound():
    with criterion(7, "50 dyadic block unions: prefix density >= 1/2 at every "
                      "selected right edge, and each is certified outside z"):
        partition = Z.talagrand_partition()
        selectors = [
            AP(a, b) for b in range(1, 11) for a in range(1, b + 1)
        ][:50]
        assert len(selectors) == 50
        for sel in selectors:
            escape = DyadicBlocks(sel)
            verdict = Z.verdict(escape)
            assert verdict.status == "not_in"
            for k in range(1, 10):
                if not member(sel, k):
                    continue
                block = partition.block(k)
                edge = block[-1]
                count = prefix_counts(escape, [edge])[0][1]
                assert 2 * count >= edge, (sel, k, count, edge)


# --------------------------------------------------------------- criterion 8


def test_criterion_8_statistical_limit_engine():
    with criterion(8, "squares-perturbed sequence settles at 1 along density; "
                      "alternating bits yield no-limit evidence with both "
                      "densities exactly 1/2"):
        x = parse_sequence("sqperturb")
        perturbed = [x.value(k) for k in range(1, 4097)]
        settled = ideal_limit(perturbed, Z)
        assert settled.status == "limit"
        assert settled.eta == 1

        x = parse_sequence("alt")
        bits = [x.value(k) for k in range(1, 4097)]
        split = ideal_limit(bits, Z)
        assert split.status == "no_limit"
        assert split.lower == 0 and split.upper == 1
        assert split.delta_lower == F(1, 2)
        assert split.delta_upper == F(1, 2)
