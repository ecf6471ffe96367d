"""Cross-module invariants checked with hypothesis.

These are soundness properties that must survive arbitrary inputs: verdicts
for related sets may disagree on decidedness but never contradict one
another; serialized artifacts round-trip; decision procedures satisfy the
postconditions they advertise, recounted here from the raw data.
"""

import random
from fractions import Fraction
from itertools import accumulate, compress, islice
from operator import sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subsum import (
    CesaroMatrix,
    Consecutive,
    ConstructionError,
    ExplicitMatrix,
    GameTranscript,
    IdentityMatrix,
    IntervalPartition,
    OscillationCertificate,
    RowDropMatrix,
    Selector,
    ideal_limit,
    metric,
    oscillation_pair,
    parse_ideal,
    parse_matrix,
    parse_rle,
    parse_selector,
    parse_sequence,
    parse_set,
    parse_strategy,
    play_game,
    quantile_candidates,
    random_rowfinite_matrix,
    render_rle,
    replay_matches,
    restricted_blocks,
    sample_selector,
    sequence_from_rle,
    sequence_from_values,
    transform_prefix,
)
from subsum import setlang
from subsum.constructions import PAIR_PICKS, _threshold_counts
from subsum.games import nu2_tower_move
from subsum.ideals import IDEALS, _bd_small, _finxfin_small
from subsum.sigma import RuleTail
from subsum.setlang import (
    AP,
    Complement,
    DyadicBlocks,
    Finite,
    Intersection,
    Nu2Ge,
    Powers2,
    Shift,
    Squares,
    Tri,
    Union,
    is_finite,
    member,
    nu2,
)
from subsum.summability import _NAMED_SEQUENCES, DomainRiskError, _dot_pair, domain_check

F = Fraction
FIN = IDEALS["fin"]
Z = IDEALS["z"]
BD = IDEALS["bd"]
FXF = IDEALS["finxfin"]


def _base_sets():
    return st.one_of(
        st.builds(Finite, st.lists(st.integers(1, 60), max_size=5).map(tuple)),
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
        max_leaves=3,
    )


# ---------------------------------------------------------- verdict soundness


@settings(max_examples=120, deadline=None)
@given(s=_set_descriptions())
def test_ideal_hierarchy_never_contradicts_itself(s):
    fin_v = FIN.verdict(s, 2048).status
    z_v = Z.verdict(s, 2048).status
    bd_v = BD.verdict(s, 2048).status
    fxf_v = FXF.verdict(s, 2048).status
    if fin_v == "in":  # finite sets are null for every ideal here
        assert z_v == "in" and bd_v == "in" and fxf_v == "in"
    if bd_v == "in":  # window-density zero forces plain density zero
        assert z_v != "not_in"
    if z_v == "not_in":
        assert bd_v != "in" and fin_v != "in"
    if fxf_v == "not_in":
        assert fin_v != "in"


@settings(max_examples=100, deadline=None)
@given(a=_set_descriptions(), b=_set_descriptions())
def test_union_and_intersection_verdicts_never_contradict(a, b):
    for ideal in IDEALS.values():
        va = ideal.verdict(a, 1024).status
        vb = ideal.verdict(b, 1024).status
        vu = ideal.verdict(Union(a, b), 1024).status
        vi = ideal.verdict(Intersection(a, b), 1024).status
        if va == "in" and vb == "in":
            assert vu != "not_in"  # a union of null sets is never escaping
        if "not_in" in (va, vb):
            assert vu != "in"  # the union contains the escaping side
        if "in" in (va, vb):
            assert vi != "not_in"  # a subset of a null set never escapes


# Every ideal row, matrix rows included, states a Talagrand partition.
PARTITIONED = (*IDEALS.values(), *map(parse_ideal, (
    "matrix:cesaro", "matrix:identity", "matrix:rowdrop:cesaro:finite:{2,9}",
)))


@settings(max_examples=80, deadline=None)
@given(s=_set_descriptions(), t=_set_descriptions(), o=st.integers(-40, 40))
def test_every_partition_is_a_talagrand_witness(s, t, o):
    # The union of the blocks indexed by an infinite S escapes the ideal: it
    # is S itself for the singletons and DyadicBlocks(S) for the dyadic blocks.
    # So does any superset of it, and the same blocks shifted.
    assume(is_finite(s) is Tri.NO)
    for ideal in PARTITIONED:
        blocks = s if ideal.talagrand_partition().kind == "singletons" else DyadicBlocks(s)
        for escaping in (blocks, Union(blocks, t), Shift(blocks, o)):
            assert ideal.decide(escaping).status == "not_in", (ideal, escaping)


@pytest.mark.parametrize("ideal", PARTITIONED, ids=lambda ideal: ideal.name)
def test_each_dyadic_block_holds_a_whole_partition_block(ideal):
    # The premise of the ladder's dyadic-block rung: an infinite union of
    # dyadic blocks holds infinitely many whole blocks of every row's partition.
    partition = ideal.talagrand_partition()
    for q in range(1, 21):
        i = partition.block_index(1 << q)
        if partition.boundary(i) < 1 << q:
            i += 1
        assert partition.block(i)[-1] < 2 << q


@settings(max_examples=80, deadline=None)
@given(domain=_set_descriptions(), kind=st.sampled_from(["singletons", "dyadic"]))
def test_restricted_blocks_match_a_naive_trace(domain, kind):
    # The walk's blocks that end by ``limit`` are the ambient blocks up to
    # ``limit`` filtered by ``member``, empty ones dropped.  One more item
    # is drawn to see that the walk lists no further block by ``limit``.
    partition, limit = IntervalPartition(kind), 256
    naive = []
    for q in range(1, partition.block_index(limit + 1)):
        kept = tuple(n for n in partition.block(q) if member(domain, n))
        if kept:
            naive.append(kept)
    walked = []
    try:
        for span, flags in islice(restricted_blocks(partition, domain), len(naive) + 1):
            assert len(flags) == len(span) and 1 in flags
            if span[-1] > limit:
                break
            walked.append(tuple(compress(span, flags)))
    except setlang.EnumerationCapError:
        pass  # no member past the last block within ENUMERATION_CAP
    assert walked == naive


# ------------------------------------------------------ eventually periodic forms


def _periodic_sets():
    base = st.one_of(
        st.builds(Finite, st.lists(st.integers(1, 60), max_size=5).map(tuple)),
        st.builds(AP, st.integers(1, 30), st.integers(1, 12)),
        st.builds(Nu2Ge, st.integers(0, 4)),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Complement, inner),
            st.builds(Union, inner, inner),
            st.builds(Intersection, inner, inner),
            st.builds(Shift, inner, st.integers(-40, 40)),
        ),
        max_leaves=4,
    )


def _periodic_from(s) -> int:
    """A point past every finite member, first term and offset of s."""
    if isinstance(s, Finite):
        return max(s.members, default=0) + 1
    if isinstance(s, (AP, Nu2Ge)):
        return s.first
    if isinstance(s, Shift):
        return _periodic_from(s.inner) + abs(s.offset) + 1
    if isinstance(s, Complement):
        return _periodic_from(s.inner)
    return max(_periodic_from(s.left), _periodic_from(s.right))


@settings(max_examples=150, deadline=None)
@given(s=_periodic_sets())
def test_periodic_form_matches_a_scan_and_decides_every_kind(s):
    p, mask, atoms, _ = s._form
    assert not atoms
    start = _periodic_from(s)
    flags = setlang._scan(s, start, start + 2 * p - 1)
    assert all(flag == mask >> (start + i) % p & 1 for i, flag in enumerate(flags))
    # The reference: fin, z and bd hold exactly when no residue is met; with
    # p = 2**a * m (m odd), a met residue r = 0 mod 2**a meets every nu2
    # fiber from a on infinitely often, and the others stay below fiber a.
    met = {(start + i) % p for i, flag in enumerate(flags[:p]) if flag}
    low = 1 << nu2(p)
    expected = [not met] * 3 + [all(r % low for r in met)]
    got = [ideal.decide(s).status for ideal in IDEALS.values()]
    assert got == ["in" if small else "not_in" for small in expected]


# ----------------------------------------------------------- artifact formats


@settings(max_examples=100, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=80))
def test_rle_expansion_restores_the_bits(bits):
    seq = sequence_from_rle(parse_rle(render_rle((b, 1) for b in bits)))
    assert [seq.value(n) for n in range(1, len(bits) + 1)] == [F(b) for b in bits]


@settings(max_examples=80, deadline=None)
@given(
    lower=st.fractions(min_value=0, max_value=1),
    gap=st.fractions(min_value="1/64", max_value=1),
    scales=st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True),
    data=st.data(),
)
def test_certificates_round_trip_through_json(lower, gap, scales, data):
    scales = tuple(sorted(scales))
    counts = st.lists(
        st.integers(0, 10**6), min_size=len(scales), max_size=len(scales)
    )
    cert = OscillationCertificate(
        x_spec="alt",
        matrix_spec="cesaro",
        lower=lower,
        upper=lower + gap,
        scales=scales,
        lower_counts=tuple(data.draw(counts)),
        upper_counts=tuple(data.draw(counts)),
    )
    assert OscillationCertificate.from_json_dict(cert.to_json_dict()) == cert


def _reference_counts(values, lower, upper, scales):
    """The certificate counts as first written: one Fraction slice per scale."""
    return (
        tuple(sum(1 for v in values[:s] if v <= lower) for s in scales),
        tuple(sum(1 for v in values[:s] if v >= upper) for s in scales),
    )


_stream_value = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12))


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(_stream_value, max_size=40),
    lower=st.fractions(-4, 4, max_denominator=8),
    gap=st.fractions("1/16", 4, max_denominator=16),
    scales=st.lists(st.integers(1, 50), min_size=1, max_size=5),
    spread=st.integers(1, 4),
)
def test_certificate_counts_match_fraction_comparisons(values, lower, gap, scales, spread):
    # Unsorted, repeated and past-the-end scales; ints and Fractions alike,
    # counted from (numerator, denominator) pairs that need not be reduced.
    upper = lower + gap
    want = _reference_counts(values, lower, upper, scales)
    pairs = [(v.numerator * spread, v.denominator * spread) for v in values]
    assert _threshold_counts(pairs, lower, upper, tuple(scales)) == want
    ordered = tuple(sorted(set(scales)))
    exact = [v.as_integer_ratio() for v in values]
    cert = OscillationCertificate(
        "x", "m", lower, upper, ordered, *_threshold_counts(exact, lower, upper, ordered)
    )
    lower_counts, upper_counts = _reference_counts(values, lower, upper, ordered)
    assert (cert.lower_counts, cert.upper_counts) == (lower_counts, upper_counts)
    if tuple(scales) != ordered:
        with pytest.raises(ConstructionError):
            OscillationCertificate("x", "m", lower, upper, tuple(scales),
                                   *_threshold_counts(exact, lower, upper, tuple(scales)))


# ------------------------------------------------------ decision postconditions


_limit_stream = st.one_of(
    st.lists(st.integers(0, 1), min_size=64, max_size=256).map(lambda bits: [F(b) for b in bits]),
    st.lists(st.integers(-16, 16).map(lambda k: F(k, 8)), min_size=16, max_size=96),
    # a level plus perturbations that shrink like 1/k: exceptions in the head only
    st.tuples(
        st.integers(-16, 16).map(lambda k: F(k, 8)),
        st.lists(st.integers(-32, 32).map(lambda k: F(k, 8)), min_size=16, max_size=96),
    ).map(lambda t: [t[0] + d / k for k, d in enumerate(t[1], 1)]),
)


@settings(max_examples=60, deadline=None)
@given(values=_limit_stream)
def test_ideal_limit_postconditions_recounted(values):
    n, half = len(values), len(values) // 2
    for ideal in (FIN, Z, BD):
        verdict = ideal_limit(values, ideal)
        if verdict.status == "limit":
            flags = [abs(v - verdict.eta) > verdict.eps for v in values]
            checkpoints = sorted({n // 8, n // 4, half, n})
            assert verdict.evidence["exception_counts"] == [
                (c, sum(flags[:c])) for c in checkpoints
            ]
            if ideal is FIN:
                assert not any(flags[half:])
            if ideal is Z:
                assert 8 * sum(flags) <= n  # the density rule it claims to have checked
        elif verdict.status == "no_limit":
            low_hits = [v <= verdict.lower for v in values]
            up_hits = [v >= verdict.upper for v in values]
            assert verdict.lower < verdict.upper
            assert verdict.delta_lower == F(sum(low_hits), n) >= F(1, 8)
            assert verdict.delta_upper == F(sum(up_hits), n) >= F(1, 8)
            assert 16 * sum(low_hits[:half]) >= half
            assert 16 * sum(up_hits[:half]) >= half


def _limit_search_oracle(values, ideal):
    """The limit search level by level: each candidate's flags at each
    epsilon by Fraction tests |v - eta| > eps, each hit count by a recount."""
    n, half = len(values), len(values) // 2
    ordered = sorted(values)
    candidates = sorted({
        c for r in {0, n // 4, half, (3 * n) // 4, n - 1}
        for c in (ordered[r], F(round(ordered[r] * 64), 64))
    })
    best, attempts = None, {}
    for eta in candidates:
        chain = None
        for eps in (F(1, 2**j) for j in range(1, 7)):
            flags = [int(abs(v - eta) > eps) for v in values]
            if not ideal.limit_rule(flags, n):
                break
            chain = (eps, flags)
        attempts[str(eta)] = str(chain[0]) if chain else "none"
        if chain and (best is None or (chain[0], eta.denominator, eta) < best[0]):
            best = ((chain[0], eta.denominator, eta), eta, *chain)
    if best:
        _, eta, eps, flags = best
        counts = [(c, sum(flags[:c])) for c in sorted({n // 8, n // 4, half, n})]
        evidence = {"exception_counts": counts, "attempts": attempts}
        return ("limit", eta, eps, None, None, None, None, evidence)
    pick = None
    for i, lower in enumerate(candidates):
        for upper in candidates[i + 1:]:
            low_hits = [v <= lower for v in values]
            up_hits = [v >= upper for v in values]
            low, up = sum(low_hits), sum(up_hits)
            if 8 * min(low, up) < n or 16 * min(sum(low_hits[:half]), sum(up_hits[:half])) < half:
                continue
            score = (upper - lower, min(F(low, n), F(up, n)), -lower.denominator, -upper.denominator)
            if pick is None or score > pick[0]:
                pick = (score, lower, upper, F(low, n), F(up, n))
    if pick:
        return ("no_limit", None, None, *pick[1:], {"attempts": attempts})
    return ("undecided", None, None, None, None, None, None, {"attempts": attempts})


_threshold_level = st.one_of(
    st.integers(-96, 96).map(lambda k: F(k, 64)), st.fractions(-2, 2, max_denominator=12)
)
_oracle_stream = st.one_of(
    # a level and values exactly on its thresholds eta +- 2^j/64
    st.tuples(
        _threshold_level,
        st.lists(st.tuples(st.sampled_from((-1, 0, 0, 1)), st.integers(0, 5)), min_size=16, max_size=96),
    ).map(lambda t: [t[0] + F(s * 2**j, 64) for s, j in t[1]]),
    # running averages of signed integers: denominators up to 128
    st.lists(st.integers(-3, 3), min_size=16, max_size=128).map(
        lambda xs: [F(s, k) for k, s in enumerate(accumulate(xs), 1)]
    ),
    st.lists(st.fractions(-2, 2, max_denominator=100), min_size=16, max_size=64),
    # constant streams, and 0/1 streams whose order statistics tie
    st.tuples(st.fractions(-2, 2, max_denominator=100), st.integers(16, 96)).map(lambda t: [t[0]] * t[1]),
    st.lists(st.sampled_from((F(0), F(1))), min_size=16, max_size=96),
)


@settings(max_examples=50, deadline=None)
@given(values=_oracle_stream)
@example(values=[F(0)] * 16 + [F(1)] * 16)
@example(values=[F(1)] * 40)
def test_ideal_limit_matches_the_level_by_level_search(values):
    for ideal in (FIN, Z, BD, FXF):
        verdict = ideal_limit(values, ideal)
        assert (
            verdict.status, verdict.eta, verdict.eps, verdict.lower, verdict.upper,
            verdict.delta_lower, verdict.delta_upper, verdict.evidence,
        ) == _limit_search_oracle(values, ideal)


def _bd_small_oracle(flags, n):
    """The bd smallness rule as first written: every late window's count
    off one prefix-sum list over all n flags."""
    window = max(8, n // 8)
    prefix = [0, *accumulate(flags)]
    late = n // 2
    worst = max(map(sub, prefix[late + window:n + 1], prefix[late:n - window + 1]), default=0)
    return 8 * worst <= window


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4096),
    percent=st.integers(0, 100),
    spikes=st.tuples(st.floats(0, 1), st.integers(0, 1024), st.integers(1, 64)),
    seed=st.integers(0, 2**32),
)
@example(n=4096, percent=0, spikes=(0.0, 0, 1), seed=0)  # all zero
@example(n=4096, percent=100, spikes=(0.0, 0, 1), seed=0)  # all one
@example(n=1, percent=100, spikes=(0.0, 0, 1), seed=0)
@example(n=4096, percent=0, spikes=(0.75, 65, 1), seed=0)  # one window just too full
@example(n=64, percent=0, spikes=(0.5, 2, 7), seed=0)  # only the first late window holds both
def test_bd_smallness_reads_window_counts_off_the_flags(n, percent, spikes, seed):
    # Flags at a random density, plus evenly spaced ones that may fill one window.
    rng = random.Random(seed)
    flags = bytearray(rng.randrange(100) < percent for _ in range(n))
    start, count, step = spikes
    for i in range(int(start * n), n, step)[:count]:
        flags[i] = 1
    flags = bytes(flags)
    assert _bd_small(flags, n) == _bd_small_oracle(flags, n)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4096),
    permille=st.integers(0, 1000),
    fiber=st.integers(0, 12),
    seed=st.integers(0, 2**32),
)
@example(n=1, permille=1000, fiber=0, seed=0)
@example(n=4096, permille=0, fiber=6, seed=0)  # 4**6 == n: fiber 6 may hold late flags
@example(n=4095, permille=0, fiber=6, seed=0)  # 4**6 > n: it may not
def test_finxfin_smallness_reads_late_flags_by_nu2_fiber(n, permille, fiber, seed):
    # Flags at a random density, or, at permille 0, on every index of one fiber.
    rng = random.Random(seed)
    flags = bytes(rng.randrange(1000) < permille if permille else nu2(i) == fiber
                  for i in range(1, n + 1))
    oracle = not any(f and i > n // 2 and 4 ** nu2(i) > n for i, f in enumerate(flags, 1))
    assert _finxfin_small(flags, n) == _finxfin_small(list(flags), n) == oracle


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(
        st.fractions(min_value=-4, max_value=4), min_size=1, max_size=40
    )
)
def test_quantile_candidates_are_snapped_order_statistics(values):
    candidates = quantile_candidates(values)
    assert candidates == sorted(set(candidates))
    assert min(values) in candidates
    assert max(values) in candidates
    for c in candidates:
        assert c in values or c.denominator <= 64


# ------------------------------------------------------------ exact transforms


# st.builds(F, ...) draws far faster than st.fractions and covers every
# p/q in [-20, 20] with q <= 30.
_exact = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.integers(-20, 20),
    st.builds(F, st.integers(-600, 600), st.integers(1, 30)),
)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_exact, _exact), max_size=12))
@example(pairs=[])
def test_exact_dot_matches_fraction_sums(pairs):
    num, den = _dot_pair((a for a, _ in pairs), (F(v).as_integer_ratio() for _, v in pairs))
    assert type(num) is int and type(den) is int and den > 0
    assert F(num, den) == sum((F(a) * v for a, v in pairs), F(0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 40), n=st.integers(1, 12))
def test_random_matrices_transform_by_direct_summation(seed, n):
    matrix = random_rowfinite_matrix(seed)
    x = sequence_from_values(tuple(F(k, 3) for k in range(1, 14)), "thirds")
    point = transform_prefix(matrix, x, n)[-1]
    direct = sum(
        (matrix.entry(n, k) * x.value(k) for k in range(1, n + 1)), F(0)
    )
    assert point.value == direct
    assert point.tail_bound == 0
    assert matrix.entry(n, n) != 0
    assert matrix.entry(n, n + 1) == 0


def _rowfinite_matrices():
    small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    base = st.one_of(
        st.just(CesaroMatrix()),
        st.just(IdentityMatrix()),
        st.lists(st.lists(small, max_size=12), min_size=1, max_size=6).map(ExplicitMatrix),
        st.integers(0, 40).map(random_rowfinite_matrix),
    )
    drops = st.one_of(
        st.lists(st.integers(1, 12), max_size=6).map(lambda v: Finite(tuple(v))),
        st.builds(AP, st.integers(1, 6), st.integers(1, 4)),
    )
    return st.one_of(base, st.builds(RowDropMatrix, base, drops))


@settings(max_examples=60, deadline=None)
@given(matrix=_rowfinite_matrices(), n=st.integers(1, 10), data=st.data())
def test_transform_kernels_match_direct_summation(matrix, n, data):
    width = max(matrix.row_support(r) for r in range(1, n + 1))
    value = st.one_of(st.integers(-5, 5), st.builds(F, st.integers(-40, 40), st.integers(1, 8)))
    xs = data.draw(st.lists(value, min_size=width, max_size=width))
    x = sequence_from_values(tuple(xs), "drawn")
    got = [point.value for point in transform_prefix(matrix, x, n)]
    direct = [
        sum((matrix.entry(r, k) * xs[k - 1] for k in range(1, width + 1)), F(0))
        for r in range(1, n + 1)
    ]
    assert got == direct
    assert all(type(v) is F for v in got)
    pairs = [pair for pair, _ in matrix._transform(x, range(1, n + 1))]
    assert [F(p, q) for p, q in pairs] == got
    assert all(type(p) is int and type(q) is int and q > 0 for p, q in pairs)


# Cesaro and row drops over it: finite, periodic and sparse drop sets, and
# one (squares or powers of 2) whose count has no closed form; the identity
# and row drops over it, one plain and one nested.
_RUN_FORM_MATRICES = [CesaroMatrix()] + [
    RowDropMatrix(CesaroMatrix(), parse_set(text))
    for text in ("finite:{1,2,5,9,10,40}", "ap:1,3", "builtin:squares",
                 "union:builtin:squares|builtin:powers2")
] + [
    RowDropMatrix(RowDropMatrix(CesaroMatrix(), parse_set("ap:1,2")), parse_set("builtin:squares")),
    RowDropMatrix(IdentityMatrix(), parse_set("finite:{1,2,5,9,10,40}")),
    RowDropMatrix(RowDropMatrix(IdentityMatrix(), parse_set("ap:1,3")), parse_set("builtin:squares")),
    IdentityMatrix(),
]


@settings(max_examples=80, deadline=None)
@given(
    matrix=st.sampled_from(_RUN_FORM_MATRICES),
    runs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 40)), min_size=1, max_size=10),
    lower=st.one_of(
        st.just(Fraction(0)),
        st.fractions(-2, 2, max_denominator=12),
        st.fractions(-2, 2, max_denominator=10**6),
    ),
    gap=st.fractions(0, 3, max_denominator=12),
    data=st.data(),
)
def test_run_form_counts_match_the_streamed_rows(matrix, runs, lower, gap, data):
    # Zero-length runs, adjacent equal bits, levels below 0 and above 1, and
    # scales on run edges and inside runs.
    n = sum(length for _, length in runs)
    assume(n >= 1)
    edges = [e for e in accumulate(length for _, length in runs) if e]
    scale = st.one_of(st.sampled_from(edges), st.integers(1, n))
    scales = tuple(data.draw(st.lists(scale, min_size=1, max_size=4)))
    upper = lower + gap
    base, _ = matrix._innermost()
    assert base._hit_spans(runs, lower, upper) is not None
    pairs = (pair for pair, _ in matrix._transform(sequence_from_rle(runs), range(1, n + 1)))
    want = _threshold_counts(pairs, lower, upper, scales)
    assert matrix._threshold_runs(runs, lower, upper, scales) == want


@pytest.mark.parametrize("runs, lower, upper", [
    ([(1, 3), (0, 10)], Fraction(2, 7), Fraction(1)),  # 3/n <= 2/7 from n = 11
    ([(0, 3), (1, 10)], Fraction(-1), Fraction(3, 7)),  # (n-3)/n >= 3/7 from n = 6
])
@pytest.mark.parametrize("matrix", _RUN_FORM_MATRICES[:2] + _RUN_FORM_MATRICES[-1:])
def test_run_form_levels_cross_inside_a_run(matrix, runs, lower, upper):
    pairs = (pair for pair, _ in matrix._transform(sequence_from_rle(runs), range(1, 14)))
    want = _threshold_counts(pairs, lower, upper, (6, 10, 13))
    assert matrix._threshold_runs(runs, lower, upper, (6, 10, 13)) == want


def _matrices():
    small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    kinds = st.one_of(
        st.just(CesaroMatrix()),
        st.just(IdentityMatrix()),
        st.lists(st.lists(small, max_size=4), max_size=3).map(ExplicitMatrix),
        st.just(parse_matrix("gen:geometric")),
        st.integers(0, 40).map(random_rowfinite_matrix),
    )
    return st.recursive(
        kinds, lambda inner: st.builds(RowDropMatrix, inner, _set_descriptions()), max_leaves=3
    )


@settings(max_examples=100, deadline=None)
@given(matrix=_matrices())
@example(matrix=ExplicitMatrix([[]]))
def test_matrix_specs_round_trip(matrix):
    # Row drops nest bases and sets that both contain ':'.
    assert parse_matrix(matrix.spec_string()) == matrix


@settings(max_examples=60, deadline=None)
@given(
    matrix=_matrices(),
    x=st.sampled_from(sorted(_NAMED_SEQUENCES)),
    rows=st.lists(st.integers(1, 40), max_size=12, unique=True).map(sorted),
    extra=st.integers(0, 3),
)
@example(
    matrix=parse_matrix("rowdrop:rowdrop:gen:rand_rowfinite_3:ap:1,3:finite:{2,5}"),
    x="nalt", rows=[], extra=6,
)
@example(
    matrix=parse_matrix("rowdrop:rowdrop:explicit:1;0,1/2;1/3,1/3,1/3:finite:{1}:ap:3,5"),
    x="n", rows=[2], extra=0,
)
@example(
    matrix=parse_matrix("rowdrop:rowdrop:gen:geometric:ap:2,2:builtin:squares"),
    x="alt", rows=[1, 3, 4, 9, 11], extra=2,
)
def test_transforms_at_chosen_rows_read_like_the_full_prefix(matrix, x, rows, extra):
    # Empty and single-row requests too; every kind yields the rows asked for.
    x, tol, n = parse_sequence(x), F(1, 10**6), max(rows, default=0) + extra
    assume(n >= 1)
    try:
        full = list(matrix._transform(x, range(1, n + 1), tol))
    except DomainRiskError:  # no tail machinery for this pair
        assume(False)
    assert list(matrix._transform(x, rows, tol)) == [full[r - 1] for r in rows]


@settings(max_examples=60, deadline=None)
@given(
    matrix=_matrices(),
    x=st.one_of(
        st.sampled_from(["n", "nalt", "alt"]),
        st.fractions(min_value=-9, max_value=9, max_denominator=12).map(lambda v: f"const:{v}"),
    ),
    n=st.integers(1, 128),
    tol=st.sampled_from([F(1, 3), F(1, 10**6), F(1, 1 << 32), F(1, 1 << 40)]),
)
@example(matrix=CesaroMatrix(), x="nalt", n=128, tol=F(1, 3))
@example(matrix=parse_matrix("gen:geometric"), x="const:1", n=3, tol=F(1, 1 << 32))
@example(matrix=parse_matrix("rowdrop:identity:ap:2,2"), x="n", n=127, tol=F(1, 3))
@example(matrix=parse_matrix("gen:geometric"), x="n", n=5, tol=F(1, 1 << 40))
@example(matrix=parse_matrix("rowdrop:gen:geometric:ap:1,2"), x="const:-2/3", n=4, tol=F(1, 3))
def test_a_converged_domain_row_reads_like_the_transform(matrix, x, n, tol):
    # One path sums every row: the domain check's converged row is the
    # transform's row n, value and tail bound alike.
    x = parse_sequence(x)
    check = domain_check(matrix, x, n, tol)
    assert check.status == "converged" or not matrix.row_finite
    if check.status == "converged":
        point = transform_prefix(matrix, x, n, tol)[-1]
        assert (check.value, check.tail_bound) == (point.value, point.tail_bound)


# ------------------------------------------------------ sequences, strategies

_small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_sequence_specs = st.one_of(
    st.sampled_from(sorted(_NAMED_SEQUENCES)),
    _small_fractions.map(lambda v: f"const:{v}"),
    st.lists(_small_fractions, min_size=1, max_size=6).map(
        lambda vs: "list:" + ",".join(map(str, vs))
    ),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 9)), min_size=1, max_size=5).map(
        lambda runs: "rle:" + ",".join(f"{b}x{n}" for b, n in runs)
    ),
)


@settings(max_examples=100, deadline=None)
@given(spec=_sequence_specs)
def test_sequence_names_parse_back_to_the_same_sequence(spec):
    x = parse_sequence(spec)
    again = parse_sequence(x.name)
    assert again == x
    assert [again.pair(n) for n in range(1, 65)] == [x.pair(n) for n in range(1, 65)]


_STRATEGY_MOVES = (parse_set("ap:1,2"), parse_set("complement:builtin:squares"))


@settings(max_examples=60, deadline=None)
@given(
    spec=st.one_of(
        st.sampled_from(("prefix_density", "greedy_min", "prefix_take")),
        st.integers(0, 10**6).map(lambda seed: f"seeded_random:{seed}"),
    ),
    round_index=st.integers(1, 4),
)
def test_strategy_names_parse_back_to_the_same_strategy(spec, round_index):
    strategy = parse_strategy(spec)
    again = parse_strategy(strategy.name)
    assert again.name == strategy.name
    for move in _STRATEGY_MOVES:
        assert again.reply(move, round_index) == strategy.reply(move, round_index)


# ----------------------------------------------------------------- selectors


@settings(max_examples=100, deadline=None)
@given(
    stem=st.lists(st.integers(1, 60), max_size=5, unique=True).map(lambda v: tuple(sorted(v))),
    tail=st.sampled_from(("none", "consec", "rule", "random")),
    gap=st.integers(0, 5),
    rule=st.sampled_from(("even", "odd", "evenshift", "squares")),
    seed=st.integers(0, 10**6),
)
def test_selector_specs_round_trip(stem, tail, gap, rule, seed):
    floor = stem[-1] if stem else 0
    sel = {
        "none": Selector(stem),
        "consec": Selector(stem, Consecutive(floor + 1 + gap)),
        "rule": Selector(stem, parse_selector(rule).tail),
        "random": sample_selector(seed, 0.5, 8 + gap),
    }[tail]
    assert parse_selector(sel.spec_string()) == sel


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_sampled_selectors_are_strictly_increasing(seed):
    sel = sample_selector(seed, 0.5)
    values = sel.values(40)
    assert all(a < b for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None)
@given(seed_a=st.integers(0, 5000), seed_b=st.integers(0, 5000))
def test_metric_is_symmetric_and_reflexive(seed_a, seed_b):
    a = sample_selector(seed_a, 0.5)
    b = sample_selector(seed_b, 0.5)
    assert metric(a, b, 30) == metric(b, a, 30)
    self_distance = metric(a, a, 30)
    assert self_distance.lo == 0
    assert self_distance.hi <= F(1, 1 << 30)


def _outcome(call):
    """A call's value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # every failure is part of the compared outcome
        return type(exc), str(exc)


def _metric_by_columns(s1, s2, resolution):
    # The definition: one image query per column and selector, s1 first.
    lo = F(0)
    for i in range(1, resolution + 1):
        if s1.image_contains(i) != s2.image_contains(i):
            lo += F(1, 1 << i)
    return lo, lo + F(1, 1 << resolution)


def _linear(a, b):
    return RuleTail(f"{a}n{b:+d}", lambda n: a * n + b)  # a = 0 never increases


def _dips_at(m):
    return RuleTail(f"dip{m}", lambda n: 3 * n if n < m else n)


def _fails_at(m):
    return RuleTail(f"fail{m}", lambda n: 2 * n if n < m else 1 // 0)


_rule_tails = st.one_of(
    st.builds(_linear, st.integers(0, 3), st.integers(-6, 6)),
    st.just(RuleTail("squares", lambda n: n * n)),
    st.builds(_dips_at, st.integers(1, 12)),
    st.builds(_fails_at, st.integers(1, 12)),
)


@st.composite
def _any_selectors(draw):
    stem = tuple(sorted(draw(st.lists(st.integers(1, 40), max_size=6, unique=True))))
    floor = stem[-1] if stem else 0
    tail = draw(st.one_of(
        st.none(),
        st.integers(1, 6).map(lambda gap: Consecutive(floor + gap)),
        _rule_tails,
    ))
    return Selector(stem, tail)


@settings(max_examples=200, deadline=None)
@given(s1=_any_selectors(), s2=_any_selectors(), resolution=st.integers(1, 80))
def test_metric_matches_the_per_column_definition(s1, s2, resolution):
    # Partial selectors and rule tails that stop increasing or raise must
    # fail with the same exception, from the selector the column loop meets first.
    got = _outcome(lambda: (lambda mi: (mi.lo, mi.hi))(metric(s1, s2, resolution)))
    assert got == _outcome(lambda: _metric_by_columns(s1, s2, resolution))


# ---------------------------------------------------------- oscillation pairs


def _pair_by_fractions(stem, x, matrix, scan, tol):
    # The construction on Fractions: sorted late values, |x_i - target| <= tol
    # per index, and the decision row summed term by term.
    floor = stem[-1] if stem else 0
    if floor >= scan // 2:
        raise ConstructionError("stem already exhausts the scan range")
    xs = [x.value(i) for i in range(1, scan + 1)]
    late = sorted(xs[scan // 2:])
    low, high = late[len(late) // 4], late[(3 * len(late)) // 4]
    if high - low <= 2 * tol:
        raise ConstructionError("late values show no separation wider than the tolerance")
    near = {t: [i for i in range(floor + 1, scan + 1) if abs(xs[i - 1] - t) <= tol]
            for t in (low, high)}
    want = min(PAIR_PICKS, len(near[low]), len(near[high]))
    if want < 16:
        raise ConstructionError("not enough indices near the target levels")
    row = len(stem) + want
    values = [
        sum((matrix.entry(row, k) * xs[c - 1] for k, c in enumerate(stem + tuple(near[t][:want]), 1)),
            F(0))
        for t in (low, high)
    ]
    if values[1] - values[0] < (high - low) / 2:
        raise ConstructionError("transforms did not separate at the decision row")
    return row, tuple(near[low][:want]), tuple(near[high][:want]), values[0], values[1], low, high


def _pair_fields(stem, x, matrix, scan, tol):
    pair = oscillation_pair(stem, x, matrix, scan, tol)
    picks = [sel.stem[len(stem):] for sel in (pair.lower_selector, pair.upper_selector)]
    return (pair.row, *picks, pair.lower_value, pair.upper_value,
            pair.lower_target, pair.upper_target)


_small_values = st.sampled_from((F(0), F(1), F(-1), F(1, 2), F(1, 3), F(-2, 3), F(5, 7)))


@settings(max_examples=80, deadline=None)
@given(
    x=st.one_of(
        st.sampled_from(("alt", "alt10")).map(parse_sequence),
        st.lists(_small_values, min_size=1, max_size=300).map(
            lambda vals: parse_sequence("list:" + ",".join(map(str, vals)))),
    ),
    stem=st.lists(st.integers(1, 40), max_size=4, unique=True).map(lambda v: tuple(sorted(v))),
    matrix=st.sampled_from((CesaroMatrix(), IdentityMatrix())),
    scan=st.integers(2, 600),
    tol=st.sampled_from((F(0), F(1, 16), F(1, 5), F(1, 3))),
)
def test_oscillation_pairs_match_fraction_arithmetic(x, stem, matrix, scan, tol):
    got = _outcome(lambda: _pair_fields(stem, x, matrix, scan, tol))
    assert got == _outcome(lambda: _pair_by_fractions(stem, x, matrix, scan, tol))


# ---------------------------------------------------------------- games


_DENSE_MOVES = ("ap:1,1", "complement:finite:{1,2,3}", "complement:builtin:squares",
                "complement:builtin:powers2", "complement:ap:2,3")


@settings(max_examples=40, deadline=None)
@given(
    ideal=st.sampled_from(("fin", "z", "bd", "finxfin")).map(parse_ideal),
    strategy=st.one_of(
        st.sampled_from(("prefix_density", "greedy_min", "prefix_take")),
        st.integers(0, 10**6).map(lambda seed: f"seeded_random:{seed}"),
    ),
    data=st.data(),
)
def test_game_transcripts_round_trip_through_jsonl(ideal, strategy, data):
    # Tower moves 2^r | x are too sparse for prefix_density past r = 1.
    tower = (1,) if strategy == "prefix_density" else (1, 2, 3, 4)
    moves = data.draw(st.lists(st.one_of(
        st.sampled_from(_DENSE_MOVES).map(parse_set),
        st.sampled_from(tower).map(nu2_tower_move),
    ), min_size=1, max_size=3))
    moves = [m for m in moves if ideal.dual_member(m).status == "in"]
    assume(moves)
    rounds = data.draw(st.integers(1, 4))
    t = play_game(ideal, moves, parse_strategy(strategy), rounds=rounds)
    again = GameTranscript.from_jsonl(t.to_jsonl())
    assert again == t
    assert [r.witness for r in again.rounds] == [r.witness for r in t.rounds]
    assert again.to_jsonl() == t.to_jsonl()
    # The names and move specs parse back to objects that replay the game.
    assert [setlang.render(parse_set(r.move_spec)) for r in again.rounds] == [
        r.move_spec for r in t.rounds
    ]
    replayed = parse_ideal(again.ideal_name)
    assert (replayed.kind, replayed.name) == (ideal.kind, ideal.name)
    assert replay_matches(replayed, again, parse_strategy(again.strategy_name))
