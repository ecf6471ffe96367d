"""The record contract: which records are frozen, how they are rebuilt, and
how set nodes compare.

Shared or validated values (ideal presentations and their partitions,
sequence specs, row sequences, selectors and their parts, oscillation
certificates) are frozen dataclasses; every per-call result is a plain one,
built fresh for one caller.  ``dataclasses.replace`` rebuilds any of them.
Set nodes are not dataclasses: ``SetDescription`` builds each kind from its
annotated fields and compares, hashes and prints it by them.
"""

import dataclasses
import inspect
from fractions import Fraction

import pytest

from subsum import constructions, games, ideals, setlang, sigma, summability
from subsum.setlang import AP, Complement, Finite, Nu2Ge, Shift, Squares, Union, parse_set

FROZEN = {"IntervalPartition", "IdealPresentation", "SequenceSpec", "RowSeq", "Consecutive",
          "RuleTail", "Selector", "OscillationCertificate"}
PLAIN = {"TransformPoint", "MembershipVerdict", "DensityReport", "DomainCheck",
         "ConditionReport", "RegularityVerdict", "MetricInterval", "FunctionalValue",
         "IdealLimitVerdict", "OscillationPair", "EscapeResult", "BoundaryMean",
         "AdversaryReport", "MeagernessDemo", "GameRound", "GameTranscript", "Adjudication"}
LAYERS = (setlang, ideals, summability, sigma, constructions, games)


def _records():
    return {name: cls for layer in LAYERS for name, cls in vars(layer).items()
            if inspect.isclass(cls) and cls.__module__ == layer.__name__
            and dataclasses.is_dataclass(cls)}


def test_shared_values_are_frozen_and_per_call_results_are_plain():
    records = _records()
    assert records.keys() == FROZEN | PLAIN
    assert {name for name, cls in records.items()
            if cls.__dataclass_params__.frozen} == FROZEN


def test_no_set_node_kind_is_a_dataclass():
    kinds = [cls for cls in vars(setlang).values()
             if inspect.isclass(cls) and issubclass(cls, setlang.SetDescription)]
    assert len(kinds) == 14  # the base, three abstract kinds and ten the parser builds
    assert not any(dataclasses.is_dataclass(cls) for cls in kinds)


def _game():
    ideal = ideals.parse_ideal("finxfin")
    moves = [setlang.Nu2Ge(r) for r in range(1, 4)]
    return games.play_game(ideal, moves, games.parse_strategy("prefix_take"))


def _built():
    """One record of each kind that the benchmark self-test or the CLI tests
    rebuild, with a field to change and a new value for it."""
    point = summability.transform_prefix(summability.parse_matrix("cesaro"),
                                         summability.parse_sequence("alt"), 4)[1]
    verdict = ideals.parse_ideal("z").verdict(parse_set("ap:3,4"))
    report = setlang.density_report(parse_set("builtin:squares"), 64)
    escape = constructions.escape_rowfinite(
        (), summability.parse_matrix("cesaro"), summability.parse_sequence("n"),
        ideals.parse_ideal("z"), 2, p0=4)
    adversary = constructions.steinhaus_adversary(
        summability.parse_matrix("cesaro"), mode="greedy", scale=64)
    transcript = _game()
    return [
        (point, "value", Fraction(7)),
        (verdict, "status", "in"),
        (report, "prefix_counts", ((64, 9),)),
        (escape, "holds", not escape.holds),
        (adversary, "status", "tampered"),
        (adversary.certificate, "upper_counts", (0,) * len(adversary.certificate.scales)),
        (transcript.rounds[0], "reply", (10**6,)),
        (transcript, "rounds", transcript.rounds[:1]),
    ]


@pytest.mark.parametrize("index", range(8))
def test_replace_rebuilds_a_record_equal_but_for_the_changed_field(index):
    record, name, value = _built()[index]
    rebuilt = dataclasses.replace(record, **{name: value})
    assert type(rebuilt) is type(record) and rebuilt is not record
    for field in dataclasses.fields(record):
        expected = value if field.name == name else getattr(record, field.name)
        assert getattr(rebuilt, field.name) == expected, field.name
    assert rebuilt != record
    assert dataclasses.replace(record) == record


SPECS = ["finite:{3,1}", "ap:2,5", "builtin:nu2_ge(3)", "builtin:squares",
         "builtin:dyadic_blocks(builtin:powers2)", "complement:ap:1,2",
         "union:finite:{1}|shift:builtin:squares,-2", "intersect:ap:1,2|ap:1,3"]


@pytest.mark.parametrize("spec", SPECS)
def test_two_parses_of_one_spec_are_equal_and_hash_alike(spec):
    a, b = parse_set(spec), parse_set(spec)
    assert a is not b and a == b and hash(a) == hash(b)
    assert parse_set(setlang.render(a)) == a


def test_nodes_that_differ_in_one_field_are_not_equal():
    assert AP(1, 2) != AP(1, 3) and AP(1, 2) != AP(2, 2)
    assert Shift(Squares(), 1) != Shift(Squares(), 2)
    assert Union(AP(1, 2), Squares()) != Union(AP(1, 2), Finite((1,)))
    # Equal fields of two kinds are two sets: the complement is not the set.
    assert Complement(Squares()) != Squares() and Nu2Ge(1) != AP(2, 2)


def test_positional_and_keyword_construction_agree():
    assert AP(3, 4) == AP(first=3, step=4) == AP(3, step=4) == AP(step=4, first=3)
    assert Union(AP(1, 2), Squares()) == Union(right=Squares(), left=AP(1, 2))
    assert Finite(members=(2, 1, 2)).members == (1, 2)
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1, 2), {"step": 2}),
                         ((), {"first": 1, "stride": 2})]:
        with pytest.raises(TypeError):
            AP(*args, **kwargs)
    with pytest.raises(ValueError, match="AP step must be >= 1"):
        AP(first=1, step=0)


def test_assigning_or_deleting_a_field_raises():
    node = parse_set("shift:ap:1,2,3")
    for name in ("inner", "offset", "_form", "anything"):
        with pytest.raises(AttributeError):
            setattr(node, name, 0)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert (node.offset, node.inner) == (3, AP(1, 2))


def test_the_repr_keeps_its_dataclass_form():
    assert repr(AP(1, 2)) == "AP(first=1, step=2)"
    assert repr(Squares()) == "Squares()"
    assert repr(parse_set("union:finite:{2}|complement:builtin:nu2_ge(1)")) == (
        "Union(left=Finite(members=(2,)), right=Complement(inner=Nu2Ge(threshold=1)))")
