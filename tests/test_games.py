"""Tests for set games: legality, strategies, transcripts, adjudication.

Replies and adjudications are frozen from hand-checkable instances and
cross-checked against independent recounts of the same transcripts.
"""

import pytest

from subsum import (
    GameTranscript,
    GreedyMinStrategy,
    IllegalMoveError,
    PrefixDensityStrategy,
    PrefixTakeStrategy,
    ReplyStrategy,
    SeededRandomStrategy,
    StrategySearchError,
    adjudicate,
    nu2_tower_move,
    parse_set,
    parse_strategy,
    play_game,
    play_round,
    replay_matches,
)
from subsum.ideals import IDEALS
from subsum.setlang import member, nu2, render

FIN = IDEALS["fin"]
Z = IDEALS["z"]
FXF = IDEALS["finxfin"]

ALL_N = "complement:finite:{}"
NON_SQUARES = "complement:builtin:squares"


# ------------------------------------------------------------------ legality


class TestLegality:
    def test_cofinite_complements_are_legal_density_moves(self):
        r = play_round(Z, parse_set(NON_SQUARES), GreedyMinStrategy(), 1)
        assert r.reply == (2,)
        assert "legality" in r.witness

    def test_small_sets_are_illegal_density_moves(self):
        # the squares leave out a set of full density
        with pytest.raises(IllegalMoveError):
            play_round(Z, parse_set("builtin:squares"), GreedyMinStrategy(), 1)

    def test_undecided_moves_are_illegal(self):
        move = parse_set("complement:builtin:dyadic_blocks(intersect:builtin:squares|builtin:powers2)")
        with pytest.raises(IllegalMoveError) as err:
            play_round(Z, move, GreedyMinStrategy(), 1)
        assert "undecided" in str(err.value)

    def test_replies_must_stay_inside_the_move(self):
        class Cheat(ReplyStrategy):
            name = "cheat"

            def reply(self, move, round_index):
                return (1,), {}  # 1 is a square

        with pytest.raises(StrategySearchError):
            play_round(Z, parse_set(NON_SQUARES), Cheat(), 1)

    def test_replies_must_be_nonempty(self):
        class Mute(ReplyStrategy):
            name = "mute"

            def reply(self, move, round_index):
                return (), {}

        with pytest.raises(StrategySearchError):
            play_round(Z, parse_set(NON_SQUARES), Mute(), 1)

    def test_tower_moves_are_legal_for_the_fiber_ideal(self):
        r = play_round(FXF, nu2_tower_move(3), GreedyMinStrategy(), 3)
        assert r.reply == (8,)


# ---------------------------------------------------------------- strategies


class TestStrategies:
    def test_prefix_density_takes_the_first_half_full_prefix(self):
        reply, witness = PrefixDensityStrategy().reply(parse_set("ap:1,1"), 3)
        assert reply == (1, 2, 3)
        assert witness == {"scale": 3, "count": 3}

    def test_prefix_density_skips_an_initial_hole(self):
        reply, witness = PrefixDensityStrategy().reply(parse_set(NON_SQUARES), 1)
        assert reply == (2,)
        assert witness == {"scale": 2, "count": 1}

    def test_prefix_density_gives_up_on_sparse_moves(self):
        # multiples of 4 never fill half a prefix
        with pytest.raises(StrategySearchError):
            PrefixDensityStrategy().reply(parse_set("builtin:nu2_ge(2)"), 1)

    def test_greedy_min_takes_the_least_element(self):
        reply, _ = GreedyMinStrategy().reply(parse_set("complement:builtin:powers2"), 5)
        assert reply == (3,)

    def test_prefix_take_grows_with_the_round(self):
        reply, witness = PrefixTakeStrategy().reply(parse_set(NON_SQUARES), 3)
        assert reply == (2, 3, 5)
        assert witness == {"take": 3}

    def test_seeded_random_is_reproducible(self):
        a = SeededRandomStrategy(7).reply(parse_set(NON_SQUARES), 1)
        b = SeededRandomStrategy(7).reply(parse_set(NON_SQUARES), 1)
        assert a == b == ((2, 5), {"pool": 9, "seed": 7})

    def test_seeded_random_varies_with_the_round(self):
        sr = SeededRandomStrategy(7)
        assert sr.reply(parse_set(NON_SQUARES), 2)[0] == (2, 5, 7, 11, 12)

    def test_strategies_refuse_moves_with_too_few_elements(self):
        empty = parse_set("finite:{}")
        with pytest.raises(StrategySearchError, match="no visible element"):
            GreedyMinStrategy().reply(empty, 1)
        with pytest.raises(StrategySearchError, match="ran out of visible elements"):
            PrefixTakeStrategy().reply(parse_set("finite:{2,5}"), 3)
        with pytest.raises(StrategySearchError, match="no visible elements"):
            SeededRandomStrategy(7).reply(empty, 1)

    def test_seeded_random_pools_a_short_move_whole(self):
        reply, witness = SeededRandomStrategy(7).reply(parse_set("finite:{3,7}"), 1)
        assert witness == {"pool": 2, "seed": 7}
        assert reply and set(reply) <= {3, 7}

    def test_member_walks_jump_past_the_enumeration_cap(self):
        # The tower's members are multiples of 2^30; no scan would reach them.
        reply, _ = PrefixTakeStrategy().reply(nu2_tower_move(30), 2)
        assert reply == (1 << 30, 2 << 30)
        _, witness = SeededRandomStrategy(7).reply(nu2_tower_move(30), 1)
        assert witness["pool"] == 9

    def test_parse_strategy_round_trips(self):
        for spec in ("prefix_density", "greedy_min", "prefix_take", "seeded_random:17"):
            assert parse_strategy(spec).name == spec
        assert parse_strategy("seeded_random:17").seed == 17

    def test_parse_strategy_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            parse_strategy("psychic")

    def test_tower_move_is_the_divisibility_demand(self):
        move = nu2_tower_move(3)
        assert render(move) == "builtin:nu2_ge(3)"
        assert member(move, 8) and member(move, 24) and not member(move, 4)


# ---------------------------------------------------------------- transcripts


class TestTranscripts:
    def make(self):
        moves = [parse_set(ALL_N), parse_set(NON_SQUARES)]
        return play_game(Z, moves, PrefixDensityStrategy(), rounds=5)

    def test_moves_cycle_through_the_list(self):
        t = self.make()
        specs = [r.move_spec for r in t.rounds]
        assert specs == [ALL_N, NON_SQUARES, ALL_N, NON_SQUARES, ALL_N]

    def test_jsonl_round_trip(self):
        t = self.make()
        text = t.to_jsonl()
        lines = text.strip().splitlines()
        assert len(lines) == 6  # header + five rounds
        assert '"ideal"' in lines[0] and '"strategy"' in lines[0]
        assert GameTranscript.from_jsonl(text) == t

    def test_empty_transcripts_are_rejected(self):
        with pytest.raises(ValueError):
            GameTranscript.from_jsonl("\n")

    def test_replay_confirms_a_faithful_transcript(self):
        t = self.make()
        assert replay_matches(Z, t, PrefixDensityStrategy())

    def test_replay_catches_a_tampered_reply(self):
        t = self.make()
        rounds = list(t.rounds)
        rounds[2] = type(rounds[2])(
            rounds[2].index, rounds[2].move_spec, (99,), rounds[2].witness
        )
        tampered = GameTranscript(t.ideal_name, t.strategy_name, tuple(rounds))
        assert not replay_matches(Z, tampered, PrefixDensityStrategy())

    def test_union_reply_sorts_and_dedupes(self):
        t = self.make()
        union = t.union_reply()
        assert list(union) == sorted(set(union))

    def test_games_need_at_least_one_move(self):
        with pytest.raises(ValueError):
            play_game(Z, [], GreedyMinStrategy())


# --------------------------------------------------------------- adjudication


class TestAdjudication:
    def test_density_game_favors_the_responder(self):
        t = play_game(Z, [parse_set(ALL_N)], PrefixDensityStrategy(), rounds=5)
        adj = adjudicate(t, Z)
        assert adj.favored == "II"
        assert adj.label == "finite-scale evidence"
        assert adj.evidence == {"scale": 5, "count": 5, "density": "1"}

    def test_sparse_replies_leave_the_density_game_open(self):
        t = play_game(
            Z, [parse_set("complement:builtin:powers2")], GreedyMinStrategy(), rounds=4
        )
        adj = adjudicate(t, Z)
        assert adj.favored == "open"
        assert adj.evidence["density"] == "1/3"

    def test_density_count_matches_an_independent_tally(self):
        t = play_game(Z, [parse_set(NON_SQUARES)], PrefixDensityStrategy(), rounds=6)
        adj = adjudicate(t, Z)
        union = set(t.union_reply())
        scale = adj.evidence["scale"]
        assert adj.evidence["count"] == sum(1 for v in union if v <= scale)

    @pytest.mark.parametrize(
        "spec", ["greedy_min", "prefix_take", "seeded_random:7"]
    )
    def test_tower_games_freeze_every_fiber(self, spec):
        moves = [nu2_tower_move(r) for r in range(1, 7)]
        t = play_game(FXF, moves, parse_strategy(spec), rounds=6)
        adj = adjudicate(t, FXF)
        assert adj.favored == "I"
        assert adj.evidence["fibers_frozen_by_index"]
        # independent recount: every element of round r is divisible by 2^r,
        # so a fiber k can only gain new elements in rounds <= k
        seen = set()
        for r in t.rounds:
            for v in r.reply:
                assert v % (1 << r.index) == 0
                if v not in seen:
                    seen.add(v)
                    assert nu2(v) >= r.index

    def test_tower_fiber_growth_is_frozen_exactly(self):
        moves = [nu2_tower_move(r) for r in range(1, 7)]
        t = play_game(FXF, moves, GreedyMinStrategy(), rounds=6)
        adj = adjudicate(t, FXF)
        assert adj.evidence["fiber_last_growth"] == {
            "1": 1, "2": 2, "3": 3, "4": 4, "5": 5, "6": 6
        }

    def test_unconstrained_moves_leave_the_fiber_game_open(self):
        t = play_game(FXF, [parse_set(ALL_N)], PrefixTakeStrategy(), rounds=3)
        adj = adjudicate(t, FXF)
        assert adj.favored == "open"
        # round 3 takes (1,2,3): the odd fiber grew again at round 3
        assert adj.evidence["fiber_last_growth"]["0"] == 3

    def test_finite_ideal_always_favors_the_chooser(self):
        t = play_game(FIN, [parse_set("complement:finite:{1}")], GreedyMinStrategy(), rounds=2)
        adj = adjudicate(t, FIN)
        assert adj.favored == "I"
        assert adj.evidence["union_size"] == 1

    def test_adjudications_are_labeled_as_evidence(self):
        t = play_game(FIN, [parse_set(ALL_N)], GreedyMinStrategy(), rounds=1)
        assert adjudicate(t, FIN).label == "finite-scale evidence"
