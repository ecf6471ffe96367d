"""Two-player set games over an ideal, with auditable transcripts.

Player I plays sets certified to lie in the ideal's dual filter; player II
answers each with a nonempty finite subset.  Everything a strategy or an
adjudicator claims is recomputed from the transcript; adjudications are
labeled finite-scale evidence, never completed-game facts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import setlang
from .ideals import IN, IdealPresentation
from .setlang import SetDescription, member, nu2, parse_set, render

STRATEGY_SCAN_CAP = 10**6


class IllegalMoveError(RuntimeError):
    """Player I's set is not certified to lie in the dual filter."""


class StrategySearchError(RuntimeError):
    """A reply strategy exhausted its scan budget."""


# ---------------------------------------------------------------- transcript


@dataclass
class GameRound:
    index: int
    move_spec: str
    reply: tuple[int, ...]
    witness: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "round": self.index,
            "move": self.move_spec,
            "reply": list(self.reply),
            "witness": self.witness,
        }


@dataclass
class GameTranscript:
    ideal_name: str
    strategy_name: str
    rounds: tuple[GameRound, ...]

    def union_reply(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for r in self.rounds:
            seen.update(r.reply)
        return tuple(sorted(seen))

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {"ideal": self.ideal_name, "strategy": self.strategy_name},
                sort_keys=True,
            )
        ]
        for r in self.rounds:
            lines.append(json.dumps(r.to_json_dict(), sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "GameTranscript":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty transcript")
        header = json.loads(lines[0])
        rounds = []
        for line in lines[1:]:
            data = json.loads(line)
            rounds.append(
                GameRound(
                    index=int(data["round"]),
                    move_spec=data["move"],
                    reply=tuple(int(v) for v in data["reply"]),
                    witness=data.get("witness", {}),
                )
            )
        return cls(header["ideal"], header["strategy"], tuple(rounds))


# ---------------------------------------------------------------- strategies


class ReplyStrategy:
    name = "abstract"

    def reply(self, move: SetDescription, round_index: int) -> tuple[tuple[int, ...], dict]:
        raise NotImplementedError


class PrefixDensityStrategy(ReplyStrategy):
    """Take the whole prefix of the move up to the first scale (past the
    round number) where the move fills at least half of it."""

    name = "prefix_density"

    def reply(self, move: SetDescription, round_index: int) -> tuple[tuple[int, ...], dict]:
        count = 0
        members: list[int] = []
        for start, flags in setlang._chunks(move, 1, STRATEGY_SCAN_CAP, 16):
            for m, flag in enumerate(flags, start):
                if flag:
                    count += 1
                    members.append(m)
                if m >= round_index and 2 * count >= m and count > 0:
                    return tuple(members), {"scale": m, "count": count}
        raise StrategySearchError(
            f"move never filled half a prefix within {STRATEGY_SCAN_CAP}"
        )


class GreedyMinStrategy(ReplyStrategy):
    """Always take the single least element."""

    name = "greedy_min"

    def reply(self, move: SetDescription, round_index: int) -> tuple[tuple[int, ...], dict]:
        least = setlang.least_members(move, 1)
        if not least:
            raise StrategySearchError("move has no visible element")
        return tuple(least), {}


class PrefixTakeStrategy(ReplyStrategy):
    """Take the first r elements at round r."""

    name = "prefix_take"

    def reply(self, move: SetDescription, round_index: int) -> tuple[tuple[int, ...], dict]:
        got = setlang.least_members(move, round_index)
        if len(got) < round_index:
            raise StrategySearchError("move ran out of visible elements")
        return tuple(got), {"take": round_index}


class SeededRandomStrategy(ReplyStrategy):
    """Random nonempty subset of an early pool; fully determined by the
    seed and the round number."""

    def __init__(self, seed: int):
        self.seed = seed
        self.name = f"seeded_random:{seed}"

    def reply(self, move: SetDescription, round_index: int) -> tuple[tuple[int, ...], dict]:
        pool = setlang.least_members(move, 8 + round_index)
        if not pool:
            raise StrategySearchError("move has no visible elements")
        rng = random.Random(f"{self.seed}:{round_index}")
        size = rng.randrange(1, len(pool) + 1)
        picked = tuple(sorted(rng.sample(pool, size)))
        return picked, {"pool": len(pool), "seed": self.seed}


def parse_strategy(spec: str) -> ReplyStrategy:
    """prefix_density | greedy_min | prefix_take | seeded_random:<seed>"""
    spec = spec.strip()
    if spec == "prefix_density":
        return PrefixDensityStrategy()
    if spec == "greedy_min":
        return GreedyMinStrategy()
    if spec == "prefix_take":
        return PrefixTakeStrategy()
    if spec.startswith("seeded_random:"):
        return SeededRandomStrategy(int(spec[len("seeded_random:"):]))
    raise ValueError(f"unknown strategy {spec!r}")


def nu2_tower_move(round_index: int) -> SetDescription:
    """Player I's shrinking tower: round r demands 2^r | x."""
    return setlang.Nu2Ge(round_index)


# ---------------------------------------------------------------- game play


def play_round(
    ideal: IdealPresentation,
    move: SetDescription,
    strategy: ReplyStrategy,
    round_index: int,
) -> GameRound:
    verdict = ideal.dual_member(move)
    if verdict.status != IN:
        raise IllegalMoveError(
            f"move {render(move)} not certified in the dual filter "
            f"({verdict.status}: {verdict.reason})"
        )
    reply, witness = strategy.reply(move, round_index)
    if not reply:
        raise StrategySearchError("strategies must reply with a nonempty set")
    bits = sum(v.bit_length() for v in reply)
    if bits > setlang.RENDER_BITS:
        raise StrategySearchError(
            f"strategy replied {bits} bits; a reply prints at most {setlang.RENDER_BITS}"
        )
    for v in reply:
        if not member(move, v):
            raise StrategySearchError(
                f"strategy replied {v}, which is outside the move"
            )
    witness = dict(witness)
    witness["legality"] = verdict.reason
    return GameRound(round_index, render(move), reply, witness)


def round_budget(rounds: int) -> None:
    """Refuse a game of more than RENDER_BITS rounds: round r of the nu2
    tower replies at least 2^r, and no reply over RENDER_BITS bits prints."""
    if rounds > setlang.RENDER_BITS:
        raise StrategySearchError(f"{rounds} rounds are over the budget of {setlang.RENDER_BITS}")


def play_game(
    ideal: IdealPresentation,
    moves: list[SetDescription],
    strategy: ReplyStrategy,
    rounds: int | None = None,
) -> GameTranscript:
    """Play ``rounds`` rounds, cycling through the move list if needed."""
    if not moves:
        raise ValueError("need at least one move")
    total = rounds if rounds is not None else len(moves)
    round_budget(total)
    played = []
    for r in range(1, total + 1):
        move = moves[(r - 1) % len(moves)]
        played.append(play_round(ideal, move, strategy, r))
    return GameTranscript(ideal.name, strategy.name, tuple(played))


def replay_matches(
    ideal: IdealPresentation, transcript: GameTranscript, strategy: ReplyStrategy
) -> bool:
    """Re-run the strategy against the transcript's moves; True iff the
    regenerated transcript reproduces every reply."""
    moves = [parse_set(r.move_spec) for r in transcript.rounds]
    fresh = play_game(ideal, moves, strategy, rounds=len(moves))
    return all(
        a.reply == b.reply and a.move_spec == b.move_spec
        for a, b in zip(fresh.rounds, transcript.rounds)
    )


# --------------------------------------------------------------- adjudication


@dataclass
class Adjudication:
    """Finite-scale reading of a transcript; never a completed-game claim."""

    label: str
    favored: str  # "I" | "II" | "open"
    evidence: dict = field(default_factory=dict, compare=False)


def adjudicate(transcript: GameTranscript, ideal: IdealPresentation) -> Adjudication:
    union = transcript.union_reply()
    if ideal.kind in ("z", "bd"):
        scale = 0
        for r in transcript.rounds:
            scale = max(scale, r.witness.get("scale", 0), max(r.reply))
        count = sum(1 for v in union if v <= scale)
        density = Fraction(count, scale) if scale else Fraction(0)
        favored = "II" if 2 * count >= scale and scale > 0 else "open"
        return Adjudication(
            label="finite-scale evidence",
            favored=favored,
            evidence={
                "scale": scale,
                "count": count,
                "density": str(density),
            },
        )
    if ideal.kind == "finxfin":
        last_new: dict[int, int] = {}
        seen: set[int] = set()
        for r in transcript.rounds:
            for v in r.reply:
                if v not in seen:
                    seen.add(v)
                    last_new[nu2(v)] = max(last_new.get(nu2(v), 0), r.index)
        frozen = all(last <= k + 1 for k, last in last_new.items())
        favored = "I" if frozen else "open"
        return Adjudication(
            label="finite-scale evidence",
            favored=favored,
            evidence={
                "fiber_last_growth": {str(k): v for k, v in sorted(last_new.items())},
                "fibers_frozen_by_index": frozen,
            },
        )
    if ideal.kind == "fin":
        return Adjudication(
            label="finite-scale evidence",
            favored="I",
            evidence={"union_size": len(union), "note": "finite replies stay finite"},
        )
    return Adjudication(
        label="finite-scale evidence", favored="open", evidence={"union_size": len(union)}
    )
