"""The benchmark's own test: a tampered answer must count as a failed op.

    python3 bench/selftest.py

Each case runs a real call into subsum, checks that the untouched answer
passes, then alters one value and checks that the op is counted as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import signal
import time
import unittest
from fractions import Fraction

import run
import workloads as W

S = run.load_subsum()


def outcome(op, deadline=5.0, alarm=False):
    return run.classify(run.execute(op, deadline, alarm))


class TamperedAnswers(unittest.TestCase):
    def setUp(self):
        self.memo = W.Memo()

    def pair(self, kind, good, bad, check):
        """The untouched answer passes; the tampered one fails."""
        self.assertEqual(outcome(W.Op(kind, "good", lambda: good, check)), "ok")
        self.assertEqual(outcome(W.Op(kind, "tampered", lambda: bad, check)), "failed")

    def test_transform_row(self):
        points = S.transform_prefix(S.parse_matrix("gen:rand_rowfinite_4"),
                                    S.parse_sequence("nalt"), 24)
        bad = list(points)
        bad[9] = dataclasses.replace(bad[9], value=bad[9].value + Fraction(1, 10**9))
        self.pair("transform_prefix.rand", points, bad,
                  W.transform_check(self.memo, ("rand", 4), "nalt", 24))

    def test_geometric_tail(self):
        points = S.transform_prefix(S.parse_matrix("gen:geometric"), S.parse_sequence("n"), 8,
                                    tail_tol=Fraction(1, 1000))
        bad = list(points)
        bad[3] = dataclasses.replace(bad[3], value=bad[3].value + 2 * bad[3].tail_bound + 1)
        self.pair("transform_prefix.geometric", points, bad,
                  W.transform_check(self.memo, ("geometric",), "n", 8, Fraction(1, 1000)))

    def test_decided_verdict_flipped(self):
        tree = ("union", ("ap", 3, 4), ("squares",))
        v = S.parse_ideal("z").verdict(S.parse_set(W.R.render(tree)))
        self.assertEqual(v.status, "not_in")
        self.pair("verdict.z", v, dataclasses.replace(v, status="in"),
                  W.verdict_check(self.memo, tree, "z", W.SCALE))

    def test_undecided_evidence_recounted(self):
        tree = ("intersect", ("squares",), ("ap", 1, 3))
        v = S.parse_ideal("fin").verdict(S.parse_set(W.R.render(tree)), W.SCALE)
        self.assertEqual(v.status, "undecided")
        counts = [list(pc) for pc in v.evidence["prefix_counts"]]
        counts[-1][1] += 1
        bad = dataclasses.replace(v, evidence={**v.evidence, "prefix_counts": counts})
        self.pair("verdict.fin", v, bad, W.verdict_check(self.memo, tree, "fin", W.SCALE))

    def test_density_report(self):
        tree = ("union", ("squares",), ("powers2",))
        rep = S.density_report(S.parse_set(W.R.render(tree)), 4096, window=64)
        counts = tuple((n, c + (n == 1024)) for n, c in rep.prefix_counts)
        self.pair("density_report", rep, dataclasses.replace(rep, prefix_counts=counts),
                  W.density_check(self.memo, tree, 4096, 64))

    def test_escape_row_resummed(self):
        res = S.escape_rowfinite((), S.parse_matrix("cesaro"), S.parse_sequence("n"),
                                 S.parse_ideal("z"), 2, p0=4)
        rows = list(res.row_values)
        rows[3] = (rows[3][0], rows[3][1] + 1)
        self.pair("escape_rowfinite.z", res, dataclasses.replace(res, row_values=tuple(rows)),
                  W.escape_check("n", "z", 2, 4))

    def test_certificate_recounted_from_bits(self):
        rep = S.steinhaus_adversary(S.parse_matrix("cesaro"), mode="greedy", scale=512)
        cert = rep.certificate
        counts = list(cert.upper_counts)
        counts[0] -= 1
        bad = dataclasses.replace(rep, certificate=dataclasses.replace(
            cert, upper_counts=tuple(counts)))
        self.pair("steinhaus_adversary.greedy", rep, bad,
                  W.adversary_check(("cesaro",), "greedy", 512))

    def test_game_transcript_replayed(self):
        ideal, strategy = S.parse_ideal("finxfin"), S.parse_strategy("prefix_take")
        trees = [("nu2ge", r) for r in range(1, 6)]
        transcript = S.play_game(ideal, [S.parse_set(W.R.render(t)) for t in trees], strategy)
        ruling = S.adjudicate(transcript, ideal)
        rounds = list(transcript.rounds)
        rounds[2] = dataclasses.replace(rounds[2], reply=rounds[2].reply[:-1] + (10**6,))
        bad = dataclasses.replace(transcript, rounds=tuple(rounds))
        self.pair("game.finxfin", (transcript, ruling, True), (bad, ruling, True),
                  W.game_check("finxfin", trees, "prefix_take"))

    def test_cli_contract(self):
        out = '{"command": "metric"}\n'
        digest = hashlib.sha256(out[:-1].encode()).hexdigest()
        good = W.CliResult(0, out, [{"exit": 0, "digest": digest}])
        check = W.cli_check({0})
        self.pair("cli.metric", good, dataclasses.replace(good, records=good.records * 2), check)
        self.pair("cli.metric", good, dataclasses.replace(good, code=1), check)
        self.pair("cli.metric", good, dataclasses.replace(
            good, records=[{"exit": 0, "digest": "0" * 64}]), check)

    def test_known_defect_failing_differently_is_a_failure(self):
        points = S.transform_prefix(S.parse_matrix("cesaro"), S.parse_sequence("alt"), 16)
        bad = [dataclasses.replace(p, value=p.value / 2) for p in points]
        op = W.Op("transform_prefix.top", "t", lambda: bad,
                  W.transform_check(self.memo, ("cesaro",), "alt", 16))
        self.assertEqual(outcome(op), "failed")

    def test_deadline_stops_the_op(self):
        signal.signal(signal.SIGALRM, run._on_alarm)
        op = W.Op("transform_prefix.top", "sleeper", lambda: time.sleep(5), lambda r: None)
        started = time.monotonic()
        self.assertEqual(outcome(op, deadline=0.05, alarm=True), "defect")
        self.assertLess(time.monotonic() - started, 2)
        op.kind = "transform_prefix"
        self.assertEqual(outcome(op, deadline=0.05, alarm=True), "failed")


if __name__ == "__main__":
    unittest.main()
