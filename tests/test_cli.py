"""End-to-end tests of the command-line front end.

Each command is exercised through ``cli.main`` with captured stdout; exit
codes are checked against the documented table (0 ok, 2 parse, 3 budget,
4 not regular, 5 diagnostic-only, 6 verify failed, 7 precondition).
"""

import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from datetime import datetime, timedelta
from fractions import Fraction
from pathlib import Path

import pytest

import subsum
from subsum import cli
from subsum._version import __version__
from subsum.setlang import MAX_NESTING
from subsum.summability import DEFAULT_COLUMN_CAP, DOMAIN_SCAN_COLUMNS, parse_matrix


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


# ------------------------------------------------------------------- commands


class TestDensity:
    def test_exact_density_of_a_progression(self, capsys):
        code, d = run_json(capsys, ["density", "ap:1,2", "--scale", "64"])
        assert code == 0
        assert d["command"] == "density"
        assert d["exact"] == "1/2"
        assert d["prefix_counts"][:2] == [[8, 4], [16, 8]]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, ["density", "ap:1,2", "--scale", "64", "--csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,count,ratio"
        assert lines[1] == "8,4,0.500000000000"

    def test_window_densities(self, capsys):
        code, d = run_json(
            capsys, ["density", "builtin:squares", "--scale", "256", "--window", "32"]
        )
        assert code == 0
        assert d["window"] == 32
        assert "window_max_density" in d

    def test_a_set_without_an_exact_density_prints_its_estimates(self, capsys):
        argv = ["density", "builtin:dyadic_blocks(ap:1,2)", "--scale", "4096"]
        code, d = run_json(capsys, argv)
        assert code == 0
        assert d["exact"] is None
        assert (d["lower_estimate"], d["upper_estimate"]) == ("683/2048", "1365/2048")

    # Both took their prefix counts first: 65536 squares listed, and a count
    # past the enumeration cap that exited 3.
    @pytest.mark.parametrize("argv", [
        ["density", "intersect:builtin:squares|ap:2,3", "--scale", "4294967296", "--window", "0"],
        ["density", "union:builtin:squares|ap:1,3", "--scale", "100000000000000", "--window", "0"],
    ])
    def test_a_bad_window_is_refused_before_any_prefix_count(self, capsys, monkeypatch, argv):
        counted = []
        monkeypatch.setattr(cli.setlang, "prefix_counts", lambda *args: counted.append(args))
        code, out, err = run(capsys, argv)
        assert (code, out, counted) == (2, "", [])
        assert "need 1 <= window <= limit" in err


class TestVerdict:
    def test_membership_with_reason(self, capsys):
        code, d = run_json(capsys, ["verdict", "builtin:squares", "--ideal", "z"])
        assert code == 0
        assert d["status"] == "in"
        assert d["ideal"] == "z"
        assert d["reason"]

    def test_undecided_sets_still_exit_cleanly(self, capsys):
        code, d = run_json(
            capsys,
            ["verdict", "builtin:dyadic_blocks(intersect:builtin:squares|builtin:powers2)",
             "--ideal", "z"],
        )
        assert code == 0
        assert d["status"] == "undecided"

    def test_periodic_parts_decide_banach_density_at_any_scale(self, capsys):
        # Every third integer minus the squares: no window scan at 10^7, the
        # eventually periodic form gives the Banach density.
        started = time.perf_counter()
        code, d = run_json(capsys, ["verdict", "intersect:complement:builtin:squares|ap:1,3",
                                    "--ideal", "bd", "--scale", "10000000"])
        assert time.perf_counter() - started < 0.3
        assert code == 0
        assert (d["status"], d["reason"]) == ("not_in", "exact Banach density 1/3 > 0")
        assert d["evidence"] == {}


class TestRegularity:
    def test_averaging_matrix_is_regular(self, capsys):
        code, d = run_json(capsys, ["regularity", "--matrix", "cesaro"])
        assert code == 0
        assert d["overall"] == "regular"
        assert set(d["conditions"]) == {
            "row_l1_bound",
            "columns_vanish",
            "row_sums_to_one",
        }

    def test_dropped_rows_fail_with_exit_code_4(self, capsys):
        code, d = run_json(
            capsys,
            ["regularity", "--matrix", "rowdrop:cesaro:builtin:squares", "--ideal", "fin"],
        )
        assert code == 4
        assert d["overall"] == "not_regular"
        assert d["conditions"]["row_sums_to_one"]["data"]["witness_rows"] == [1, 4, 9, 16, 25]

    def test_witness_rows_of_a_shifted_drop_start_at_its_least_member(self, capsys):
        code, d = run_json(capsys, ["regularity", "--matrix",
                                    "rowdrop:cesaro:shift:builtin:squares,-10001", "--ideal", "fin"])
        assert code == 4
        rows = d["conditions"]["row_sums_to_one"]["data"]["witness_rows"]
        assert rows == [200, 403, 608, 815, 1024]

    def test_same_matrix_recovers_along_the_density_ideal(self, capsys):
        code, d = run_json(
            capsys,
            ["regularity", "--matrix", "rowdrop:cesaro:builtin:squares", "--ideal", "z"],
        )
        assert code == 0
        assert d["overall"] == "regular"

    @pytest.mark.parametrize("ideal", ["fin", "z", "bd", "finxfin", "matrix:cesaro",
                                       "matrix:identity"])
    def test_the_geometric_matrix_exits_4_with_every_condition_certified(self, capsys, ideal):
        code, d = run_json(capsys, ["regularity", "--matrix", "gen:geometric", "--ideal", ideal])
        assert (code, d["overall"]) == (4, "not_regular")
        assert all(c["certified"] for c in d["conditions"].values())
        assert d["witness"] == {"condition": "r2", "column": 1, "entry": "1/2"}

    @pytest.mark.parametrize("ideal", ["fin", "z"])
    @pytest.mark.parametrize("drop", ["builtin:squares", "finite:{2}", "complement:finite:{1}"])
    def test_geometric_row_drops_exit_4(self, capsys, drop, ideal):
        argv = ["regularity", "--matrix", f"rowdrop:gen:geometric:{drop}", "--ideal", ideal]
        code, d = run_json(capsys, argv)
        assert (code, d["overall"]) == (4, "not_regular")

    def test_a_geometric_drop_keeping_one_row_certifies_vanishing_columns(self, capsys):
        argv = ["regularity", "--matrix", "rowdrop:gen:geometric:complement:finite:{1}",
                "--ideal", "fin"]
        code, d = run_json(capsys, argv)
        assert (code, d["overall"]) == (4, "not_regular")
        assert d["conditions"]["columns_vanish"]["holds"] == "yes"

    def test_a_random_drop_outside_fin_exits_4_on_its_row_sums(self, capsys):
        argv = ["regularity", "--matrix", "rowdrop:gen:rand_rowfinite_3:complement:finite:{1,2}",
                "--ideal", "fin"]
        code, d = run_json(capsys, argv)
        assert (code, d["overall"]) == (4, "not_regular")
        assert d["witness"]["condition"] == "r3"
        assert d["witness"]["witness_rows"] == [3, 4, 5, 6, 7]

    def test_an_undecided_row_sum_exception_exits_5(self, capsys):
        drop = "builtin:dyadic_blocks(intersect:builtin:squares|shift:builtin:powers2,1)"
        argv = ["regularity", "--matrix", f"rowdrop:cesaro:{drop}", "--ideal", "z"]
        code, d = run_json(capsys, argv)
        assert (code, d["overall"]) == (5, "undecided")
        assert d["conditions"]["row_sums_to_one"]["holds"] == "undecided"

    def test_sampled_matrices_stay_undecided_with_exit_code_5(self, capsys):
        code, d = run_json(capsys, ["regularity", "--matrix", "gen:rand_rowfinite_3"])
        assert code == 5
        assert d["overall"] == "undecided"


class TestTransform:
    def test_running_averages_of_the_alternating_sequence(self, capsys):
        code, d = run_json(
            capsys, ["transform", "--matrix", "cesaro", "--x", "alt", "--rows", "4"]
        )
        assert code == 0
        rows = [(r["n"], r["value"], r["tail_bound"]) for r in d["rows"]]
        assert rows == [(1, "0", "0"), (2, "1/2", "0"), (3, "1/3", "0"), (4, "1/2", "0")]

    def test_unreachable_tail_tolerances_exit_with_code_3(self, capsys):
        # A zero tolerance is never met by a geometric tail; the certified
        # bounds say so before any column is summed.
        started = time.monotonic()
        code, out, err = run(capsys, ["transform", "--matrix", "gen:geometric", "--x", "alt"])
        assert time.monotonic() - started < 5.0
        assert code == 3
        assert "TailToleranceError" in err


    @pytest.mark.parametrize("x", ["alt", "n"])
    def test_row_drops_over_a_tailed_base_keep_its_tails(self, capsys, x):
        # Kept rows are the base's rows, tail bounds included (``n`` takes
        # the term-ratio bound); the dropped row 2 is 0 with tail 0.
        argv = ["transform", "--x", x, "--rows", "3", "--tail-tol", "1/1000"]
        code, base = run_json(capsys, argv + ["--matrix", "gen:geometric"])
        assert code == 0
        code, d = run_json(capsys, argv + ["--matrix", "rowdrop:gen:geometric:finite:{2}"])
        assert code == 0
        assert d["rows"] == [base["rows"][0], {"n": 2, "value": "0", "tail_bound": "0"},
                             base["rows"][2]]
        assert base["rows"][0]["tail_bound"] != "0"

    def test_transforms_over_the_entry_budget_are_refused_unread(self, capsys):
        # Every row's width is known before any entry is read: the refusal
        # names the row that crosses the budget, and no row is summed.
        started = time.perf_counter()
        code, out, err = run(capsys, ["transform", "--matrix", "gen:rand_rowfinite_3",
                                      "--x", "n", "--rows", "100000"])
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert "transform rows 1..1448 entry count 1049076 is over the audit budget" in err

    def test_dropped_rows_count_toward_no_entry_budget(self, capsys):
        # Every row is dropped, so none of the base's entries is summed.
        code, d = run_json(capsys, ["transform", "--matrix", "rowdrop:gen:rand_rowfinite_3:ap:1,1",
                                    "--x", "n", "--rows", "1500"])
        assert code == 0
        assert d["rows"] == [{"n": n, "value": "0", "tail_bound": "0"} for n in range(1, 1501)]

    def test_values_past_the_int_to_str_limit_print_in_bounded_form(self, capsys):
        # x_n = 10^-4400 makes the row value's denominator over 4300 digits,
        # which str() refuses; it prints truncated instead.
        code, d = run_json(capsys, ["transform", "--matrix", "gen:geometric", "--x",
                                    "const:1e-4400", "--rows", "1", "--tail-tol", "1/1000"])
        assert code == 0
        assert d["rows"][0]["value"] == (
            "0.000000000000... (30-bit numerator over 14647-bit denominator)"
        )

    def test_values_up_to_4096_bits_print_exactly(self, capsys):
        tol = f"1/{2**2000}"
        code, d = run_json(capsys, ["transform", "--matrix", "gen:geometric", "--x", "alt",
                                    "--rows", "1", "--tail-tol", tol])
        assert code == 0
        value = Fraction(d["rows"][0]["value"])
        assert str(value) == d["rows"][0]["value"]
        assert 2000 < value.denominator.bit_length() <= 4096


class TestDomain:
    def test_row_finite_rows_converge(self, capsys):
        code, d = run_json(
            capsys, ["domain", "--matrix", "cesaro", "--x", "alt", "--row", "5"]
        )
        assert code == 0
        assert d["status"] == "converged"
        assert d["value"] == "2/5"

    # Partials pass DOMAIN_GROWTH_BOUND at column 1, or a late term follows
    # settled partials, but a certified width decides first.
    @pytest.mark.parametrize("x, value", [
        ("const:10000000", "1441151880758558719921875/144115188075855872"),
        ("list:" + "0," * 19 + "1000", "125/131072"),
    ])
    def test_certified_widths_converge_before_any_evidence_scan(self, capsys, x, value):
        code, d = run_json(capsys, ["domain", "--matrix", "gen:geometric", "--x", x])
        assert code == 0
        assert (d["status"], d["value"]) == ("converged", value)

    @pytest.mark.parametrize("argv", [
        ["domain", "--row", "100000000000000000000"],
        ["domain", "--row", "10000000"],
        ["transform", "--rows", "100000000000000000000"],
    ])
    def test_huge_rows_are_refused_by_the_audit_budget(self, capsys, argv):
        started = time.monotonic()
        code, out, err = run(capsys, argv[:1] + ["--matrix", "cesaro", "--x", "n"] + argv[1:])
        assert time.monotonic() - started < 1.0
        assert code == 3
        assert f"over the audit budget of {DEFAULT_COLUMN_CAP}" in err

    @pytest.mark.parametrize("x", ["alt", "n"])
    def test_row_drops_over_a_tailed_base_converge_like_it(self, capsys, x):
        argv = ["domain", "--x", x]
        for row in ("1", "2", "3"):
            code, base = run_json(capsys, argv + ["--row", row, "--matrix", "gen:geometric"])
            assert code == 0
            code, d = run_json(capsys, argv + ["--row", row, "--matrix",
                                               "rowdrop:gen:geometric:finite:{2}"])
            assert code == 0 and d["status"] == "converged"
            if row == "2":
                assert (d["value"], d["tail_bound"]) == ("0", "0")
            else:
                assert {k: d[k] for k in ("value", "tail_bound", "evidence")} == {
                    k: base[k] for k in ("value", "tail_bound", "evidence")}

    @pytest.mark.parametrize("row", ["0", "-3"])
    def test_rows_below_one_exit_with_code_2(self, capsys, row):
        code, out, err = run(capsys, ["domain", "--matrix", "cesaro", "--x", "n", "--row", row])
        assert code == 2
        assert "ValueError: transform rows start at 1" in err

    def test_rows_without_a_certified_tail_stop_at_the_scan_budget(self, capsys):
        # sqperturb declares no bound, so only the scan could show divergence;
        # it stops after DOMAIN_SCAN_COLUMNS columns, partial in bounded form.
        started = time.perf_counter()
        code, d = run_json(
            capsys, ["domain", "--matrix", "gen:geometric", "--x", "sqperturb", "--row", "3"]
        )
        assert time.perf_counter() - started < 2
        assert code == 3
        assert d["status"] == "inconclusive"
        assert d["evidence"]["budget"] == "DOMAIN_SCAN_COLUMNS"
        assert d["evidence"]["columns_used"] == DOMAIN_SCAN_COLUMNS
        assert d["evidence"]["last_partial"].startswith("1.380658809405... (")


class TestMetric:
    def test_disjoint_images_sit_at_full_distance(self, capsys):
        code, d = run_json(capsys, ["metric", "--s1", "even", "--s2", "odd"])
        assert code == 0
        assert d["lower"] == "1099511627775/1099511627776"
        assert d["upper"] == "1"
        assert d["width"] == "1/1099511627776"

    def test_resolution_is_reported(self, capsys):
        code, d = run_json(
            capsys, ["metric", "--s1", "even", "--s2", "evenshift", "--resolution", "20"]
        )
        assert code == 0
        assert d["resolution"] == 20
        assert d["lower"] == "1/4"

    def test_an_unclosed_stem_exits_with_code_2(self, capsys):
        code, out, err = run(capsys, ["metric", "--s1", "stem:{1,2", "--s2", "id"])
        assert (code, out) == (2, "")
        assert err.startswith("SelectorSpecError: stem selectors need stem:{v1,v2,...}")


class TestEscape:
    def test_unbounded_mode_frozen_instance(self, capsys):
        code, d = run_json(
            capsys,
            [
                "escape", "--mode", "unbounded", "--stem", "{1}",
                "--row", "geometric", "--x", "n", "--m0", "5",
            ],
        )
        assert code == 0
        assert d["holds"] is True
        assert d["pivot_index"] == 2
        assert d["pivot_position"] == 26
        assert d["partial_sum"] == "7"
        assert d["selector"] == "stem:{1,26}+consec"

    def test_rowfinite_mode_pushes_a_whole_block(self, capsys):
        code, d = run_json(
            capsys,
            [
                "escape", "--mode", "rowfinite", "--matrix", "cesaro",
                "--x", "n", "--ideal", "z", "--m0", "1",
            ],
        )
        assert code == 0
        assert d["holds"] is True
        assert d["block"] == [4, 5, 6, 7]
        assert all(abs(eval_frac(v)) >= 1 for _, v in d["row_values"])

    @pytest.mark.parametrize("mode, flags", [
        ("unbounded", ["--row", "geometric"]), ("rowfinite", ["--matrix", "cesaro"]),
    ])
    def test_bounded_sequences_exit_with_code_7(self, capsys, mode, flags):
        code, out, err = run(capsys, ["escape", "--mode", mode, *flags, "--x", "alt"])
        assert code == 7
        assert out == ""
        assert "PreconditionError" in err
        assert "needs an unbounded sequence, one stating a magnitude search" in err


def eval_frac(text):
    from fractions import Fraction

    return Fraction(text)


class TestOscillate:
    def test_alternating_sequence_separates(self, capsys):
        code, d = run_json(capsys, ["oscillate", "--x", "alt"])
        assert code == 0
        assert d["row"] == 64
        assert d["gap"] == "1"
        assert d["targets"] == ["0", "1"]

    def test_flat_sequences_are_diagnostic_only(self, capsys):
        code, out, err = run(capsys, ["oscillate", "--x", "const:1"])
        assert code == 5
        assert "ConstructionError" in err


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "cert.json"
    code = cli.main(
        [
            "adversary", "--matrix", "cesaro", "--scale", "4096",
            "--certificate-out", str(path),
        ]
    )
    assert code == 0
    return path


class TestAdversaryAndVerify:

    def test_blocks_adversary_is_certified(self, capsys):
        code, d = run_json(capsys, ["adversary", "--matrix", "cesaro", "--scale", "4096"])
        assert code == 0
        assert d["status"] == "certified"
        assert d["certificate"]["lower_counts"] == [378, 1062]
        assert d["certificate"]["upper_counts"] == [541, 768]
        assert len(d["boundary_means"]) == 10
        assert all(b["within"] for b in d["boundary_means"])

    def test_matrices_without_a_run_form_exit_with_code_7(self, capsys):
        code, out, err = run(capsys, ["adversary", "--matrix", "gen:geometric"])
        assert code == 7
        assert "PreconditionError" in err

    def test_row_drops_over_the_identity_write_a_certificate_that_verifies(
        self, capsys, tmp_path
    ):
        path = tmp_path / "c.json"
        argv = ["adversary", "--matrix", "rowdrop:identity:finite:{2}",
                "--certificate-out", str(path)]
        code, d = run_json(capsys, argv)
        assert code == 0 and d["status"] == "certified"
        code, d = run_json(capsys, ["verify", str(path)])
        assert code == 0 and d["verified"] is True

    def test_written_certificate_verifies(self, capsys, cert_path):
        capsys.readouterr()
        code, d = run_json(capsys, ["verify", str(cert_path)])
        assert code == 0
        assert d["verified"] is True

    def test_tampered_certificate_exits_with_code_6(self, capsys, cert_path, tmp_path):
        capsys.readouterr()
        data = json.loads(cert_path.read_text())
        data["lower_counts"][0] += 1
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        code, d = run_json(capsys, ["verify", str(bad)])
        assert code == 6
        assert d["verified"] is False

    # Each document reads as the written certificate (int() of a float or a
    # string, a bool as 1, an unknown key dropped, 4/10 as 2/5), and each
    # verified at the change that made verify compare it with the
    # certificate written back.
    @pytest.mark.parametrize("key, value", [
        ("scales", [32.5, 64]), ("scales", ["32", 64]), ("scales", [True, 64]),
        ("lower_counts", [5.9, 17]), ("note", "audited"), ("lower", "4/10"),
    ])
    def test_verify_accepts_only_the_document_it_audits(self, capsys, tmp_path, key, value):
        path = tmp_path / "c.json"
        argv = ["adversary", "--matrix", "cesaro", "--scale", "64", "--certificate-out", str(path)]
        assert run(capsys, argv)[0] == 0
        data = json.loads(path.read_text())
        assert (data["scales"], data["lower_counts"], data["lower"]) == ([32, 64], [5, 17], "2/5")
        data[key] = value
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["verify", str(path)])
        assert (code, out) == (2, "")
        assert "malformed certificate" in err

    def test_malformed_certificate_exits_with_code_2(self, capsys, tmp_path):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps({"kind": "other"}))
        code, out, err = run(capsys, ["verify", str(bad)])
        assert code == 2
        assert "malformed certificate" in err

    def test_oversized_audits_of_other_sequences_are_recomputed(self, capsys, tmp_path):
        cert = {
            "kind": "oscillation", "x": "sqperturb", "matrix": "cesaro",
            "lower": "0", "upper": "1", "scales": [4097],
            "lower_counts": [1], "upper_counts": [1],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cert))
        code, d = run_json(capsys, ["verify", str(path)])
        assert code == 6
        assert d["verified"] is False

    def test_certificates_for_non_row_finite_matrices_exit_with_code_7(
        self, capsys, tmp_path
    ):
        cert = {
            "kind": "oscillation", "x": "alt", "matrix": "gen:geometric",
            "lower": "0", "upper": "1", "scales": [8],
            "lower_counts": [1], "upper_counts": [1],
        }
        path = tmp_path / "geometric.json"
        path.write_text(json.dumps(cert))
        started = time.perf_counter()
        code, out, err = run(capsys, ["verify", str(path)])
        assert time.perf_counter() - started < 5
        assert code == 7
        assert "DomainRiskError" in err


class TestGame:
    def test_tower_game_is_adjudicated_for_player_one(self, capsys):
        code, d = run_json(
            capsys,
            [
                "game", "--ideal", "finxfin", "--moves", "nu2tower",
                "--strategy", "greedy_min", "--rounds", "5",
            ],
        )
        assert code == 0
        assert d["adjudication"]["favored"] == "I"
        assert d["adjudication"]["label"] == "finite-scale evidence"
        assert [r["reply"] for r in d["rounds"]] == [[2], [4], [8], [16], [32]]

    def test_a_matrix_ideal_game_is_left_open(self, capsys):
        # No finite-scale rule adjudicates a matrix ideal's game.
        code, d = run_json(capsys, ["game", "--ideal", "matrix:cesaro",
                                    "--moves", "complement:finite:{1}", "--rounds", "2"])
        assert code == 0
        assert d["adjudication"] == {"label": "finite-scale evidence", "favored": "open",
                                     "evidence": {"union_size": 1}}

    def test_transcripts_can_be_saved_and_replayed(self, capsys, tmp_path):
        path = tmp_path / "game.jsonl"
        code, d = run_json(
            capsys,
            [
                "game", "--ideal", "z", "--moves", "complement:builtin:squares",
                "--strategy", "prefix_density", "--rounds", "3",
                "--transcript-out", str(path),
            ],
        )
        assert code == 0
        from subsum import GameTranscript, PrefixDensityStrategy, replay_matches
        from subsum.ideals import IDEALS

        transcript = GameTranscript.from_jsonl(path.read_text())
        assert replay_matches(IDEALS["z"], transcript, PrefixDensityStrategy())

    def test_illegal_moves_exit_with_code_7(self, capsys):
        code, out, err = run(
            capsys, ["game", "--ideal", "z", "--moves", "builtin:squares", "--rounds", "1"]
        )
        assert code == 7
        assert "IllegalMoveError" in err

    def test_exhausted_strategies_exit_with_code_3(self, capsys):
        code, out, err = run(
            capsys,
            [
                "game", "--ideal", "finxfin", "--moves", "builtin:nu2_ge(2)",
                "--strategy", "prefix_density", "--rounds", "1",
            ],
        )
        assert code == 3
        assert "StrategySearchError" in err

    # The least member of a shifted set comes from an inner member past the
    # search cap, which the search moves by the offset.
    @pytest.mark.parametrize("ideal, move", [
        ("z", "shift:complement:builtin:squares,-10000000"),
        ("fin", "union:finite:{16}|shift:complement:finite:{},-20000000"),
    ])
    def test_greedy_replies_are_least_members_of_shifted_moves(self, capsys, ideal, move):
        code, d = run_json(capsys, ["game", "--ideal", ideal, "--moves", move,
                                    "--strategy", "greedy_min", "--rounds", "1"])
        assert code == 0
        assert d["rounds"][0]["reply"] == [1]

    def test_huge_negative_shifts_are_answered_in_constant_time(self, capsys):
        started = time.monotonic()
        code, d = run_json(
            capsys,
            [
                "game", "--ideal", "fin", "--moves", "shift:ap:1,1,-1000000000000",
                "--strategy", "greedy_min", "--rounds", "1",
            ],
        )
        assert time.monotonic() - started < 5.0
        assert code == 0
        assert d["rounds"][0]["reply"] == [1]


class TestDemo:
    def test_schedule_of_escapes(self, capsys):
        code, d = run_json(capsys, ["demo", "--schedule", "1,2"])
        assert code == 0
        assert d["all_hold"] is True
        blocks = [r["block"] for r in d["rounds"]]
        assert blocks == [list(range(4, 8)), list(range(16, 32))]
        assert blocks[1][0] > blocks[0][-1]
        assert [r["bound"] for r in d["rounds"]] == ["1", "2"]

    def test_the_default_schedule_exits_0_with_one_runlog_line(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        started = time.perf_counter()
        code, out, _ = run(capsys, ["demo", "--runlog", str(log)])
        assert time.perf_counter() - started < 5
        assert code == 0
        d = json.loads(out)
        assert d["all_hold"] is True
        assert [(r["block"][0], r["block"][-1]) for r in d["rounds"]] == [
            (4, 7), (16, 31), (64, 127), (256, 511)
        ]
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 1 and records[0]["exit"] == 0


# ------------------------------------------------------------------- plumbing


class TestPlumbing:
    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, ["density", "builtin:squares", "--scale", "128"])
        _, second, _ = run(capsys, ["density", "builtin:squares", "--scale", "128"])
        assert first == second

    def test_out_writes_the_same_document(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, ["density", "ap:1,3", "--scale", "64", "--out", str(path)]
        )
        assert code == 0
        assert path.read_text() == out

    def test_runlog_records_the_digest_of_stdout(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        code, out, _ = run(
            capsys,
            ["density", "ap:1,3", "--scale", "64", "--runlog", str(log)],
        )
        assert code == 0
        record = json.loads(log.read_text().splitlines()[-1])
        assert record["command"] == "density"
        assert "seed" not in record
        assert record["exit"] == 0
        assert record["version"] == __version__
        assert record["error"] is None
        assert "ts" in record and record["argv"][0] == "density"
        assert datetime.fromisoformat(record["ts"]).utcoffset() == timedelta(0)
        expected = hashlib.sha256(out.rstrip("\n").encode("utf-8")).hexdigest()
        assert record["digest"] == expected
        # the printed document itself carries no timestamp
        assert record["ts"] not in out

    def test_runlog_keeps_appending(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        run(capsys, ["density", "ap:1,3", "--scale", "64", "--runlog", str(log)])
        run(capsys, ["density", "ap:1,4", "--scale", "64", "--runlog", str(log)])
        assert len(log.read_text().splitlines()) == 2

    def test_failures_are_logged_without_a_digest(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        code, _, _ = run(
            capsys, ["density", "wat:nope", "--runlog", str(log)]
        )
        assert code == 2
        record = json.loads(log.read_text())
        assert record["exit"] == 2
        assert record["digest"] is None
        assert "SetSyntaxError" in record["error"]

    def test_parse_errors_exit_with_code_2(self, capsys):
        for argv in (
            ["density", "wat:nope"],
            ["transform", "--matrix", "wat", "--x", "alt"],
            ["metric", "--s1", "wat@", "--s2", "even"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 2, argv
            assert out == ""

    def test_unknown_ideals_exit_with_code_7(self, capsys):
        code, out, err = run(capsys, ["verdict", "ap:1,2", "--ideal", "wat"])
        assert code == 7
        assert "UnsupportedIdealError" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--matrix", "cesaro", "--x", "alt"],
            ["domain", "--matrix", "cesaro", "--x", "alt"],
            ["metric", "--s1", "even", "--s2", "odd"],
            ["escape", "--mode", "rowfinite", "--matrix", "cesaro", "--x", "n"],
            ["verify", "cert.json"],
            ["demo", "--schedule", "1"],
            ["game", "--rounds", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_scale_is_only_taken_where_it_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--scale", "64"])
        assert exc.value.code == 2
        assert "--scale" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


# ------------------------------------------------------------ lazy layers

LAYERS = ("setlang", "ideals", "summability", "sigma", "constructions", "games")

# Run in a fresh interpreter: import subsum, run one command if argv names
# one, then print the layers whose code has run (a layer not yet read is
# still the LazyLoader's module subclass).
LOADED_LAYERS = f"""
import sys, types
import subsum
assert all(f"subsum.{{m}}" in sys.modules for m in {LAYERS!r})
if sys.argv[1:]:
    from subsum import cli
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(*(m for m in {LAYERS!r} if type(sys.modules[f"subsum.{{m}}"]) is types.ModuleType))
"""


class TestLazyLayers:
    @pytest.mark.parametrize("argv, loaded", [
        ([], ""),
        (["--version"], ""),
        (["density", "ap:1,2", "--scale", "64"], "setlang"),
        (["verdict", "builtin:squares", "--ideal", "z"], "setlang ideals"),
        (["verdict", "wat:", "--ideal", "bd"], "setlang ideals"),
        (["game", "--ideal", "finxfin", "--rounds", "2", "--strategy", "greedy_min"],
         "setlang ideals games"),
        (["transform", "--matrix", "cesaro", "--x", "alt", "--rows", "2"],
         "setlang ideals summability"),
    ], ids=lambda v: " ".join(v) or "import subsum" if isinstance(v, list) else v or "no layer")
    def test_a_command_runs_only_the_layers_it_reads(self, tmp_path, argv, loaded):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", LOADED_LAYERS, *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == loaded

    def test_every_public_name_is_its_layer_binding(self):
        for name, layer in subsum._LAYER_OF.items():
            assert getattr(subsum, name) is getattr(importlib.import_module(f"subsum.{layer}"), name)
        assert set(LAYERS) | set(subsum._LAYER_OF) <= set(dir(subsum))
        assert set(subsum.__all__) == set(LAYERS) | set(subsum._LAYER_OF)
        with pytest.raises(AttributeError, match="no_such_name"):
            subsum.no_such_name


# The exit code that main's except chain gave each package exception before
# the exit codes became one table keyed by class name.
PACKAGE_EXIT_CODES = {
    "SetSyntaxError": 2, "MatrixSpecError": 2, "SequenceSpecError": 2, "SelectorSpecError": 2,
    "RationalSyntaxError": 2,
    "EnumerationCapError": 3, "TailToleranceError": 3, "StrategySearchError": 3,
    "AuditBudgetError": 3,
    "ConstructionError": 5,
    "PreconditionError": 7, "IllegalMoveError": 7, "DomainRiskError": 7, "RestrictionError": 7,
    "UnsupportedIdealError": 7, "ImageUndecidableError": 7,
}


def package_exceptions() -> dict[str, type]:
    found = {}
    for layer in (*LAYERS, "cli"):
        module = importlib.import_module(f"subsum.{layer}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[obj.__name__] = obj
    return found


class TestExitCodes:
    def test_every_package_exception_keeps_its_exit_code(self):
        found = package_exceptions()
        # A new exception class needs its exit code written out above.
        assert sorted(found) == sorted(PACKAGE_EXIT_CODES)
        assert {name: cli._exit_code(cls) for name, cls in found.items()} == PACKAGE_EXIT_CODES

    @pytest.mark.parametrize("exc_type, code", [
        (ValueError, 2), (json.JSONDecodeError, 2), (UnicodeDecodeError, 2),
        (KeyError, 1), (TypeError, 1), (OSError, 1), (RuntimeError, 1),
        (ZeroDivisionError, 1), (RecursionError, 1),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_other_exceptions_keep_their_exit_codes(self, exc_type, code):
        assert cli._exit_code(exc_type) == code

    def test_a_subclass_takes_the_code_of_its_nearest_named_base(self):
        class Derived(subsum.UnsupportedIdealError):
            pass

        assert cli._exit_code(Derived) == 7


# ------------------------------------------------------------ error contract


ESCAPE_MODES = [
    ["--mode", "unbounded", "--stem", "{1}", "--row", "geometric"],
    ["--mode", "rowfinite", "--matrix", "cesaro", "--ideal", "z"],
]


class TestErrorContract:
    """Each input ends in a documented exit code and one run-log record."""

    def run_logged(self, capsys, tmp_path, argv):
        log = tmp_path / "runs.jsonl"
        code, out, err = run(capsys, argv + ["--runlog", str(log)])
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["exit"] == code
        return code, err, records[0]

    def write_cert(self, tmp_path, data):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        return str(path)

    # One run per place where an input writes a rational.
    @pytest.mark.parametrize("argv", [
        ["transform", "--matrix", "cesaro", "--x", "const:1/0"],
        ["transform", "--matrix", "cesaro", "--x", "list:1,2/0"],
        ["transform", "--matrix", "explicit:1/0", "--x", "n"],
        ["transform", "--matrix", "explicit:@rows.csv", "--x", "n"],
        ["escape", "--mode", "unbounded", "--row", "list:1/0", "--x", "n"],
        ["domain", "--matrix", "cesaro", "--x", "n", "--tol", "1/0"],
        ["transform", "--matrix", "cesaro", "--x", "n", "--tail-tol", "3/0"],
        ["escape", "--mode", "rowfinite", "--matrix", "cesaro", "--x", "n", "--m0", "1/0"],
    ], ids=lambda argv: " ".join(argv[1:]))
    def test_a_zero_denominator_exits_with_code_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rows.csv").write_text("1\n1/2,1/0\n")
        code, err, record = self.run_logged(capsys, tmp_path, argv)
        assert code == 2
        assert record["error"] == err.strip()
        assert err.startswith("RationalSyntaxError: not a finite rational: '") and "/0'" in err

    @pytest.mark.parametrize("key, value, reason", [
        ("lower", "1/0", "not a finite rational: '1/0'"),
        # A JSON number is refused by the rational reader before Fraction sees it.
        ("upper", float("inf"), "rationals are read from strings, not inf"),
        ("lower", 0.25, "rationals are read from strings, not 0.25"),
        ("lower", 0, "rationals are read from strings, not 0"),
        ("matrix", "explicit:1/0", "not a finite rational: '1/0'"),
        ("x", "const:1/0", "not a finite rational: '1/0'"),
        ("matrix", 5, "'int' object has no attribute 'strip'"),
    ])
    def test_a_certificate_with_an_unreadable_field_is_malformed(self, capsys, tmp_path,
                                                                 key, value, reason):
        path = self.write_cert(tmp_path, {
            "kind": "oscillation", "x": "alt", "matrix": "cesaro", "lower": "1/4",
            "upper": "3/4", "scales": [8], "lower_counts": [4], "upper_counts": [4], key: value,
        })
        code, err, _ = self.run_logged(capsys, tmp_path, ["verify", path])
        assert code == 2
        assert err.strip() == f"ValueError: malformed certificate: {reason}"

    def test_a_certificate_that_is_a_list_exits_with_code_2(self, capsys, tmp_path):
        path = self.write_cert(tmp_path, [1, 2, 3])
        code, err, _ = self.run_logged(capsys, tmp_path, ["verify", path])
        assert code == 2
        assert "malformed certificate" in err

    @pytest.mark.parametrize("scales", [[], [0], [-3]])
    def test_certificates_need_positive_scales(self, capsys, tmp_path, scales):
        # [-3] used to verify as true and [0] to divide by zero.
        counts = [0] * len(scales)
        path = self.write_cert(tmp_path, {
            "kind": "oscillation", "x": "alt", "matrix": "cesaro", "lower": "1/4",
            "upper": "3/4", "scales": scales, "lower_counts": counts, "upper_counts": counts,
        })
        code, err, _ = self.run_logged(capsys, tmp_path, ["verify", path])
        assert code == 2
        assert "at least one scale" in err

    @pytest.mark.parametrize("depth", [MAX_NESTING, 5000])
    def test_nesting_past_the_parser_limit_exits_with_code_2(self, capsys, tmp_path, depth):
        text = "complement:" * depth + "builtin:squares"
        code, err, record = self.run_logged(capsys, tmp_path, ["density", text, "--scale", "64"])
        assert code == 2
        assert "SetSyntaxError" in record["error"]

    @pytest.mark.parametrize("mode, flag", [("unbounded", "--row"), ("rowfinite", "--matrix")])
    def test_escape_without_its_mode_flag_exits_with_code_2(self, capsys, tmp_path, mode, flag):
        argv = ["escape", "--mode", mode, "--x", "n"]
        code, err, record = self.run_logged(capsys, tmp_path, argv)
        assert code == 2
        assert record["error"] == err.strip() == f"ValueError: escape --mode {mode} needs {flag}"

    def test_an_unwritable_out_path_exits_with_code_1(self, capsys, tmp_path):
        # The document is written before it is printed, so a failed write
        # prints nothing and logs no digest.
        log, path = tmp_path / "runs.jsonl", tmp_path / "missing" / "out.json"
        argv = ["density", "ap:1,3", "--scale", "64", "--out", str(path), "--runlog", str(log)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        [record] = [json.loads(line) for line in log.read_text().splitlines()]
        assert (record["exit"], record["digest"]) == (1, None)
        assert record["error"] == err.strip() and err.count("\n") == 1
        assert record["error"].startswith("FileNotFoundError")

    # The deepest tree of each shape that the parser accepts, in a stack
    # that leaves the walks 400 frames: nodes build their facts when they
    # are built, so no query of a fact walks the tree, and every walk,
    # a shift's count and scan included, takes one frame a level.
    @pytest.mark.parametrize("text", [
        "builtin:dyadic_blocks(" * (MAX_NESTING - 1) + "builtin:squares" + ")" * (MAX_NESTING - 1),
        "complement:" * (MAX_NESTING - 1) + "builtin:squares",
        "union:" * (MAX_NESTING - 1) + "builtin:squares" + "|builtin:powers2" * (MAX_NESTING - 1),
        "intersect:" * (MAX_NESTING - 1) + "builtin:squares"
        + "|builtin:powers2" * (MAX_NESTING - 1),
        "shift:" * (MAX_NESTING - 1) + "builtin:squares" + ",-1" * (MAX_NESTING - 1),
        "union:builtin:squares|" * (MAX_NESTING - 1) + "ap:1,2",
        "intersect:builtin:squares|" * (MAX_NESTING - 1) + "ap:1,2",
    ], ids=["dyadic_blocks", "complement", "union", "intersect", "shift", "union_squares",
            "intersect_squares"])
    def test_the_deepest_trees_end_in_a_documented_exit(self, capsys, tmp_path, text):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            for argv in (["density", text, "--scale", "4096", "--window", "64"],
                         *(["verdict", text, "--ideal", ideal]
                           for ideal in ("fin", "z", "bd", "finxfin"))):
                code, err, _ = self.run_logged(capsys, tmp_path, argv)
                (tmp_path / "runs.jsonl").unlink()
                assert code == 0, (argv[:1] + argv[2:], err)
        finally:
            sys.setrecursionlimit(limit)

    # Each built 2**t with t = 10**11 and exited 1 with MemoryError.
    @pytest.mark.parametrize("argv", [
        ["density", "builtin:nu2_ge(100000000000)", "--scale", "10"],
        ["verdict", "builtin:nu2_ge(100000000000)", "--ideal", "z"],
        ["verdict", "builtin:nu2_ge(4097)", "--ideal", "z"],
    ])
    def test_nu2_ge_past_the_render_bound_exits_with_code_2(self, capsys, tmp_path, argv):
        code, err, _ = self.run_logged(capsys, tmp_path, argv)
        assert code == 2
        assert err.startswith("SetSyntaxError: nu2_ge threshold must be between 0 and 4096")

    # Fraction builds 10**e for an exponent e: 1e-10000000 took 8 s, and a
    # farther one minutes.  One run per kind of place a spec writes a value.
    @pytest.mark.parametrize("argv", [
        ["transform", "--matrix", "cesaro", "--x", "const:1e-10000000", "--rows", "1"],
        ["transform", "--matrix", "cesaro", "--x", "list:1,1e-10000000", "--rows", "1"],
        ["transform", "--matrix", "explicit:1;1e-10000000,1", "--x", "n", "--rows", "1"],
        ["transform", "--matrix", "explicit:@rows.csv", "--x", "n", "--rows", "1"],
        ["verify", "cert.json"],
    ], ids=["const", "list", "explicit", "explicit_file", "certificate"])
    def test_a_far_exponent_exits_with_code_2_at_once(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rows.csv").write_text("1\n1/2,1e10000000\n")
        self.write_cert(tmp_path, {
            "kind": "oscillation", "x": "alt", "matrix": "cesaro", "lower": "1e-10000000",
            "upper": "3/4", "scales": [8], "lower_counts": [4], "upper_counts": [4],
        })
        started = time.perf_counter()
        code, err, _ = self.run_logged(capsys, tmp_path, argv)
        assert time.perf_counter() - started < 0.5
        assert code == 2
        assert "exponent past 8192, twice the 4096-bit render bound: '1e" in err

    def test_nesting_at_the_parser_limit_is_answered(self, capsys, tmp_path):
        text = "complement:" * (MAX_NESTING - 1) + "builtin:squares"
        argv = ["verdict", text, "--ideal", "bd", "--scale", "64"]
        code, _, _ = self.run_logged(capsys, tmp_path, argv)
        assert code == 0

    def test_certificates_over_the_row_budget_exit_with_code_3(self, capsys, tmp_path):
        scale = DEFAULT_COLUMN_CAP + 1
        path = self.write_cert(tmp_path, {
            "kind": "oscillation", "x": "alt", "matrix": "cesaro", "lower": "1/4",
            "upper": "3/4", "scales": [scale], "lower_counts": [0], "upper_counts": [0],
        })
        started = time.perf_counter()
        code, err, record = self.run_logged(capsys, tmp_path, ["verify", path])
        assert time.perf_counter() - started < 5
        assert code == 3
        assert "AuditBudgetError" in record["error"]

    def test_identity_adversaries_past_the_row_budget_are_certified(self, capsys):
        # The identity counts each run whole, so 10^9 rows are 30 runs.
        argv = ["adversary", "--matrix", "identity", "--scale", str(10**9)]
        started = time.perf_counter()
        code, out, _ = run(capsys, argv)
        assert time.perf_counter() - started < 1
        assert code == 0 and json.loads(out)["status"] == "certified"

    def test_block_floors_past_the_escape_budget_exit_with_code_3(self, tmp_path):
        # Dyadic block 30 starts at 2^30: the escape refuses before the
        # partition scan reaches it, in a fresh interpreter.
        log = tmp_path / "runs.jsonl"
        argv = ["escape", "--mode", "rowfinite", "--matrix", "cesaro", "--x", "n",
                "--ideal", "z", "--block-floor", "30", "--runlog", str(log)]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "subsum.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=10)
        assert time.perf_counter() - started < 2
        assert done.returncode == 3
        assert f"over the audit budget of {DEFAULT_COLUMN_CAP} integers" in done.stderr
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["exit"] for r in records] == [3]

    @pytest.mark.parametrize("ideal,floor", [("z", 10**5), ("z", 10**20), ("fin", 10**20)])
    def test_far_block_floors_are_refused_by_index(self, capsys, tmp_path, ideal, floor):
        # Dyadic block 10^5 starts at 2^100000, too long to print, and block
        # 10^20 at a power of 2 too large to build: both are refused before
        # any boundary past the budget's last block is built.
        argv = ["escape", "--mode", "rowfinite", "--matrix", "cesaro", "--x", "n",
                "--ideal", ideal, "--block-floor", str(floor)]
        code, err, record = self.run_logged(capsys, tmp_path, argv)
        assert code == 3
        last = 19 if ideal == "z" else DEFAULT_COLUMN_CAP
        assert (f"AuditBudgetError: escape block {floor} lies past block {last}: its scan "
                f"length is over the audit budget of {DEFAULT_COLUMN_CAP} integers") in err

    @pytest.mark.parametrize("ideal, refusal", [
        ("fin", "entry count 2097154"),
        ("z", "row count 4194304"),
    ], ids=["fin", "z"])
    def test_sparse_surviving_rows_exit_with_code_3(self, capsys, tmp_path, ideal, refusal):
        # Rows 1..2^21 are dropped.  Along fin, the singleton partition's
        # restricted block 1 is row 2^21 + 1, found by one member search, and
        # block 2 holds more entries than the budget.  Along z, block 1 holds
        # 2^21 - 1 rows and block 2 the 2^22 rows [2^22, 2^23): the walk counts
        # them off the scan flags and lists neither block.
        argv = ["escape", "--mode", "rowfinite", "--matrix",
                "rowdrop:cesaro:complement:ap:2097153,1", "--x", "n", "--ideal", ideal]
        started = time.perf_counter()
        tracemalloc.start()
        try:
            code, err, record = self.run_logged(capsys, tmp_path, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 2
        assert code == 3
        assert f"AuditBudgetError: escape block 2 {refusal}" in record["error"]
        assert peak < 64 << 20

    def test_block_floors_whose_entries_pass_the_budget_exit_with_code_3(self, capsys, tmp_path):
        # Block 10 of cesaro rows holds 1572352 entries, over 2^20; block 9
        # (392960 entries) is still answered.
        argv = ["escape", "--mode", "rowfinite", "--matrix", "cesaro", "--x", "n",
                "--ideal", "z", "--block-floor", "10"]
        code, err, record = self.run_logged(capsys, tmp_path, argv)
        assert code == 3
        assert "AuditBudgetError" in record["error"]
        assert "entry count 1572352 is over the audit budget" in err

    def test_nested_row_drops_count_like_one_union_drop(self, capsys, tmp_path):
        # rowdrop:rowdrop:cesaro:A:B is rowdrop:cesaro:union:A|B, so it has
        # the same run form and answers at 10^9 rows.
        reports = []
        for spec in ("rowdrop:rowdrop:cesaro:ap:1,2:ap:1,3", "rowdrop:cesaro:union:ap:1,2|ap:1,3"):
            log = tmp_path / f"runs{len(reports)}.jsonl"
            argv = ["adversary", "--matrix", spec, "--mode", "greedy", "--scale", str(10**9)]
            started = time.perf_counter()
            code, out, _ = run(capsys, argv + ["--runlog", str(log)])
            assert time.perf_counter() - started < 1
            records = [json.loads(line) for line in log.read_text().splitlines()]
            assert code == 5 and [r["exit"] for r in records] == [5]
            reports.append(json.loads(out))
        nested, union = reports
        assert nested["matrix"] == "rowdrop:rowdrop:cesaro:ap:1,2:ap:1,3"
        for key in ("scales", "lower_counts", "upper_counts"):
            assert nested["certificate"][key] == union["certificate"][key]

    def test_run_form_certificates_past_the_row_budget_are_written_not_audited(
        self, capsys, tmp_path
    ):
        cert = tmp_path / "big.json"
        argv = ["adversary", "--mode", "greedy", "--scale", str(10**9),
                "--certificate-out", str(cert)]
        started = time.perf_counter()
        code, _, _ = self.run_logged(capsys, tmp_path, argv)
        assert code == 0
        (tmp_path / "runs.jsonl").unlink()
        code, err, record = self.run_logged(capsys, tmp_path, ["verify", str(cert)])
        assert time.perf_counter() - started < 1
        assert code == 3
        assert "AuditBudgetError" in record["error"]

    @pytest.mark.parametrize("argv", [
        ["domain", "--matrix", "gen:geometric", "--x", "const:1", "--row", "1",
         "--tol", "1e-100000"],
        ["transform", "--matrix", "gen:geometric", "--x", "const:1", "--rows", "1",
         "--tail-tol", "1e-158000"],
        ["transform", "--matrix", "gen:geometric", "--x", "alt", "--rows", "1",
         "--tail-tol", f"1/{2**14000}"],
        ["oscillate", "--x", "alt", "--tol", "1e-1234"],
    ])
    def test_tolerances_over_4096_bits_exit_with_code_2(self, capsys, tmp_path, argv):
        # Exact tail sums to such tolerances ran for minutes.
        started = time.perf_counter()
        code, err, record = self.run_logged(capsys, tmp_path, argv)
        assert time.perf_counter() - started < 1
        assert code == 2
        assert record["digest"] is None

    def test_tolerances_are_exact_up_to_4096_bits(self):
        assert cli._bounded_rational("1e-1233", "tolerances") == Fraction(1, 10**1233)
        assert cli._bounded_rational(f"-{2**4096 - 1}", "tolerances") == -(2**4096 - 1)
        for text in (f"1/{2**4096}", "1e1234", "1e-99999"):
            with pytest.raises(ValueError):
                cli._bounded_rational(text, "tolerances")

    @pytest.mark.parametrize("mode", ESCAPE_MODES)
    @pytest.mark.parametrize("m0", ["1e5000000", "1e50000000", "1e5000", f"1/{2**4100}"])
    def test_bounds_over_4096_bits_exit_with_code_2(self, capsys, tmp_path, mode, m0):
        # Escapes past such bounds ran for seconds or without end, and then
        # failed to print their picks.
        started = time.perf_counter()
        argv = ["escape", *mode, "--x", "n", "--m0", m0]
        code, err, record = self.run_logged(capsys, tmp_path, argv)
        assert time.perf_counter() - started < 1
        assert code == 2
        assert "4096-bit" in err and "4096-bit" in record["error"]
        assert record["digest"] is None

    @pytest.mark.parametrize("mode", ESCAPE_MODES)
    def test_bounds_are_exact_up_to_4096_bits(self, capsys, mode):
        code, d = run_json(capsys, ["escape", *mode, "--x", "n", "--m0", str(2**4000 - 1)])
        assert code == 0 and d["holds"]
        # The unbounded escape's bound is m0 + 1.
        assert Fraction(d["bound"]) == 2**4000 - (mode[1] == "rowfinite")

    def test_matrix_ideals_that_are_not_regular_exit_with_code_7(self, capsys, tmp_path):
        argv = ["verdict", "ap:1,2", "--ideal", "matrix:rowdrop:cesaro:builtin:squares"]
        code, err, record = self.run_logged(capsys, tmp_path, argv)
        assert code == 7
        assert "UnsupportedIdealError" in record["error"]

    @pytest.mark.parametrize("argv", [
        ["escape", "--mode", "rowfinite", "--matrix", "cesaro", "--x", "n", "--m0", "1"],
        ["demo", "--schedule", "1,2"],
    ])
    def test_unmet_escape_bounds_exit_with_code_5(self, capsys, tmp_path, monkeypatch, argv):
        real = cli.constructions.escape_rowfinite

        def unmet(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), holds=False)

        monkeypatch.setattr(cli.constructions, "escape_rowfinite", unmet)
        code, _, record = self.run_logged(capsys, tmp_path, argv)
        assert code == 5
        assert record["error"] is None
        assert record["digest"] is not None

    def test_unexpected_exceptions_exit_with_code_1(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("broken on purpose")

        monkeypatch.setattr(cli.setlang, "density_report", broken)
        code, err, record = self.run_logged(capsys, tmp_path, ["density", "ap:1,2"])
        assert code == 1
        assert record["digest"] is None
        assert record["error"] == "ZeroDivisionError: broken on purpose"


# A seeded fuzz slice over the transform-kernel commands, the escape, and
# density and verdict over the set DSL: every matrix kind and a row drop over
# each, the named and literal sequences, every ideal kind, and hostile row
# counts, rows, tolerances, certificates, stems, bounds, block floors,
# scales, windows and set expressions (deep nesting, huge shifts, big
# literals, sparse atoms meeting progressions).
_FUZZ_DROPS = {
    "cesaro": "builtin:squares",
    "identity": "ap:1,2",
    "explicit:1;0,1/2;1/3,1/3,1/3": "finite:{1}",
    "gen:geometric": "finite:{2}",
    "gen:rand_rowfinite_3": "ap:2,3",
}
_FUZZ_MATRICES = [*_FUZZ_DROPS, *(f"rowdrop:{m}:{drop}" for m, drop in _FUZZ_DROPS.items())]
_FUZZ_SEQUENCES = ["n", "nalt", "alt", "sqperturb", "const:-5/3", "list:1,-2,3/4", "rle:1x3,0x2",
                   "const:1/0", "const:1e-10000000"]
_FUZZ_ROWS = ["geometric", "harmonic", "ones", "list:0,0,1", "list:0", "list:1/0"]
_FUZZ_HOSTILE = {
    "--rows": ["0", "-1", str(10**20)],
    "--row": ["0", str(10**20)],
    "tolerance": ["0", "1e-100000", "1/1" + "0" * 5000, "1/0"],
    "--stem": ["3,1", "2,2", "0", "-4", "1,x", str(10**20)],
    "--m0": ["0", "-1", "abc", "1e-100000", "1/1" + "0" * 5000, "1" + "0" * 30, "1/0"],
    "--block-floor": ["0", "-1", "20", str(10**20)],
    "--scale": ["0", "-1", str(2**32), str(10**20)],
    "--window": ["0", "-1", "4097", str(10**20)],
}
_FUZZ_SETS = [
    "ap:7,6", "builtin:squares", "union:builtin:squares|builtin:powers2",
    "intersect:builtin:squares|ap:2,3", "union:builtin:powers2|ap:1,3",
    "intersect:builtin:powers2|complement:ap:1,2", "union:ap:1,2|finite:{4000}",
    "builtin:dyadic_blocks(intersect:builtin:squares|shift:builtin:powers2,1)",
    "complement:" * 255 + "builtin:squares", "union:builtin:squares|" * 255 + "ap:1,2",
    "complement:" * 256 + "ap:1,2", "shift:ap:1,2,-1" + "0" * 20,
    "builtin:dyadic_blocks(" * 255 + "builtin:squares" + ")" * 255,
    "shift:builtin:squares,1" + "0" * 20, "finite:{3,1" + "0" * 30 + "}", "ap:1,1" + "0" * 20,
]
_FUZZ_IDEALS = ["fin", "z", "bd", "finxfin", "matrix:cesaro"]
_FUZZ_CERTIFICATES = ["{not json", "[1, 2]", '{"kind": "oscillation"}',
                      '{"kind": "oscillation", "matrix": "wat", "x": "n"}',
                      '{"kind": "oscillation", "matrix": "cesaro", "x": "n", "lower": "1/0", '
                      '"upper": "3/4", "scales": [8], "lower_counts": [4], "upper_counts": [4]}',
                      '{"kind": "oscillation", "matrix": "cesaro", "x": "alt", "lower": "1/4", '
                      '"upper": "3/4", "scales": [8.5], "lower_counts": [4], "upper_counts": [4]}']


def _fuzz_argv(rng, path):
    """One run's argv: half the transform, domain, escape, density and
    verdict runs take one hostile value, half the regularity runs a huge
    scale, half the certificates are malformed, and a quarter of the density
    runs print CSV."""
    m, x = rng.choice(_FUZZ_MATRICES), rng.choice(_FUZZ_SEQUENCES)
    command = rng.choice(["transform", "domain", "regularity", "verify", "escape",
                          "density", "verdict"])
    if command == "regularity":
        scale = rng.choice(["64", str(10**20)])
        return [command, "--matrix", m, "--ideal", rng.choice(["fin", "z"]), "--scale", scale]
    if command == "verify":
        cert = {"kind": "oscillation", "x": x, "matrix": m, "lower": "1/4", "upper": "3/4",
                "scales": [8], "lower_counts": [4], "upper_counts": [4]}
        path.write_text(rng.choice([json.dumps(cert)] * 4 + _FUZZ_CERTIFICATES))
        return [command, str(path)]
    head = [command, "--matrix", m, "--x", x]
    if command == "density":
        head = [command, rng.choice(_FUZZ_SETS)] + (["--csv"] if rng.random() < 0.25 else [])
        flags = {"--scale": "4096", "--window": "64"}
    elif command == "verdict":
        head = [command, rng.choice(_FUZZ_SETS), "--ideal", rng.choice(_FUZZ_IDEALS)]
        flags = {"--scale": "4096"}
    elif command == "escape" and rng.random() < 0.5:
        head = [command, "--mode", "unbounded", "--row", rng.choice(_FUZZ_ROWS), "--x", x]
        flags = {"--stem": "1,2", "--m0": "2"}
    elif command == "escape":
        head += ["--mode", "rowfinite", "--ideal", rng.choice(["fin", "z"])]
        flags = {"--stem": "1,2", "--m0": "2", "--block-floor": "1"}
    elif command == "transform":
        flags = {"--rows": "5", "--tail-tol": "1/1000"}
    else:
        flags = {"--row": "3", "--tol": "1/1000"}
    if rng.random() < 0.5:
        flag = rng.choice(list(flags))
        flags[flag] = rng.choice(_FUZZ_HOSTILE.get(flag, _FUZZ_HOSTILE["tolerance"]))
    return [*head, *(t for item in flags.items() for t in item)]


def test_a_fuzz_slice_exits_documented_and_logs_once(capsys, tmp_path):
    rng = random.Random(2028)
    log = tmp_path / "runs.jsonl"
    for i in range(200):
        argv = _fuzz_argv(rng, tmp_path / "cert.json")
        code, out, err = run(capsys, argv + ["--runlog", str(log)])
        assert code in (0, 2, 3, 4, 5, 6, 7), (argv, err)  # 1 is an unexpected failure
        records = log.read_text().splitlines()
        assert len(records) == i + 1 and json.loads(records[-1])["exit"] == code, argv
        printed = json.loads(out).get("matrix") if out and "--csv" not in argv else None
        if printed is not None:
            assert parse_matrix(printed).spec_string() == printed, argv
            assert argv[0] == "verify" or parse_matrix(printed) == parse_matrix(argv[2]), argv


# Three inputs whose work grew with one flag: the oscillation's value list
# with --scale, the metric's columns with --resolution, and the tower game's
# replies (2^r in round r) with --rounds, until JSON refused a 4301-digit reply.
@pytest.mark.parametrize("argv", [
    ["oscillate", "--x", "alt", "--scale", "10000000"],
    ["metric", "--s1", "even", "--s2", "odd", "--resolution", "10000000"],
    ["game", "--rounds", "15000", "--ideal", "finxfin", "--strategy", "greedy_min"],
], ids=lambda argv: argv[0])
def test_growing_work_is_refused_by_a_budget_within_a_second_cold(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "subsum.cli", *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=30)
    assert time.monotonic() - started < 1.0
    assert (done.returncode, done.stdout) == (3, ""), done.stderr


@pytest.mark.parametrize("argv, refusal", [
    (["game", "--ideal", "finxfin", "--strategy", "greedy_min", "--rounds", "4096"],
     "replied 4097 bits"),
    (["game", "--ideal", "z", "--moves", "complement:finite:{1}", "--rounds", "4097"],
     "4097 rounds are over the budget of 4096"),
    (["game", "--ideal", "fin", "--moves", "ap:1,1", "--strategy", "prefix_take",
      "--rounds", "1000"], "bits; a reply prints at most 4096"),
    (["metric", "--s1", "random:1:0.5:100000000000000000000", "--s2", "id"],
     "random selector stem limit"),
])
def test_games_and_random_selectors_stay_in_their_budgets(capsys, argv, refusal):
    started = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "") and refusal in err, err


def test_a_metric_prints_exactly_up_to_its_budget(capsys):
    argv = ["metric", "--s1", "gen:squares", "--s2", "odd", "--resolution"]
    code, d = run_json(capsys, [*argv, "4095"])
    assert code == 0
    assert Fraction(d["upper"]) - Fraction(d["lower"]) == Fraction(1, 2**4095)
    code, out, err = run(capsys, [*argv, "4096"])
    assert (code, out) == (3, "") and "is over 4095 columns" in err


# A second seeded slice over the constructions, selectors and games: hostile
# scales, stems, tolerances, schedules, resolutions, selectors, rounds and
# moves for oscillate, adversary, demo, metric and game.
_FUZZ_MORE_HOSTILE = {
    "--scale": _FUZZ_HOSTILE["--scale"],
    "--stem": _FUZZ_HOSTILE["--stem"],
    "--tol": _FUZZ_HOSTILE["tolerance"],
    "--schedule": ["0", "-1", "", "1,x", "30", str(10**20)],
    "--resolution": ["0", "-1", "4097", str(10**20)],
    "selector": ["random:1:2", "random:1:0.5:" + str(10**20), "stem:{3,2}+consec", "stem:{1}",
                 "gen:wat", "stem:{" + str(10**20) + "}+consec", "stem:{1}+gen:odd"],
    "--rounds": ["0", "-1", "4097", str(10**20)],
    "--moves": [*_FUZZ_SETS, "wat", ";", "complement:finite:{" + "1" * 5000 + "}",
                "ap:1" + "0" * 2000 + ",1", "complement:builtin:squares;ap:1,1"],
}
_FUZZ_STRATEGIES = ["greedy_min", "prefix_density", "prefix_take", "seeded_random:7", "wat"]


def _fuzz_more_argv(rng):
    """One run's argv: half the runs take one hostile value."""
    m, x = rng.choice(_FUZZ_MATRICES), rng.choice(_FUZZ_SEQUENCES)
    command = rng.choice(["oscillate", "adversary", "demo", "metric", "game"])
    if command == "oscillate":
        head, flags = [command, "--matrix", m, "--x", x], {"--scale": "512", "--stem": "1,2",
                                                            "--tol": "1/16"}
    elif command == "adversary":
        head = [command, "--matrix", m, "--mode", rng.choice(["blocks", "greedy"])]
        flags = {"--scale": "512"}
    elif command == "demo":
        head = [command, "--matrix", m, "--x", x, "--ideal", rng.choice(["fin", "z"])]
        flags = {"--schedule": "1,2"}
    elif command == "metric":
        head, flags = [command], {"--s1": "even", "--s2": "stem:{1,3}+consec",
                                  "--resolution": "64"}
    else:
        head = [command, "--ideal", rng.choice(_FUZZ_IDEALS[:4]),
                "--strategy", rng.choice(_FUZZ_STRATEGIES)]
        flags = {"--moves": rng.choice(["nu2tower", "complement:finite:{1}", "ap:1,1"]),
                 "--rounds": "6"}
    if rng.random() < 0.5:
        flag = rng.choice(list(flags))
        flags[flag] = rng.choice(_FUZZ_MORE_HOSTILE.get(flag, _FUZZ_MORE_HOSTILE["selector"]))
    return [*head, *(t for item in flags.items() for t in item)]


def test_a_second_fuzz_slice_exits_documented_and_logs_once(capsys, tmp_path):
    rng = random.Random(2029)
    log = tmp_path / "runs.jsonl"
    for i in range(200):
        argv = _fuzz_more_argv(rng)
        code, out, err = run(capsys, argv + ["--runlog", str(log)])
        assert code in (0, 2, 3, 4, 5, 6, 7), (argv, err)  # 1 is an unexpected failure
        records = log.read_text().splitlines()
        assert len(records) == i + 1 and json.loads(records[-1])["exit"] == code, argv
        assert bool(out) != bool(err), (argv, err)  # a result or a refusal, never both


# sha256 of the printed JSON of escapes and a demo, recorded before the
# escape's column loop moved to integer pairs and its re-check to prefix
# sums of the picks, and of transforms, domain checks, adversaries with
# their verified certificates and an oscillation, recorded before every
# kernel read x itself: identical inputs print byte-identical output.  A
# command chained with " && " runs after the one before it in the same
# directory, and the digest covers everything the chain prints.
PRINTED_DIGESTS = {
    "escape --mode rowfinite --matrix cesaro --x n --ideal z --m0 1":
        "a05d6688818bea34e06df24d6f0fe3619d905689aa89b667c241d23f3cf9a6ef",
    "escape --mode rowfinite --matrix cesaro --x n --ideal z --m0 4":
        "6277781c114143574aa7879f4545fecbf1903bd05ae27c4da82fa18b55fc1671",
    "escape --mode rowfinite --matrix cesaro --x nalt --ideal z --m0 1":
        "6e6c3cd78928d22c72771676c5efe1c104f094eea998d17c851d2b4ebc088f6c",
    "escape --mode rowfinite --matrix cesaro --x nalt --ideal z --m0 4":
        "a5d5f9b6bd1d4b6541f830f195f0d80a2c6cf8d0b62fbaf66d3d3a497583fdfc",
    "escape --mode rowfinite --matrix cesaro --x sqperturb --ideal z --m0 1":
        "835ca28a69942311adf942db98300130962c3862fecbb187fdcefd05095af48e",
    "escape --mode rowfinite --matrix cesaro --x sqperturb --ideal z --m0 4":
        "cbdc3a68bf14941a10b18314959a10a4cf2e4444e0c08f777d74fc0c00397893",
    "escape --mode rowfinite --matrix cesaro --x n --ideal fin --m0 1 --block-floor 5":
        "1269a4ffb320cea93cf8ae88462caefe7ca71a2364a343386c419eac0eb1310a",
    "escape --mode rowfinite --matrix cesaro --x n --ideal fin --m0 4 --block-floor 5":
        "7b7abcb726e1d7d03a49e99122f22d45ca883f1ba0949a11d4b5338c66613a79",
    "escape --mode rowfinite --matrix cesaro --x nalt --ideal fin --m0 1 --block-floor 5":
        "34b1f5f08bdcbcaf684dfe87cbff3d7e0b1031ef2eb1997a77b7eb004dd5a559",
    "escape --mode rowfinite --matrix cesaro --x nalt --ideal fin --m0 4 --block-floor 5":
        "c68ec4a080b62edb42805465766d122656e0d9e74e595321e132c92b5d9e865b",
    "escape --mode rowfinite --matrix cesaro --x sqperturb --ideal fin --m0 1 --block-floor 5":
        "73d4e3c4674f8f55adefc7d1ab9205209fadc0925860d1217cda4b44b9494c81",
    "escape --mode rowfinite --matrix cesaro --x sqperturb --ideal fin --m0 4 --block-floor 5":
        "33beb44bb184a554770661afaf0280206834f28f019782d8ff9a83149bacef12",
    "demo --schedule 1,2,4,8":
        "400478d48b1b37fd897a508b1f4fa3c5fdfc1e433a9202c3c85a74505d00794d",
    "transform --matrix cesaro --x alt --rows 8":
        "b63300549b18930b6efade87b84f7035a97993f88a776c88165f9935df2937da",
    "transform --matrix rowdrop:cesaro:builtin:squares --x nalt --rows 12":
        "4986af846dd04c38eeb1eb4ddf16fff0f5e0fc21c32c96be76f0e612fae454ab",
    "transform --matrix gen:rand_rowfinite_3 --x sqperturb --rows 10":
        "1dc12c8ccfa6cbcc818a0e87b4e693f211f9c11a7f6fdae2b2fd96325e2ea561",
    "transform --matrix explicit:1;1/2,1/2;0,1/3,2/3 --x n --rows 5":
        "2e61a00a2c0e74e353703ba87c6c72520b5fc0582fffb447dfa64ade2d9333fb",
    "transform --matrix identity --x rle:1x3,0x2,1x4 --rows 12":
        "65b9c382017ed7faa60137ca1d7fd128a3a8f588bf501d85be09c2a9b5c64bb3",
    "transform --matrix gen:geometric --x alt --rows 4 --tail-tol 1/1000000":
        "257bbe69a079282debe357ff614133c8db51cce4f5cd0ffb6860d9835f1f65d9",
    "transform --matrix gen:geometric --x n --rows 2 --tail-tol 1/100":
        "b7179824fed1989bc562f9ceccac3a77027f6ab92270abc526dff84f72780394",
    "domain --matrix cesaro --x alt --row 5":
        "95a97b0fd2d11abe19e749309bafc99658b00ee07211608e75caea0c9f05f286",
    "domain --matrix gen:geometric --x alt --row 2":
        "d595807ece5e0c975014dfa84757a9473fcf0d77e0980311a6ca9930e0c786d8",
    "domain --matrix gen:geometric --x n --row 1 --tol 1/1000":
        "1e637f67da5b4537d2667e26a554acf76e97946ae890f9d509d63bef332c8e7e",
    "domain --matrix gen:geometric --x sqperturb --row 3":
        "5336a6f38b5b15a9050f7239d4cfdf1db3c710fa733c539f4a61364d89d43854",
    "adversary --matrix cesaro --scale 4096 --certificate-out c.json && verify c.json":
        "b0c2454a48424693db97544db6ca5480620a94c2db1743a91e51d316e8fde865",
    "adversary --matrix rowdrop:cesaro:builtin:squares --mode greedy --scale 4096"
    " --certificate-out c.json && verify c.json":
        "14cd1f9f517d8019979d1a6300723025ec5e2169345641b94ad7df19447abaa2",
    "adversary --matrix identity --scale 2048 --certificate-out c.json && verify c.json":
        "3b56fe006e86fe6ce495c99fe608e189f594b435e1f477019fc055037c0bcfae",
    "adversary --matrix rowdrop:rowdrop:cesaro:ap:1,2:ap:1,3 --mode greedy --scale 1000000000":
        "f4bc33d8c24595f222bac91128315b7d46c82463a03e1e5f76ef000aff0ab87d",
    "oscillate --x alt":
        "ebe7e4115b9db46c2ee6ed439fe61c6da663c3e6874e6e62377972aa91447328",
    # R2 prints the limit search's status for each sampled column.
    "regularity --matrix gen:rand_rowfinite_3 --ideal z --scale 256":
        "a5213d0ef53ddab123a3f07d98c416f7c845263fd490c7a2ae6af8b02abdba05",
    "regularity --matrix gen:rand_rowfinite_3 --ideal fin --scale 256":
        "bb2cfe64eac223718f0e3e36a7d1dd03f0e491c8920938a75f85a8bb1dfaef1a",
    "regularity --matrix gen:rand_rowfinite_3 --ideal bd --scale 256":
        "2a0c5626a8ea6c67f1bf11598d467933839af063abdfd6777e71f28e5d6d63b0",
    "regularity --matrix rowdrop:gen:rand_rowfinite_3:finite:{2} --ideal z --scale 256":
        "0aa167b45a3d4f2ef1561fe3cd2c949bb69021dab1868ca4f9f13a9c948fe1a2",
    # Density reports and undecided verdicts, recorded before window maxima
    # skipped blocks that repeat one period earlier and sparse sides counted
    # by listing their members.
    "density ap:7,6 --scale 1000000 --window 64":
        "fff5ac5867783cebee959efc3b2066c4e88b93b3c2610ccd6da9e08f9e5bd97e",
    "density union:ap:1,2|finite:{100000} --scale 200000 --window 64":
        "bcbc24bd2c8e5d63233758e3e3f85ba45081b7c0620520c073ccf24effcf179f",
    "density union:ap:7,10|builtin:squares --scale 140000 --window 64":
        "1c18ee90c4b0210522b187f7092618d2d38c21a26c62757c03dcfdbb5a1c9b90",
    "density union:builtin:squares|builtin:powers2 --scale 1000000":
        "938fad4642f3cabf873b8ec72e22e66d1669bd4085e972e8a310327c4153164e",
    "verdict intersect:builtin:squares|builtin:powers2 --ideal fin --scale 1000000":
        "764e8528417cdc8133da2ee62d03b491192c3720aed0ec7a5cadf949b8479b6b",
    "verdict union:builtin:dyadic_blocks(intersect:builtin:squares|shift:builtin:powers2,1)|builtin:squares"
    " --ideal z --scale 1000000":
        "0692857a388135d7b01c0c7903269a00612a93385640d21f20175071b5ca0b11",
    "verdict builtin:dyadic_blocks(intersect:builtin:squares|shift:builtin:powers2,1)"
    " --ideal bd --scale 140000":
        "e07f55206d30d0adf799f6864150ba7b0b8fd9c1914558d0a486a1282da827d0",
    "verdict intersect:builtin:dyadic_blocks(intersect:builtin:squares|shift:builtin:powers2,1)|ap:1,2"
    " --ideal bd --scale 140000":
        "28ebfb990084d564e14e306716b9e70984180d410f30004dd71374317d184f3a",
    "verdict intersect:builtin:squares|ap:2,3 --ideal fin --scale 1000000":
        "bf468d0993e251b01d46bc16d49d6b8106e3798d86424e046dacb98a80988fbe",
}
# The pinned commands that end with an exit code other than 0.
PINNED_EXITS = {
    "domain --matrix gen:geometric --x sqperturb --row 3": 3,
    "adversary --matrix rowdrop:rowdrop:cesaro:ap:1,2:ap:1,3 --mode greedy --scale 1000000000": 5,
    "regularity --matrix gen:rand_rowfinite_3 --ideal z --scale 256": 5,
    "regularity --matrix gen:rand_rowfinite_3 --ideal fin --scale 256": 5,
    "regularity --matrix gen:rand_rowfinite_3 --ideal bd --scale 256": 5,
    "regularity --matrix rowdrop:gen:rand_rowfinite_3:finite:{2} --ideal z --scale 256": 5,
}


@pytest.mark.parametrize("command", sorted(PRINTED_DIGESTS))
def test_escape_and_demo_output_is_pinned(capsys, monkeypatch, tmp_path, command):
    # A certificate is written and verified under a relative name, so the
    # path that verify prints is the same in every run.
    monkeypatch.chdir(tmp_path)
    codes, printed = [], []
    for part in command.split(" && "):
        code, out, _ = run(capsys, part.split())
        codes.append(code)
        printed.append(out)
    assert codes == [0] * (len(codes) - 1) + [PINNED_EXITS.get(command, 0)]
    digest = hashlib.sha256("".join(printed).encode("utf-8")).hexdigest()
    assert digest == PRINTED_DIGESTS[command]
