"""Command-line front end.

Every command prints one deterministic JSON document (rationals rendered as
"p/q" strings) and exits with a code that states what happened:

    0  success
    1  unexpected failure (any other exception)
    2  could not parse an input (set DSL, matrix, sequence, selector,
       certificate, args)
    3  a scan, tail-bound or audit budget ran out before a certified answer
    4  the matrix was certified not regular
    5  the result is diagnostic-only (no certificate at this scale)
    6  a certificate failed verification
    7  a precondition or move legality check failed, or the ideal is
       unsupported

The optional run log (--runlog) appends one JSON line per invocation with a
timestamp, the argument vector, and the sha256 digest of the printed
output; the printed output itself never contains the timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import constructions, games, ideals, setlang, sigma, summability
from ._version import __version__

OK = 0
FAIL = 1
PARSE_ERROR = 2
BUDGET_EXCEEDED = 3
NOT_REGULAR = 4
DIAGNOSTIC_ONLY = 5
VERIFY_FAILED = 6
PRECONDITION_FAILED = 7


def _frac(value: Fraction | None) -> str | None:
    return None if value is None else setlang._bounded_str(Fraction(value))


def _bounded_rational(text: str, what: str) -> Fraction:
    """A tolerance or bound with numerator and denominator of at most
    RENDER_BITS bits: exact tail sums to finer tolerances run for minutes,
    and escapes past larger bounds pick indices that no spec string prints."""
    value, bits = summability.parse_rational(text), setlang.RENDER_BITS
    if max(abs(value.numerator), value.denominator).bit_length() > bits:
        raise ValueError(f"{what} are limited to {bits}-bit numerators and denominators")
    return value


def _parse_stem(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


# ------------------------------------------------------------------ commands


def _cmd_density(args) -> tuple[dict, int]:
    s = setlang.parse_set(args.set)
    report = setlang.density_report(s, args.scale, window=args.window)
    if args.csv:
        return {"csv": setlang.density_csv(report)}, OK
    payload = {
        "set": setlang.render(report.description),
        "scale": args.scale,
        "prefix_counts": [[n, c] for n, c in report.prefix_counts],
        "ratios": [
            [n, _frac(r), setlang.fraction_decimal(r)] for n, r in report.ratios()
        ],
        "lower_estimate": _frac(report.lower_estimate),
        "upper_estimate": _frac(report.upper_estimate),
        "exact": _frac(report.exact),
    }
    if report.banach_upper is not None:
        density, window = report.banach_upper
        payload["window"] = window
        payload["window_max_density"] = _frac(density)
    return payload, OK


def _cmd_verdict(args) -> tuple[dict, int]:
    ideal = ideals.parse_ideal(args.ideal)
    s = setlang.parse_set(args.set)
    verdict = ideal.verdict(s, args.scale)
    payload = {
        "ideal": ideal.name,
        "set": setlang.render(s),
        "status": verdict.status,
        "reason": verdict.reason,
        "scale": verdict.scale,
        "evidence": verdict.evidence,
    }
    return payload, OK


def _cmd_regularity(args) -> tuple[dict, int]:
    matrix = summability.parse_matrix(args.matrix)
    ideal = ideals.parse_ideal(args.ideal)
    verdict = summability.regularity_verdict(matrix, ideal, n_rows=args.scale)
    payload = {
        "matrix": verdict.matrix_spec,
        "ideal": verdict.ideal_name,
        "overall": verdict.overall,
        "conditions": {
            label: {
                "holds": rep.holds,
                "certified": rep.certified,
                "detail": rep.detail,
                "data": rep.data,
            }
            for label, rep in (
                ("row_l1_bound", verdict.r1),
                ("columns_vanish", verdict.r2),
                ("row_sums_to_one", verdict.r3),
            )
        },
        "witness": verdict.witness,
    }
    if verdict.overall == "not_regular":
        return payload, NOT_REGULAR
    if verdict.overall == "undecided":
        return payload, DIAGNOSTIC_ONLY
    return payload, OK


def _cmd_transform(args) -> tuple[dict, int]:
    matrix = summability.parse_matrix(args.matrix)
    x = summability.parse_sequence(args.x)
    tail_tol = _bounded_rational(args.tail_tol, "tolerances")
    points = summability.transform_prefix(matrix, x, args.rows, tail_tol=tail_tol)
    payload = {
        "matrix": matrix.spec_string(),
        "x": x.name,
        "rows": [
            {"n": p.n, "value": _frac(p.value), "tail_bound": _frac(p.tail_bound)}
            for p in points
        ],
    }
    return payload, OK


def _cmd_domain(args) -> tuple[dict, int]:
    matrix = summability.parse_matrix(args.matrix)
    x = summability.parse_sequence(args.x)
    check = summability.domain_check(matrix, x, args.row, _bounded_rational(args.tol, "tolerances"))
    payload = {
        "matrix": matrix.spec_string(),
        "x": x.name,
        "row": check.n,
        "status": check.status,
        "value": _frac(check.value),
        "tail_bound": _frac(check.tail_bound),
        "evidence": check.evidence,
    }
    codes = {"converged": OK, "diverging": DIAGNOSTIC_ONLY, "inconclusive": BUDGET_EXCEEDED}
    return payload, codes[check.status]


def _cmd_metric(args) -> tuple[dict, int]:
    s1 = sigma.parse_selector(args.s1)
    s2 = sigma.parse_selector(args.s2)
    interval = sigma.metric(s1, s2, args.resolution)
    payload = {
        "s1": s1.spec_string(),
        "s2": s2.spec_string(),
        "resolution": interval.resolution,
        "lower": _frac(interval.lo),
        "upper": _frac(interval.hi),
        "width": _frac(interval.width),
    }
    return payload, OK


def _cmd_escape(args) -> tuple[dict, int]:
    stem = _parse_stem(args.stem)
    x = summability.parse_sequence(args.x)
    if args.mode == "unbounded":
        if args.row is None:
            raise ValueError("escape --mode unbounded needs --row")
        row = summability.parse_row(args.row)
        result = constructions.escape_unbounded(stem, row, x, _bounded_rational(args.m0, "bounds"))
        payload = {
            "mode": "unbounded",
            "row": row.name,
            "pivot_index": result.pivot_index,
            "pivot_position": result.pivot_position,
            "partial_sum": _frac(result.partial_sum),
        }
    else:
        if args.matrix is None:
            raise ValueError("escape --mode rowfinite needs --matrix")
        matrix = summability.parse_matrix(args.matrix)
        ideal = ideals.parse_ideal(args.ideal)
        result = constructions.escape_rowfinite(
            stem, matrix, x, ideal, _bounded_rational(args.m0, "bounds"), p0=args.block_floor
        )
        payload = {
            "mode": "row_finite",
            "matrix": matrix.spec_string(),
            "ideal": ideal.name,
            "block_index": result.block_index,
            "block": list(result.block),
            "row_values": [[n, _frac(v)] for n, v in result.row_values],
        }
    payload.update(x=x.name, stem=list(stem), selector=result.selector.spec_string(),
                   bound=_frac(result.bound), holds=result.holds, detail=result.detail)
    return payload, OK if result.holds else DIAGNOSTIC_ONLY


def _cmd_oscillate(args) -> tuple[dict, int]:
    stem = _parse_stem(args.stem)
    x = summability.parse_sequence(args.x)
    matrix = summability.parse_matrix(args.matrix)
    pair = constructions.oscillation_pair(
        stem, x, matrix, scan=args.scale, tol=_bounded_rational(args.tol, "tolerances")
    )
    payload = {
        "matrix": matrix.spec_string(),
        "x": x.name,
        "stem": list(stem),
        "row": pair.row,
        "lower_selector": pair.lower_selector.spec_string(),
        "upper_selector": pair.upper_selector.spec_string(),
        "lower_value": _frac(pair.lower_value),
        "upper_value": _frac(pair.upper_value),
        "gap": _frac(pair.gap),
        "targets": [_frac(pair.lower_target), _frac(pair.upper_target)],
    }
    return payload, OK


def _cmd_adversary(args) -> tuple[dict, int]:
    matrix = summability.parse_matrix(args.matrix)
    report = constructions.steinhaus_adversary(matrix, mode=args.mode, scale=args.scale)
    cert_dict = report.certificate.to_json_dict()
    payload = {
        "mode": report.mode,
        "matrix": report.matrix_spec,
        "x": report.x_spec,
        "scale": report.scale,
        "status": report.status,
        "certificate": cert_dict,
        "boundary_means": [
            {
                "level": b.level,
                "at": b.at,
                "mean": _frac(b.mean),
                "target": _frac(b.target),
                "error": _frac(b.error),
                "allowance": _frac(b.allowance),
                "within": b.within,
            }
            for b in report.boundary_means
        ],
        "evidence": report.evidence,
    }
    if args.certificate_out:
        with open(args.certificate_out, "w", encoding="ascii") as handle:
            json.dump(cert_dict, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return payload, OK if report.status == "certified" else DIAGNOSTIC_ONLY


def _cmd_verify(args) -> tuple[dict, int]:
    with open(args.certificate, "r", encoding="ascii") as handle:
        data = json.load(handle)
    try:
        cert = constructions.OscillationCertificate.from_json_dict(data)
        matrix = summability.parse_matrix(cert.matrix_spec)
        x = summability.parse_sequence(cert.x_spec)
    except (AttributeError, KeyError, TypeError, ValueError,
            constructions.ConstructionError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    ok = cert.audit(matrix, x)
    payload = {
        "certificate": args.certificate,
        "matrix": cert.matrix_spec,
        "x": cert.x_spec,
        "scales": list(cert.scales),
        "verified": ok,
        "delta_lower": _frac(cert.delta_lower),
        "delta_upper": _frac(cert.delta_upper),
    }
    return payload, OK if ok else VERIFY_FAILED


def _cmd_game(args) -> tuple[dict, int]:
    ideal = ideals.parse_ideal(args.ideal)
    strategy = games.parse_strategy(args.strategy)
    games.round_budget(args.rounds)
    if args.moves == "nu2tower":
        moves = [games.nu2_tower_move(r) for r in range(1, args.rounds + 1)]
    else:
        moves = [setlang.parse_set(text) for text in args.moves.split(";") if text.strip()]
    transcript = games.play_game(ideal, moves, strategy, rounds=args.rounds)
    ruling = games.adjudicate(transcript, ideal)
    if args.transcript_out:
        with open(args.transcript_out, "w", encoding="ascii") as handle:
            handle.write(transcript.to_jsonl())
    payload = {
        "ideal": ideal.name,
        "strategy": strategy.name,
        "rounds": [r.to_json_dict() for r in transcript.rounds],
        "adjudication": {
            "label": ruling.label,
            "favored": ruling.favored,
            "evidence": ruling.evidence,
        },
    }
    return payload, OK


def _cmd_demo(args) -> tuple[dict, int]:
    matrix = summability.parse_matrix(args.matrix)
    x = summability.parse_sequence(args.x)
    ideal = ideals.parse_ideal(args.ideal)
    schedule = tuple(int(t) for t in args.schedule.split(","))
    demo = constructions.meagerness_demo(matrix, x, ideal, schedule)
    payload = {
        "matrix": matrix.spec_string(),
        "x": x.name,
        "ideal": ideal.name,
        "schedule": list(schedule),
        "rounds": [
            {
                "bound": _frac(r.bound),
                "block_index": r.block_index,
                "block": list(r.block),
                "holds": r.holds,
                "stem_length": len(r.selector.stem),
            }
            for r in demo.results
        ],
        "all_hold": demo.all_hold,
    }
    return payload, OK if demo.all_hold else DIAGNOSTIC_ONLY


# ------------------------------------------------------------------- plumbing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write the JSON output to this path")
    common.add_argument("--runlog", help="append a run record to this JSONL file")
    scaled = argparse.ArgumentParser(add_help=False, parents=[common])
    scaled.add_argument("--scale", type=int, default=10**4, help="working scale")

    parser = argparse.ArgumentParser(
        prog="subsum",
        description="Summability matrices, densities, ideals, selectors, and games",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("density", parents=[scaled], help="prefix densities of a set")
    p.add_argument("set", help="set DSL expression")
    p.add_argument("--window", type=int, default=None, help="sliding window length")
    p.add_argument("--csv", action="store_true", help="emit n,count,ratio CSV")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("verdict", parents=[scaled], help="ideal membership verdict")
    p.add_argument("set")
    p.add_argument("--ideal", required=True, help="fin | z | bd | finxfin | matrix:<spec>")
    p.set_defaults(handler=_cmd_verdict)

    p = sub.add_parser("regularity", parents=[scaled], help="regularity relative to an ideal")
    p.add_argument("--matrix", required=True)
    p.add_argument("--ideal", default="fin")
    p.set_defaults(handler=_cmd_regularity)

    p = sub.add_parser("transform", parents=[common], help="matrix transform of a sequence")
    p.add_argument("--matrix", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--tail-tol", default="0", help="certified tail tolerance (p/q)")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("domain", parents=[common], help="does one transform row converge")
    p.add_argument("--matrix", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--row", type=int, default=1)
    p.add_argument("--tol", default="1/1000000")
    p.set_defaults(handler=_cmd_domain)

    p = sub.add_parser("metric", parents=[common], help="distance between selectors")
    p.add_argument("--s1", required=True)
    p.add_argument("--s2", required=True)
    p.add_argument("--resolution", type=int, default=40)
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("escape", parents=[common], help="extend a stem past a bound")
    p.add_argument("--mode", choices=("unbounded", "rowfinite"), required=True)
    p.add_argument("--stem", default="", help="comma list or {v1,v2,...}")
    p.add_argument("--x", required=True)
    p.add_argument("--m0", default="1", help="bound to defeat (p/q)")
    p.add_argument("--row", help="row spec (unbounded mode)")
    p.add_argument("--matrix", help="matrix spec (rowfinite mode)")
    p.add_argument("--ideal", default="z", help="ideal (rowfinite mode)")
    p.add_argument("--block-floor", type=int, default=1, help="least block index")
    p.set_defaults(handler=_cmd_escape)

    p = sub.add_parser("oscillate", parents=[scaled], help="two separating stem extensions")
    p.add_argument("--matrix", default="cesaro")
    p.add_argument("--x", required=True)
    p.add_argument("--stem", default="")
    p.add_argument("--tol", default="1/16")
    p.set_defaults(handler=_cmd_oscillate)

    p = sub.add_parser("adversary", parents=[scaled], help="0/1 sequence defeating a run-form matrix")
    p.add_argument("--matrix", default="cesaro")
    p.add_argument("--mode", choices=("blocks", "greedy"), default="blocks")
    p.add_argument("--certificate-out", help="write the certificate JSON here")
    p.set_defaults(handler=_cmd_adversary)

    p = sub.add_parser("verify", parents=[common], help="re-audit a certificate file")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("game", parents=[common], help="play a filter game")
    p.add_argument("--ideal", default="z")
    p.add_argument("--moves", default="nu2tower", help="semicolon-joined set DSL, or nu2tower")
    p.add_argument("--strategy", default="prefix_density")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--transcript-out", help="write the JSONL transcript here")
    p.set_defaults(handler=_cmd_game)

    p = sub.add_parser("demo", parents=[common], help="repeated escapes on fresh blocks")
    p.add_argument("--matrix", default="cesaro")
    p.add_argument("--x", default="n")
    p.add_argument("--ideal", default="z")
    p.add_argument("--schedule", default="1,2,4,8")
    p.set_defaults(handler=_cmd_demo)

    return parser


# Exit code of an exception class, by name: the first class on the raised
# type's MRO that is named here wins; anything else exits with FAIL.
_EXIT_CODES = {
    "EnumerationCapError": BUDGET_EXCEEDED,
    "TailToleranceError": BUDGET_EXCEEDED,
    "StrategySearchError": BUDGET_EXCEEDED,
    "AuditBudgetError": BUDGET_EXCEEDED,
    "PreconditionError": PRECONDITION_FAILED,
    "IllegalMoveError": PRECONDITION_FAILED,
    "DomainRiskError": PRECONDITION_FAILED,
    "RestrictionError": PRECONDITION_FAILED,
    "UnsupportedIdealError": PRECONDITION_FAILED,
    "ImageUndecidableError": PRECONDITION_FAILED,
    "ConstructionError": DIAGNOSTIC_ONLY,
    "ValueError": PARSE_ERROR,
}


def _exit_code(exc_type: type) -> int:
    names = (cls.__name__ for cls in exc_type.__mro__)
    return next((_EXIT_CODES[name] for name in names if name in _EXIT_CODES), FAIL)


def _render_output(payload: dict, command: str) -> str:
    if set(payload.keys()) == {"csv"}:
        return payload["csv"]
    return json.dumps({"command": command, **payload}, sort_keys=True, indent=2)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    text: str | None = None
    error: str | None = None
    try:
        payload, code = args.handler(args)
        text = _render_output(payload, args.cmd)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    except Exception as exc:  # each exit code is logged; anything unlisted is FAIL
        text, error, code = None, f"{type(exc).__name__}: {exc}", _exit_code(type(exc))
    if error is None:
        print(text)
    else:
        print(error, file=sys.stderr)
    if args.runlog:
        # Imported here: they cost every start about 8 ms, and only the log reads them.
        import hashlib
        from datetime import datetime, timezone

        record = {
            "ts": datetime.fromtimestamp(started, timezone.utc).isoformat(),
            "argv": list(argv) if argv is not None else sys.argv[1:],
            "command": args.cmd,
            "version": __version__,
            "exit": code,
            "digest": None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "error": error,
        }
        with open(args.runlog, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
