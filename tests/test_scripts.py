"""The repository scripts under ``.github/scripts`` that CI runs, on tiny inputs."""

import json
import subprocess
import sys
from pathlib import Path

GRID = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "grid.py"

RUN = [
    {"spec": "ap:1,2", "ideal": "fin", "status": "not_in", "reason": "infinite"},
    {"spec": "finite:{3}", "ideal": "z", "status": "in", "reason": "finite"},
    {"spec": "builtin:squares", "ideal": "z", "status": "in", "reason": "density 0"},
]


def _compare(tmp_path, old, new):
    paths = []
    for name, records in (("a.jsonl", old), ("b.jsonl", new)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(str(path))
    done = subprocess.run([sys.executable, str(GRID), "--compare", *paths],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout.splitlines()


def test_grid_compare_lists_moved_verdicts_and_flips(tmp_path):
    moved = [dict(RUN[0]), {**RUN[1], "status": "not_in"}, {**RUN[2], "reason": "density 0/1"}]
    code, lines = _compare(tmp_path, RUN, moved)
    assert code == 1
    assert [line for line in lines if line.startswith("FLIP")] == [
        "FLIP finite:{3} under z: in -> not_in"
    ]
    assert lines[-1].startswith("2 of 3 verdicts moved, 1 between")


def test_grid_compare_of_identical_runs_exits_0(tmp_path):
    code, lines = _compare(tmp_path, RUN, RUN)
    assert code == 0
    assert lines[-1].startswith("0 of 3 verdicts moved")


def test_grid_compare_refuses_runs_over_different_grids(tmp_path):
    other = [*RUN[:2], {**RUN[2], "spec": "builtin:powers2"}]
    code, lines = _compare(tmp_path, RUN, other)
    assert (code, lines) == (2, ["the two runs decide different grids"])
