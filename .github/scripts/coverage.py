"""Line coverage of the package, with the standard library alone.

Runs tier-1 in this process under a ``sys.settrace`` line tracer, then every
``subsum ...`` line of README.md's Commands block through ``cli.main`` in
one temporary directory, and prints, per module of ``src/subsum``, the
executable function-body lines that neither reached.  Arguments, if any,
replace ``tests`` as pytest's (a test file or a ``-k`` filter, say).  It
exits with tier-1's status when tier-1 fails, else 1 when CPython switched
the tracer off (the counts are then partial), else 0.  Not a CI gate:
tier-1 runs about three times slower under the tracer.  Run it from the
repository root:

    python .github/scripts/coverage.py
"""

import contextlib
import inspect
import io
import os
import shlex
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "subsum"


def body_lines(path: Path) -> set[int]:
    """Lines of every function, method, lambda and comprehension in a
    module, their ``def`` lines excepted."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines |= {line for _, _, line in code.co_lines() if line is not None}
            lines.discard(code.co_firstlineno)
    return lines


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("Commands:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("subsum ")]


def main(pytest_args: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    files = {str(path): path.name for path in sorted(PACKAGE.glob("*.py"))}
    reached = {name: set() for name in files.values()}

    def local(frame, event, arg):
        if event == "line":
            reached[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(pytest_args or [str(ROOT / "tests")])])
        dropped = sys.gettrace() is not tracer  # CPython drops a tracer that raised
        if dropped:
            print("the tracer was switched off during tier-1: the counts below are partial")
        from subsum import cli

        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            for argv in readme_commands():
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
            os.chdir(ROOT)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unreached = 0
    for path, name in files.items():
        lines = body_lines(Path(path))
        missed = sorted(lines - reached[name])
        total, unreached = total + len(lines), unreached + len(missed)
        print(f"{name}: {len(missed)} of {len(lines)} unreached", *missed)
    print(f"reached {total - unreached} of {total} executable function-body lines;"
          f" tier-1 exit status {int(status)}")
    return int(status) or int(dropped)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
