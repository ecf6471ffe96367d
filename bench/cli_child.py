"""Traced ``subsum`` command: ``cli_child.py WORK_DIR ARGV...``.

Runs ``subsum.cli.main(ARGV)`` with the tracer installed and writes the
trace to WORK_DIR/trace-<pid>.json.  The child stops itself one second
before the benchmark's deadline so that its trace is still written.
"""

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


class Stopped(BaseException):
    pass


def _stop(signum, frame):
    raise Stopped()


def main():
    work, argv = sys.argv[1], sys.argv[2:]
    import subsum.cli

    tracer = Tracer()
    tracer.begin_op(os.environ.get("BENCH_OP_ID"))
    tracer.install()
    signal.signal(signal.SIGALRM, _stop)
    signal.setitimer(signal.ITIMER_REAL, float(os.environ.get("BENCH_CHILD_DEADLINE", "3")))
    code = 1
    try:
        code = subsum.cli.main(argv)
    except Stopped:
        code = 124
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        tracer.uninstall()
        path = os.path.join(work, f"trace-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
