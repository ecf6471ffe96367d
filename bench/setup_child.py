"""Set-up probe: a fresh interpreter imports subsum and parses every spec
string of a run (read as JSON pairs [parser, text] from stdin), then exits.
The benchmark times this process from spawn to exit."""

import json
import sys

specs = json.loads(sys.stdin.read())
import subsum  # noqa: E402  (PYTHONPATH points at the checkout's src/)

for parser, text in specs:
    getattr(subsum, parser)(text)
