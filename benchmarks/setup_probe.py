"""Set-up of one CLI invocation, in a fresh interpreter.

Usage: python3 benchmarks/setup_probe.py SRC_DIR [CONFIG ...]

Imports ``epiqmap.cli`` and parses every CONFIG with ``cli.load_scenario``;
with no configs it imports ``epiqmap.acceptance`` (what ``epiqmap verify``
needs).  Prints one line when done, so the parent can stop its clock
before the interpreter tears down.
"""

import sys

sys.path.insert(0, sys.argv[1])
if len(sys.argv) > 2:
    from epiqmap import cli

    for path in sys.argv[2:]:
        cli.load_scenario(path)
else:
    import epiqmap.acceptance  # noqa: F401
print("ready", flush=True)
