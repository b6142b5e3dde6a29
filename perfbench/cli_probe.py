"""One ``ldlmon`` command in a fresh interpreter, timed from the inside.

    python3 perfbench/cli_probe.py declare samples/booking.decl --trace t.trace

Runs ``ldlmon.cli.main`` (what the ``ldlmon`` command runs) on the given
arguments, then prints one JSON object: the exit status, the command's
standard output and the CPU time of the whole process so far
(interpreter start-up, imports and the command).
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    import ldlmon.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ldlmon.cli.main(sys.argv[1:])
    print(json.dumps({
        "code": code,
        "stdout": out.getvalue(),
        "cpu_s": time.process_time(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
