"""CPU time and peak memory of one formula's compile and monitor as the
alphabet grows.

    python3 evidence/props_scaling.py [--props 3 12 16 18 20] [--root ROOT]

For each prop count n the LTLf formula ``FORMULA`` is parsed over the
props p0 .. p(n-1) in a child process of its own, so that each count's
``ru_maxrss`` is its own peak.  The child imports ``ldlmon`` from the
``src/`` of ROOT (default: the checkout holding this script) and
reports, from ``resource.getrusage``:

- ``compile_dfa``: its CPU time (user plus system) and ``ru_maxrss``
  after it;
- ``Monitor.for_formula``, built afresh after the compile (a compile of
  its own included): the same two figures;
- the minimal DFA's states, and the ``ru_maxrss`` after the imports.

The monitor's event map holds every one of the 2^n letters, so above
``MONITOR_UP_TO`` props it is not built and its columns read ``-``.
Only the standard library is used, and nothing is written in the
checkout (no bytecode either).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

FORMULA = "G (p0 -> F p1) && F (p2 && X p1)"
MONITOR_UP_TO = 18


def usage() -> tuple[float, float]:
    """CPU seconds and peak RSS in MB of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_maxrss / 1024


def child(root: str, n: int) -> dict:
    """One prop count's figures, measured in this process."""
    sys.path.insert(0, os.path.join(root, "src"))
    from ldlmon import Monitor, compile_dfa, ltlf_to_ldlf, parse_ltlf
    from ldlmon.syntax import Alphabet

    alphabet = Alphabet(tuple(f"p{j}" for j in range(n)))
    formula = ltlf_to_ldlf(parse_ltlf(FORMULA, alphabet))
    before, imported_mb = usage()
    dfa = compile_dfa(formula, alphabet)
    after, compile_mb = usage()
    out = {"props": n, "states": dfa.n_states, "import_mb": imported_mb,
           "compile_s": after - before, "compile_mb": compile_mb}
    if n <= MONITOR_UP_TO:
        Monitor.for_formula(formula, alphabet)
        done, monitor_mb = usage()
        out.update(monitor_s=done - after, monitor_mb=monitor_mb)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--props", nargs="+", type=int, default=[3, 12, 16, 18, 20])
    parser.add_argument("--root", help="checkout whose src/ is measured (default: this one)",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.root, args.child)))
        return 0
    print(f"{FORMULA}  ({args.root})")
    print(f"{'props':>5} {'states':>6} {'import MB':>9} {'compile s':>10} {'compile MB':>10} "
          f"{'monitor s':>10} {'monitor MB':>10}")
    for n in args.props:
        command = [sys.executable, "-B", os.path.abspath(__file__), "--child", str(n),
                   "--root", args.root]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{n} props: the child exited {done.returncode}: {done.stderr.strip()[-500:]}",
                  file=sys.stderr)
            return 1
        r = json.loads(done.stdout.strip().splitlines()[-1])
        monitor = (f"{r['monitor_s']:10.4f} {r['monitor_mb']:10.1f}" if "monitor_s" in r
                   else f"{'-':>10} {'-':>10}")
        print(f"{n:5d} {r['states']:6d} {r['import_mb']:9.1f} {r['compile_s']:10.4f} "
              f"{r['compile_mb']:10.1f} {monitor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
