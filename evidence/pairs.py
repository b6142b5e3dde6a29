"""Alternating benchmark pairs between two checkouts.

    python3 evidence/pairs.py PARENT CHANGE --workloads stream decl \\
        --seeds 1 --pairs 10 --seconds 12 [--claim stream:events_per_s] [--out runs.jsonl]

PARENT and CHANGE are the roots of two checkouts of this repository.
For each workload and seed the script runs ``perfbench/run.py --trace 0``
once in each checkout per pair, from that checkout's root, and flips
which side runs first from one pair to the next, so drift of the
machine falls on both sides alike.  Every run must report ``correct``
true and ``failed`` 0.

It then prints, per workload, seed and end-to-end metric, both sides'
medians and quartiles and how many pairs the change won (a tie is no
win).  The direction of each metric ("better": "lower" or "higher")
comes from the change's ``BENCHMARK.json``.  A gain counts as met when
the change wins at least 9 of every 10 pairs and its median beats the
parent's by more than the parent's interquartile range.  With
``--claim WORKLOAD:METRIC`` (repeatable) the exit status is 1 unless
every named gain is met on every seed.  Exit status 2 means a run
failed or reported failures.  ``--out`` writes each run's last-line
JSON, tagged with its side, order, workload, seed and pair, one per
line.  Only the standard library is used, and nothing in either
checkout is written except by ``run.py`` itself.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """The last-line JSON of one ``run.py --trace 0`` run in ``root``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(command[1:])} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list, change: list, lower_is_better: bool) -> dict:
    """Medians, quartiles, wins and whether a gain is met, over pairs
    given in the same order on both sides."""
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gap = (p_med - c_med) if lower_is_better else (c_med - p_med)
    met = wins >= math.ceil(0.9 * len(parent)) and gap > p3 - p1
    return {"parent": (p1, p_med, p3), "change": (c1, c_med, c3), "wins": wins,
            "pairs": len(parent), "gain": gap / p_med if p_med else 0.0, "met": met}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC whose gain must be met (repeatable)")
    parser.add_argument("--out", help="write every run's JSON here, one per line")
    args = parser.parse_args(argv)
    roots = dict(zip(SIDES, (args.parent, args.change)))
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    claims = {tuple(claim.split(":", 1)) for claim in args.claim}
    unmeasured = [c for c in claims if c[0] not in args.workloads or c[1] not in better]
    failures = [f"claim {':'.join(c)} names no measured workload and metric" for c in unmeasured]
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        for workload in args.workloads:
            for seed in args.seeds:
                values = {side: {name: [] for name in better} for side in SIDES}
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for position, side in enumerate(order):
                        result = run_once(roots[side], workload, seed, args.seconds)
                        if result["correct"] is not True or result["failed"] != 0:
                            failures.append(f"{side} {workload} seed {seed} pair {pair}: "
                                            f"correct {result['correct']}, "
                                            f"failed {result['failed']}")
                        for name in better:
                            values[side][name].append(result["metrics"][name]["value"])
                        if out is not None:
                            record = {"side": side, "first": position == 0,
                                      "workload": workload, "seed": seed, "pair": pair}
                            out.write(json.dumps({**record, **result}) + "\n")
                            out.flush()
                print(f"\n{workload}, seed {seed}, {args.pairs} pairs at "
                      f"--seconds {args.seconds} (median [q1, q3])")
                for name, direction in better.items():
                    row = compare(values["parent"][name], values["change"][name],
                                  direction == "lower")
                    # A claim has to hold on every seed it is run on.
                    if (workload, name) in claims and not row["met"]:
                        failures.append(f"claim {workload}:{name} not met on seed {seed}")
                    p1, p_med, p3 = row["parent"]
                    c1, c_med, c3 = row["change"]
                    print(f"  {name:16} parent {p_med:.6g} [{p1:.6g}, {p3:.6g}]  "
                          f"change {c_med:.6g} [{c1:.6g}, {c3:.6g}]  "
                          f"gain {row['gain']:+.1%}  wins {row['wins']}/{row['pairs']}"
                          f"{'  met' if row['met'] else ''}")
    finally:
        if out is not None:
            out.close()
    for line in failures:
        print(f"FAILED {line}")
    if any(not line.startswith("claim ") for line in failures):
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
