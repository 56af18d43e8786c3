"""Paired A/B of two source checkouts on one benchmark workload.

    python tools/ab.py PARENT CHANGE --workload W --pairs N [--seconds S]

Pair ``k`` (1..N) runs ``bench/run.py --trace 0 --seed k`` of each
checkout in a fresh process, from that checkout's root, so each side
times its own ``src/`` with its own harness.  The side that runs first
alternates: the parent in odd pairs, the change in even ones.

For each end-to-end metric that ``CHANGE/BENCHMARK.json`` declares, the
report gives each side's median and quartiles over the pairs and the
number of pairs in which the change was better in the metric's declared
direction (a tie is no win).  It then gives each side's ``correct`` runs
and ``failed`` operations.  It reports and does not judge: bounds,
claims and checks are the reader's.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True, choices=("train", "predict", "corpus"))
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="seconds per run (default 30, as BENCHMARK.json's run_seconds)")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            p.error(f"{root} has no bench/run.py")
    return args


def run_once(root, workload, seed, seconds):
    """The result line of one ``bench/run.py --trace 0`` process in ``root``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _spread(values):
    """(median, lower quartile, upper quartile) of the numbers in ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def report(metrics, pairs):
    """The report's lines.  ``metrics`` is BENCHMARK.json's ``end_to_end``
    list, and ``pairs`` one (parent result, change result) per pair."""
    n = len(pairs)
    lines = [f"{'metric':<12} {'unit':<6} {'parent median [q1, q3]':<28} "
             f"{'change median [q1, q3]':<28} change better"]
    for metric in metrics:
        name = metric["name"]
        values = [tuple(side["metrics"].get(name, {}).get("value") for side in pair)
                  for pair in pairs]
        cells = []
        for side in (0, 1):
            known = [v[side] for v in values if v[side] is not None]
            if known:
                median, q1, q3 = _spread(known)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            else:
                cells.append("-")
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(1 for a, b in values
                   if a is not None and b is not None and sign * (b - a) > 0)
        lines.append(f"{name:<12} {metric['unit']:<6} {cells[0]:<28} {cells[1]:<28} "
                     f"{wins}/{n}")
    for label, key, total in (("correct runs", "correct", None),
                              ("failed ops", "failed", "attempted")):
        counts = []
        for side in (0, 1):
            count = sum(int(pair[side][key]) for pair in pairs)
            whole = n if total is None else sum(pair[side][total] for pair in pairs)
            counts.append(f"{count}/{whole}")
        lines.append(f"{label:<12} parent {counts[0]}  change {counts[1]}")
    return lines


def main(argv=None):
    args = _parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    roots = (args.parent, args.change)
    for seed in range(1, args.pairs + 1):
        pair = [None, None]
        for side in ((0, 1) if seed % 2 else (1, 0)):
            pair[side] = run_once(roots[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"pair {seed}/{args.pairs} done ({'parent' if seed % 2 else 'change'} first)",
              file=sys.stderr)
    print(f"workload {args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds 1-{args.pairs}")
    print(f"parent {args.parent.resolve()}")
    print(f"change {args.change.resolve()}")
    print("\n".join(report(declared["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
