"""Repeat runs of the benchmark and their spread, for the README figures.

    python3 bench/spread.py --workload predict --seeds 1-10 --seconds 20 [--trace 0]
        [--blas-threads 1]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  Each run's result line is appended to
``.bench_out/spread-<workload>.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    p.add_argument("--blas-threads", default="1")
    args = p.parse_args(argv)

    log = HERE.parent / ".bench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values, failed, attempted = {}, 0, 0
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
               "--blas-threads", args.blas_threads]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with log.open("a") as fh:
            fh.write(json.dumps(dict(result, seed=seed, blas_threads=args.blas_threads)) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: checks failed\n{proc.stderr}", file=sys.stderr)
        failed += result["failed"]
        attempted += result["attempted"]
        summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                           if k in ("img_per_s", "op_ms_best", "peak_rss_mb", "setup_s",
                                    "trace.overhead_pct"))
        detail = json.loads((log.parent / f"{args.workload}-seed{seed}-trace{args.trace}.json")
                            .read_text())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {summary} cpu/wall={detail['cpu_per_wall']:.2f}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {attempted} attempted, {failed} failed")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:34s} median {med:11.4f}  q1 {q1:11.4f}  q3 {q3:11.4f}  "
              f"spread {100 * spread:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
