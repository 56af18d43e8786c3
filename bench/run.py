"""Benchmark of the bcnn package: one workload, one seed, one JSON result.

    python3 bench/run.py --workload {train,predict,corpus} --seed N \
        --seconds S --trace {0,1} [--blas-threads T]

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The
workload's operation runs in a closed loop (one caller, next call when
the previous one returns) in whole rounds for ``--seconds``.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` every second round runs with spans around every traced
call, and the line reports the per-layer metrics and the tracing
overhead.  The result, the environment and (traced) every span are also
written to ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "predict", "corpus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads for this process (default 1)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        p.error("--seed must be >= 0, --seconds > 0 and --blas-threads >= 1")
    return args


def _pin_malloc():
    """Fixes glibc's malloc thresholds at the end state of their own
    dynamic adjustment (mmap 32 MiB, trim 64 MiB).

    Left dynamic, the thresholds settle at a random point of a run, and a
    batch-1 predict call drops from about 2 ms of page-fault system time
    to almost none when they do; the median of a run then depends on
    when that happened.  Returns the pinned values, or None when the C
    library has no ``mallopt``.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    pinned = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}
    if (mallopt(m_mmap_threshold, pinned["mmap_threshold"])
            and mallopt(m_trim_threshold, pinned["trim_threshold"])):
        return pinned
    return None


def _blas_threads_in_force():
    """Asks the loaded OpenBLAS how many threads it will use, if it can."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        blas_name = blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads_in_force(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(workload, seconds, tracer=None):
    """Runs whole rounds of operations until ``seconds`` have passed.

    Operation ``i`` (from 1) uses input ``i % workload.kinds``; a round is
    one operation on each input.  With a tracer, every second round runs
    traced and the others untraced, so both halves see the same host
    conditions and every input.  Returns the duration of every operation,
    which of them were traced, the images completed by traced operations,
    the failures by operation, and process CPU time over wall time.
    """
    durations, traced, images, failures = [], [], 0, {}
    start = time.perf_counter()
    cpu_start = time.process_time()
    i = 1
    while True:
        tracing_this = tracer is not None and ((i - 1) // workload.kinds) % 2 == 1
        if tracing_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            durations.append(time.perf_counter() - t0)
            failures[i] = repr(exc)
        else:
            durations.append(time.perf_counter() - t0)
            if tracing_this:
                images += workload.images_per_op
            workload.record(i, result)
        finally:
            if tracing_this:
                tracer.uninstall()
        traced.append(tracing_this)
        round_done = i % workload.kinds == 0
        i += 1
        both_halves = tracer is None or 0 < sum(traced) < len(traced)
        if round_done and both_halves and time.perf_counter() - start >= seconds:
            cpu_per_wall = (time.process_time() - cpu_start) / (time.perf_counter() - start)
            return durations, traced, images, failures, cpu_per_wall


def best_op_ms(durations, kinds, failed):
    """The fastest time of each input's operations, averaged over inputs.

    The host's speed changes in phases: a phase can slow a stretch of a
    run by a third or more, so the times of one run are bimodal and
    their median or mean reads the share of slow phases.  The fastest
    repeat of an operation is its time when nothing else slows it.
    Taking it per input keeps inputs of unequal work equally weighted.
    Operations that raised are left out; None if all did.
    """
    best = {}
    for i, d in enumerate(durations, start=1):
        if i not in failed:
            best[i % kinds] = min(d, best.get(i % kinds, d))
    return 1000.0 * statistics.mean(best.values()) if best else None


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "bcnn" / "__init__.py").is_file():
        print(f"error: no bcnn sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    malloc = _pin_malloc()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    t_import = time.perf_counter()
    import numpy as np
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import

    out_dir = ROOT / ".bench_out"
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        # Warm-up: one operation, checked like the rest, before timing.
        warm_failures = []
        t0 = time.perf_counter()
        try:
            warm_result = workload.op(0)
        except Exception as exc:  # reported as a failed check
            warm_s = time.perf_counter() - t0
            warm_failures.append(f"warm-up operation: {exc!r}")
        else:
            warm_s = time.perf_counter() - t0
            workload.record(0, warm_result)
        setup_s = import_s + statistics.median(setup_times) + warm_s

        tracer = tracing.Tracer() if args.trace else None
        durations, traced, images, failures, cpu_per_wall = measure(
            workload, args.seconds, tracer)
        if tracer is not None:
            plain = [d for d, t in zip(durations, traced) if not t]
            spanned = [d for d, t in zip(durations, traced) if t]
            overhead = 100.0 * (statistics.median(spanned) / statistics.median(plain) - 1.0)
            synth = ({c: images // len(workloads.CLASSES) for c in workloads.CLASSES}
                     if args.workload == "corpus" else {})
            metrics = tracing.layer_metrics(tracer, images, synth, overhead)
        else:
            op_ms = best_op_ms(durations, workload.kinds, failures)
            metrics = {
                "img_per_s": {"value": 1000.0 * workload.images_per_op / op_ms if op_ms else 0.0,
                              "unit": "img/s"},
                "op_ms_best": {"value": op_ms, "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MiB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
        errors = warm_failures + workload.verify()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(np)
    env["blas_threads_requested"] = args.blas_threads
    env["malloc"] = malloc
    result = {
        "correct": not errors,
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, errors=errors,
                  failures=[f"op {i}: {msg}" for i, msg in failures.items()],
                  setup_times_s=setup_times,
                  import_s=import_s, warmup_s=warm_s, op_s=durations,
                  cpu_per_wall=cpu_per_wall)
    if tracer is not None:
        detail["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail) + "\n")
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
