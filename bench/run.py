"""Benchmark of cipid: one workload per run, outputs checked, metrics printed.

Usage, from the repository root:

    python3 bench/run.py --workload ci_partitions --seed 1 --seconds 20 --trace 0

The run imports cipid from ``src/`` of the checkout it sits in, builds
its inputs from the seed, and repeats rounds of the workload's
operations until ``--seconds`` have passed (at least three rounds and
100 timed operations).
With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs each round both untraced and traced, and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("ci_partitions", "lp_polytope", "cli_small")
END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
MIN_ROUNDS = 3
MIN_OPS = 100  # so the 90th percentile has at least ten samples above it
SETUPS = 5


def _import_cipid():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cipid", "__init__.py")):
        sys.exit(f"error: no cipid package under {src}")
    sys.path.insert(0, src)
    import cipid

    if os.path.dirname(os.path.dirname(os.path.abspath(cipid.__file__))) != src:
        sys.exit(f"error: imported cipid from {cipid.__file__}, not {src}")


def _run_ops(ops):
    """Run one round; return its wall time, per-op times and results."""
    times, results = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation, recorded and checked below
            result = exc
        times.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, times, results


def _traced(tracer, ops):
    gc.collect()
    gc.freeze()
    tracer.install()
    try:
        wall, _, results = _run_ops(ops)
    finally:
        tracer.uninstall()
    return wall, results


def _judge(ops, results, problems):
    """Count failures and collect problems; returns the number failed."""
    failed = 0
    for op, result in zip(ops, results):
        if isinstance(result, Exception) or op.failed(result):
            failed += 1
            if isinstance(result, Exception) or not op.expected_failure(result):
                problems.append(f"{op.name} failed: {result!r}")
            continue
        problem = op.check(result)
        if problem:
            problems.append(f"{op.name}: {problem}")
    return failed


def _same_values(a, b) -> bool:
    """Traced and untraced results agree (exceptions compare by text)."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return repr(a) == repr(b)
    if hasattr(a, "value"):  # an optimisation report: its argument has no ==
        return a.value == b.value
    return a == b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one worker thread: keep BLAS pools, started on numpy's import, to one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_cipid()
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    work = workloads.make(args.workload, os.path.join(OUT_DIR, args.workload))

    # set-up: inputs of round 0 (drawn, validated, written) and warm-up
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ops = work.make_round(args.seed, 0)
        work.warm_up()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    walls, op_times, overheads = [], [], []
    judged = []  # (ops, results) of every round, checked after measuring
    mismatches: list[str] = []
    attempted = 0
    start = time.perf_counter()
    round_no = 0
    while (round_no < MIN_ROUNDS or len(op_times) < MIN_OPS
           or time.perf_counter() - start < args.seconds):
        if round_no > 0:
            ops = work.make_round(args.seed, round_no)
        # what earlier rounds left for checking is not the program's to scan
        gc.collect()
        gc.freeze()
        if tracer is not None and round_no % 2:
            # alternate which pass goes first, so drift in machine speed
            # does not bias the tracing overhead
            traced_wall, traced = _traced(tracer, ops)
        wall, times, results = _run_ops(ops)
        walls.append(wall)
        op_times.extend(times)
        attempted += len(ops)
        judged.append((ops, results))
        if tracer is not None:
            if round_no % 2 == 0:
                traced_wall, traced = _traced(tracer, ops)
            overheads.append(traced_wall - wall)
            attempted += len(ops)
            judged.append((ops, traced))
            mismatches += [f"{op.name} gave {b!r} traced, {a!r} untraced"
                           for op, a, b in zip(ops, results, traced)
                           if not _same_values(a, b)]
        # the checks keep only what they need, so memory does not grow
        # with the number of rounds
        for op in ops:
            op.call = None
        round_no += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = list(mismatches)
    failed = sum(_judge(o, r, problems) for o, r in judged)
    for p in problems[:20]:
        print(f"problem: {p}")

    if tracer is None:
        deciles = statistics.quantiles(op_times, n=10)
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000.0 * statistics.median(op_times),
            "op_p90_ms": 1000.0 * deciles[8],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
        values = tracer.report(round_no, statistics.median(overheads))
        units = dict(tracing.PER_LAYER)

    print(f"workload {args.workload}  seed {args.seed}  rounds {round_no}  "
          f"ops/round {len(ops)}  operations {attempted}  failed {failed}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
