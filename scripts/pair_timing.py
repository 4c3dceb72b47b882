#!/usr/bin/env python3
"""Paired, interleaved pass timing of one benchmark workload in two checkouts.

Starts one worker process per checkout, ``python -I`` with that
checkout's ``src`` and ``bench`` first on ``sys.path``.  Each worker
builds the workload's configs from the checkout's ``bench/workloads.py``
(read, never changed), runs two warm passes, then one timed pass per
request: ``run_experiment`` then ``emit_report(..., None, "csv")`` for
every config, as ``bench/run.py`` times a pass.  Each round asks both
workers for one pass, alternating which goes first, so drift of the host
falls on both sides of a pair alike.  It prints each side's median and
quartiles of the pass wall time and its median process CPU time per
pass, the median of the per-round wall ratios after / before, and how
many rounds the second checkout was faster.  CPU time leaves out the
time a worker waits for a core, which on a shared host can move one
tree's wall medians by tens of percent between runs minutes apart.

    python scripts/pair_timing.py BEFORE AFTER --workload chart-3d --rounds 30

It sizes a change in about a minute; a claimed gain still rests on
``bench/run.py`` runs recorded in a ``BENCH_*.json``.  Standard library
only; it starts no process beyond the two workers and waits for both on
every exit.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

WARM_PASSES = 2
# thread pins as bench/run.py sets them, so a pass runs on one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
STOP_TIMEOUT = 30  # seconds a worker gets to exit after its input closes

WORKER_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import workloads
from covlab import harness
configs = workloads.configs(sys.argv[3], int(sys.argv[4]))

def one_pass():
    for cfg in configs:
        harness.emit_report(harness.run_experiment(cfg), None, "csv")

for _ in range(int(sys.argv[5])):
    one_pass()
print("ready", flush=True)
for _ in sys.stdin:
    t0, c0 = time.perf_counter(), time.process_time()
    one_pass()
    print(repr(time.perf_counter() - t0), repr(time.process_time() - c0), flush=True)
"""


def start_worker(checkout: Path, workload: str, seed: int) -> subprocess.Popen:
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    cmd = [
        sys.executable, "-I", "-c", WORKER_CODE,
        str(checkout / "src"), str(checkout / "bench"), workload, str(seed), str(WARM_PASSES),
    ]
    return subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
    )


def read_line(worker: subprocess.Popen) -> str:
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited with status {worker.wait()}")
    return line.strip()


def timed_pass(worker: subprocess.Popen) -> tuple:
    """One pass's wall and process CPU times, in seconds."""
    worker.stdin.write("pass\n")
    worker.stdin.flush()
    wall, cpu = read_line(worker).split()
    return float(wall), float(cpu)


def stop(worker: subprocess.Popen) -> None:
    """Close the worker's input, then wait for it; kill it if it hangs."""
    try:
        worker.stdin.close()
    except OSError:
        pass
    try:
        worker.wait(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
    worker.stdout.close()


def quartiles(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pair_times(before: Path, after: Path, workload: str, seed: int, rounds: int) -> dict:
    """The (wall, CPU) pass times of both sides, one per round each."""
    workers = []
    try:
        for checkout in (before, after):
            workers.append(start_worker(checkout, workload, seed))
        for worker in workers:
            if read_line(worker) != "ready":
                raise RuntimeError("worker did not report ready")
        times = {"before": [], "after": []}
        for k in range(rounds):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for side in order:
                times[("before", "after")[side]].append(timed_pass(workers[side]))
        return times
    finally:
        for worker in workers:
            stop(worker)


def summary(times: dict) -> list:
    lines = []
    for side in ("before", "after"):
        q1, median, q3 = quartiles([wall for wall, _ in times[side]])
        cpu = statistics.median(cpu for _, cpu in times[side])
        lines.append(
            f"{side:>6}: median {median:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
            f"CPU median {cpu:.4f} s"
        )
    pairs = [(a[0], b[0]) for a, b in zip(times["after"], times["before"])]
    ratios = [a / b for a, b in pairs]
    wins = sum(a < b for a, b in pairs)
    lines.append(
        f"median paired ratio after/before {statistics.median(ratios):.3f}, "
        f"after faster in {wins} of {len(ratios)} rounds"
    )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("before", type=Path, help="the checkout timed as the base")
    ap.add_argument("after", type=Path, help="the checkout compared with it")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    times = pair_times(args.before, args.after, args.workload, args.seed, args.rounds)
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds")
    for line in summary(times):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
