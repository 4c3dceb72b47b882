"""covlab benchmark: run one workload, check every report, print metrics.

    python3 bench/run.py --workload suite --seed 1 --seconds 30 --trace 0

The benchmark drives covlab from outside, through its public harness
functions: it builds the workload's ExperimentConfigs from ``--seed``
(see workloads.py), then runs passes of ``run_experiment`` followed by
``emit_report(..., None, "csv")`` for every config, one process and one
thread, each pass after the previous one (a closed loop).

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``, the
median over fresh interpreters, timed between the passes, of importing
``covlab.cli`` and building the configs; ``wall_s``, the median wall time of one pass; and
``peak_rss_mb``, the peak resident set of this process through its
first pass (a user runs a workload once per process; later passes only
add heap fragmentation, which differs from process to process).  With
``--trace 1`` it first times untraced passes, then installs the span
wrappers of spans.py and reports the per-layer metrics of the median
traced pass.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the run
metadata and the full result go to ``.bench_out/`` in the checkout.

An experiment counts as failed when its report has an error, a failing
gated row or a non-finite value (gate.py); the exit status is 1 when
any experiment failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The thread pool of run_suite is slower than serial and defaults to
# more workers than a two-core machine has; pin every pool to one thread.
THREAD_VARS = {
    "COVLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SHARE = 0.1  # of the pass time, spent timing set-up in between
SETUP_TIMEOUT = 120  # seconds, for one interpreter
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run

SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import covlab.cli
import workloads
workloads.configs(sys.argv[3], int(sys.argv[4]))
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=_nonnegative, default=0)
    parser.add_argument("--seconds", type=_positive, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision(root: Path):
    """The checkout's commit from .git, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# measurement


def setup_command(workload: str, seed: int) -> list:
    """A fresh interpreter that imports covlab.cli and builds the
    workload's configs."""
    return [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(seed)]


def time_setup(cmd) -> float:
    """Wall time of one run of cmd, from start to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in sleeps of up to 50 ms, which would
    # round the time up to the next sleep; without one it blocks in
    # waitpid, and a watchdog thread enforces the limit
    watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
    watchdog.start()
    returncode = proc.wait()
    elapsed = time.perf_counter() - t0
    watchdog.cancel()
    watchdog.join()
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd)
    return elapsed


def one_pass(harness, configs) -> list:
    """Run and render every experiment once; (report, csv text) pairs."""
    out = []
    for cfg in configs:
        report = harness.run_experiment(cfg)
        out.append((report, harness.emit_report(report, None, "csv")))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(harness, configs, budget: float, recorder=None, between=None):
    """Passes until the next one would end after ``budget`` seconds from
    now; at least one.  ``between(walls)`` is called after each pass.
    Returns the wall and CPU time of each pass, the results of every
    pass and the peak resident set after the first."""
    walls, cpus, results = [], [], []
    first_peak = None
    deadline = time.perf_counter() + budget
    while True:
        c0 = time.process_time()
        t0 = time.perf_counter()
        if recorder is None:
            results.append(one_pass(harness, configs))
        else:
            with recorder.traced_pass():
                results.append(one_pass(harness, configs))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if first_peak is None:
            first_peak = peak_rss_mb()
        if between is not None:
            between(walls)
        if time.perf_counter() + statistics.median(walls) > deadline:
            return walls, cpus, results, first_peak


def check(results) -> tuple:
    """(attempted, failures, worst gate ratio) over every report of every
    pass; a report whose CSV does not have one line per row also fails."""
    failures = []
    attempted = 0
    for pass_no, pass_results in enumerate(results):
        for report, text in pass_results:
            attempted += 1
            lines = 1 + len(report.rows) + len(report.errors)
            if gate.experiment_failed(report) or text.count("\n") != lines:
                cfg = report.config
                failures.append(
                    {
                        "pass": pass_no,
                        "experiment": f"{cfg.theory}/{cfg.experiment}",
                        "errors": list(report.errors),
                        "rows": [
                            [r.metric, r.value, r.tolerance]
                            for r in report.rows
                            if r.passed is False or not math.isfinite(r.value)
                        ],
                    }
                )
    worst = gate.worst_gate_ratio(report for pass_results in results for report, _ in pass_results)
    return attempted, failures, worst


def median_index(values) -> int:
    """Index of the lower median of values."""
    return sorted(range(len(values)), key=values.__getitem__)[(len(values) - 1) // 2]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    if not (SRC / "covlab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no covlab sources at {SRC}; run from a full checkout\n")
        return 2
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    import numpy as np

    import covlab
    import spans
    import workloads
    from covlab import harness

    if Path(covlab.__file__).resolve().parent != SRC / "covlab":
        sys.stderr.write(f"bench: imported covlab from {covlab.__file__}, not {SRC}\n")
        return 2

    args = parse_args(argv, workloads.NAMES)
    configs = workloads.configs(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "covlab_version": covlab.__version__,
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "threads": THREAD_VARS,
        "pinned_seeds": {
            experiment: f"seed {workloads.ACCEPTANCE_SEED}: {why}"
            for (workload, experiment), why in workloads.PINNED.items()
            if workload == args.workload
        },
        "configs": [dataclasses.asdict(cfg) for cfg in configs],
    }

    if args.trace == 0:
        cmd = setup_command(args.workload, args.seed)
        time_setup(cmd)  # warm-up, which compiles bytecode; not counted
        setup = []

        def time_setups(walls):
            # interleaved with the passes, so that set-up is timed over
            # the same stretch of the machine's load as the passes are
            while sum(setup) < SETUP_SHARE * sum(walls):
                setup.append(time_setup(cmd))

        walls, cpus, results, first_peak = run_passes(
            harness, configs, args.seconds, between=time_setups
        )
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": first_peak,
        }
        units = END_TO_END_UNITS
        timings = {
            "setup_s": setup,
            "pass_wall_s": walls,
            "pass_cpu_s": cpus,
            "peak_rss_mb_after_all_passes": peak_rss_mb(),
        }
    else:
        plain_walls, _, plain_results, _ = run_passes(
            harness, configs, args.seconds * UNTRACED_SHARE
        )
        rec = spans.Recorder()
        remaining = args.seconds * (1 - UNTRACED_SHARE)
        with spans.installed(rec):
            walls, cpus, results, _ = run_passes(harness, configs, remaining, recorder=rec)
        chosen = median_index(walls)
        metrics = spans.pass_metrics(rec, chosen)
        metrics["harness.cpu_s"] = cpus[chosen]
        metrics["trace.overhead_s"] = walls[chosen] - statistics.median(plain_walls)
        results = plain_results + results
        units = {name: unit_of(name) for name in metrics}
        timings = {"untraced_pass_wall_s": plain_walls, "pass_wall_s": walls, "pass_cpu_s": cpus}
        rec.save(str(OUT_DIR / f"spans-{args.workload}.npz"))

    attempted, failures, worst = check(results)
    if args.trace == 1:
        metrics["harness.worst_gate_ratio"] = worst
        units["harness.worst_gate_ratio"] = unit_of("harness.worst_gate_ratio")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }

    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(
        json.dumps(
            {"meta": meta, "result": result, "timings": timings, "failures": failures},
            indent=2,
        )
        + "\n"
    )

    print(
        f"covlab bench: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}"
    )
    print(
        f"  covlab {meta['covlab_version']} rev {meta['git_revision'] or 'unknown'}, "
        f"python {meta['python']}, numpy {meta['numpy']}, {meta['cpu_count']} cpus, "
        f"threads pinned to 1; {len(configs)} experiments x {len(walls)} passes"
    )
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':36s} {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print(f"  {'worst_gate_ratio':36s} {worst:.6g}")
    print(f"  full result: {out_path.relative_to(ROOT)}")
    for failure in failures:
        sys.stderr.write(f"bench: failed: {json.dumps(failure)}\n")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
