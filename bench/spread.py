"""Run-to-run spread of the end-to-end metrics, as the acceptance check
of a benchmark computes it.

    python3 bench/spread.py --seeds 10 [--workload suite ...]

Runs ``bench/run.py --trace 0`` once per seed (seeds 1..N) on each
workload (all of them, or those named by ``--workload``, which is for
a quick check of one workload while tuning), one run after another, and
for every end-to-end metric in BENCHMARK.json prints the median and the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.  A benchmark is steady when every spread is
below a third of its bound.  The values of every run and the summary
are written as JSON to ``.bench_out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out" / "spread.json"
META_KEYS = ("git_revision", "covlab_version", "python", "numpy", "cpu_count", "platform", "threads")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/spread.py")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            if "meta" not in summary:
                saved = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
                meta = json.loads(saved.read_text())["meta"]
                summary["meta"] = {k: meta[k] for k in META_KEYS}
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            metrics[metric["name"]] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": metric["bound"],
            }
            ok = spread < metric["bound"] / 3
            steady = steady and ok
            print(
                f"{workload:14s} {metric['name']:12s} median {median:.6g} {metric['unit']}"
                f"  spread {spread:.4f}  bound {metric['bound']}  {'ok' if ok else 'WIDE'}"
            )
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
