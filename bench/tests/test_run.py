import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args, cwd=ROOT, bench=BENCH_DIR):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_match_the_spec(trace, section):
    proc = run_bench("--workload", "brackets-wide", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    emitted = result["metrics"]
    for name, metric in emitted.items():
        assert NAME.fullmatch(name), name
        assert isinstance(metric["value"], (int, float))
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in emitted.items()} == spec


def test_every_spec_name_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(
        "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
        bench=tmp_path / "bench",
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
