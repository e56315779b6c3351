#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
that outputs pass their checks at the seed code, that a corrupted output CSV
is counted as a failed run, and that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))

TINY = bench.Sizes(bias_nodes=2000, bias_replicas=4, sweep_replicas=2, revival_nodes=400,
                   revival_replicas=1, estimate_nodes=2000, correction_replicas=3,
                   compare_replicas=8, compare_depth=2, setup_repeats=2, sigma_runs=16)
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_every_metric_emitted() -> None:
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    for workload in bench.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = bench.run_workload(workload, 3, 0, trace, TINY)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, lines)
            assert set(result["metrics"]) == names(kind), (workload, kind)
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (workload, name)
                assert metric["unit"] == next(m["unit"] for m in SPEC[kind] if m["name"] == name)
                if kind == "end_to_end":
                    assert metric["value"] > 0, (workload, name)
            if not trace:  # per-run wall times and fail_frac are reported with n
                for label in ("fail_frac", *(r.label for r in bench.make_plan(
                        workload, 3, bench.ROOT, TINY).runs)):
                    key = label if label == "fail_frac" else f"{label}_s"
                    assert any(ln.startswith(f"metric {key} ") and " n=" in ln for ln in lines), key


def test_corrupted_csv_counts_as_failed() -> None:
    real = bench.run_cli

    def corrupting(args, cwd):
        res = real(args, cwd)
        if args[0] == "curves":
            out = Path(args[args.index("--out") + 1])
            out.write_text("".join(out.read_text().splitlines(keepends=True)[:-1]))
        return res

    bench.run_cli = corrupting
    try:
        result, lines = bench.run_workload("revival", 3, 0, False, TINY)
    finally:
        bench.run_cli = real
    assert not result["correct"] and result["failed"] >= 1, lines
    assert any(ln.startswith("metric fail_frac ") and not ln.startswith("metric fail_frac 0 ")
               for ln in lines), lines


def test_refuses_without_sources() -> None:
    bare = bench.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "revival",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout


if __name__ == "__main__":
    for test in (test_refuses_without_sources, test_corrupted_csv_counts_as_failed,
                 test_every_metric_emitted):
        test()
        print(f"ok {test.__name__}")
