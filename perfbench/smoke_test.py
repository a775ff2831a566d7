#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at the tiny `smoke` input size, untraced and traced, and
checks that each run exits 0, passes all its output checks and prints every
metric BENCHMARK.json declares. Then checks that the benchmark refuses to run
(non-zero exit, no result line) in a directory holding only BENCHMARK.json
and perfbench/.

    python3 perfbench/smoke_test.py      # from the checkout root
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

RUN = ["python3", "perfbench/run.py"]


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(RUN + ["--workload", w, "--seed", "1", "--seconds", "1",
                                         "--trace", str(trace), "--profile", "smoke"],
                                  capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            problem = None
            if proc.returncode != 0 or result is None:
                problem = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
            elif not result["correct"] or result["failed"] != 0:
                problem = f"{result['failed']} of {result['attempted']} checks failed"
            elif set(result["metrics"]) != expected[trace]:
                problem = f"metric names differ: {set(result['metrics']) ^ expected[trace]}"
            print(f"{w:<18} trace {trace}: {problem or 'ok'}")
            if problem:
                failures.append((w, trace))

    bare = Path(".bench_build/bare")
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", bare / "perfbench")
    proc = subprocess.run(RUN + ["--workload", "sweep_cliff", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"{'bare directory':<18}        : {'refused' if refused else 'NOT refused'}")
    shutil.rmtree(bare, ignore_errors=True)
    if not refused:
        failures.append(("bare", 0))

    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
