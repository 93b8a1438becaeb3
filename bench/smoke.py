"""Smoke check of the benchmark at tiny sizes; takes about a minute.

    python3 bench/smoke.py

Checks that:
- every workload, untraced and traced, each in a fresh process, passes its
  output checks and emits exactly the metrics BENCHMARK.json names;
- a corrupted expected digest counts as a failed operation, not a pass;
- without the falab sources, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, root: Path = run.ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    return proc


def check_metrics(problems: list[str]) -> None:
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_tiny(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: outputs failed their checks: "
                                f"{proc.stderr[-500:]}")
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics {sorted(got.items())} != "
                                f"{sorted(wanted.items())}")
            if trace == 0 and any(m["value"] <= 0
                                  for m in result["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric reads <= 0")


def check_corrupted_digest(problems: list[str]) -> None:
    run.import_falab()
    import workloads

    workload = workloads.workloads(workloads.TINY)["levenshtein-scan"]
    result = run.measure(workload, 1, 0.2, expected={0: "0" * 64})
    if not any("differs from the expected" in f for f in result["failures"]):
        problems.append("a corrupted expected digest was not counted as a "
                        "failure")


def check_bare_directory(problems: list[str]) -> None:
    run.BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_tiny(run.WORKLOAD_NAMES[0], 0, bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-200:]!r}")


def main() -> int:
    problems: list[str] = []
    check_metrics(problems)
    check_corrupted_digest(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
