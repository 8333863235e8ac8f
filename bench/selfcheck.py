#!/usr/bin/env python3
"""Quick self-check of the benchmark itself (not part of the test suite).

Usage (from the repository root): python3 bench/selfcheck.py

For every workload in BENCHMARK.json it runs bench/run.py at tiny trial
counts, with and without tracing, and confirms that the result line has
exactly the expected keys and prints every metric BENCHMARK.json names,
with its unit, and no other. It then confirms that the correctness checks
ran and that they reject corrupted copies of the CSVs the run produced.
Last, it confirms that the benchmark fails without a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Takes about two minutes; prints one line per finding and exits 1 on any.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _run(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def _check_result(line: str, expected: list[dict]) -> list[str]:
    out = json.loads(line)
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(out)}")
    if not (isinstance(out["attempted"], int) and out["attempted"] >= 1
            and isinstance(out["failed"], int)):
        problems.append(f"attempted/failed {out['attempted']}/{out['failed']}")
    if out["correct"] is not True or out["failed"] != 0:
        problems.append(f"correct={out['correct']} failed={out['failed']}")
    names = {m["name"]: m["unit"] for m in expected}
    if set(out["metrics"]) != set(names):
        problems.append(f"metric names differ: {sorted(set(out['metrics']) ^ set(names))}")
    for name, m in out["metrics"].items():
        if m.get("unit") != names.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {names.get(name)!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


# the column each workload's checks recompute from the rest of its row
RECOMPUTED = {"pmiss-point": "p_er_pct", "cluster-sweep": "norm_ia_time",
              "p-los": "p_los"}


def _corrupt(text: str, column: str) -> list[tuple[str, str]]:
    """Copies of a CSV that a correct check must reject."""
    lines = text.splitlines()
    k = lines[1].split(",").index(column)

    def with_first_row(value: str) -> str:
        row = lines[2].split(",")
        row[k] = value
        return "\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n"

    scaled = repr(float(lines[2].split(",")[k]) * 1.5)
    return [("no stamp", "\n".join(lines[1:]) + "\n"),
            (f"NaN {column} in the first row", with_first_row("nan")),
            (f"{column} x1.5 in the first row", with_first_row(scaled))]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    findings = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(root, ["--workload", name, "--seed", str(SEED),
                               "--seconds", "1", "--trace", str(trace), "--tiny"])
            if proc.returncode != 0:
                findings.append(f"{name} trace={trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            findings += [f"{name} trace={trace}: {p}"
                         for p in _check_result(proc.stdout.strip().splitlines()[-1], spec[key])]
            record = json.loads(
                (root / run.OUT_DIR / "records.jsonl").read_text().splitlines()[-1])
            if record["checks"] < 1:
                findings.append(f"{name} trace={trace}: no correctness check ran")

        workload = WORKLOADS[name]
        runner = run.Runner(root, workload, SEED, tiny=True)
        csvs = [(c["out"] / f"{c['call'].csv_name}.csv").read_text() for c in runner.calls]
        for label, bad in _corrupt(csvs[0], RECOMPUTED[name]):
            verdict = run._full_checks(runner, workload, [bad] + csvs[1:], SEED)[0]
            if not (verdict.problems or verdict.row_failures):
                findings.append(f"{name}: checks accept a CSV with {label}")

    bare = root / run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    if proc.returncode == 0 or proc.stdout.strip():
        findings.append("a bare directory gave exit 0 or printed a result")
    shutil.rmtree(bare)

    for f in findings:
        print(f"FINDING: {f}")
    print(f"selfcheck: {len(findings)} finding(s) over {len(spec['workloads'])} workloads")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
