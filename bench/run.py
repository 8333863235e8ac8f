#!/usr/bin/env python3
"""Campaign benchmark: time one workload, check its outputs, print metrics.

Usage (from the repository root):
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each repetition runs in a fresh single-threaded child process (bench/child.py),
one after the other, until the next one would end past --seconds; at least
MIN_CHILDREN children run. Every repetition of a run uses the same campaign
seeds, so its CSVs must be byte-identical to the first one's, whose CSVs are
checked in full (bench/checks.py). Every child also times a fixed probe
right after set-up and, when untraced, throughout its campaign calls
(bench/reference.py); its set-up and campaign times are divided by the
probes' slowdown (the campaign's to the power of the workload's
sensitivity), which takes out most of the shared host's drifting speed. With --trace 0 the last line of standard
output holds the medians of the scaled times and of the peak RSS. With
--trace 1 each repetition is a pair of an untraced and a traced child, in
alternating order, and the line holds the per-layer metrics. A record of the run, and the spans of its first traced
child, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from reference import PROBE_S  # noqa: E402
from workloads import WORKLOADS, Workload, config_text, master_seed  # noqa: E402

MIN_CHILDREN = 3
DEADLINE_S = 170.0  # a run must end within 180 s
OUT_DIR = ".bench_out"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="minimal trial counts, for bench/selfcheck.py")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


class Runner:
    """Launches repetitions of one workload and gathers what they report."""

    def __init__(self, root: Path, workload: Workload, seed: int, tiny: bool):
        self.root = root
        self.work = root / OUT_DIR / "work" / workload.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.sensitivity = workload.sensitivity
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.calls = []
        for i, call in enumerate(workload.calls):
            ini = self.work / f"call{i}.ini"
            ini.write_text(config_text(call))
            out = self.work / f"call{i}"
            trials = call.tiny_trials if tiny else call.trials
            self.calls.append({
                "config": str(ini), "out": out, "call": call, "trials": trials,
                "master_seed": master_seed(seed, i),
                "argv": [call.command, "--config", str(ini),
                         "--seed", str(master_seed(seed, i)),
                         "--out", str(out), "--trials", str(trials)],
            })

    def rep(self, trace: bool, spans: Path | None, timeout: float) -> dict:
        """One child process; returns its report plus set-up time, the scaled
        times and the CSVs."""
        job = {"calls": [{"config": c["config"], "argv": c["argv"]} for c in self.calls],
               "trace": trace, "spans": str(spans) if spans else None}
        for c in self.calls:
            (c["out"] / f"{c['call'].csv_name}.csv").unlink(missing_ok=True)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "timed out"}
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"child exit {proc.returncode}: {stderr.strip()[-2000:]}"}
        report = json.loads(lines[-1])
        report["setup_s"] = report["t_setup"] - t_spawn
        # a slowdown > 1: the processor ran slower than when PROBE_S was measured
        report["setup_slowdown"] = statistics.fmean(report["setup_probes"]) / PROBE_S
        report["scaled_setup_s"] = report["setup_s"] / report["setup_slowdown"]
        probes = report["campaign_probes"]
        report["net_campaign_s"] = report["campaign_s"] - report["probe_total_s"]
        report["slowdown"] = (statistics.fmean(probes) / PROBE_S if probes
                              else report["setup_slowdown"])
        report["scaled_campaign_s"] = (report["net_campaign_s"]
                                       / report["slowdown"] ** self.sensitivity)
        report["csv"] = []
        for c, code in zip(self.calls, report["exit_codes"]):
            path = c["out"] / f"{c['call'].csv_name}.csv"
            report["csv"].append(path.read_text() if code == 0 and path.is_file() else None)
        if any(code != 0 for code in report["exit_codes"]):
            report["stderr"] = stderr.strip()[-2000:]
        return report


def _full_checks(runner: Runner, workload: Workload, csvs: list, seed: int):
    """Checks on the first repetition's CSVs: one Verdict per call."""
    import checks
    from mmwia.config import load_config

    verdicts = []
    for i, (c, text) in enumerate(zip(runner.calls, csvs)):
        v = checks.Verdict()
        verdicts.append(v)
        if text is None:
            continue
        cfg = load_config(c["config"])
        table = checks.parse_csv(text, v)
        if table is None:
            continue
        v.check(len(table.rows) == c["call"].rows, None,
                f"{len(table.rows)} rows, expected {c['call'].rows}")
        if not checks.check_common(table, cfg, c["master_seed"], c["trials"], v):
            continue
        if workload.name == "pmiss-point":
            gammas = [_campaign_threshold(cfg, c["master_seed"], point, row["p_miss"])
                      for point, row in enumerate(table.rows)]
            checks.check_pmiss(table, cfg, c["trials"], gammas, v)
        elif workload.name == "cluster-sweep":
            checks.check_cluster(table, cfg, c["trials"],
                                 cfg.experiment.cluster_grid, v)
        elif workload.name == "p-los":
            reference = {}
            for n_sc in cfg.experiment.p_los_cluster_sizes:
                for p_blk in cfg.experiment.p_los_p_blk:
                    reference[(n_sc, p_blk)] = checks.p_los_reference(
                        cfg, n_sc, p_blk, (seed, 0x9105, i, n_sc))
            checks.check_p_los(table, c["trials"], reference, v)
    return verdicts


def _campaign_threshold(cfg, master: int, point: int, p_miss: float) -> float:
    """The threshold the campaign calibrates at one grid point, by a direct
    call of SimConfig.threshold with the campaign's arguments."""
    from mmwia.channel import noise_power
    return cfg.threshold(noise_power(cfg.link_params()), cfg.sequence(),
                         seed=np.random.SeedSequence((master, point, 0xCA1)),
                         target=p_miss)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "mmwia" / "__init__.py").is_file():
        print("bench: no src/mmwia here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    runner = Runner(root, workload, args.seed, args.tiny)
    spans_path = root / OUT_DIR / f"spans-{workload.name}.json"

    t_start = time.monotonic()
    plain, traced, errors = [], [], []
    while True:
        order = [False, True] if args.trace else [False]
        if len(plain) % 2:
            order.reverse()  # alternate which side of a traced pair runs first
        batch = {}
        for trace in order:
            spans = spans_path if trace and not traced else None
            batch[trace] = runner.rep(trace, spans,
                                      DEADLINE_S - (time.monotonic() - t_start))
        bad = [r["error"] for r in batch.values() if "error" in r]
        if bad:
            errors.extend(bad)
            break
        plain.append(batch[False])
        if args.trace:
            traced.append(batch[True])
        elapsed = time.monotonic() - t_start
        per_batch = elapsed / len(plain)
        enough = len(plain) + len(traced) >= MIN_CHILDREN
        if (enough and elapsed + per_batch > args.seconds
                or elapsed + per_batch > DEADLINE_S - 30.0):
            break
    if not plain:
        print("bench: no repetition completed: " + "; ".join(errors), file=sys.stderr)
        return 3

    reps = plain + traced
    verdicts = _full_checks(runner, workload, plain[0]["csv"], args.seed)
    problems = [p for v in verdicts for p in v.problems] + errors
    attempted = failed = 0
    for r in reps:
        for c, v, text, first in zip(runner.calls, verdicts, r["csv"], plain[0]["csv"]):
            attempted += c["call"].rows
            if text is None:
                failed += c["call"].rows
                continue
            if text != first:
                problems.append(f"{c['call'].command}: CSV differs between "
                                "repetitions of the same seed")
                failed += c["call"].rows
                continue
            failed += len(v.row_failures)
    row_failures = [m for v in verdicts for ms in v.row_failures.values() for m in ms]
    campaign_errors = sorted({r["stderr"] for r in reps if "stderr" in r})
    correct = not problems and not row_failures

    values = {}
    if args.trace:
        for m in wanted:
            if m["name"] == "trace.overhead_s":
                continue
            values[m["name"]] = statistics.median(r["metrics"][m["name"]] for r in traced)
        values["trace.overhead_s"] = (
            statistics.median(r["campaign_s"] for r in traced)
            - statistics.median(r["net_campaign_s"] for r in plain))
    else:
        values["campaign_s"] = statistics.median(r["scaled_campaign_s"] for r in plain)
        values["setup_s"] = statistics.median(r["scaled_setup_s"] for r in plain)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "time": time.time(),
        "git_sha": _git_sha(root), "numpy": np.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "runs": len(plain), "traced_runs": len(traced),
        "campaign_s": _summary([r["scaled_campaign_s"] for r in plain]),
        "setup_s": _summary([r["scaled_setup_s"] for r in plain]),
        "wall_campaign_s": _summary([r["net_campaign_s"] for r in plain]),
        "wall_setup_s": _summary([r["setup_s"] for r in plain]),
        "cpu_s": _summary([r["cpu_s"] for r in plain]),
        "slowdown": _summary([r["slowdown"] for r in plain]),
        "setup_slowdown": _summary([r["setup_slowdown"] for r in plain]),
        "probes": _summary([len(r["campaign_probes"]) for r in plain]),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in plain]),
        "attempted": attempted, "failed": failed, "correct": correct,
        "checks": sum(v.checks for v in verdicts), "problems": problems,
        "row_failures": row_failures, "campaign_errors": campaign_errors,
        "metrics": values,
    }
    if traced:
        record["traced_campaign_s"] = _summary([r["campaign_s"] for r in traced])
        record["layers"] = traced[0]["layers"]
    with open(root / OUT_DIR / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for msg in problems + row_failures + campaign_errors:
        print(f"bench: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
