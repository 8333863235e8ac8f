"""The benchmark's workloads: which campaigns run, on what inputs, at what size.

A workload is one or more calls of the public command line entry point
(`mmwia.cli.main`), each with a config file the benchmark writes itself.
Every call reruns one campaign of the paper at a reduced trial count; the
master seed of each call comes from the benchmark's `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One `mmwia <command> --config <ini> --seed <n> --trials <n>` call."""

    command: str
    csv_name: str
    config: dict[str, dict[str, str]]
    trials: int
    tiny_trials: int
    rows: int  # grid points the call computes: one operation each


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # how far the campaign slows, on a log scale, per unit of probe slowdown
    # (bench/reference.py); fixed pieces of campaign work timed with the
    # probe sampler on for four minutes gave log-log slopes of 1.01 for a
    # p-los batch (Python per trial), 0.83 for protocol trials at 5 cells
    # and 0.63 for a miss-threshold calibration (batched FFTs), with
    # correlations of 0.97, 0.96 and 0.88
    sensitivity: float


WORKLOADS = {
    # criterion 3: P_miss = 0.01 for 4 and 8 UE beams, 3 cells, -14 dBm,
    # miss-mode threshold calibrated per grid point; protocol trials and
    # calibration take about half the time each
    "pmiss-point": Workload("pmiss-point", (
        Call("reduction-pmiss", "reduction_pmiss",
             {"experiment": {"pmiss_grid": "0.01", "n_tx_values": "4, 8"}},
             trials=150, tiny_trials=8, rows=2),
    ), sensitivity=0.8),
    # criterion 5: cluster sizes 1..9, one calibration for the whole sweep;
    # protocol trials take most of the time
    "cluster-sweep": Workload("cluster-sweep", (
        Call("time-cluster", "time_cluster",
             {"experiment": {"cluster_grid": "1, 3, 5, 7, 9"}},
             trials=100, tiny_trials=6, rows=5),
    ), sensitivity=0.8),
    # criteria 1 and 2: two separate campaigns, since the CLI sweeps the
    # product of sizes and blocking probabilities; Python per trial
    "p-los": Workload("p-los", (
        Call("p-los", "p_los",
             {"experiment": {"p_los_cluster_sizes": "12", "p_los_p_blk": "0.1"}},
             trials=500, tiny_trials=20, rows=1),
        Call("p-los", "p_los",
             {"experiment": {"p_los_cluster_sizes": "22", "p_los_p_blk": "0.5"}},
             trials=500, tiny_trials=20, rows=1),
    ), sensitivity=1.0),
}


def config_text(call: Call) -> str:
    lines = []
    for section, values in call.config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
    return "\n".join(lines) + "\n"


def master_seed(seed: int, call_index: int) -> int:
    """Campaign master seed for one call, fixed by the benchmark seed."""
    return 1000 * seed + call_index
